/**
 * @file
 * Fleet-scale serving sweep (DESIGN.md §15): a 4-shard fleet under
 * Zipfian hot-spot traffic over a multi-million-key space, exercising
 * the fleet controller — cross-shard fan-out/fan-in, live tenant
 * migration, and global backpressure — with golden verification on
 * every commit.
 *
 * Gated claims (bench::finish ok flag):
 *
 *  1. Availability holds fleet-wide: every scenario (hot-spot surge,
 *     hot-shard kill during the surge, fan-out under chaos) keeps
 *     completion availability >= 0.99 in every phase (classified by
 *     offered arrival).
 *  2. Correctness: golden mismatches == 0 everywhere — Zipf-keyed
 *     operands, migrated requests, transplants, and fan-out legs are
 *     all verified bit-for-bit against the host reference.
 *  3. Migration is live: the hot-spot scenario performs at least one
 *     migration, and the interactive tenant's p99.9 sojourn stays
 *     under the admission deadline while it happens.
 *  4. Backpressure is QoS-ordered: at the fleet budget, the weight-1
 *     tenant takes every global_queue_full shed; the hi-QoS tenant
 *     takes none.
 *  5. Conservation: served + shed == offered in every scenario (fan-out
 *     parents count once; legs roll up through the fan-in barrier).
 *
 * Every scenario is an independent simulated-time run seeded from its
 * key, so the result file is byte-identical at any thread count (§8).
 */

#include <string>
#include <vector>

#include "bench_util.hh"
#include "serve/shard_router.hh"
#include "sim/system.hh"
#include "workload/traffic_gen.hh"

namespace bench::serve_fleet {

namespace {

using namespace ccache;

constexpr unsigned kShards = 4;
constexpr unsigned kTenants = 4;
constexpr std::size_t kRequests = 7200;
constexpr double kLoadRpkc = 24.0;   ///< aggregate; ~6 rpkc per shard
constexpr Cycles kDeadline = 60000;
constexpr std::size_t kKeySpace = 2'000'000;   ///< Zipf ranks

/** Hot-spot surge window: t1's arrival rate multiplies 3x here, which
 *  saturates its home shard — the signal the detector migrates on. */
constexpr Cycles kSurgeStart = 30000;
constexpr Cycles kSurgeEnd = 130000;

struct Scenario
{
    std::string key;
    serve::FleetReport report;
    std::vector<unsigned> homeShard;
    std::vector<std::string> phaseNames;
    /** Availability floor, aggregate and per phase. The backpressure
     *  scenario is deliberately overloaded past the fleet budget —
     *  shedding is its correct behaviour, so its floor is lower. */
    double minAvailability = 0.99;
};

/** Zipf-keyed multi-tenant traffic; @p surgeTenant (if >= 0) gets a
 *  3x arrival surge over [kSurgeStart, kSurgeEnd) — the hot-spot
 *  signal. @p loadScale scales every tenant's rate (fan-out legs
 *  multiply dispatch work, so that scenario runs lighter). */
workload::TrafficParams
makeTraffic(std::uint64_t seed, int surgeTenant, double fanoutFraction,
            double loadScale)
{
    workload::TrafficParams traffic;
    traffic.totalRequests = kRequests;
    traffic.seed = seed;
    traffic.zipfKeys = kKeySpace;
    traffic.keyExponent = 0.99;
    for (unsigned i = 0; i < kTenants; ++i) {
        workload::TenantTraffic t;
        t.name = "t" + std::to_string(i);
        if (i == 0) {
            t.requestsPerKilocycle = 0.25 * kLoadRpkc * loadScale;
            t.minBytes = 256;
            t.maxBytes = 1024;
        } else {
            t.requestsPerKilocycle =
                0.75 * kLoadRpkc * loadScale / (kTenants - 1);
            t.minBytes = 1024;
            t.maxBytes = 8192;
            t.weightCmp = 0.5;
        }
        if (static_cast<int>(i) == surgeTenant) {
            t.phases.push_back({kSurgeStart, 3.0});
            t.phases.push_back({kSurgeEnd, 1.0});
        }
        t.fanoutFraction = fanoutFraction;
        t.fanoutLegs = 3;
        traffic.tenants.push_back(std::move(t));
    }
    return traffic;
}

serve::ServerParams
makeServe(const std::vector<unsigned> &weights)
{
    serve::ServerParams params;
    params.tenants.clear();
    for (unsigned i = 0; i < kTenants; ++i) {
        serve::TenantQos q;
        q.name = "t" + std::to_string(i);
        q.weight = weights[i];
        params.tenants.push_back(std::move(q));
    }
    return params;
}

serve::RouterParams
makeRouter(std::uint64_t seed, bool rebalance, std::size_t globalCap,
           const std::vector<Cycles> &phaseBounds)
{
    serve::RouterParams router;
    router.shards = kShards;
    router.admissionDeadline = kDeadline;
    router.shardTimeout = 20000;
    router.retry.seed = seed;
    router.hedgeAge = 2500;
    router.verifyGolden = true;
    router.patternSeed = seed;
    router.phaseBoundaries = phaseBounds;
    if (rebalance) {
        router.rebalancePeriod = 5000;
        router.hotspotRatio = 3.0;
        router.hotspotMinLoad = 12.0;
        router.migrationDrain = 20000;
        router.migrationCooldown = 60000;
    }
    router.globalQueueCap = globalCap;
    return router;
}

template <typename ChaosFor>
void
runScenario(Scenario &slot, const std::vector<unsigned> &weights,
            std::uint64_t seed, int surgeTenant, double fanoutFraction,
            double loadScale, bool rebalance, std::size_t globalCap,
            const std::vector<Cycles> &phaseBounds, ChaosFor &&chaosFor)
{
    serve::ShardRouter fleet(
        sim::SystemConfig{}, makeServe(weights),
        makeRouter(seed, rebalance, globalCap, phaseBounds));
    for (unsigned i = 0; i < kTenants; ++i)
        slot.homeShard.push_back(fleet.failoverOrder(i)[0]);
    serve::ChaosSchedule chaos = chaosFor(slot.homeShard);
    slot.report = fleet.run(generateTraffic(makeTraffic(
                                seed, surgeTenant, fanoutFraction,
                                loadScale)),
                            chaos);
}

serve::ChaosEvent
event(serve::ChaosKind kind, unsigned shard, Cycles start,
      Cycles duration, double magnitude = 4.0)
{
    serve::ChaosEvent ev;
    ev.kind = kind;
    ev.shard = shard;
    ev.start = start;
    ev.duration = duration;
    ev.magnitude = magnitude;
    return ev;
}

void
emitMetrics(bench::SweepContext &ctx, const Scenario &slot)
{
    const serve::FleetReport &r = slot.report;
    ctx.metric(slot.key + ".availability", r.availability);
    ctx.metric(slot.key + ".served", static_cast<double>(r.served));
    ctx.metric(slot.key + ".shed", static_cast<double>(r.shed));
    ctx.metric(slot.key + ".golden_mismatch",
               static_cast<double>(r.goldenMismatch));
    ctx.metric(slot.key + ".migrations",
               static_cast<double>(r.migrations));
    ctx.metric(slot.key + ".dual_dispatch",
               static_cast<double>(r.migrationDualDispatch));
    ctx.metric(slot.key + ".transplants",
               static_cast<double>(r.migrationTransplants));
    ctx.metric(slot.key + ".fanout_parents",
               static_cast<double>(r.fanoutParents));
    ctx.metric(slot.key + ".fanout_partial",
               static_cast<double>(r.fanoutPartial));
    ctx.metric(slot.key + ".global_evictions",
               static_cast<double>(r.globalEvictions));
    ctx.metric(slot.key + ".global_sheds",
               static_cast<double>(r.globalSheds));
    ctx.metric(slot.key + ".hi.p999_sojourn_cycles",
               static_cast<double>(r.tenants[0].p999SojournCycles));
    for (std::size_t p = 0; p < slot.phaseNames.size(); ++p) {
        ctx.metric(slot.key + ".phase." + slot.phaseNames[p] +
                       ".availability",
                   r.phases[p].availability);
    }
}

} // namespace

int
run(int, char **)
{
    bench::header(
        "Fleet controller: Zipf hot-spot traffic over a 4-shard fleet");
    bench::note("2M-key Zipf(0.99) space; every commit golden-verified; "
                "fan-out, migration and backpressure active");

    bench::ResultsWriter results("serve_fleet");
    bench::SweepRunner sweep(&results);

    // Zipf-keyed steady state: no chaos, no surge — the controller
    // must not misfire (no spurious migrations or sheds).
    Scenario zipf{"zipf_baseline", {}, {}, {}};
    sweep.add(zipf.key, [&zipf](bench::SweepContext &ctx) {
        runScenario(zipf, {4, 2, 2, 1}, ctx.seed(), -1, 0.0, 1.0, true,
                    0, {}, [](const std::vector<unsigned> &) {
                        return serve::ChaosSchedule{};
                    });
        emitMetrics(ctx, zipf);
    });

    // Hot-spot surge onto t1: the detector must migrate the tenant off
    // its saturated home and the hi-QoS tail must stay bounded.
    Scenario hotspot{"hotspot_migrate", {}, {},
                     {"pre_surge", "surge", "post_surge"}};
    sweep.add(hotspot.key, [&hotspot](bench::SweepContext &ctx) {
        runScenario(hotspot, {4, 2, 2, 1}, ctx.seed(), 1, 0.0, 1.0,
                    true, 0, {kSurgeStart, kSurgeEnd},
                    [](const std::vector<unsigned> &) {
                        return serve::ChaosSchedule{};
                    });
        emitMetrics(ctx, hotspot);
    });

    // Kill the surging tenant's home shard in the middle of the surge:
    // migration + failover + dual dispatch must hold availability
    // through the compound event. Runs at 0.9x load: the outage folds
    // four shards' worth of traffic onto three, and the survivors need
    // that headroom to absorb the rerouted surge within the deadline.
    Scenario kill{"kill_hotspot_recover", {}, {},
                  {"pre_kill", "outage", "recovery"}};
    sweep.add(kill.key, [&kill](bench::SweepContext &ctx) {
        runScenario(kill, {4, 2, 2, 1}, ctx.seed(), 1, 0.0, 0.9, true,
                    0, {60000, 105000},
                    [](const std::vector<unsigned> &home) {
                        serve::ChaosSchedule chaos;
                        chaos.events.push_back(
                            event(serve::ChaosKind::Crash, home[1],
                                  60000, 45000));
                        chaos.canonicalize();
                        return chaos;
                    });
        emitMetrics(ctx, kill);
    });

    // Fan-out under chaos: 20% of requests span 3 shards; a slow storm
    // hits one leg's shard. Legs retry/hedge independently; the barrier
    // must never commit a partial answer as a success.
    Scenario fanout{"fanout_chaos", {}, {},
                    {"pre_storm", "storm", "post_storm"}};
    sweep.add(fanout.key, [&fanout](bench::SweepContext &ctx) {
        runScenario(fanout, {4, 2, 2, 2}, ctx.seed(), -1, 0.2, 0.5,
                    false, 0, {10000, 110000},
                    [](const std::vector<unsigned> &home) {
                        serve::ChaosSchedule chaos;
                        chaos.events.push_back(
                            event(serve::ChaosKind::Slow, home[0], 10000,
                                  100000, 12.0));
                        chaos.canonicalize();
                        return chaos;
                    });
        emitMetrics(ctx, fanout);
    });

    // Global backpressure: a tight fleet-wide budget under the surge.
    // The weight-1 tenant absorbs every budget shed; hi-QoS loses none.
    Scenario budget{"global_backpressure", {}, {}, {}, 0.80};
    sweep.add(budget.key, [&budget](bench::SweepContext &ctx) {
        runScenario(budget, {4, 2, 2, 1}, ctx.seed(), 1, 0.0, 1.0,
                    false, 48, {},
                    [](const std::vector<unsigned> &) {
                        return serve::ChaosSchedule{};
                    });
        emitMetrics(ctx, budget);
    });

    sweep.run();

    bench::rule();
    std::printf("%-20s %12s %8s %8s %6s %6s %6s %6s %8s %14s\n",
                "scenario", "avail", "served", "shed", "migr", "dual",
                "fan", "part", "golden!=", "hi p99.9 (cy)");
    bench::rule();
    bool ok = true;
    const Scenario *all[] = {&zipf, &hotspot, &kill, &fanout, &budget};
    for (const Scenario *s : all) {
        const serve::FleetReport &r = s->report;
        std::printf("%-20s %12.4f %8llu %8llu %6llu %6llu %6llu %6llu "
                    "%8llu %14llu\n",
                    s->key.c_str(), r.availability,
                    static_cast<unsigned long long>(r.served),
                    static_cast<unsigned long long>(r.shed),
                    static_cast<unsigned long long>(r.migrations),
                    static_cast<unsigned long long>(
                        r.migrationDualDispatch),
                    static_cast<unsigned long long>(r.fanoutParents),
                    static_cast<unsigned long long>(r.fanoutPartial),
                    static_cast<unsigned long long>(r.goldenMismatch),
                    static_cast<unsigned long long>(
                        r.tenants[0].p999SojournCycles));

        // Claim 2: never wrong, in any scenario.
        if (r.goldenMismatch != 0) {
            std::fprintf(stderr, "FAIL: %llu golden mismatches in %s\n",
                         static_cast<unsigned long long>(
                             r.goldenMismatch),
                         s->key.c_str());
            ok = false;
        }
        // Claim 5: conservation, with fan-out parents counted once.
        if (r.served + r.shed != r.offered) {
            std::fprintf(stderr,
                         "FAIL: %s leaks requests "
                         "(served+shed != offered)\n",
                         s->key.c_str());
            ok = false;
        }
        // Claim 1: availability holds aggregate and per phase.
        if (r.availability < s->minAvailability) {
            std::fprintf(stderr, "FAIL: %s availability %.4f < %.2f\n",
                         s->key.c_str(), r.availability,
                         s->minAvailability);
            ok = false;
        }
        for (std::size_t p = 0; p < s->phaseNames.size(); ++p) {
            if (r.phases[p].availability < s->minAvailability) {
                std::fprintf(
                    stderr,
                    "FAIL: %s %s-phase availability %.4f < %.2f\n",
                    s->key.c_str(), s->phaseNames[p].c_str(),
                    r.phases[p].availability, s->minAvailability);
                ok = false;
            }
        }
    }

    bench::rule();
    std::printf("%-20s %-10s %12s %8s %8s %8s\n", "scenario", "phase",
                "avail", "offered", "served", "shed");
    for (const Scenario *s : all) {
        for (std::size_t p = 0; p < s->phaseNames.size(); ++p) {
            const serve::FleetReport::PhaseSummary &ph =
                s->report.phases[p];
            std::printf("%-20s %-10s %12.4f %8llu %8llu %8llu\n",
                        s->key.c_str(), s->phaseNames[p].c_str(),
                        ph.availability,
                        static_cast<unsigned long long>(ph.offered),
                        static_cast<unsigned long long>(ph.served),
                        static_cast<unsigned long long>(ph.shed));
        }
    }

    // Claim 3: the hot spot actually migrates, the controller does not
    // misfire at steady state, and the hi-QoS tail stays bounded
    // through the move.
    if (zipf.report.migrations != 0) {
        std::fprintf(stderr,
                     "FAIL: steady state triggered %llu migrations\n",
                     static_cast<unsigned long long>(
                         zipf.report.migrations));
        ok = false;
    }
    if (hotspot.report.migrations == 0) {
        std::fprintf(stderr,
                     "FAIL: hot-spot surge never migrated the tenant\n");
        ok = false;
    }
    if (hotspot.report.tenants[0].p999SojournCycles > kDeadline) {
        std::fprintf(stderr,
                     "FAIL: hi-QoS p99.9 sojourn %llu exceeds the "
                     "%llu-cycle deadline during migration\n",
                     static_cast<unsigned long long>(
                         hotspot.report.tenants[0].p999SojournCycles),
                     static_cast<unsigned long long>(kDeadline));
        ok = false;
    }

    // Fan-out must actually exercise the barrier.
    if (fanout.report.fanoutParents == 0) {
        std::fprintf(stderr, "FAIL: fanout scenario launched no "
                             "multi-shard requests\n");
        ok = false;
    }

    // Claim 4: budget sheds are strictly QoS-ordered.
    const serve::FleetReport &bu = budget.report;
    if (bu.globalEvictions + bu.globalSheds == 0) {
        std::fprintf(stderr, "FAIL: budget scenario never hit the "
                             "fleet-wide cap\n");
        ok = false;
    }
    if (bu.tenants[0].shed != 0) {
        std::fprintf(stderr,
                     "FAIL: backpressure shed hi-QoS traffic\n");
        ok = false;
    }
    if (bu.tenants[3].shed == 0) {
        std::fprintf(stderr, "FAIL: backpressure shed nothing from the "
                             "weight-1 tenant — QoS ordering untested\n");
        ok = false;
    }

    return bench::finish(results, sweep, ok);
}

} // namespace bench::serve_fleet
