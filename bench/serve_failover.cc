/**
 * @file
 * Fault-tolerant serving sweep (DESIGN.md §12): a 4-shard fleet under
 * deterministic chaos — shard crash + recovery, margin-fail (slow) and
 * stuck-at (partial) storms — with golden verification on every commit.
 *
 * Gated claims (bench::finish ok flag):
 *
 *  1. Failover holds availability: with one shard killed and recovered
 *     mid-run, completion availability stays >= 0.99 (retries +
 *     ring reroute + hedging absorb the outage) — reported and gated
 *     per phase (pre-kill / outage / recovery, classified by offered
 *     arrival), not as one aggregate that could hide an outage hole.
 *  2. Correctness under chaos: golden mismatches == 0 in every
 *     scenario — a degraded fleet may be slow, never wrong.
 *  3. QoS-aware brownout: when a shard is dark, the high-QoS tenant
 *     sheds nothing (it reroutes) while the low-QoS tenant homed there
 *     takes all the sheds.
 *  4. Tail containment: the interactive tenant's p99.9 sojourn stays
 *     below the admission deadline in every scenario.
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

namespace bench::serve_failover {

namespace {

using namespace ccache;

constexpr unsigned kShards = 4;
constexpr unsigned kTenants = 4;
constexpr std::size_t kRequests = 1600;
constexpr double kLoadRpkc = 2.0;
constexpr Cycles kDeadline = 60000;

struct Scenario
{
    std::string key;
    serve::FleetReport report;
    std::vector<unsigned> homeShard; ///< per-tenant home (ring order[0])
    std::vector<std::string> phaseNames; ///< labels for report.phases
};

workload::TrafficParams
makeTraffic(std::uint64_t seed)
{
    workload::TrafficParams traffic;
    traffic.totalRequests = kRequests;
    traffic.seed = seed;
    for (unsigned i = 0; i < kTenants; ++i) {
        workload::TenantTraffic t;
        t.name = "t" + std::to_string(i);
        if (i == 0) {
            t.requestsPerKilocycle = 0.25 * kLoadRpkc;
            t.minBytes = 256;
            t.maxBytes = 1024;
        } else {
            t.requestsPerKilocycle = 0.75 * kLoadRpkc / (kTenants - 1);
            t.minBytes = 1024;
            t.maxBytes = 8192;
            t.weightCmp = 0.5;
        }
        traffic.tenants.push_back(std::move(t));
    }
    return traffic;
}

serve::ServerParams
makeServe(const std::vector<unsigned> &weights)
{
    serve::ServerParams params;
    params.tenants.clear(); // drop the default singleton tenant
    for (unsigned i = 0; i < kTenants; ++i) {
        serve::TenantQos q;
        q.name = "t" + std::to_string(i);
        q.weight = weights[i];
        params.tenants.push_back(std::move(q));
    }
    return params;
}

serve::RouterParams
makeRouter(std::uint64_t seed)
{
    serve::RouterParams router;
    router.shards = kShards;
    router.admissionDeadline = kDeadline;
    router.shardTimeout = 20000;
    router.retry.seed = seed;
    router.hedgeAge = 2500;
    router.verifyGolden = true;
    router.patternSeed = seed;
    return router;
}

/** Run one scenario; @p chaosFor builds the schedule once the router
 *  (and thus every tenant's ring placement) is known. Scenarios with
 *  chaos report availability per phase (slot.phaseNames, split at
 *  @p phaseBounds) instead of one aggregate. */
template <typename ChaosFor>
void
runScenario(Scenario &slot, const std::vector<unsigned> &weights,
            std::uint64_t seed, const std::vector<Cycles> &phaseBounds,
            ChaosFor &&chaosFor)
{
    serve::RouterParams router = makeRouter(seed);
    router.phaseBoundaries = phaseBounds;
    serve::ShardRouter fleet(sim::SystemConfig{}, makeServe(weights),
                             router);
    for (unsigned i = 0; i < kTenants; ++i)
        slot.homeShard.push_back(fleet.failoverOrder(i)[0]);
    serve::ChaosSchedule chaos = chaosFor(slot.homeShard);
    slot.report = fleet.run(generateTraffic(makeTraffic(seed)), chaos);
}

serve::ChaosEvent
event(serve::ChaosKind kind, unsigned shard, Cycles start, Cycles duration,
      double magnitude = 4.0)
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
    ctx.metric(slot.key + ".retries", static_cast<double>(r.retries));
    ctx.metric(slot.key + ".reroutes", static_cast<double>(r.reroutes));
    ctx.metric(slot.key + ".hedges",
               static_cast<double>(r.hedgesLaunched));
    ctx.metric(slot.key + ".hedge_wins",
               static_cast<double>(r.hedgeWins));
    ctx.metric(slot.key + ".breaker_trips",
               static_cast<double>(r.breakerTrips));
    ctx.metric(slot.key + ".golden_mismatch",
               static_cast<double>(r.goldenMismatch));
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
    bench::header("Fault-tolerant serving: 4-shard fleet under chaos");
    bench::note("all scenarios golden-verified; availability counts only "
                "bit-exact completions");

    bench::ResultsWriter results("serve_failover");
    bench::SweepRunner sweep(&results);

    Scenario baseline{"baseline", {}, {}, {}};
    sweep.add(baseline.key, [&baseline](bench::SweepContext &ctx) {
        runScenario(baseline, {4, 2, 2, 2}, ctx.seed(), {},
                    [](const std::vector<unsigned> &) {
                        return serve::ChaosSchedule{};
                    });
        emitMetrics(ctx, baseline);
    });

    // One shard killed at 20k and recovered at 140k — the interactive
    // tenant's own home shard, the worst case for its tail.
    Scenario crash{"crash", {}, {}, {"pre_kill", "outage", "recovery"}};
    sweep.add(crash.key, [&crash](bench::SweepContext &ctx) {
        runScenario(crash, {4, 2, 2, 2}, ctx.seed(), {20000, 140000},
                    [](const std::vector<unsigned> &home) {
                        serve::ChaosSchedule chaos;
                        chaos.events.push_back(event(
                            serve::ChaosKind::Crash, home[0], 20000,
                            120000));
                        chaos.canonicalize();
                        return chaos;
                    });
        emitMetrics(ctx, crash);
    });

    // Margin-fail storm: every dual-row op re-executes often — the
    // shard stays correct but slow; hedging shields the hi tenant.
    Scenario slow{"slow", {}, {}, {"pre_storm", "storm", "post_storm"}};
    sweep.add(slow.key, [&slow](bench::SweepContext &ctx) {
        runScenario(slow, {4, 2, 2, 2}, ctx.seed(), {10000, 410000},
                    [](const std::vector<unsigned> &home) {
                        serve::ChaosSchedule chaos;
                        chaos.events.push_back(
                            event(serve::ChaosKind::Slow, home[0], 10000,
                                  400000, 20.0));
                        chaos.canonicalize();
                        return chaos;
                    });
        emitMetrics(ctx, slow);
    });

    // Stuck-at storm: sub-array bit damage the remapper absorbs.
    Scenario partial{"partial", {}, {},
                     {"pre_storm", "storm", "post_storm"}};
    sweep.add(partial.key, [&partial](bench::SweepContext &ctx) {
        runScenario(partial, {4, 2, 2, 2}, ctx.seed(), {10000, 410000},
                    [](const std::vector<unsigned> &home) {
                        serve::ChaosSchedule chaos;
                        chaos.events.push_back(
                            event(serve::ChaosKind::Partial, home[0],
                                  10000, 400000, 6.0));
                        chaos.canonicalize();
                        return chaos;
                    });
        emitMetrics(ctx, partial);
    });

    // Compound fault: crash one shard while another is in a storm.
    Scenario compound{"crash_slow", {}, {},
                      {"pre_kill", "outage", "recovery"}};
    sweep.add(compound.key, [&compound](bench::SweepContext &ctx) {
        runScenario(
            compound, {4, 2, 2, 2}, ctx.seed(), {20000, 140000},
            [](const std::vector<unsigned> &home) {
                serve::ChaosSchedule chaos;
                chaos.events.push_back(event(serve::ChaosKind::Crash,
                                             home[0], 20000, 120000));
                unsigned other = home[1] != home[0] ? home[1]
                                                    : (home[0] + 1) % kShards;
                chaos.events.push_back(event(serve::ChaosKind::Slow,
                                             other, 10000, 300000, 6.0));
                chaos.canonicalize();
                return chaos;
            });
        emitMetrics(ctx, compound);
    });

    // Brownout QoS split: t3 (weight 1) homed on the crashed shard by
    // construction — crash *t3's* home; t0 reroutes, t3 sheds.
    Scenario brownout{"brownout", {}, {},
                      {"pre_kill", "outage", "recovery"}};
    sweep.add(brownout.key, [&brownout](bench::SweepContext &ctx) {
        runScenario(brownout, {4, 2, 2, 1}, ctx.seed(), {20000, 180000},
                    [](const std::vector<unsigned> &home) {
                        serve::ChaosSchedule chaos;
                        chaos.events.push_back(event(
                            serve::ChaosKind::Crash, home[3], 20000,
                            160000));
                        chaos.canonicalize();
                        return chaos;
                    });
        emitMetrics(ctx, brownout);
    });

    sweep.run();

    bench::rule();
    std::printf("%-12s %12s %8s %8s %8s %8s %8s %10s %14s\n", "scenario",
                "avail", "served", "shed", "retries", "reroute", "hedges",
                "golden!=", "hi p99.9 (cy)");
    bench::rule();
    bool ok = true;
    const Scenario *all[] = {&baseline, &crash,    &slow,
                             &partial,  &compound, &brownout};
    for (const Scenario *s : all) {
        const serve::FleetReport &r = s->report;
        std::printf("%-12s %12.4f %8llu %8llu %8llu %8llu %8llu %10llu "
                    "%14llu\n",
                    s->key.c_str(), r.availability,
                    static_cast<unsigned long long>(r.served),
                    static_cast<unsigned long long>(r.shed),
                    static_cast<unsigned long long>(r.retries),
                    static_cast<unsigned long long>(r.reroutes),
                    static_cast<unsigned long long>(r.hedgesLaunched),
                    static_cast<unsigned long long>(r.goldenMismatch),
                    static_cast<unsigned long long>(
                        r.tenants[0].p999SojournCycles));

        // Claim 2: never wrong, in any scenario.
        if (r.goldenMismatch != 0) {
            std::fprintf(stderr, "FAIL: %llu golden mismatches in %s\n",
                         static_cast<unsigned long long>(r.goldenMismatch),
                         s->key.c_str());
            ok = false;
        }
        // Conservation: every offered request accounted exactly once.
        if (r.served + r.shed != r.offered) {
            std::fprintf(stderr, "FAIL: %s leaks requests "
                                 "(served+shed != offered)\n",
                         s->key.c_str());
            ok = false;
        }
        // Claim 4: interactive tail below the admission deadline.
        if (r.tenants[0].p999SojournCycles > kDeadline) {
            std::fprintf(stderr,
                         "FAIL: hi-QoS p99.9 sojourn %llu exceeds the "
                         "%llu-cycle deadline in %s\n",
                         static_cast<unsigned long long>(
                             r.tenants[0].p999SojournCycles),
                         static_cast<unsigned long long>(kDeadline),
                         s->key.c_str());
            ok = false;
        }
    }

    // Per-phase availability: the aggregate can hide an outage hole,
    // so report (and gate) each window separately.
    bench::rule();
    std::printf("%-12s %-10s %12s %8s %8s %8s\n", "scenario", "phase",
                "avail", "offered", "served", "shed");
    for (const Scenario *s : all) {
        for (std::size_t p = 0; p < s->phaseNames.size(); ++p) {
            const serve::FleetReport::PhaseSummary &ph =
                s->report.phases[p];
            std::printf("%-12s %-10s %12.4f %8llu %8llu %8llu\n",
                        s->key.c_str(), s->phaseNames[p].c_str(),
                        ph.availability,
                        static_cast<unsigned long long>(ph.offered),
                        static_cast<unsigned long long>(ph.served),
                        static_cast<unsigned long long>(ph.shed));
        }
    }

    // Claim 1: one shard killed + recovered keeps availability >= 0.99
    // in EVERY phase — pre-kill, through the outage, and in recovery.
    if (baseline.report.availability < 1.0) {
        std::fprintf(stderr, "FAIL: baseline shed traffic with no chaos\n");
        ok = false;
    }
    for (std::size_t p = 0; p < crash.phaseNames.size(); ++p) {
        if (crash.report.phases[p].availability < 0.99) {
            std::fprintf(
                stderr,
                "FAIL: crash %s-phase availability %.4f < 0.99\n",
                crash.phaseNames[p].c_str(),
                crash.report.phases[p].availability);
            ok = false;
        }
    }

    // Claim 3: brownout sheds strictly by QoS — the hi tenant loses
    // nothing while the weight-1 tenant homed on the dead shard sheds.
    const serve::FleetReport &bo = brownout.report;
    bench::rule();
    std::printf("brownout: t0 shed %llu (home shard %u), t3 shed %llu "
                "(home shard %u, crashed)\n",
                static_cast<unsigned long long>(bo.tenants[0].shed),
                brownout.homeShard[0],
                static_cast<unsigned long long>(bo.tenants[3].shed),
                brownout.homeShard[3]);
    if (bo.tenants[0].shed != 0) {
        std::fprintf(stderr, "FAIL: brownout shed hi-QoS traffic\n");
        ok = false;
    }
    if (bo.tenants[3].shed == 0) {
        std::fprintf(stderr, "FAIL: brownout shed no lo-QoS traffic — "
                             "QoS split untested\n");
        ok = false;
    }

    return bench::finish(results, sweep, ok);
}

} // namespace bench::serve_failover
