/**
 * @file
 * The repository benchmark: one seeded workload per invocation, timed
 * on the host, checked against a host-side reference, with every
 * simulated statistic asserted to repeat exactly across repetitions.
 *
 *   perfbench --workload serve_zipf|kernels_cc|kernels_base --seed N
 *             --seconds S --trace 0|1 [--size full|tiny]
 *             [--trace-out FILE]
 *   perfbench --check-serve-report [--seed N] [--size full|tiny]
 *
 * Each repetition ("rep") sets the workload up from scratch (System,
 * traffic or operands), runs its timed phase and verifies the outputs.
 * One untimed warm-up rep runs first; reps then repeat until --seconds
 * have passed. Set-up time is the median over the reps; rates are
 * total work over total timed time of the reps. With --trace 1, traced
 * and untraced reps alternate: the traced reps give per-layer self
 * times from spans around the benchmark's calls into the simulator
 * (spans.hh), and the paired difference is the tracing overhead. The last stdout line is one JSON object
 * {correct, attempted, failed, metrics}. README.md explains the output.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "serve/server.hh"
#include "sim/system.hh"
#include "spans.hh"
#include "workload/traffic_gen.hh"

namespace {

using namespace ccache;
using perfbench::Scope;
using perfbench::Tracer;

// ---------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------

enum class Workload { ServeZipf, KernelsCc, KernelsBase };

bool
parseWorkload(const std::string &s, Workload *out)
{
    if (s == "serve_zipf")
        *out = Workload::ServeZipf;
    else if (s == "kernels_cc")
        *out = Workload::KernelsCc;
    else if (s == "kernels_base")
        *out = Workload::KernelsBase;
    else
        return false;
    return true;
}

/** Input sizes. "tiny" exists for the benchmark's own tests. */
struct Sizes
{
    std::size_t requests;      ///< serve_zipf requests per rep
    std::size_t zipfKeys;      ///< Zipf ranks of the key space
    std::size_t regionBytes;   ///< kernels_*: bytes per operand region
};

Sizes
sizesFor(bool tiny)
{
    return tiny ? Sizes{600, 50'000, 64 << 10}
                : Sizes{80'000, 4'000'000, 2 << 20};
}

constexpr std::size_t kChunkBytes = 4096;   ///< bytes per kernel call

// serve_zipf: two tenants of open-loop Poisson traffic offering one
// shard's load of bench/serve_fleet (kLoadRpkc = 24 requests / 1000
// cycles over 4 shards), split 25/75 and shaped as its tenants are.
constexpr double kShardRpkc = 6.0;   ///< requests / 1000 cycles
constexpr double kInteractiveRpkc = 0.25 * kShardRpkc;
constexpr double kBulkRpkc = 0.75 * kShardRpkc;

workload::TrafficParams
serveTraffic(std::uint64_t seed, const Sizes &sz)
{
    workload::TrafficParams traffic;
    traffic.totalRequests = sz.requests;
    traffic.seed = seed;
    traffic.zipfKeys = sz.zipfKeys;
    traffic.keyExponent = 0.99;

    workload::TenantTraffic interactive;
    interactive.name = "interactive";
    interactive.requestsPerKilocycle = kInteractiveRpkc;
    interactive.minBytes = 256;
    interactive.maxBytes = 1024;

    workload::TenantTraffic bulk;
    bulk.name = "bulk";
    bulk.requestsPerKilocycle = kBulkRpkc;
    bulk.minBytes = 1024;
    bulk.maxBytes = 8192;
    bulk.weightCmp = 0.5;
    bulk.scatterFraction = 0.05;

    traffic.tenants = {interactive, bulk};
    return traffic;
}

serve::ServerParams
serveParams()
{
    serve::ServerParams params;
    params.tenants.clear();
    serve::TenantQos interactive;
    interactive.name = "interactive";
    interactive.weight = 2;
    serve::TenantQos bulk;
    bulk.name = "bulk";
    bulk.weight = 1;
    params.tenants = {interactive, bulk};
    return params;
}

// kernels_*: operand regions, page-offset aligned so CC ops can run in
// place; the working set (three regions + key) fits the 16 MB L3.
constexpr Addr kRegionA = 0x10000000;
constexpr Addr kRegionB = 0x20000000;
constexpr Addr kRegionD = 0x30000000;
constexpr Addr kKeyAddr = 0x40000000;

struct KernelCall
{
    sim::BulkKernel kernel;
    CoreId core;
    std::size_t offset;
    std::uint64_t expect;   ///< compare/search reference value
};

/** Seeded kernel inputs plus their host-side reference results. */
struct KernelInputs
{
    std::vector<std::uint8_t> a, b, d0, key;
    std::vector<KernelCall> calls;
    std::vector<std::uint8_t> dRef;   ///< region D after the stream
};

void
fillRandom(Rng &rng, std::vector<std::uint8_t> &buf)
{
    for (std::size_t i = 0; i < buf.size(); i += 8) {
        std::uint64_t w = rng.next();
        std::memcpy(buf.data() + i, &w,
                    std::min<std::size_t>(8, buf.size() - i));
    }
}

KernelInputs
kernelInputs(std::uint64_t seed, const Sizes &sz, unsigned cores)
{
    const std::size_t n = sz.regionBytes;
    const std::size_t chunks = n / kChunkBytes;
    Rng rng(mix64(seed ^ 0x6b65726e656c73ULL));
    KernelInputs in;
    in.a.resize(n);
    in.d0.resize(n);
    in.key.resize(kBlockSize);
    fillRandom(rng, in.a);
    fillRandom(rng, in.d0);
    fillRandom(rng, in.key);
    // Plant the search key into about one block in eight of A.
    for (std::size_t blk = 0; blk < n / kBlockSize; ++blk) {
        if (rng.below(8) == 0)
            std::memcpy(in.a.data() + blk * kBlockSize, in.key.data(),
                        kBlockSize);
    }
    // B equals A except for one flipped word in about half the chunks.
    in.b = in.a;
    for (std::size_t c = 0; c < chunks; ++c) {
        if (rng.below(2) == 0) {
            std::size_t word = c * kChunkBytes / 8 + rng.below(kChunkBytes / 8);
            in.b[word * 8] ^= 0x5a;
        }
    }

    // The call stream: kernels in fixed rotation, the issuing core
    // rotating from call to call, chunks drawn at random.
    const sim::BulkKernel order[] = {
        sim::BulkKernel::Copy, sim::BulkKernel::Compare,
        sim::BulkKernel::Search, sim::BulkKernel::LogicalOr};
    in.dRef = in.d0;
    for (std::size_t j = 0; j < 4 * chunks; ++j) {
        KernelCall call;
        call.kernel = order[j % 4];
        call.core = static_cast<CoreId>((j + j / 4) % cores);
        call.offset = rng.below(chunks) * kChunkBytes;
        call.expect = 0;
        const std::uint8_t *a = in.a.data() + call.offset;
        const std::uint8_t *b = in.b.data() + call.offset;
        std::uint8_t *d = in.dRef.data() + call.offset;
        switch (call.kernel) {
          case sim::BulkKernel::Copy:
            std::memcpy(d, a, kChunkBytes);
            break;
          case sim::BulkKernel::LogicalOr:
            for (std::size_t i = 0; i < kChunkBytes; ++i)
                d[i] = a[i] | b[i];
            break;
          case sim::BulkKernel::Compare:
            call.expect = std::memcmp(a, b, kChunkBytes) == 0 ? 1 : 0;
            break;
          case sim::BulkKernel::Search:
            for (std::size_t blk = 0; blk < kChunkBytes / kBlockSize; ++blk)
                call.expect += std::memcmp(a + blk * kBlockSize,
                                           in.key.data(), kBlockSize) == 0;
            break;
        }
        in.calls.push_back(call);
    }
    return in;
}

// ---------------------------------------------------------------------
// One repetition
// ---------------------------------------------------------------------

/** Everything a rep measures. Host values vary; the rest must repeat. */
struct Rep
{
    // Host time.
    double setupS = 0.0;
    double timedS = 0.0;
    std::int64_t wallNs = 0;
    std::map<std::string, std::int64_t> selfNs;   ///< traced reps only
    std::vector<double> callUs;    ///< engine-call spans (traced)
    std::vector<double> waveUs;    ///< dispatch spans (traced)

    // Work and correctness.
    std::uint64_t blockOps = 0;
    std::uint64_t requests = 0;    ///< verified requests / engine calls
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string error;

    // Simulated, deterministic.
    Cycles simCycles = 0;
    double energyUj = 0.0;
    std::uint64_t sojournP50 = 0;
    std::uint64_t sojournP99 = 0;
    double servedRatio = 0.0;
    std::map<std::string, double> counts;   ///< per-layer counts
    std::string fingerprint;
};

template <typename T>
T
nearestRank(std::vector<T> v, double q)
{
    if (v.empty())
        return T{};
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/** Add the simulated counts of the finished rep, read off @p sys, to
 *  the workload's own counts, and fingerprint everything simulated. */
void
collectSim(sim::System &sys, Rep &rep)
{
    const StatRegistry &st = sys.stats();
    const energy::EnergyBreakdown dyn = sys.energy().dynamic();
    const energy::EnergyTotals tot = sys.totals();
    rep.energyUj = tot.total() / 1e6;

    auto v = [&](const char *name) {
        return static_cast<double>(st.value(name));
    };
    const double block_ops = v("cc.block_ops");
    rep.counts.insert({
        {"cc.instructions", v("cc.instructions")},
        {"cc.block_ops", block_ops},
        {"cc.in_place_ratio",
         block_ops > 0 ? v("cc.in_place_ops") / block_ops : 0.0},
        {"cc.near_place_ops", v("cc.near_place_ops")},
        {"cc.risc_fallbacks", v("cc.risc_fallbacks")},
        {"cc.operand_refetches", v("cc.operand_refetches")},
        {"cc.lock_retries", v("cc.lock_retries")},
        {"hier.l1_hit_rate", st.formulaValue("hier.l1_hit_rate")},
        {"hier.l2_hit_rate", st.formulaValue("hier.l2_hit_rate")},
        {"hier.l3_hit_rate", st.formulaValue("hier.l3_hit_rate")},
        {"hier.mem_reads", v("hier.mem_reads")},
        {"hier.l3_writebacks", v("hier.l3_writebacks")},
        {"hier.sharer_invalidations", v("hier.sharer_invalidations")},
        {"hier.owner_writebacks", v("hier.owner_writebacks")},
        {"hier.upgrades", v("hier.upgrades")},
        {"noc.messages", v("noc.messages")},
        {"noc.flit_hops", v("noc.flit_hops")},
        {"energy.core_nj", dyn.core / 1e3},
        {"energy.cache_access_nj", dyn.cacheAccess() / 1e3},
        {"energy.cache_ic_nj", dyn.cacheIc() / 1e3},
        {"energy.noc_nj", dyn.noc / 1e3},
        {"energy.dram_nj", dyn.dram / 1e3},
        {"energy.static_nj", (tot.coreStatic + tot.uncoreStatic) / 1e3},
    });

    std::uint64_t l1_accesses = 0;
    for (unsigned c = 0; c < sys.hierarchy().cores(); ++c) {
        const std::string p = "l1." + std::to_string(c);
        l1_accesses += st.value(p + ".reads") + st.value(p + ".writes");
    }
    rep.counts["hier.l1_accesses"] = static_cast<double>(l1_accesses);

    char buf[160];
    std::snprintf(buf, sizeof buf, "|cycles=%llu|energy=%.17g|p50=%llu|"
                  "p99=%llu|served=%.17g",
                  static_cast<unsigned long long>(rep.simCycles),
                  rep.energyUj,
                  static_cast<unsigned long long>(rep.sojournP50),
                  static_cast<unsigned long long>(rep.sojournP99),
                  rep.servedRatio);
    rep.fingerprint += st.dumpJson().dump();
    rep.fingerprint += buf;
    for (const auto &[name, value] : rep.counts) {
        std::snprintf(buf, sizeof buf, "|%s=%.17g", name.c_str(), value);
        rep.fingerprint += buf;
    }
}

// --- serve_zipf ------------------------------------------------------

/** What the serve loop returns besides the server's own report. */
struct ServeRun
{
    serve::ServeReport report;
    std::vector<Cycles> sojourns;   ///< every served request, all tenants
    Cycles queueCycles = 0;         ///< their admission -> dispatch waits
    std::uint64_t waves = 0;
    std::uint64_t mismatches = 0;
};

/**
 * CcServer::run's admission / dispatch / completion loop, written out
 * so every call into the serving layer can carry a span, and every
 * served request can be golden-verified (@p verify, which also turns on
 * the seeded operand fill). With @p verify off it reproduces
 * CcServer::run's ServeReport and stats exactly (--check-serve-report).
 */
ServeRun
serveLoop(sim::System &sys, const serve::ServerParams &params,
          const std::vector<workload::RequestSpec> &specs, bool verify,
          std::uint64_t pattern_seed, Tracer &tr)
{
    geometry::LocalityAllocator alloc(params.heapBase, params.heapBytes);
    StatGroup sg = sys.stats().group("serve");
    serve::RequestQueue queue(params.queue, params.tenants, sg);
    serve::BatchScheduler sched(sys, queue, params.tenants, params.sched,
                                sg);
    struct TenantStats
    {
        StatCounter *served;
        StatLogHistogram *queueCycles;
        StatLogHistogram *serviceCycles;
        StatLogHistogram *sojournCycles;
    };
    std::vector<TenantStats> ts;
    for (const serve::TenantQos &t : params.tenants) {
        StatGroup g = sg.group(t.name);
        ts.push_back(TenantStats{
            &g.counter("served", "requests completed"),
            &g.logHistogram("queue_cycles",
                            "admission -> dispatch wait per request"),
            &g.logHistogram("service_cycles",
                            "dispatch -> completion per request"),
            &g.logHistogram("sojourn_cycles",
                            "admission -> completion per request"),
        });
    }

    serve::RequestBuildParams build;
    build.warmL3 = params.warmL3;
    build.allocGroups = params.allocGroups;
    build.fillPattern = verify;

    ServeRun out;
    serve::ServeReport &report = out.report;
    report.offered = specs.size();
    std::size_t next = 0;
    serve::RequestId next_id = 0;
    Cycles now = 0;
    while (true) {
        while (next < specs.size() && specs[next].arrival <= now) {
            const workload::RequestSpec &spec = specs[next];
            const serve::RequestId id = next_id++;
            ++next;
            // Fold the Zipf content key into the operand pattern, as
            // the sharded router does.
            build.patternSeed = spec.key != 0
                ? mix64(pattern_seed ^ mix64(spec.key))
                : pattern_seed;
            serve::RejectReason why = serve::RejectReason::NoCapacity;
            std::optional<serve::Request> req;
            {
                Scope s(tr, "serve.build", id);
                req = serve::buildRequest(sys, alloc, build, spec, id, &why);
            }
            if (!req) {
                queue.recordShed(id, spec.tenant, why, spec.arrival);
                ++report.rejected;
                continue;
            }
            std::optional<serve::RejectReason> refused;
            {
                Scope s(tr, "serve.offer", id);
                refused = queue.offer(*req, now);
            }
            if (refused) {
                Scope s(tr, "serve.recycle", id);
                serve::recycleRequest(alloc, *req);
                ++report.rejected;
            } else {
                ++report.admitted;
            }
        }
        if (queue.empty()) {
            if (next == specs.size())
                break;
            now = specs[next].arrival;
            continue;
        }

        serve::BatchScheduler::Wave wave;
        int wave_span = -1;
        {
            Scope s(tr, "serve.dispatch");
            wave_span = s.index();
            wave = sched.dispatch(now);
        }
        if (wave_span >= 0) {
            std::vector<std::uint64_t> ids;
            for (const serve::Request &r : wave.requests)
                ids.push_back(r.id);
            tr.setMembers(wave_span, std::move(ids));
        }
        CC_ASSERT(!wave.requests.empty(), "dispatch made no progress");
        CC_ASSERT(wave.results.size() == wave.requests.size(),
                  "wave result/request mismatch");
        ++out.waves;
        for (std::size_t i = 0; i < wave.requests.size(); ++i) {
            const serve::Request &req = wave.requests[i];
            TenantStats &t = ts[req.tenant];
            const Cycles queue_wait = now - req.arrival;
            const Cycles service = wave.results[i].latency;
            t.served->inc();
            t.queueCycles->sample(queue_wait);
            t.serviceCycles->sample(service);
            t.sojournCycles->sample(queue_wait + service);
            out.sojourns.push_back(queue_wait + service);
            out.queueCycles += queue_wait;
            if (verify) {
                Scope s(tr, "serve.verify", req.id);
                if (!serve::goldenVerifyRequest(sys, req,
                                                wave.results[i].result))
                    ++out.mismatches;
            }
            {
                Scope s(tr, "serve.recycle", req.id);
                serve::recycleRequest(alloc, req);
            }
            ++report.served;
        }
        now += wave.makespan;
        sys.advance(0, wave.makespan);
    }

    // The report, assembled exactly as CcServer::run assembles it.
    report.elapsed = now;
    report.throughputRpmc = now
        ? static_cast<double>(report.served) * 1e6 /
              static_cast<double>(now)
        : 0.0;
    report.rejections = queue.rejectionsJson();
    const StatRegistry &reg = sys.stats();
    for (const serve::TenantQos &t : params.tenants) {
        const std::string &name = t.name;
        serve::ServeReport::TenantSummary s;
        s.name = name;
        s.admitted = reg.value("serve." + name + ".admitted");
        s.served = reg.value("serve." + name + ".served");
        s.rejected = reg.value("serve." + name + ".rejected");
        const StatLogHistogram *q =
            reg.logHistogramAt("serve." + name + ".queue_cycles");
        const StatLogHistogram *sv =
            reg.logHistogramAt("serve." + name + ".service_cycles");
        const StatLogHistogram *so =
            reg.logHistogramAt("serve." + name + ".sojourn_cycles");
        if (q) {
            s.p50QueueCycles = q->quantile(0.50);
            s.p99QueueCycles = q->quantile(0.99);
            s.p999QueueCycles = q->quantile(0.999);
        }
        if (sv) {
            s.p50ServiceCycles = sv->quantile(0.50);
            s.p99ServiceCycles = sv->quantile(0.99);
        }
        if (so)
            s.meanSojournCycles = so->mean();
        report.tenants.push_back(std::move(s));
    }
    return out;
}

void
serveRep(std::uint64_t seed, const Sizes &sz, Tracer &tr, Rep &rep)
{
    const serve::ServerParams params = serveParams();
    const std::int64_t t0 = perfbench::nowNs();
    std::unique_ptr<sim::System> sys;
    {
        Scope s(tr, "sim.init");
        sys = std::make_unique<sim::System>();
    }
    std::vector<workload::RequestSpec> specs;
    {
        Scope s(tr, "workload.gen");
        specs = workload::generateTraffic(serveTraffic(seed, sz));
    }
    const std::int64_t t1 = perfbench::nowNs();
    ServeRun run = serveLoop(*sys, params, specs, true, seed, tr);
    const std::int64_t t2 = perfbench::nowNs();

    rep.setupS = static_cast<double>(t1 - t0) / 1e9;
    rep.timedS = static_cast<double>(t2 - t1) / 1e9;
    rep.attempted = run.report.offered;
    rep.failed = run.mismatches;
    rep.requests = run.report.served - run.mismatches;
    rep.blockOps = sys->stats().value("cc.block_ops");
    // Makespan including idle gaps between arrivals (System::elapsed
    // advances only by wave makespans).
    rep.simCycles = run.report.elapsed;
    rep.sojournP50 = nearestRank(run.sojourns, 0.50);
    rep.sojournP99 = nearestRank(run.sojourns, 0.99);
    rep.servedRatio = static_cast<double>(run.report.served) /
        static_cast<double>(run.report.offered);
    rep.counts = {
        {"sim.engine_calls", 0.0},
        {"serve.waves", static_cast<double>(run.waves)},
        {"serve.requests_per_wave",
         run.waves ? static_cast<double>(run.report.served) /
                 static_cast<double>(run.waves)
                   : 0.0},
        {"serve.rejected", static_cast<double>(run.report.rejected)},
        {"serve.queue_share",
         static_cast<double>(run.queueCycles) /
             static_cast<double>(std::max<Cycles>(
                 1, std::accumulate(run.sojourns.begin(), run.sojourns.end(),
                                    Cycles{0})))},
    };
    collectSim(*sys, rep);
    rep.fingerprint += run.report.toJson().dump();
}

// --- kernels_cc / kernels_base -----------------------------------------

void
kernelsRep(const KernelInputs &in, bool use_cc, Tracer &tr, Rep &rep)
{
    const std::size_t n = in.a.size();
    const std::int64_t t0 = perfbench::nowNs();
    std::unique_ptr<sim::System> sys;
    {
        Scope s(tr, "sim.init");
        sys = std::make_unique<sim::System>();
    }
    {
        Scope s(tr, "sim.load");
        sys->load(kRegionA, in.a.data(), n);
        sys->load(kRegionB, in.b.data(), n);
        sys->load(kRegionD, in.d0.data(), n);
        sys->load(kKeyAddr, in.key.data(), in.key.size());
    }
    {
        // The first touch pins a page to the touching core's L3 slice
        // (Section IV-C). Warming everything from one core would put the
        // whole working set in one 2 MB slice, so each window of
        // consecutive pages that covers all of a slice's sets is warmed
        // from the next core: the regions spread over every slice and
        // use every set of it.
        Scope s(tr, "sim.warm");
        const cache::HierarchyParams &hp = sys->hierarchy().params();
        const std::size_t window =
            hp.l3.geometry.sizeBytes / hp.l3.geometry.ways;
        for (std::size_t off = 0; off < n; off += kChunkBytes) {
            const CoreId home =
                static_cast<CoreId>(off / window % hp.cores);
            for (Addr base : {kRegionA, kRegionB, kRegionD})
                sys->warm(CacheLevel::L3, home, base + off, kChunkBytes);
        }
        sys->warm(CacheLevel::L3, 0, kKeyAddr, in.key.size());
    }
    sys->resetMetrics();
    const std::int64_t t1 = perfbench::nowNs();

    std::vector<Cycles> latencies;
    latencies.reserve(in.calls.size());
    for (const KernelCall &call : in.calls) {
        const Addr a = kRegionA + call.offset;
        const Addr b = call.kernel == sim::BulkKernel::Search
            ? kKeyAddr
            : kRegionB + call.offset;
        const Addr d = kRegionD + call.offset;
        sim::KernelResult r;
        {
            Scope s(tr, "sim.engine");
            r = use_cc ? sys->ccEngine().run(call.kernel, call.core, a, b,
                                             d, kChunkBytes)
                       : sys->simd32().run(call.kernel, call.core, a, b, d,
                                           kChunkBytes);
        }
        sys->advance(call.core, r.cycles);
        latencies.push_back(r.cycles);
        rep.blockOps += r.blockOps;
        const bool checked = call.kernel == sim::BulkKernel::Compare ||
            call.kernel == sim::BulkKernel::Search;
        if (checked && r.value != call.expect)
            ++rep.failed;
    }
    const std::int64_t t2 = perfbench::nowNs();

    std::vector<std::uint8_t> got;
    {
        Scope s(tr, "sim.dump");
        got = sys->dump(kRegionD, n);
    }
    for (std::size_t off = 0; off < n; off += kChunkBytes) {
        if (std::memcmp(got.data() + off, in.dRef.data() + off,
                        kChunkBytes) != 0)
            ++rep.failed;
    }

    rep.setupS = static_cast<double>(t1 - t0) / 1e9;
    rep.timedS = static_cast<double>(t2 - t1) / 1e9;
    rep.attempted = in.calls.size();
    rep.requests = in.calls.size();
    rep.simCycles = sys->elapsed();
    rep.sojournP50 = nearestRank(latencies, 0.50);
    rep.sojournP99 = nearestRank(latencies, 0.99);
    rep.servedRatio = 1.0;
    rep.counts = {
        {"sim.engine_calls", static_cast<double>(in.calls.size())},
        {"serve.waves", 0.0},
        {"serve.requests_per_wave", 0.0},
        {"serve.rejected", 0.0},
        {"serve.queue_share", 0.0},
    };
    collectSim(*sys, rep);
}

// ---------------------------------------------------------------------
// Command line and main
// ---------------------------------------------------------------------

struct Options
{
    Workload workload = Workload::ServeZipf;
    std::string workloadName;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    bool checkServeReport = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload serve_zipf|kernels_cc|"
                 "kernels_base --seed N --seconds S --trace 0|1\n"
                 "                 [--size full|tiny] [--trace-out FILE]\n"
                 "       perfbench --check-serve-report [--seed N] "
                 "[--size full|tiny]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            o.workloadName = value();
            if (!parseWorkload(o.workloadName, &o.workload))
                usage(("unknown workload " + o.workloadName).c_str());
            have_workload = true;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value().c_str(), nullptr, 0);
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(value().c_str(), nullptr);
            if (!(o.seconds > 0.0 && o.seconds <= 60.0))
                usage("--seconds must be in (0, 60]");
        } else if (arg == "--trace") {
            std::string t = value();
            if (t != "0" && t != "1")
                usage("--trace takes 0 or 1");
            o.trace = t == "1";
        } else if (arg == "--size") {
            std::string s = value();
            if (s != "full" && s != "tiny")
                usage("--size takes full or tiny");
            o.tiny = s == "tiny";
        } else if (arg == "--trace-out") {
            o.traceOut = value();
        } else if (arg == "--check-serve-report") {
            o.checkServeReport = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (!have_workload && !o.checkServeReport)
        usage("--workload is required");
    return o;
}

/** With pattern fill off, the benchmark's serve loop must reproduce
 *  CcServer::run on the same specs: same report, same stats. */
int
checkServeReport(const Options &opt)
{
    const Sizes sz = sizesFor(opt.tiny);
    const serve::ServerParams params = serveParams();
    const std::vector<workload::RequestSpec> specs =
        workload::generateTraffic(serveTraffic(opt.seed, sz));

    sim::System ref_sys;
    serve::CcServer server(ref_sys, params);
    const serve::ServeReport ref = server.run(specs);

    sim::System sys;
    Tracer off;
    const ServeRun run = serveLoop(sys, params, specs, false, 0, off);

    const bool report_ok = ref.toJson().dump() == run.report.toJson().dump();
    const bool stats_ok =
        ref_sys.stats().dumpJson().dump() == sys.stats().dumpJson().dump();
    std::printf("serve loop vs CcServer::run on %zu specs: report %s, "
                "stats %s (served %llu, elapsed %llu cycles)\n",
                specs.size(), report_ok ? "identical" : "DIFFERENT",
                stats_ok ? "identical" : "DIFFERENT",
                static_cast<unsigned long long>(ref.served),
                static_cast<unsigned long long>(ref.elapsed));
    return report_ok && stats_ok ? 0 : 1;
}

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux
}

/**
 * Rates are total work over total timed seconds of all reps, not a
 * median of per-rep rates: the host switches between a slow state and
 * bursts ~1.6x faster, so per-rep rates are bimodal and their median
 * jumps between the two modes from run to run.
 */
std::vector<Metric>
endToEnd(const Rep &ref, const std::vector<Rep> &reps)
{
    std::vector<double> setup;
    double blocks = 0.0, requests = 0.0, timed = 0.0;
    for (const Rep &r : reps) {
        setup.push_back(r.setupS);
        blocks += static_cast<double>(r.blockOps);
        requests += static_cast<double>(r.requests);
        timed += r.timedS;
    }
    return {
        {"setup_s", "s", median(setup)},
        {"blocks_per_s", "1/s", blocks / timed},
        {"requests_per_s", "1/s", requests / timed},
        {"peak_rss_mb", "MB", peakRssMb()},
        {"sim_cycles", "cycles", static_cast<double>(ref.simCycles)},
        {"sim_energy_uj", "uJ", ref.energyUj},
        {"sim_sojourn_p50_cycles", "cycles",
         static_cast<double>(ref.sojournP50)},
        {"sim_sojourn_p99_cycles", "cycles",
         static_cast<double>(ref.sojournP99)},
        {"sim_served_ratio", "ratio", ref.servedRatio},
    };
}

std::vector<Metric>
perLayer(const Rep &ref, const std::vector<Rep> &traced,
         const std::vector<double> &overheadS)
{
    // Self times: mean over the traced reps, so that they still sum to
    // the mean traced wall time exactly.
    std::map<std::string, double> self;
    double wall = 0.0;
    std::vector<double> call_us, wave_us;
    for (const Rep &r : traced) {
        for (const auto &[name, ns] : r.selfNs)
            self[name] += static_cast<double>(ns) / 1e9;
        wall += static_cast<double>(r.wallNs) / 1e9;
        call_us.insert(call_us.end(), r.callUs.begin(), r.callUs.end());
        wave_us.insert(wave_us.end(), r.waveUs.begin(), r.waveUs.end());
    }
    const double k =
        static_cast<double>(std::max<std::size_t>(1, traced.size()));
    for (auto &[name, s] : self)
        s /= k;
    wall /= k;
    auto layer = [&](const char *name) {
        auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    auto count = [&](const char *name) {
        auto it = ref.counts.find(name);
        return it == ref.counts.end() ? 0.0 : it->second;
    };

    // Host time of the layer that drives the modelled machine: the
    // engine calls (kernels) or the scheduler's dispatch (serve).
    const double drive_s = layer("sim.engine") + layer("serve.dispatch");
    const double block_ops = count("cc.block_ops");
    const double l1_accesses = count("hier.l1_accesses");

    std::vector<Metric> m = {
        {"workload.gen_s", "s", layer("workload.gen")},
        {"sim.init_s", "s", layer("sim.init")},
        {"sim.load_s", "s", layer("sim.load")},
        {"sim.warm_s", "s", layer("sim.warm")},
        {"sim.dump_s", "s", layer("sim.dump")},
        {"sim.engine_s", "s", layer("sim.engine")},
        {"sim.engine_calls", "count", count("sim.engine_calls")},
        {"sim.call_us_p50", "us", nearestRank(call_us, 0.50)},
        {"sim.call_us_p99", "us", nearestRank(call_us, 0.99)},
        {"sim.call_samples", "count", static_cast<double>(call_us.size())},
        {"serve.build_s", "s", layer("serve.build")},
        {"serve.offer_s", "s", layer("serve.offer")},
        {"serve.dispatch_s", "s", layer("serve.dispatch")},
        {"serve.verify_s", "s", layer("serve.verify")},
        {"serve.recycle_s", "s", layer("serve.recycle")},
        {"serve.waves", "count", count("serve.waves")},
        {"serve.requests_per_wave", "ratio",
         count("serve.requests_per_wave")},
        {"serve.wave_us_p50", "us", nearestRank(wave_us, 0.50)},
        {"serve.wave_us_p99", "us", nearestRank(wave_us, 0.99)},
        {"serve.wave_samples", "count", static_cast<double>(wave_us.size())},
        {"serve.rejected", "count", count("serve.rejected")},
        {"serve.queue_share", "ratio", count("serve.queue_share")},
    };
    for (const char *name :
         {"cc.instructions", "cc.block_ops", "cc.in_place_ratio",
          "cc.near_place_ops", "cc.risc_fallbacks", "cc.operand_refetches",
          "cc.lock_retries"}) {
        const bool ratio = std::strstr(name, "ratio") != nullptr;
        m.push_back({name, ratio ? "ratio" : "count", count(name)});
    }
    m.push_back({"cc.host_ns_per_block", "ns",
                 block_ops > 0 ? drive_s * 1e9 / block_ops : 0.0});
    for (const char *name :
         {"hier.l1_hit_rate", "hier.l2_hit_rate", "hier.l3_hit_rate",
          "hier.mem_reads", "hier.l3_writebacks",
          "hier.sharer_invalidations",
          "hier.owner_writebacks", "hier.upgrades"}) {
        const bool rate = std::strstr(name, "rate") != nullptr;
        m.push_back({name, rate ? "ratio" : "count", count(name)});
    }
    m.push_back({"hier.host_ns_per_access", "ns",
                 l1_accesses > 0 ? drive_s * 1e9 / l1_accesses : 0.0});
    m.push_back({"noc.messages", "count", count("noc.messages")});
    m.push_back({"noc.flit_hops", "count", count("noc.flit_hops")});
    for (const char *name :
         {"energy.core_nj", "energy.cache_access_nj", "energy.cache_ic_nj",
          "energy.noc_nj", "energy.dram_nj", "energy.static_nj"})
        m.push_back({name, "nJ", count(name)});
    m.push_back({"bench.unattributed_s", "s", layer("rep")});
    m.push_back({"bench.traced_wall_s", "s", wall});
    m.push_back({"bench.trace_overhead_s", "s", median(overheadS)});
    return m;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    char buf[256];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, "
                      "\"unit\": \"%s\"}", i ? ", " : "",
                      metrics[i].name.c_str(), metrics[i].value,
                      metrics[i].unit.c_str());
        out += buf;
    }
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    if (opt.checkServeReport)
        return checkServeReport(opt);

    const Sizes sz = sizesFor(opt.tiny);
    const bool serve = opt.workload == Workload::ServeZipf;
    KernelInputs inputs;
    if (!serve)
        inputs = kernelInputs(opt.seed, sz, cache::HierarchyParams{}.cores);

    Tracer tracer;
    auto run_rep = [&](bool traced) {
        Rep rep;
        if (traced)
            tracer.start();
        try {
            const std::int64_t t0 = perfbench::nowNs();
            {
                Scope root(tracer, "rep");
                if (serve)
                    serveRep(opt.seed, sz, tracer, rep);
                else
                    kernelsRep(inputs, opt.workload == Workload::KernelsCc,
                               tracer, rep);
            }
            rep.wallNs = perfbench::nowNs() - t0;
        } catch (const std::exception &e) {
            rep.error = e.what();
            rep.attempted = std::max<std::uint64_t>(rep.attempted, 1);
            ++rep.failed;
        }
        if (traced) {
            tracer.stop();
            rep.selfNs = perfbench::selfTimes(tracer.spans());
            for (const perfbench::Span &s : tracer.spans()) {
                const double us = static_cast<double>(s.end - s.start) / 1e3;
                if (std::strcmp(s.name, "rep") == 0)
                    rep.wallNs = s.end - s.start;
                else if (std::strcmp(s.name, "sim.engine") == 0)
                    rep.callUs.push_back(us);
                else if (std::strcmp(s.name, "serve.dispatch") == 0)
                    rep.waveUs.push_back(us);
            }
        }
        return rep;
    };

    std::uint64_t attempted = 0, failed = 0;
    bool deterministic = true;
    const Rep warmup = run_rep(false);
    auto account = [&](const Rep &rep) {
        attempted += rep.attempted;
        failed += rep.failed;
        if (!rep.error.empty())
            std::fprintf(stderr, "perfbench: rep failed: %s\n",
                         rep.error.c_str());
        if (rep.fingerprint != warmup.fingerprint && deterministic) {
            deterministic = false;
            std::fprintf(stderr, "perfbench: DETERMINISM FAILURE: simulated "
                         "results differ between reps of seed %llu\n",
                         static_cast<unsigned long long>(opt.seed));
        }
    };
    attempted += warmup.attempted;
    failed += warmup.failed;
    if (!warmup.error.empty())
        std::fprintf(stderr, "perfbench: rep failed: %s\n",
                     warmup.error.c_str());

    // Measure: reps until --seconds have passed (at least three; a hard
    // stop a minute later keeps a pathological slow-down inside the
    // 180 s a run may take).
    std::vector<Rep> plain, traced;
    std::vector<double> overhead;
    bool trace_written = opt.traceOut.empty();
    const std::int64_t start = perfbench::nowNs();
    const auto elapsed_s = [&] {
        return static_cast<double>(perfbench::nowNs() - start) / 1e9;
    };
    for (unsigned pair = 0;; ++pair) {
        if (!opt.trace) {
            plain.push_back(run_rep(false));
            account(plain.back());
        } else {
            // Alternate which of the pair runs first.
            Rep a = run_rep(pair % 2 == 1);
            Rep b = run_rep(pair % 2 == 0);
            Rep &t = pair % 2 == 1 ? a : b;
            Rep &u = pair % 2 == 1 ? b : a;
            account(t);
            account(u);
            if (!trace_written) {
                trace_written = true;
                if (!perfbench::writeChromeTrace(
                        opt.traceOut, tracer.spans(), 100'000,
                        "perfbench " + opt.workloadName))
                    std::fprintf(stderr, "perfbench: cannot write %s\n",
                                 opt.traceOut.c_str());
            }
            overhead.push_back(static_cast<double>(t.wallNs - u.wallNs) / 1e9);
            plain.push_back(std::move(u));
            traced.push_back(std::move(t));
        }
        const double e = elapsed_s();
        if ((e >= opt.seconds && plain.size() >= 3) || e >= opt.seconds + 60)
            break;
    }

    const bool correct = failed == 0 && deterministic;
    const std::vector<Metric> metrics = opt.trace
        ? perLayer(warmup, traced, overhead)
        : endToEnd(warmup, plain);

    std::printf("perfbench %s seed=%llu size=%s trace=%d reps=%zu%s\n",
                opt.workloadName.c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.tiny ? "tiny" : "full", opt.trace ? 1 : 0, plain.size(),
                opt.trace ? " (plus as many traced)" : "");
    for (const Metric &m : metrics)
        std::printf("  %-28s %20.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  %-28s %20.6f ratio (attempted %llu, failed %llu)\n",
                "fail_ratio",
                static_cast<double>(failed) / static_cast<double>(attempted),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    std::printf("  %-28s %20s\n", "deterministic",
                deterministic ? "yes" : "NO");
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metricsJson(metrics).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
