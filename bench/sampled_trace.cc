/**
 * @file
 * Sampled trace frontend gate (DESIGN.md §16): a seeded synthetic
 * multi-phase trace is replayed twice — once in full (the golden run)
 * and once through the sampled pipeline (interval profiling -> phase
 * clustering -> representative replay with warm-up) — and the
 * reconstituted estimate must land inside the declared error bound
 * while simulating at most a tenth of the intervals.
 *
 * The trace interleaves four repeating behaviours, one interval each
 * per round, on distinct cores:
 *
 *   stream  sequential reads marching through fresh memory (all-cold)
 *   hot     read/write loop over a 4 KB working set (all-warm)
 *   cc      Compute Cache ops (cc_copy / cc_buz / cc_cmp) on a fixed
 *           buffer
 *   idiom   raw memcpy / memset / memcmp block loops — converter fodder
 *
 * Gates (each recorded as a metric, any failure exits non-zero):
 *
 *   - replay fraction <= kMaxReplayFraction (0.10)
 *   - |sampled - golden| / golden for the memory miss rate and the
 *     CC-op throughput <= kErrorBound
 *   - the sampled run is byte-identical at 1, 2 and 8 replay workers
 *   - the idiom converter rewrites >= kMinDetection (0.95) of the
 *     planted idiom blocks
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "sample/idiom.hh"
#include "sample/sampled_runner.hh"
#include "sim/trace.hh"

using namespace ccache;

namespace bench::sampled_trace {

namespace {

constexpr std::size_t kIntervalRecords = 1000;
constexpr std::size_t kRounds = 24;          ///< x4 phases = 96 intervals
constexpr double kMaxReplayFraction = 0.10;
constexpr double kErrorBound = 0.05;
constexpr double kMinDetection = 0.95;

/** Planted idiom ground truth, in converter accounting units (cc_cmp
 *  counts block PAIRS). */
struct Planted
{
    std::uint64_t copyBlocks = 0;
    std::uint64_t cmpPairs = 0;
    std::uint64_t zeroBlocks = 0;

    std::uint64_t total() const
    {
        return copyBlocks + cmpPairs + zeroBlocks;
    }
};

/** Deterministic multi-phase trace generator. Every phase emits
 *  exactly kIntervalRecords records, so intervals align with phase
 *  boundaries and the clusterer sees clean repetition. */
class TraceGen
{
  public:
    explicit TraceGen(std::uint64_t seed) : rng_(seed) {}

    std::vector<sim::TraceRecord> generate(Planted &planted)
    {
        std::vector<sim::TraceRecord> out;
        out.reserve(kRounds * 4 * kIntervalRecords);
        for (std::size_t round = 0; round < kRounds; ++round) {
            stream(out);
            hot(out);
            cc(out);
            idiom(out, planted);
        }
        return out;
    }

  private:
    static sim::TraceRecord mem(sim::TraceRecord::Kind kind, CoreId core,
                                Addr addr)
    {
        sim::TraceRecord rec;
        rec.kind = kind;
        rec.core = core;
        rec.addr = addr;
        return rec;
    }

    static sim::TraceRecord ccRec(CoreId core, cc::CcInstruction instr)
    {
        sim::TraceRecord rec;
        rec.kind = sim::TraceRecord::Kind::CcOp;
        rec.core = core;
        rec.instr = instr;
        return rec;
    }

    /** Sequential reads through never-revisited memory: every access
     *  is cold, so the interval's behaviour does not depend on what
     *  ran before it. */
    void stream(std::vector<sim::TraceRecord> &out)
    {
        for (std::size_t i = 0; i < kIntervalRecords; ++i) {
            out.push_back(mem(sim::TraceRecord::Kind::Read, 0,
                              0x10000000 + streamCursor_ * kBlockSize));
            ++streamCursor_;
        }
    }

    /** Read/write loop over 64 blocks (4 KB): at most 64 of the 1000
     *  accesses can be cold, so the interval is warm regardless of its
     *  predecessor. */
    void hot(std::vector<sim::TraceRecord> &out)
    {
        constexpr Addr base = 0x20000000;
        for (std::size_t i = 0; i < kIntervalRecords; ++i) {
            Addr addr = base + rng_.below(64) * kBlockSize;
            auto kind = rng_.chance(0.3) ? sim::TraceRecord::Kind::Write
                                         : sim::TraceRecord::Kind::Read;
            out.push_back(mem(kind, 1, addr));
        }
    }

    /** Compute Cache ops over a fixed 256 KB buffer. */
    void cc(std::vector<sim::TraceRecord> &out)
    {
        constexpr Addr base = 0x30000000;
        constexpr std::size_t slots = 128;       ///< 1 KB-aligned slots
        for (std::size_t i = 0; i < kIntervalRecords; ++i) {
            Addr a = base + (ccCursor_ % slots) * 1024;
            Addr b = base + ((ccCursor_ + slots / 2) % slots) * 1024;
            cc::CcInstruction instr;
            switch (ccCursor_ % 3) {
              case 0: instr = cc::CcInstruction::copy(a, b, 1024); break;
              case 1: instr = cc::CcInstruction::buz(a, 1024); break;
              default: instr = cc::CcInstruction::cmp(a, b, 512); break;
            }
            out.push_back(ccRec(2, instr));
            ++ccCursor_;
        }
    }

    /** Raw block loops the converter should rewrite. Runs march
     *  through fresh memory (predecessor-independent, like stream) and
     *  are separated by single scratch writes at a 2-block stride so
     *  the separators never chain into a run of their own. */
    void idiom(std::vector<sim::TraceRecord> &out, Planted &planted)
    {
        using Kind = sim::TraceRecord::Kind;
        constexpr CoreId core = 3;
        const std::size_t target = out.size() + kIntervalRecords;

        auto separator = [&] {
            out.push_back(mem(Kind::Write, core,
                              0x70000000 +
                                  scratchCursor_ * 2 * kBlockSize));
            ++scratchCursor_;
        };

        while (out.size() < target) {
            std::size_t room = target - out.size();
            std::size_t type = idiomCursor_ % 3;
            Addr src = 0x40000000 + idiomCursor_ * 0x4000;
            Addr dst = 0x50000000 + idiomCursor_ * 0x4000;
            if (type == 0 && room >= 65) {
                // memcpy: 32 blocks, R src / W dst interleaved.
                separator();
                for (std::size_t b = 0; b < 32; ++b) {
                    out.push_back(mem(Kind::Read, core,
                                      src + b * kBlockSize));
                    out.push_back(mem(Kind::Write, core,
                                      dst + b * kBlockSize));
                }
                planted.copyBlocks += 32;
            } else if (type == 1 && room >= 33) {
                // memset: 32 consecutive block writes.
                separator();
                for (std::size_t b = 0; b < 32; ++b)
                    out.push_back(mem(Kind::Write, core,
                                      src + b * kBlockSize));
                planted.zeroBlocks += 32;
            } else if (type == 2 && room >= 17) {
                // memcmp: 8 block pairs, R src / R dst interleaved
                // (8 pairs = 512 B, one full cc_cmp).
                separator();
                for (std::size_t b = 0; b < 8; ++b) {
                    out.push_back(mem(Kind::Read, core,
                                      src + b * kBlockSize));
                    out.push_back(mem(Kind::Read, core,
                                      dst + b * kBlockSize));
                }
                planted.cmpPairs += 8;
            } else {
                // Tail too small for this run type: pad with
                // non-chaining scratch writes.
                separator();
                continue;
            }
            ++idiomCursor_;
        }
    }

    Rng rng_;
    std::uint64_t streamCursor_ = 0;
    std::uint64_t ccCursor_ = 0;
    std::uint64_t idiomCursor_ = 0;
    std::uint64_t scratchCursor_ = 0;
};

/** Serialize a sampled run to a canonical string; byte-equality across
 *  worker counts is the determinism gate. */
std::string
digest(const sample::SampledRun &run)
{
    char buf[256];
    std::string d;
    const sample::SampledEstimate &e = run.estimate;
    std::snprintf(buf, sizeof buf,
                  "est %llu %llu %llu %.17g %.17g %.17g %.17g %zu %zu\n",
                  static_cast<unsigned long long>(e.reads),
                  static_cast<unsigned long long>(e.writes),
                  static_cast<unsigned long long>(e.ccInstructions),
                  e.l1Misses, e.memAccesses, e.ccBlockOps, e.cycles,
                  e.intervalsTotal, e.intervalsReplayed);
    d += buf;
    for (const sample::RepresentativeRun &rep : run.representatives) {
        std::snprintf(
            buf, sizeof buf,
            "rep %zu %llu %.17g %zu %llu %llu %llu %llu %llu %llu %llu\n",
            rep.interval,
            static_cast<unsigned long long>(rep.intervalCount), rep.weight,
            rep.warmupUsed,
            static_cast<unsigned long long>(rep.metrics.reads),
            static_cast<unsigned long long>(rep.metrics.writes),
            static_cast<unsigned long long>(rep.metrics.ccInstructions),
            static_cast<unsigned long long>(rep.metrics.l1Misses),
            static_cast<unsigned long long>(rep.metrics.memAccesses),
            static_cast<unsigned long long>(rep.metrics.ccBlockOps),
            static_cast<unsigned long long>(rep.metrics.cycles));
        d += buf;
    }
    return d;
}

double
relError(double est, double golden)
{
    if (golden == 0.0)
        return est == 0.0 ? 0.0 : 1.0;
    double e = (est - golden) / golden;
    return e < 0 ? -e : e;
}

} // namespace

int
run(int, char **)
{
    bench::header("Sampled trace frontend: estimate vs full-run golden");

    bench::ResultsWriter results("sampled_trace");
    results.config("interval_records", kIntervalRecords);
    results.config("rounds", kRounds);
    results.config("error_bound", kErrorBound);
    results.config("max_replay_fraction", kMaxReplayFraction);
    results.config("min_detection", kMinDetection);

    Planted planted;
    std::vector<sim::TraceRecord> records =
        TraceGen(0xc011ec7ed).generate(planted);

    sample::SampledRunParams params;
    params.intervalRecords = kIntervalRecords;
    params.clusters = 8;
    // Warm-up spans a full phase round so representatives of phases
    // that keep state resident across rounds see warmed caches.
    params.warmupRecords = 4 * kIntervalRecords;

    sim::TraceReplayResult golden;
    const unsigned jobsSweep[] = {1, 2, 8};
    sample::SampledRun sampled[3];
    sample::ConvertStats conv;

    bench::SweepRunner sweep(&results);
    sweep.add("golden", [&](bench::SweepContext &ctx) {
        golden = sample::runFull(records);
        ctx.metric("golden.mem_miss_rate", golden.memMissRate());
        ctx.metric("golden.cc_ops_per_kcycle", golden.ccOpsPerKCycle());
        ctx.metric("golden.cycles",
                   static_cast<double>(golden.cycles));
    });
    for (std::size_t j = 0; j < 3; ++j) {
        std::string key = "sampled.j" + std::to_string(jobsSweep[j]);
        sweep.add(key, [&, j, key](bench::SweepContext &ctx) {
            sample::SampledRunParams p = params;
            p.jobs = jobsSweep[j];
            sampled[j] = sample::runSampled(records, p);
            if (j == 0) {
                const sample::SampledEstimate &e = sampled[j].estimate;
                ctx.metric("sampled.mem_miss_rate", e.memMissRate);
                ctx.metric("sampled.cc_ops_per_kcycle", e.ccOpsPerKCycle);
                ctx.metric("sampled.replay_fraction", e.replayFraction());
                ctx.metric("sampled.phases",
                           static_cast<double>(
                               sampled[j].representatives.size()));
            }
        });
    }
    sweep.add("convert", [&](bench::SweepContext &ctx) {
        sample::ConvertResult res = sample::convertIdioms(records);
        conv = res.stats;
        std::uint64_t converted =
            conv.copyBlocks + conv.cmpBlocks + conv.zeroBlocks;
        ctx.metric("convert.planted_blocks",
                   static_cast<double>(planted.total()));
        ctx.metric("convert.converted_blocks",
                   static_cast<double>(converted));
        ctx.metric("convert.detection",
                   planted.total()
                       ? static_cast<double>(converted) /
                           static_cast<double>(planted.total())
                       : 0.0);
    });
    sweep.run();

    const sample::SampledEstimate &est = sampled[0].estimate;
    double missErr = relError(est.memMissRate, golden.memMissRate());
    double ccErr =
        relError(est.ccOpsPerKCycle, golden.ccOpsPerKCycle());
    double cycErr = relError(est.cycles,
                             static_cast<double>(golden.cycles));
    bool identical = digest(sampled[0]) == digest(sampled[1]) &&
        digest(sampled[0]) == digest(sampled[2]);
    std::uint64_t converted =
        conv.copyBlocks + conv.cmpBlocks + conv.zeroBlocks;
    double detection = planted.total()
        ? static_cast<double>(converted) /
            static_cast<double>(planted.total())
        : 0.0;

    std::printf("%-22s %12s %12s %9s\n", "metric", "golden", "sampled",
                "rel.err");
    bench::rule();
    std::printf("%-22s %12.5f %12.5f %8.2f%%\n", "mem_miss_rate",
                golden.memMissRate(), est.memMissRate, 100.0 * missErr);
    std::printf("%-22s %12.3f %12.3f %8.2f%%\n", "cc_ops_per_kcycle",
                golden.ccOpsPerKCycle(), est.ccOpsPerKCycle,
                100.0 * ccErr);
    std::printf("%-22s %12llu %12.0f %8.2f%%\n", "cycles",
                static_cast<unsigned long long>(golden.cycles),
                est.cycles, 100.0 * cycErr);
    bench::rule();
    std::printf("replayed %zu/%zu intervals (%.1f%%), warm-up %zu "
                "records per phase\n",
                est.intervalsReplayed, est.intervalsTotal,
                100.0 * est.replayFraction(), params.warmupRecords);
    std::printf("idiom converter: %llu/%llu planted blocks rewritten "
                "(%.1f%%)\n",
                static_cast<unsigned long long>(converted),
                static_cast<unsigned long long>(planted.total()),
                100.0 * detection);
    std::printf("determinism (1/2/8 workers): %s\n",
                identical ? "byte-identical" : "DIVERGED");

    results.metric("error.mem_miss_rate", missErr);
    results.metric("error.cc_ops_per_kcycle", ccErr);
    results.metric("error.cycles", cycErr);
    results.metric("determinism.identical", identical ? 1.0 : 0.0);

    bool ok = true;
    auto gate = [&](bool pass, const char *what) {
        if (!pass) {
            std::fprintf(stderr, "sampled_trace: GATE FAILED: %s\n",
                         what);
            ok = false;
        }
    };
    gate(est.replayFraction() <= kMaxReplayFraction,
         "replay fraction above bound");
    gate(missErr <= kErrorBound, "mem miss-rate error above bound");
    gate(ccErr <= kErrorBound, "cc-op throughput error above bound");
    gate(identical, "sampled run not byte-identical across workers");
    gate(detection >= kMinDetection, "idiom detection below bound");

    bench::note("");
    bench::note("Gate: <=10% of intervals replayed; miss-rate and CC-op");
    bench::note("throughput within the declared bound of the golden");
    bench::note("full run; byte-identical at 1/2/8 workers; >=95% of");
    bench::note("planted memcpy/memcmp/memset blocks rewritten.");
    return bench::finish(results, sweep, ok);
}

} // namespace bench::sampled_trace
