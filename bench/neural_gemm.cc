/**
 * @file
 * Bit-serial quantized GEMM throughput (the Neural Cache workload,
 * arXiv 1805.03718) on the Compute Cache arithmetic ISA.
 *
 * For each problem size the int8 x int8 -> int32 product runs on the
 * scalar core, the Base_32 SIMD core and the bit-serial CC engine; the
 * table reports speedup, energy ratio and the headline MACs/cycle,
 * which is also gated against the analytical core model: with G lane
 * groups of 512 lanes each and S bit-line steps per issued instruction
 * sequence, the array cannot exceed lanes-issued-per-step, and a
 * simulation below a small fraction of that bound means the in-place
 * path silently degraded (wrong partition mapping, near-place fallback).
 */

#include <cmath>

#include "apps/gemm.hh"
#include "bench_util.hh"
#include "cc/bitserial.hh"

using namespace ccache;
using namespace ccache::apps;

namespace bench::neural_gemm {

namespace {

struct GemmOutcome
{
    std::string name;
    double speedupBase = 0.0;    ///< CC vs scalar core
    double speedupBase32 = 0.0;  ///< CC vs Base_32 SIMD
    double energyRatio = 0.0;
    double macsPerCycle = 0.0;
    double analyticBound = 0.0;  ///< MACs/cycle of the pure step model
    double boundFraction = 0.0;  ///< macsPerCycle / analyticBound
    bool functional = false;
};

GemmOutcome
runPoint(const std::string &name, const QuantGemmConfig &cfg)
{
    QuantGemm app(cfg);
    AppRunResult base, base32, cc;
    {
        sim::System sys;
        base = app.run(sys, Engine::Base);
    }
    {
        sim::System sys;
        base32 = app.run(sys, Engine::Base32);
    }
    {
        sim::System sys;
        cc = app.run(sys, Engine::Cc);
    }

    GemmOutcome out;
    out.name = name;
    out.speedupBase = static_cast<double>(base.cycles) /
        static_cast<double>(cc.cycles);
    out.speedupBase32 = static_cast<double>(base32.cycles) /
        static_cast<double>(cc.cycles);
    out.energyRatio = base32.totals.total() / cc.totals.total();
    out.functional =
        base.checksum == cc.checksum && base32.checksum == cc.checksum;

    double macs =
        static_cast<double>(cfg.m) * cfg.k * cfg.n;
    out.macsPerCycle = macs / static_cast<double>(cc.cycles);

    // Analytical core model: the MAC chain for one output row costs
    // k cc_mul sequences plus (k-1) cc_add sequences of bit-line steps;
    // every step computes one bit for all n lanes at once. At one step
    // per cycle the array therefore cannot beat macs / (m * steps).
    constexpr std::size_t w = QuantGemmConfig::kAccBits;
    double steps_per_row = static_cast<double>(
        cfg.k * cc::BitSerialCompute::steps(cc::CcOpcode::Mul, w) +
        (cfg.k - 1) * cc::BitSerialCompute::steps(cc::CcOpcode::Add, w));
    out.analyticBound = macs / (static_cast<double>(cfg.m) * steps_per_row);
    out.boundFraction = out.macsPerCycle / out.analyticBound;
    return out;
}

} // namespace

int
run(int, char **)
{
    bench::header("Neural GEMM: bit-serial int8 MAC throughput "
                  "(CC vs Base / Base_32)");

    bench::ResultsWriter results("neural_gemm");
    results.config("weights", "int8");
    results.config("accumulator_bits",
                   static_cast<double>(QuantGemmConfig::kAccBits));

    std::vector<GemmOutcome> outcomes(2);
    bench::SweepRunner sweep(&results);
    sweep.add("n512", [&](bench::SweepContext &ctx) {
        QuantGemmConfig cfg;  // 4 x 16 x 512, one lane group
        cfg.seed = ctx.seed();
        outcomes[0] = runPoint("n512", cfg);
    });
    sweep.add("n1024", [&](bench::SweepContext &ctx) {
        QuantGemmConfig cfg;
        cfg.n = 1024;         // two lane groups per slice row
        cfg.seed = ctx.seed();
        outcomes[1] = runPoint("n1024", cfg);
    });
    sweep.run();

    std::printf("%-8s %10s %12s %13s %11s %10s %10s\n", "size",
                "vs Base", "vs Base_32", "energy ratio", "MACs/cyc",
                "bound", "functional");
    bench::rule();
    bool ok = sweep.errorCount() == 0;
    for (const auto &o : outcomes) {
        if (o.name.empty())
            continue;
        std::printf("%-8s %9.2fx %11.2fx %12.2fx %11.4f %10.4f %10s\n",
                    o.name.c_str(), o.speedupBase, o.speedupBase32,
                    o.energyRatio, o.macsPerCycle, o.analyticBound,
                    o.functional ? "match" : "MISMATCH");
        results.metric(o.name + ".speedup_vs_base", o.speedupBase);
        results.metric(o.name + ".speedup_vs_base32", o.speedupBase32);
        results.metric(o.name + ".energy_ratio", o.energyRatio);
        results.metric(o.name + ".macs_per_cycle", o.macsPerCycle);
        results.metric(o.name + ".analytic_bound_macs_per_cycle",
                       o.analyticBound);
        results.metric(o.name + ".bound_fraction", o.boundFraction);
        results.metric(o.name + ".functional_match", o.functional ? 1 : 0);

        // Throughput gate against the analytical model: staying under
        // the bound proves the cycle model charges every bit-line step;
        // falling below 1% of it means the in-place path degraded.
        if (!o.functional)
            ok = false;
        if (o.boundFraction > 1.0 || o.boundFraction < 0.01) {
            std::fprintf(stderr,
                         "%s: MACs/cycle %.4f outside (1%%, 100%%] of "
                         "the analytical bound %.4f\n",
                         o.name.c_str(), o.macsPerCycle,
                         o.analyticBound);
            ok = false;
        }
    }
    bench::rule();
    bench::note("");
    bench::note("Bound: one bit-line step per cycle over the cc_mul / "
                "cc_add step counts;");
    bench::note("the simulated throughput includes transpose, broadcast "
                "and stream overheads.");
    return bench::finish(results, sweep, ok);
}

} // namespace bench::neural_gemm
