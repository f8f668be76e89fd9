/**
 * @file
 * Reproduces Figure 8(a): total energy of in-place vs near-place Compute
 * Caches for 4 KB operands, plus the throughput comparison Section IV-J
 * quotes (in-place ~3.6x total energy and ~16x throughput advantage).
 */

#include <cmath>

#include "bench_util.hh"
#include "sim/system.hh"

using namespace ccache;
using namespace ccache::sim;

namespace bench::fig8_inplace_vs_nearplace {

namespace {

constexpr std::size_t kN = 4096;
constexpr Addr kA = 0x100000;
constexpr Addr kB = 0x110000;
constexpr Addr kD = 0x120000;
constexpr Addr kKey = 0x130000;

struct Run
{
    KernelResult kernel;
    energy::EnergyTotals totals;
};

Run
runKernel(BulkKernel kernel, bool near_place)
{
    System sys;
    std::vector<std::uint8_t> da(kN), db(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        da[i] = static_cast<std::uint8_t>(i * 3 + 7);
        db[i] = static_cast<std::uint8_t>(i * 11 + 1);
    }
    std::vector<std::uint8_t> key(da.begin(), da.begin() + 64);
    sys.load(kA, da.data(), kN);
    sys.load(kB, db.data(), kN);
    sys.load(kKey, key.data(), key.size());
    for (Addr a : {kA, kB, kD})
        sys.warm(CacheLevel::L3, 0, a, kN);
    sys.warm(CacheLevel::L3, 0, kKey, 64);
    sys.resetMetrics();

    sys.cc().mutableParams().forceLevel = CacheLevel::L3;
    sys.cc().mutableParams().forceNearPlace = near_place;

    Addr b = kernel == BulkKernel::Search ? kKey : kB;
    Run run;
    run.kernel = sys.ccEngine().run(kernel, 0, kA, b, kD, kN);
    sys.advance(0, run.kernel.cycles);
    run.totals = sys.totals();
    return run;
}

} // namespace

int
run(int, char **)
{
    bench::header("Figure 8a: in-place vs near-place Compute Cache, "
                  "4 KB operands");

    bench::ResultsWriter results("fig8_inplace_vs_nearplace");
    results.config("operand_bytes", kN);
    results.config("cc_level", "L3");

    std::printf("%-9s %16s %16s %13s %13s\n", "kernel",
                "in-place E (nJ)", "near-place E (nJ)", "E ratio",
                "thpt ratio");
    bench::rule();

    const BulkKernel kernels[] = {BulkKernel::Copy, BulkKernel::Compare,
                                  BulkKernel::Search,
                                  BulkKernel::LogicalOr};

    // One sweep point per kernel, running the in-place/near-place pair.
    std::vector<Run> in_runs(4), near_runs(4);
    bench::SweepRunner sweep(&results);
    for (std::size_t i = 0; i < 4; ++i) {
        BulkKernel k = kernels[i];
        sweep.add(toString(k), [&, i, k](bench::SweepContext &ctx) {
            in_runs[i] = runKernel(k, false);
            near_runs[i] = runKernel(k, true);
            double e_ratio =
                near_runs[i].totals.total() / in_runs[i].totals.total();
            double t_ratio = in_runs[i].kernel.blockOpsPerSecond() /
                near_runs[i].kernel.blockOpsPerSecond();
            std::string key = toString(k);
            ctx.metric(key + ".inplace_total_nj",
                       in_runs[i].totals.total() / 1e3);
            ctx.metric(key + ".nearplace_total_nj",
                       near_runs[i].totals.total() / 1e3);
            ctx.metric(key + ".energy_ratio", e_ratio);
            ctx.metric(key + ".throughput_ratio", t_ratio);
        });
    }
    sweep.run();

    double e_product = 1.0, t_product = 1.0;
    for (std::size_t i = 0; i < 4; ++i) {
        const Run &in_place = in_runs[i];
        const Run &near_place = near_runs[i];
        double e_ratio =
            near_place.totals.total() / in_place.totals.total();
        double t_ratio = in_place.kernel.blockOpsPerSecond() /
            near_place.kernel.blockOpsPerSecond();
        e_product *= e_ratio;
        t_product *= t_ratio;
        std::printf("%-9s %16.0f %16.0f %12.1fx %12.1fx\n",
                    toString(kernels[i]), in_place.totals.total() / 1e3,
                    near_place.totals.total() / 1e3, e_ratio, t_ratio);
    }

    bench::rule();
    std::printf("geomean: energy advantage %.1fx, throughput advantage "
                "%.1fx\n",
                std::pow(e_product, 0.25), std::pow(t_product, 0.25));
    results.metric("geomean.energy_ratio", std::pow(e_product, 0.25));
    results.metric("geomean.throughput_ratio", std::pow(t_product, 0.25));
    bench::note("Paper (Section VI-D): in-place gives 3.6x total energy "
                "and 16x");
    bench::note("throughput over near-place for 4 KB operands; near-place "
                "still");
    bench::note("beats the conventional baseline.");
    return bench::finish(results, sweep);
}

} // namespace bench::fig8_inplace_vs_nearplace
