/**
 * @file
 * Reproduces Figure 7: the microbenchmark study of Section VI-D on 4 KB
 * operands resident in L3.
 *
 *  (a) throughput (64-byte block operations per second),
 *  (b) dynamic energy broken into core / cache-access / cache-ic / noc,
 *  (c) total energy split into static and dynamic, core and uncore.
 */

#include <cmath>

#include "bench_util.hh"
#include "sim/system.hh"

using namespace ccache;
using namespace ccache::sim;

namespace bench::fig7_microbench {

namespace {

constexpr std::size_t kN = 4096;
constexpr Addr kA = 0x100000;
constexpr Addr kB = 0x110000;
constexpr Addr kD = 0x120000;
constexpr Addr kKey = 0x130000;

struct Run
{
    KernelResult kernel;
    energy::EnergyBreakdown dyn;
    energy::EnergyTotals totals;
};

/**
 * Run one kernel on Base_32 or CC_L3. @p stats_out, when non-null,
 * receives the run's full stats dump (for the JSON result file);
 * @p trace_path, when non-null, enables the event-trace sink for the
 * run and writes a Chrome trace-event file there.
 */
Run
runKernel(BulkKernel kernel, bool use_cc, Json *stats_out = nullptr,
          const char *trace_path = nullptr)
{
    System sys;
    std::vector<std::uint8_t> da(kN), db(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        da[i] = static_cast<std::uint8_t>(i * 7 + 1);
        db[i] = static_cast<std::uint8_t>(i * 13 + 5);
    }
    std::vector<std::uint8_t> key(da.begin() + 448, da.begin() + 512);
    sys.load(kA, da.data(), kN);
    sys.load(kB, db.data(), kN);
    sys.load(kKey, key.data(), key.size());

    for (Addr a : {kA, kB, kD})
        sys.warm(CacheLevel::L3, 0, a, kN);
    sys.warm(CacheLevel::L3, 0, kKey, 64);
    sys.resetMetrics();
    if (trace_path)
        sys.trace().enable();

    Addr b = kernel == BulkKernel::Search ? kKey : kB;
    Run run;
    if (use_cc) {
        sys.cc().mutableParams().forceLevel = CacheLevel::L3;
        run.kernel = sys.ccEngine().run(kernel, 0, kA, b, kD, kN);
    } else {
        run.kernel = sys.simd32().run(kernel, 0, kA, b, kD, kN);
    }
    sys.advance(0, run.kernel.cycles);
    run.dyn = sys.energy().dynamic();
    run.totals = sys.totals();
    if (stats_out)
        *stats_out = sys.stats().dumpJson();
    if (trace_path)
        sys.trace().writeFile(trace_path);
    return run;
}

} // namespace

int
run(int, char **)
{
    const BulkKernel kernels[] = {BulkKernel::Copy, BulkKernel::Compare,
                                  BulkKernel::Search,
                                  BulkKernel::LogicalOr};

    bench::ResultsWriter results("fig7_microbench");
    results.config("operand_bytes", kN);
    results.config("cc_level", "L3");
    results.config("baseline", "Base_32");

    // One sweep point per kernel: each runs the Base_32 / CC_L3 pair
    // into its own slot, and all tables print after the barrier.
    std::vector<Run> base_runs(4), cc_runs(4);
    bench::SweepRunner sweep(&results);
    for (std::size_t i = 0; i < 4; ++i) {
        BulkKernel k = kernels[i];
        sweep.add(toString(k), [&, i, k](bench::SweepContext &ctx) {
            Json cc_stats;
            base_runs[i] = runKernel(k, false);
            cc_runs[i] = runKernel(k, true, &cc_stats);
            ctx.statsJson(std::string("cc_") + toString(k),
                          std::move(cc_stats));
            double speedup = base_runs[i].kernel.blockOpsPerSecond() == 0.0
                ? 0.0
                : cc_runs[i].kernel.blockOpsPerSecond() /
                    base_runs[i].kernel.blockOpsPerSecond();
            std::string key = toString(k);
            ctx.metric(key + ".base32_mblockops",
                       base_runs[i].kernel.blockOpsPerSecond() / 1e6);
            ctx.metric(key + ".cc_mblockops",
                       cc_runs[i].kernel.blockOpsPerSecond() / 1e6);
            ctx.metric(key + ".speedup", speedup);
        });
    }
    sweep.run();

    bench::header("Figure 7a: throughput, 4 KB operands in L3 "
                  "(Mblock-ops/s)");
    std::printf("%-9s %14s %14s %10s\n", "kernel", "Base_32", "CC_L3",
                "speedup");
    bench::rule();
    double ratio_product = 1.0;
    for (std::size_t i = 0; i < 4; ++i) {
        const Run &base = base_runs[i];
        const Run &cc = cc_runs[i];
        double speedup = base.kernel.blockOpsPerSecond() == 0.0
            ? 0.0
            : cc.kernel.blockOpsPerSecond() /
                base.kernel.blockOpsPerSecond();
        ratio_product *= speedup;
        std::printf("%-9s %14.0f %14.0f %9.1fx\n", toString(kernels[i]),
                    base.kernel.blockOpsPerSecond() / 1e6,
                    cc.kernel.blockOpsPerSecond() / 1e6, speedup);
    }
    std::printf("%-9s %39.1fx (paper: 54x)\n", "geomean",
                std::pow(ratio_product, 0.25));
    results.metric("geomean.speedup", std::pow(ratio_product, 0.25));

    bench::header("Figure 7b: dynamic energy (nJ), by component");
    std::printf("%-9s %-8s %9s %13s %10s %8s %9s %9s\n", "kernel", "cfg",
                "core", "cache-access", "cache-ic", "noc", "total",
                "saving");
    bench::rule();
    for (std::size_t i = 0; i < 4; ++i) {
        const auto &b = base_runs[i].dyn;
        const auto &c = cc_runs[i].dyn;
        std::printf("%-9s %-8s %9.0f %13.0f %10.0f %8.0f %9.0f\n",
                    toString(kernels[i]), "Base_32", b.core / 1e3,
                    b.cacheAccess() / 1e3, b.cacheIc() / 1e3, b.noc / 1e3,
                    b.dynamicTotal() / 1e3);
        std::printf("%-9s %-8s %9.0f %13.0f %10.0f %8.0f %9.0f %8.0f%%\n",
                    "", "CC_L3", c.core / 1e3, c.cacheAccess() / 1e3,
                    c.cacheIc() / 1e3, c.noc / 1e3, c.dynamicTotal() / 1e3,
                    100.0 * (1.0 - c.dynamicTotal() / b.dynamicTotal()));
    }
    bench::note("Paper savings: copy 90%, compare 89%, search 71%, "
                "logical 92%.");

    bench::header("Figure 7c: total energy (nJ), static + dynamic");
    std::printf("%-9s %-8s %11s %13s %11s %13s %9s\n", "kernel", "cfg",
                "core-dyn", "uncore-dyn", "core-st", "uncore-st",
                "total");
    bench::rule();
    for (std::size_t i = 0; i < 4; ++i) {
        for (int m = 0; m < 2; ++m) {
            const auto &t = m == 0 ? base_runs[i].totals
                                   : cc_runs[i].totals;
            std::printf("%-9s %-8s %11.0f %13.0f %11.0f %13.0f %9.0f\n",
                        m == 0 ? toString(kernels[i]) : "",
                        m == 0 ? "Base_32" : "CC_L3", t.coreDynamic / 1e3,
                        t.uncoreDynamic / 1e3, t.coreStatic / 1e3,
                        t.uncoreStatic / 1e3, t.total() / 1e3);
        }
    }
    bench::note("Paper: 91% average total-energy saving across the four "
                "kernels.");

    for (std::size_t i = 0; i < 4; ++i) {
        std::string key = toString(kernels[i]);
        results.metric(key + ".base32_dynamic_nj",
                       base_runs[i].dyn.dynamicTotal() / 1e3);
        results.metric(key + ".cc_dynamic_nj",
                       cc_runs[i].dyn.dynamicTotal() / 1e3);
        results.metric(key + ".dynamic_saving_fraction",
                       1.0 - cc_runs[i].dyn.dynamicTotal() /
                           base_runs[i].dyn.dynamicTotal());
        results.metric(key + ".base32_total_nj",
                       base_runs[i].totals.total() / 1e3);
        results.metric(key + ".cc_total_nj",
                       cc_runs[i].totals.total() / 1e3);
        results.metric(key + ".total_saving_fraction",
                       1.0 - cc_runs[i].totals.total() /
                           base_runs[i].totals.total());
    }

    // One extra traced CC copy run: the Chrome trace-event timeline that
    // EXPERIMENTS.md loads into Perfetto.
    std::error_code ec;
    std::filesystem::create_directories(bench::resultsDir(), ec);
    std::string trace_path =
        bench::resultsDir() + "/fig7_microbench.trace.json";
    runKernel(BulkKernel::Copy, true, nullptr, trace_path.c_str());
    std::printf("trace:   %s (load in https://ui.perfetto.dev)\n",
                trace_path.c_str());
    // Recorded relative to the results directory so two runs into
    // different directories stay byte-identical (DESIGN.md §8).
    results.extra("trace_file", "fig7_microbench.trace.json");

    return bench::finish(results, sweep);
}

} // namespace bench::fig7_microbench
