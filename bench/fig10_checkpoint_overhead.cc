/**
 * @file
 * Reproduces Figure 10: in-memory copy-on-write checkpointing overhead
 * for six SPLASH-2 workloads (100k-instruction intervals), comparing the
 * scalar Base, the Base_32 SIMD baseline, and CC_L3.
 */

#include "apps/checkpoint.hh"
#include "bench_util.hh"

using namespace ccache;
using namespace ccache::apps;

namespace bench::fig10_checkpoint_overhead {

int
run(int, char **)
{
    bench::header("Figure 10: checkpointing performance overhead (%)");

    CheckpointConfig cfg;
    cfg.intervals = 40;

    bench::ResultsWriter results("fig10_checkpoint_overhead");
    results.config("intervals", cfg.intervals);

    std::printf("%-11s %9s %9s %9s\n", "benchmark", "Base", "Base_32",
                "CC_L3");
    bench::rule();

    const char *engines[] = {"base", "base32", "cc_l3"};
    const Engine engine_ids[] = {Engine::Base, Engine::Base32, Engine::Cc};
    auto apps = workload::allSplashApps();

    // One sweep point per (workload, engine) pair.
    std::vector<double> overhead(apps.size() * 3);
    bench::SweepRunner sweep(&results);
    for (std::size_t a = 0; a < apps.size(); ++a) {
        for (int m = 0; m < 3; ++m) {
            auto app = apps[a];
            Engine e = engine_ids[m];
            std::size_t slot = a * 3 + static_cast<std::size_t>(m);
            std::string key = std::string(workload::toString(app)) + "." +
                engines[m];
            sweep.add(key,
                      [&, app, e, slot, key](bench::SweepContext &ctx) {
                          sim::System sys;
                          Checkpoint ck(app, cfg);
                          auto res = ck.run(sys, e);
                          overhead[slot] = res.overheadPct();
                          ctx.metric(key + ".overhead_pct",
                                     overhead[slot]);
                      });
        }
    }
    sweep.run();

    double sum[3] = {0, 0, 0};
    for (std::size_t a = 0; a < apps.size(); ++a) {
        for (int m = 0; m < 3; ++m)
            sum[m] += overhead[a * 3 + static_cast<std::size_t>(m)];
        std::printf("%-11s %8.1f%% %8.1f%% %8.1f%%\n",
                    workload::toString(apps[a]), overhead[a * 3],
                    overhead[a * 3 + 1], overhead[a * 3 + 2]);
    }

    bench::rule();
    std::printf("%-11s %8.1f%% %8.1f%% %8.1f%%\n", "average",
                sum[0] / apps.size(), sum[1] / apps.size(),
                sum[2] / apps.size());
    for (int m = 0; m < 3; ++m)
        results.metric(std::string("average.") + engines[m] +
                           ".overhead_pct",
                       sum[m] / apps.size());
    bench::note("");
    bench::note("Paper: up to 68% without SIMD, 30% average with Base_32,");
    bench::note("and a mere 6% with Compute Caches (perfect operand");
    bench::note("locality: checkpoint copies are page-aligned).");
    return bench::finish(results, sweep);
}

} // namespace bench::fig10_checkpoint_overhead
