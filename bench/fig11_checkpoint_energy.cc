/**
 * @file
 * Reproduces Figure 11: total energy of checkpointing for six SPLASH-2
 * workloads: no checkpointing, scalar Base, Base_32 SIMD, and CC_L3,
 * split into core/uncore static/dynamic.
 */

#include "apps/checkpoint.hh"
#include "bench_util.hh"

using namespace ccache;
using namespace ccache::apps;

namespace bench::fig11_checkpoint_energy {

int
run(int, char **)
{
    bench::header("Figure 11: checkpointing total energy (uJ)");

    CheckpointConfig cfg;
    cfg.intervals = 40;

    std::printf("%-11s %-9s %10s %12s %10s %12s %10s\n", "benchmark",
                "config", "core-dyn", "uncore-dyn", "core-st",
                "uncore-st", "total");
    bench::rule();

    bench::ResultsWriter results("fig11_checkpoint_energy");
    results.config("intervals", cfg.intervals);

    const char *labels[] = {"no_chkpt", "Base", "Base_32", "CC_L3"};
    const char *keys[] = {"no_chkpt", "base", "base32", "cc_l3"};

    // One sweep point per (workload, mode) pair.
    auto apps = workload::allSplashApps();
    std::vector<energy::EnergyTotals> totals(apps.size() * 4);
    bench::SweepRunner sweep(&results);
    for (std::size_t a = 0; a < apps.size(); ++a) {
        for (int mode = 0; mode < 4; ++mode) {
            auto app = apps[a];
            std::size_t slot = a * 4 + static_cast<std::size_t>(mode);
            std::string key = std::string(workload::toString(app)) + "." +
                keys[mode];
            sweep.add(key, [&, app, mode, slot,
                            key](bench::SweepContext &ctx) {
                sim::System sys;
                Checkpoint ck(app, cfg);
                Engine engine = mode <= 1 ? Engine::Base
                    : mode == 2 ? Engine::Base32
                                : Engine::Cc;
                auto res =
                    ck.run(sys, engine, /*checkpointing=*/mode != 0);
                totals[slot] = res.app.totals;
                ctx.metric(key + ".total_uj",
                           totals[slot].total() / 1e6);
            });
        }
    }
    sweep.run();

    for (std::size_t a = 0; a < apps.size(); ++a) {
        for (int mode = 0; mode < 4; ++mode) {
            const auto &t = totals[a * 4 + static_cast<std::size_t>(mode)];
            std::printf("%-11s %-9s %10.1f %12.1f %10.1f %12.1f %10.1f\n",
                        mode == 0 ? workload::toString(apps[a]) : "",
                        labels[mode], t.coreDynamic / 1e6,
                        t.uncoreDynamic / 1e6, t.coreStatic / 1e6,
                        t.uncoreStatic / 1e6, t.total() / 1e6);
        }
    }

    bench::rule();
    bench::note("Paper: checkpointing energy overhead nearly disappears "
                "with CC;");
    bench::note("the CC_L3 bars sit just above no_chkpt while Base/Base_32"
                " add");
    bench::note("visible core-dynamic and uncore energy.");
    return bench::finish(results, sweep);
}

} // namespace bench::fig11_checkpoint_energy
