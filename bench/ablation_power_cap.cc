/**
 * @file
 * Ablation: the Section IV-D peak-power cap. Sweeps the maximum number
 * of simultaneously active sub-arrays and reports the completion time of
 * a 16 KB in-place copy at L3, showing where throughput saturates (once
 * the cap exceeds the number of block partitions touched) and how much
 * concurrency can be traded away for peak-power headroom.
 */

#include "bench_util.hh"
#include "sim/system.hh"

using namespace ccache;
using namespace ccache::sim;

namespace bench::ablation_power_cap {

namespace {

Cycles
runWithCap(unsigned cap)
{
    SystemConfig cfg;
    cfg.cc.maxActiveSubarrays = cap;
    System sys(cfg);

    const std::size_t n = 16384;
    std::vector<std::uint8_t> data(n, 0x5a);
    sys.load(0x100000, data.data(), n);
    sys.warm(CacheLevel::L3, 0, 0x100000, n);
    sys.warm(CacheLevel::L3, 0, 0x200000, n);
    sys.resetMetrics();
    sys.cc().mutableParams().forceLevel = CacheLevel::L3;

    auto r = sys.ccEngine().copy(0, 0x100000, 0x200000, n);
    return r.cycles;
}

} // namespace

int
run(int, char **)
{
    bench::header("Ablation: peak-power cap (max active sub-arrays) vs "
                  "16 KB in-place copy");

    bench::ResultsWriter results("ablation_power_cap");
    results.config("copy_bytes", 16384);

    // Each cap is an independent simulation; the uncapped reference is
    // just another sweep point, and the ratios are formed at the
    // barrier once every point has landed in its slot.
    const std::vector<unsigned> caps{1, 2, 4, 8, 16, 32, 64, 128, 0};
    std::vector<Cycles> cycles(caps.size(), 0);
    bench::SweepRunner sweep(&results);
    for (std::size_t i = 0; i < caps.size(); ++i) {
        unsigned cap = caps[i];
        std::string key = cap == 0 ? "cap_none"
                                   : "cap_" + std::to_string(cap);
        sweep.add(key, [&cycles, i, cap](bench::SweepContext &) {
            cycles[i] = runWithCap(cap);
        });
    }
    sweep.run();

    Cycles uncapped = cycles.back();  // the cap == 0 point

    std::printf("%10s %12s %14s\n", "cap", "cycles", "vs uncapped");
    bench::rule();
    for (std::size_t i = 0; i < caps.size(); ++i) {
        unsigned cap = caps[i];
        Cycles c = cycles[i];
        double slowdown = static_cast<double>(c) /
            static_cast<double>(uncapped);
        std::printf("%10s %12llu %13.2fx\n",
                    cap == 0 ? "none" : std::to_string(cap).c_str(),
                    static_cast<unsigned long long>(c), slowdown);
        std::string key = cap == 0 ? "cap_none"
                                   : "cap_" + std::to_string(cap);
        results.metric(key + ".cycles", static_cast<double>(c));
        results.metric(key + ".slowdown_vs_uncapped", slowdown);
    }

    bench::rule();
    bench::note("The shared command bus already serializes issue, so the "
                "cap is free");
    bench::note("once it covers the bus-limited concurrency (~16 here); "
                "below that,");
    bench::note("throughput degrades linearly as peak power is traded "
                "away.");
    return bench::finish(results, sweep);
}

} // namespace bench::ablation_power_cap
