/**
 * @file
 * Reproduces Figure 8(b): dynamic-energy savings of Compute Caches when
 * the operands live at different cache levels. Each bar is the
 * difference between the Base_32 run and the CC run with operands staged
 * at L1 / L2 / L3 respectively.
 */

#include "bench_util.hh"
#include "sim/system.hh"

using namespace ccache;
using namespace ccache::sim;

namespace bench::fig8_cache_levels {

namespace {

constexpr std::size_t kN = 4096;
constexpr Addr kA = 0x100000;
constexpr Addr kB = 0x110000;
constexpr Addr kD = 0x120000;
constexpr Addr kKey = 0x130000;

double
runOnce(BulkKernel kernel, CacheLevel level, bool use_cc)
{
    System sys;
    std::vector<std::uint8_t> da(kN), db(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        da[i] = static_cast<std::uint8_t>(i * 5 + 3);
        db[i] = static_cast<std::uint8_t>(i * 9 + 11);
    }
    std::vector<std::uint8_t> key(da.begin(), da.begin() + 64);
    sys.load(kA, da.data(), kN);
    sys.load(kB, db.data(), kN);
    sys.load(kKey, key.data(), key.size());
    for (Addr a : {kA, kB, kD})
        sys.warm(level, 0, a, kN);
    sys.warm(level, 0, kKey, 64);
    sys.resetMetrics();

    Addr b = kernel == BulkKernel::Search ? kKey : kB;
    if (use_cc) {
        sys.cc().mutableParams().forceLevel = level;
        sys.ccEngine().run(kernel, 0, kA, b, kD, kN);
    } else {
        sys.simd32().run(kernel, 0, kA, b, kD, kN);
    }
    return sys.energy().dynamic().dynamicTotal();
}

} // namespace

int
run(int, char **)
{
    bench::header("Figure 8b: dynamic-energy savings per cache level, "
                  "4 KB operands");

    bench::ResultsWriter results("fig8_cache_levels");
    results.config("operand_bytes", kN);

    std::printf("%-9s %12s %14s %14s %10s\n", "kernel", "level",
                "Base_32 (nJ)", "CC (nJ)", "saving");
    bench::rule();

    const BulkKernel kernels[] = {BulkKernel::Copy, BulkKernel::Compare,
                                  BulkKernel::Search,
                                  BulkKernel::LogicalOr};
    const CacheLevel levels[] = {CacheLevel::L3, CacheLevel::L2,
                                 CacheLevel::L1};

    // One sweep point per (kernel, level) pair, Base_32 + CC run inside.
    struct Row
    {
        double base, cc;
    };
    std::vector<Row> rows(12);
    bench::SweepRunner sweep(&results);
    for (std::size_t i = 0; i < 12; ++i) {
        BulkKernel k = kernels[i / 3];
        CacheLevel level = levels[i % 3];
        std::string key = std::string(toString(k)) + "." + toString(level);
        sweep.add(key, [&, i, k, level, key](bench::SweepContext &ctx) {
            rows[i] = {runOnce(k, level, false), runOnce(k, level, true)};
            ctx.metric(key + ".base32_dynamic_nj", rows[i].base / 1e3);
            ctx.metric(key + ".cc_dynamic_nj", rows[i].cc / 1e3);
            ctx.metric(key + ".saving_fraction",
                       1.0 - rows[i].cc / rows[i].base);
        });
    }
    sweep.run();

    for (std::size_t i = 0; i < 12; ++i)
        std::printf("%-9s %12s %14.0f %14.0f %9.0f%%\n",
                    toString(kernels[i / 3]), toString(levels[i % 3]),
                    rows[i].base / 1e3, rows[i].cc / 1e3,
                    100.0 * (1.0 - rows[i].cc / rows[i].base));

    bench::rule();
    bench::note("Paper: absolute savings are largest at L3, but CC at L1 "
                "and L2");
    bench::note("still saves (95% at L1, 34% at L2 relative to their "
                "Base_32).");
    return bench::finish(results, sweep);
}

} // namespace bench::fig8_cache_levels
