/**
 * @file
 * Reproduces Figure 3 (top): proportion of energy spent on instruction
 * processing (core) vs data movement for a bulk comparison over 4 KB
 * operands, on a scalar core, a 32-byte SIMD core and Compute Caches.
 *
 * The paper's narrative: on the scalar core <1% of the energy is ALU
 * work, ~3/4 is instruction processing and ~1/4 data movement; SIMD
 * shrinks the instruction share but not the movement; Compute Caches
 * eliminate both.
 */

#include "bench_util.hh"
#include "sim/system.hh"

using namespace ccache;
using namespace ccache::sim;

namespace bench::fig3_energy_proportions {

namespace {

constexpr std::size_t kN = 4096;
constexpr Addr kA = 0x100000;
constexpr Addr kB = 0x110000;

struct Proportions
{
    double core;
    double movement;
    double total_nj;
};

Proportions
runCompare(int mode)
{
    System sys;
    std::vector<std::uint8_t> data(kN, 0x3c);
    sys.load(kA, data.data(), kN);
    sys.load(kB, data.data(), kN);
    sys.warm(CacheLevel::L3, 0, kA, kN);
    sys.warm(CacheLevel::L3, 0, kB, kN);
    sys.resetMetrics();

    switch (mode) {
      case 0:
        sys.scalar().compare(0, kA, kB, kN);
        break;
      case 1:
        sys.simd32().compare(0, kA, kB, kN);
        break;
      default:
        sys.cc().mutableParams().forceLevel = CacheLevel::L3;
        sys.ccEngine().compare(0, kA, kB, kN);
        break;
    }

    const auto &dyn = sys.energy().dynamic();
    Proportions p;
    p.total_nj = dyn.dynamicTotal() / 1e3;
    p.core = dyn.core / dyn.dynamicTotal();
    p.movement = dyn.dataMovement() / dyn.dynamicTotal();
    return p;
}

} // namespace

int
run(int, char **)
{
    bench::header("Figure 3: energy proportions, bulk compare of 4 KB "
                  "operands");

    bench::ResultsWriter results("fig3_energy_proportions");
    results.config("operand_bytes", kN);
    results.config("kernel", "compare");

    const char *names[] = {"Scalar core", "SIMD core (Base_32)",
                           "Compute Cache"};
    const char *keys[] = {"scalar", "simd32", "cc_l3"};
    std::printf("%-22s %12s %12s %14s\n", "configuration", "core %",
                "movement %", "total (nJ)");
    bench::rule();

    // One sweep point per engine configuration.
    Proportions props[3];
    bench::SweepRunner sweep(&results);
    for (int mode = 0; mode < 3; ++mode) {
        sweep.add(keys[mode], [&, mode](bench::SweepContext &ctx) {
            props[mode] = runCompare(mode);
            std::string key = keys[mode];
            ctx.metric(key + ".core_fraction", props[mode].core);
            ctx.metric(key + ".movement_fraction", props[mode].movement);
            ctx.metric(key + ".dynamic_total_nj", props[mode].total_nj);
        });
    }
    sweep.run();

    double scalar_total = props[0].total_nj;
    for (int mode = 0; mode < 3; ++mode) {
        const Proportions &p = props[mode];
        std::printf("%-22s %11.1f%% %11.1f%% %14.1f\n", names[mode],
                    100.0 * p.core, 100.0 * p.movement, p.total_nj);
        if (mode == 2) {
            std::printf("%-22s %37.1fx vs scalar\n", "  total reduction",
                        scalar_total / p.total_nj);
            results.metric("cc_l3.reduction_vs_scalar",
                           scalar_total / p.total_nj);
        }
    }

    bench::rule();
    bench::note("Paper: scalar ~3/4 instruction processing + ~1/4 data");
    bench::note("movement (<1% ALU); SIMD cuts the instruction share; CC");
    bench::note("reduces instruction processing by an order of magnitude");
    bench::note("and eliminates the data movement.");
    return bench::finish(results, sweep);
}

} // namespace bench::fig3_energy_proportions
