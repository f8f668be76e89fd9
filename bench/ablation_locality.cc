/**
 * @file
 * Ablation: sensitivity to operand locality. Sweeps the fraction of
 * operations whose destination is page-misaligned (breaking in-place
 * locality) and reports cycles and energy as work shifts from the
 * bit-lines to the near-place logic unit — quantifying how much of the
 * Compute Cache win the Section IV-C software contract protects.
 */

#include "bench_util.hh"
#include "sim/system.hh"

using namespace ccache;
using namespace ccache::sim;

namespace bench::ablation_locality {

namespace {

struct Outcome
{
    Cycles cycles;
    double dyn_nj;
    std::size_t near_ops;
};

Outcome
runMix(int misaligned_of_8)
{
    System sys;
    const std::size_t n = 4096;
    std::vector<std::uint8_t> data(n, 0x6b);

    auto dst_of = [&](int i) {
        // Misaligned destinations sit half a page off.
        return 0x2000000 + i * 0x20000 +
            (i < misaligned_of_8 ? 0x800 : 0);
    };

    for (int i = 0; i < 8; ++i) {
        Addr src = 0x1000000 + i * 0x20000;
        sys.load(src, data.data(), n);
        sys.warm(CacheLevel::L3, 0, src, n);
        sys.warm(CacheLevel::L3, 0, dst_of(i), n);
    }
    sys.resetMetrics();
    sys.cc().mutableParams().forceLevel = CacheLevel::L3;

    Outcome out{0, 0.0, 0};
    for (int i = 0; i < 8; ++i) {
        Addr src = 0x1000000 + i * 0x20000;
        auto r = sys.cc().execute(
            0, cc::CcInstruction::copy(src, dst_of(i), n));
        out.cycles += r.latency;
        out.near_ops += r.nearPlaceOps;
    }
    out.dyn_nj = sys.energy().dynamic().dynamicTotal() / 1e3;
    return out;
}

} // namespace

int
run(int, char **)
{
    bench::header("Ablation: operand-locality sensitivity "
                  "(8 x 4 KB copies)");

    std::printf("%18s %10s %14s %14s\n", "misaligned share", "cycles",
                "dynamic (nJ)", "near-place ops");
    bench::rule();

    bench::ResultsWriter results("ablation_locality");
    const int shares[] = {0, 2, 4, 6, 8};

    // One sweep point per misalignment share; the fully-aligned and
    // fully-misaligned ratios reuse the first and last points' runs.
    Outcome outcomes[5];
    bench::SweepRunner sweep(&results);
    for (int s = 0; s < 5; ++s) {
        int mis = shares[s];
        std::string key =
            "misaligned_" + std::to_string(mis * 100 / 8) + "pct";
        sweep.add(key, [&, s, mis, key](bench::SweepContext &ctx) {
            outcomes[s] = runMix(mis);
            ctx.metric(key + ".cycles",
                       static_cast<double>(outcomes[s].cycles));
            ctx.metric(key + ".dynamic_nj", outcomes[s].dyn_nj);
            ctx.metric(key + ".near_place_ops",
                       static_cast<double>(outcomes[s].near_ops));
        });
    }
    sweep.run();

    for (int s = 0; s < 5; ++s)
        std::printf("%17d%% %10llu %14.0f %14zu\n", shares[s] * 100 / 8,
                    static_cast<unsigned long long>(outcomes[s].cycles),
                    outcomes[s].dyn_nj, outcomes[s].near_ops);

    const Outcome &aligned = outcomes[0];
    const Outcome &broken = outcomes[4];
    bench::rule();
    std::printf("fully misaligned costs %.1fx the cycles and %.1fx the "
                "dynamic energy\n",
                static_cast<double>(broken.cycles) /
                    static_cast<double>(aligned.cycles),
                broken.dyn_nj / aligned.dyn_nj);
    results.metric("fully_misaligned.cycle_ratio",
                   static_cast<double>(broken.cycles) /
                       static_cast<double>(aligned.cycles));
    results.metric("fully_misaligned.energy_ratio",
                   broken.dyn_nj / aligned.dyn_nj);
    bench::note("Page alignment is cheap for software (Section IV-C) and");
    bench::note("protects the entire in-place advantage; every misaligned");
    bench::note("operation falls back to the serialized near-place unit.");
    return bench::finish(results, sweep);
}

} // namespace bench::ablation_locality
