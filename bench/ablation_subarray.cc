/**
 * @file
 * Ablation: circuit-level robustness of multi-row activation. Sweeps the
 * number of simultaneously activated word-lines and reports the
 * worst-case sense margin, the Monte-Carlo failure probability at a
 * realistic sense-amplifier offset, and whether stored data survives —
 * reproducing the Jeloka et al. 64-row safety claim the paper builds on.
 */

#include "bench_util.hh"
#include "common/rng.hh"
#include "sram/subarray.hh"

using namespace ccache;
using namespace ccache::sram;

namespace bench::ablation_subarray {

namespace {

struct RowResult
{
    double margin = 0.0;
    double failRate = 0.0;
    bool intact = false;
};

} // namespace

int
run(int, char **)
{
    bench::header("Ablation: multi-row activation robustness "
                  "(Section II-B)");

    SubArrayParams params;
    params.rows = 128;
    params.cols = 512;

    bench::ResultsWriter results("ablation_subarray");
    results.config("rows", params.rows);
    results.config("cols", params.cols);

    const std::vector<unsigned> row_counts{1, 2, 4, 8, 16, 32, 64};

    // One sweep point per activation width; each owns its sub-array and
    // draws from its shard RNG, so the points fan out across cores.
    std::vector<RowResult> out(row_counts.size());
    bench::SweepRunner sweep(&results);
    for (std::size_t i = 0; i < row_counts.size(); ++i) {
        unsigned nrows = row_counts[i];
        sweep.add("rows_" + std::to_string(nrows),
                  [&, i, nrows](bench::SweepContext &ctx) {
            SubArray sa(params);

            // Worst-case-ish contents: random rows.
            std::vector<Block> originals;
            for (unsigned r = 0; r < nrows; ++r) {
                Block b;
                for (auto &byte : b)
                    byte = static_cast<std::uint8_t>(ctx.rng().below(256));
                originals.push_back(b);
                sa.write({0, r}, b);
            }

            std::vector<std::size_t> rows(nrows);
            for (unsigned r = 0; r < nrows; ++r)
                rows[r] = r;
            auto sense = sa.rawActivate(rows);

            bool intact = true;
            for (unsigned r = 0; r < nrows; ++r)
                intact &= sa.read({0, r}) == originals[r];

            Rng mc = ctx.rngFor("monte_carlo");
            double fail = SenseAmpArray::monteCarloFailureRate(
                sense.margin, 0.015, 100000, mc);

            out[i] = RowResult{sense.margin, fail, intact};
            ctx.metric(ctx.key() + ".sense_margin", sense.margin);
            ctx.metric(ctx.key() + ".mc_fail_rate", fail);
            ctx.metric(ctx.key() + ".data_intact", intact ? 1 : 0);
        });
    }
    sweep.run();

    std::printf("%8s %14s %16s %14s\n", "rows", "sense margin",
                "MC fail rate", "data intact");
    bench::rule();
    for (std::size_t i = 0; i < row_counts.size(); ++i)
        std::printf("%8u %13.3f %16.2e %14s\n", row_counts[i],
                    out[i].margin, out[i].failRate,
                    out[i].intact ? "yes" : "CORRUPTED");

    bench::rule();
    bench::note("With word-line underdrive, up to 64 simultaneously "
                "active rows");
    bench::note("read back intact (matching the fabricated-chip result); "
                "the sense");
    bench::note("margin at a 1.5% VDD amplifier sigma gives a ~0 "
                "Monte-Carlo");
    bench::note("failure rate, consistent with the six-sigma claim.");
    return bench::finish(results, sweep);
}

} // namespace bench::ablation_subarray
