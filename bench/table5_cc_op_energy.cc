/**
 * @file
 * Reproduces Table V: cache energy (pJ) per 64-byte cache block for every
 * operation at every level, and cross-checks the paper's internal
 * consistency relations (read = Table I ic+access; search = cmp + write).
 */

#include <cmath>

#include "bench_util.hh"
#include "energy/energy_params.hh"

using namespace ccache;
using namespace ccache::energy;

namespace bench::table5_cc_op_energy {

int
run(int, char **)
{
    bench::header("Table V: Cache energy (pJ) per 64-byte cache block");
    EnergyParams params;

    const CacheOp ops[] = {CacheOp::Write, CacheOp::Read, CacheOp::Cmp,
                           CacheOp::Copy, CacheOp::Search, CacheOp::Not,
                           CacheOp::Logic};

    std::printf("%-6s", "cache");
    for (CacheOp op : ops)
        std::printf("%9s", toString(op));
    std::printf("\n");
    bench::rule();

    bench::ResultsWriter results("table5_cc_op_energy");
    const CacheLevel levels[] = {CacheLevel::L3, CacheLevel::L2,
                                 CacheLevel::L1};

    // One sweep point per cache level.
    bench::SweepRunner sweep(&results);
    for (CacheLevel level : levels) {
        sweep.add(toString(level), [&, level](bench::SweepContext &ctx) {
            for (CacheOp op : ops)
                ctx.metric(std::string(toString(level)) + "." +
                               toString(op) + ".pj",
                           params.cacheOpEnergy(level, op));
        });
    }
    sweep.run();

    for (CacheLevel level : levels) {
        std::printf("%-6s", toString(level));
        for (CacheOp op : ops)
            std::printf("%9.0f", params.cacheOpEnergy(level, op));
        std::printf("\n");
    }

    bench::rule();
    bench::note("Consistency checks (paper-internal relations):");

    bool ok = true;
    struct Pair
    {
        CacheLevel level;
        CacheReadSplit split;
    } reads[] = {{CacheLevel::L1, params.l1Read},
                 {CacheLevel::L2, params.l2Read},
                 {CacheLevel::L3, params.l3Read}};
    for (const auto &[level, split] : reads) {
        double table5 = params.cacheOpEnergy(level, CacheOp::Read);
        bool match = std::abs(table5 - split.total()) < 1.0;
        ok &= match;
        std::printf("  %s read %4.0f == Table I ic+access %4.0f : %s\n",
                    toString(level), table5, split.total(),
                    match ? "ok" : "MISMATCH");
    }
    for (CacheLevel level :
         {CacheLevel::L1, CacheLevel::L2, CacheLevel::L3}) {
        double search = params.cacheOpEnergy(level, CacheOp::Search);
        double sum = params.cacheOpEnergy(level, CacheOp::Cmp) +
            params.cacheOpEnergy(level, CacheOp::Write);
        bool match = std::abs(search - sum) < 1.0;
        ok &= match;
        std::printf("  %s search %4.0f == cmp + write %4.0f : %s\n",
                    toString(level), search, sum,
                    match ? "ok" : "MISMATCH");
    }
    results.metric("consistency.ok", ok ? 1 : 0);
    return bench::finish(results, sweep, ok);
}

} // namespace bench::table5_cc_op_energy
