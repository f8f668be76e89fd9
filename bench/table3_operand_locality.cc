/**
 * @file
 * Reproduces Table III: cache geometry and the minimum number of low
 * address bits that must match for operand locality. The values are
 * DERIVED from the operand-locality-aware geometry (Section IV-C), not
 * transcribed, and checked against the page-alignment sufficiency rule.
 */

#include "bench_util.hh"
#include "geometry/cache_geometry.hh"
#include "geometry/operand_locality.hh"

using namespace ccache;
using namespace ccache::geometry;

namespace bench::table3_operand_locality {

int
run(int, char **)
{
    bench::header("Table III: Cache geometry and operand locality "
                  "constraint");

    std::printf("%-10s %6s %4s %11s %22s %12s\n", "Cache", "Banks", "BP",
                "Block size", "Min. address bits match",
                "<=12 (page)?");
    bench::rule();

    bench::ResultsWriter results("table3_operand_locality");
    const CacheGeometryParams level_params[] = {
        CacheGeometryParams::l1d(), CacheGeometryParams::l2(),
        CacheGeometryParams::l3Slice()};

    // One sweep point per cache level.
    bench::SweepRunner sweep(&results);
    for (const auto &params : level_params) {
        sweep.add(params.name, [&params](bench::SweepContext &ctx) {
            CacheGeometry geom(params);
            ctx.metric(params.name + ".min_match_bits",
                       geom.minMatchBits());
            ctx.metric(params.name + ".page_alignment_sufficient",
                       pageAlignmentSufficient(geom) ? 1 : 0);
        });
    }
    sweep.run();

    for (const auto &params : level_params) {
        CacheGeometry geom(params);
        std::printf("%-10s %6zu %4zu %11zu %22u %12s\n",
                    params.name.c_str(), params.banks,
                    params.blockPartitionsPerBank, kBlockSize,
                    geom.minMatchBits(),
                    pageAlignmentSufficient(geom) ? "yes" : "NO");
    }

    bench::rule();
    bench::note("Paper: L1-D 2/2/64/8, L2 8/2/64/10, L3-slice 16/4/64/12.");
    bench::note("Page-aligned operands (12 matching bits) satisfy operand");
    bench::note("locality at every level, so software never needs the "
                "cache geometry.");

    // Derived physical structure, for the record.
    bench::rule();
    for (const auto &params :
         {CacheGeometryParams::l1d(), CacheGeometryParams::l2(),
          CacheGeometryParams::l3Slice()}) {
        CacheGeometry geom(params);
        std::printf("%-10s: %3zu sub-arrays of %zu x %zu bits, "
                    "%zu blocks per partition\n",
                    params.name.c_str(), geom.totalSubarrays(),
                    geom.rowsPerSubarray(), geom.subArrayParams().cols,
                    geom.blocksPerPartition());
    }
    return bench::finish(results, sweep);
}

} // namespace bench::table3_operand_locality
