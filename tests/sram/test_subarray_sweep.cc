/**
 * @file
 * Parameterized sweep: the compute sub-array must be functionally
 * correct for every geometry the caches derive (L1 128x512,
 * L2 256x512, L3 512x512) and for multi-partition rows.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "common/rng.hh"
#include "geometry/cache_geometry.hh"
#include "sram/subarray.hh"

namespace ccache::sram {
namespace {

struct SweepCase
{
    const char *name;
    std::size_t rows;
    std::size_t cols;
};

/** Lists a case as "L1 128x512" rather than gtest's default byte dump,
 *  which would include the address of `name` and so change from build
 *  to build. */
void
PrintTo(const SweepCase &c, std::ostream *os)
{
    *os << c.name << ' ' << c.rows << 'x' << c.cols;
}

class SubArraySweep : public ::testing::TestWithParam<SweepCase>
{
};

TEST_P(SubArraySweep, AllOpsCorrectOnThisGeometry)
{
    auto [name, rows, cols] = GetParam();
    SubArrayParams p;
    p.rows = rows;
    p.cols = cols;
    SubArray sa(p);
    Rng rng(rows * 31 + cols);

    for (std::size_t part = 0; part < sa.partitions(); ++part) {
        Block a, b;
        for (std::size_t i = 0; i < kBlockSize; ++i) {
            a[i] = static_cast<std::uint8_t>(rng.below(256));
            b[i] = static_cast<std::uint8_t>(rng.below(256));
        }
        std::size_t r0 = rng.below(rows);
        std::size_t r1 = (r0 + 1 + rng.below(rows - 1)) % rows;
        std::size_t rd = (r1 + 1 + rng.below(rows - 1)) % rows;
        if (rd == r0)
            rd = (rd + 1) % rows;
        ASSERT_NE(r0, r1);

        sa.write({part, r0}, a);
        sa.write({part, r1}, b);

        sa.opAnd({part, r0}, {part, r1}, {part, rd});
        Block expect;
        for (std::size_t i = 0; i < kBlockSize; ++i)
            expect[i] = a[i] & b[i];
        EXPECT_EQ(sa.read({part, rd}), expect) << name;

        sa.opXor({part, r0}, {part, r1}, {part, rd});
        for (std::size_t i = 0; i < kBlockSize; ++i)
            expect[i] = a[i] ^ b[i];
        EXPECT_EQ(sa.read({part, rd}), expect) << name;

        sa.opCopy({part, r0}, {part, rd});
        EXPECT_EQ(sa.read({part, rd}), a) << name;

        auto cmp = sa.opCmp({part, r0}, {part, r1});
        EXPECT_EQ(cmp.allEqual, a == b) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    PaperGeometries, SubArraySweep,
    ::testing::Values(SweepCase{"L1", 128, 512},
                      SweepCase{"L2", 256, 512},
                      SweepCase{"L3", 512, 512},
                      SweepCase{"wide2", 64, 1024},
                      SweepCase{"wide4", 32, 2048}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(SubArraySweep, GeometryDerivedParamsMatchSubArray)
{
    // The cache geometry's derived sub-array params build working
    // sub-arrays for all three paper caches.
    for (auto params : {geometry::CacheGeometryParams::l1d(),
                        geometry::CacheGeometryParams::l2(),
                        geometry::CacheGeometryParams::l3Slice()}) {
        geometry::CacheGeometry geom(params);
        SubArray sa(geom.subArrayParams());
        EXPECT_EQ(sa.rowsPerPartition(), geom.rowsPerSubarray());
        EXPECT_EQ(sa.partitions(), geom.subArrayParams().blockPartitions());
        // One quick functional round trip.
        Block b;
        b.fill(0xa5);
        sa.write({0, 0}, b);
        EXPECT_EQ(sa.read({0, 0}), b);
    }
}

} // namespace
} // namespace ccache::sram
