/**
 * @file
 * Tests for cache geometry, address decoding (Figure 5) and the operand
 * locality guarantees of Section IV-C / Table III.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "geometry/cache_geometry.hh"
#include "geometry/operand_locality.hh"

namespace ccache::geometry {

/** Lists a geometry by its name rather than gtest's default byte dump,
 *  which starts with the address of `name` and so changes from build to
 *  build. Outside the unnamed namespace, so that argument-dependent
 *  lookup finds it next to CacheGeometryParams. */
void
PrintTo(const CacheGeometryParams &params, std::ostream *os)
{
    *os << params.name;
}

namespace {

TEST(CacheGeometry, TableIIIMinMatchBits)
{
    // Table III: L1-D needs 8 matching bits, L2 10, L3-slice 12.
    EXPECT_EQ(CacheGeometry(CacheGeometryParams::l1d()).minMatchBits(), 8u);
    EXPECT_EQ(CacheGeometry(CacheGeometryParams::l2()).minMatchBits(), 10u);
    EXPECT_EQ(CacheGeometry(CacheGeometryParams::l3Slice()).minMatchBits(),
              12u);
}

TEST(CacheGeometry, L3SliceDerivedStructure)
{
    CacheGeometry g(CacheGeometryParams::l3Slice());
    EXPECT_EQ(g.numSets(), 2048u);
    EXPECT_EQ(g.numBlocks(), 32768u);
    // Section II-A: a 2 MB L3 slice has 64 sub-arrays over 16 banks.
    EXPECT_EQ(g.totalSubarrays(), 64u);
    EXPECT_EQ(g.subarraysPerBank(), 4u);
    // Section VI-C: the optimal L3 sub-array is 512 x 512 bits.
    EXPECT_EQ(g.rowsPerSubarray(), 512u);
    EXPECT_EQ(g.subArrayParams().cols, 512u);
    EXPECT_EQ(g.blocksPerPartition(), 512u);
}

TEST(CacheGeometry, L1DerivedStructure)
{
    CacheGeometry g(CacheGeometryParams::l1d());
    EXPECT_EQ(g.numSets(), 64u);
    EXPECT_EQ(g.totalSubarrays(), 4u);
    EXPECT_EQ(g.rowsPerSubarray(), 128u);
}

TEST(CacheGeometry, DecodeFieldsRecomposeAddress)
{
    CacheGeometry g(CacheGeometryParams::l3Slice());
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
        Addr addr = rng.next() & ((Addr{1} << 40) - 1);
        auto f = g.decode(addr);
        EXPECT_LT(f.bank, 16u);
        EXPECT_LT(f.bp, 4u);
        EXPECT_LT(f.set, g.numSets());
        Addr rebuilt = (f.tag << (g.setIndexBits() + g.blockOffsetBits())) |
            (static_cast<Addr>(f.set) << g.blockOffsetBits()) |
            f.blockOffset;
        EXPECT_EQ(rebuilt, addr);
        // The bank/bp selectors are the low set-index bits (Figure 5(b)).
        EXPECT_EQ(f.bank, f.set & 0xf);
        EXPECT_EQ(f.bp, (f.set >> 4) & 0x3);
    }
}

TEST(CacheGeometry, AllWaysOfASetShareAPartition)
{
    // Design choice 1 (Section IV-C): operand locality must not depend on
    // which way the cache picks at fill time.
    for (auto params : {CacheGeometryParams::l1d(), CacheGeometryParams::l2(),
                        CacheGeometryParams::l3Slice()}) {
        CacheGeometry g(params);
        for (std::size_t set : {std::size_t{0}, g.numSets() / 2,
                                g.numSets() - 1}) {
            auto first = g.place(set, 0);
            for (std::size_t way = 1; way < params.ways; ++way) {
                auto p = g.place(set, way);
                EXPECT_EQ(p.globalPartition, first.globalPartition);
                EXPECT_EQ(p.bank, first.bank);
                EXPECT_EQ(p.subarray, first.subarray);
            }
        }
    }
}

TEST(CacheGeometry, DistinctBlocksGetDistinctRows)
{
    CacheGeometry g(CacheGeometryParams::l1d());
    // Within one partition, every (set, way) pair must get a unique row.
    std::vector<std::vector<bool>> used(
        g.totalBlockPartitions(),
        std::vector<bool>(g.rowsPerSubarray(), false));
    for (std::size_t set = 0; set < g.numSets(); ++set) {
        for (std::size_t way = 0; way < g.params().ways; ++way) {
            auto p = g.place(set, way);
            EXPECT_FALSE(used[p.globalPartition][p.row])
                << "collision at set " << set << " way " << way;
            used[p.globalPartition][p.row] = true;
        }
    }
}

TEST(OperandLocality, LowBitsMatch)
{
    EXPECT_TRUE(lowBitsMatch(0x1234, 0x5234, 12));
    EXPECT_FALSE(lowBitsMatch(0x1234, 0x1235, 12));
    EXPECT_TRUE(lowBitsMatch(0xabc, 0xdef, 0));
}

TEST(OperandLocality, PageAlignedRule)
{
    EXPECT_TRUE(pageAligned(0x10040, 0x7f040));
    EXPECT_FALSE(pageAligned(0x10040, 0x7f080));
}

TEST(OperandLocality, PageAlignmentSufficientForAllPaperCaches)
{
    EXPECT_TRUE(pageAlignmentSufficient(
        CacheGeometry(CacheGeometryParams::l1d())));
    EXPECT_TRUE(pageAlignmentSufficient(
        CacheGeometry(CacheGeometryParams::l2())));
    EXPECT_TRUE(pageAlignmentSufficient(
        CacheGeometry(CacheGeometryParams::l3Slice())));
}

class LocalityProperty
    : public ::testing::TestWithParam<CacheGeometryParams>
{
};

/** Property: page alignment implies operand locality on every geometry
 *  whose minMatchBits <= 12 — the portability guarantee of Section IV-C. */
TEST_P(LocalityProperty, PageAlignmentImpliesLocality)
{
    CacheGeometry g(GetParam());
    ASSERT_LE(g.minMatchBits(), kPageOffsetBits);
    Rng rng(17);
    for (int i = 0; i < 2000; ++i) {
        Addr offset = rng.below(kPageSize) & ~Addr{63};
        Addr a = rng.below(1u << 20) * kPageSize + offset;
        Addr b = rng.below(1u << 20) * kPageSize + offset;
        EXPECT_TRUE(pageAligned(a, b));
        EXPECT_TRUE(haveOperandLocality(g, a, b))
            << std::hex << "a=" << a << " b=" << b;
    }
}

/** Property: two addresses have operand locality exactly when their low
 *  minMatchBits bits match. */
TEST_P(LocalityProperty, MatchingMinBitsIsExactlySufficient)
{
    CacheGeometry g(GetParam());
    Rng rng(23);
    for (int i = 0; i < 2000; ++i) {
        Addr a = rng.next() & ((Addr{1} << 38) - 1);
        Addr b = rng.next() & ((Addr{1} << 38) - 1);
        bool match = lowBitsMatch(a, b, g.minMatchBits());
        EXPECT_EQ(match, haveOperandLocality(g, a, b))
            << std::hex << "a=" << a << " b=" << b;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPaperGeometries, LocalityProperty,
    ::testing::Values(CacheGeometryParams::l1d(), CacheGeometryParams::l2(),
                      CacheGeometryParams::l3Slice()),
    [](const auto &info) {
        std::string n = info.param.name;
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

TEST(OperandLocality, VectorOverload)
{
    CacheGeometry g(CacheGeometryParams::l3Slice());
    std::vector<Addr> good = {0x10000, 0x20000, 0x30000};
    EXPECT_TRUE(haveOperandLocality(g, good));
    std::vector<Addr> bad = {0x10000, 0x20000, 0x30040};
    EXPECT_FALSE(haveOperandLocality(g, bad));
}

TEST(OperandLocality, AlignToOperand)
{
    Addr anchor = 0x12340;  // page offset 0x340
    Addr a1 = alignToOperand(anchor, 0x50000);
    EXPECT_EQ(a1 & (kPageSize - 1), 0x340u);
    EXPECT_GE(a1, 0x50000u);
    EXPECT_LT(a1, 0x50000u + 2 * kPageSize);
    EXPECT_TRUE(pageAligned(anchor, a1));

    // Hint already past the offset within its page: next page is used.
    Addr a2 = alignToOperand(anchor, 0x50800);
    EXPECT_EQ(a2, 0x51340u);
}

TEST(CacheGeometry, RejectsInvalidConfigs)
{
    CacheGeometryParams p = CacheGeometryParams::l1d();
    p.banks = 3;
    EXPECT_THROW((void)CacheGeometry(p), FatalError);

    p = CacheGeometryParams::l1d();
    p.sizeBytes = 1000;
    EXPECT_THROW((void)CacheGeometry(p), FatalError);

    p = CacheGeometryParams::l1d();
    p.banks = 64;
    p.blockPartitionsPerBank = 64; // needs more set bits than exist
    EXPECT_THROW((void)CacheGeometry(p), FatalError);
}

} // namespace
} // namespace ccache::geometry
