/**
 * @file
 * Staged-operand handling in the controller: operands pinned during
 * staging and then lost before issue (an inclusion victim back-
 * invalidates a pinned L1/L2 copy) are counted as staging races and
 * re-fetched with the data still exact, and in-place ops whose
 * destination aliases a source compute correctly.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "cc/cc_controller.hh"

namespace ccache::cc {
namespace {

// Same-set strides (Table IV geometry): L2 512 sets, L3 slice 2048 sets.
constexpr Addr kL2SetStride = 512 * kBlockSize;
constexpr Addr kL3SetStride = 2048 * kBlockSize;

Block
pattern(std::uint8_t seed)
{
    Block b;
    for (std::size_t i = 0; i < kBlockSize; ++i)
        b[i] = static_cast<std::uint8_t>(seed * 31 + i * 7);
    return b;
}

Block
xorBlocks(const Block &a, const Block &b)
{
    Block r;
    for (std::size_t i = 0; i < kBlockSize; ++i)
        r[i] = a[i] ^ b[i];
    return r;
}

class StagedOperands : public ::testing::Test
{
  protected:
    StagedOperands() : hier(cache::HierarchyParams{}, &em, &stats) {}

    CcController
    controllerAt(CacheLevel level)
    {
        CcControllerParams p;
        p.forceLevel = level;
        return CcController(hier, &em, &stats, p);
    }

    std::uint64_t races() const { return stats.value("cc.staging_races"); }
    std::uint64_t refetches() const
    {
        return stats.value("cc.operand_refetches");
    }

    energy::EnergyModel em;
    StatRegistry stats;
    cache::Hierarchy hier;
};

TEST_F(StagedOperands, L1AnchorLostToL2VictimFallsBackToRisc)
{
    // src1 is the LRU line of a full L2 set. Staging src2 into the same
    // L2 set evicts src1's L2 copy, and inclusion drops the L1 copy that
    // src1's staging had just pinned.
    const Addr a = 0x1000000;
    const Addr b = a + 8 * kL2SetStride;
    const Addr d = a + 9 * kL2SetStride;
    hier.memory().writeBlock(a, pattern(1));
    hier.memory().writeBlock(b, pattern(2));
    hier.read(0, a);
    for (unsigned k = 1; k < 8; ++k)
        hier.read(0, a + k * kL2SetStride);

    CcController ctrl = controllerAt(CacheLevel::L1);
    CcExecResult r = ctrl.execute(0, CcInstruction::logicalXor(a, b, d, 64));

    EXPECT_TRUE(r.riscFallback);
    EXPECT_EQ(races(), 1u);
    EXPECT_EQ(refetches(), 0u);
    EXPECT_EQ(hier.debugRead(d), xorBlocks(pattern(1), pattern(2)));
    EXPECT_EQ(hier.debugRead(a), pattern(1));
}

TEST_F(StagedOperands, L1SourceLostToL2VictimIsRefetched)
{
    // src2 is the LRU line of a full L2 set; staging dest into that set
    // back-invalidates src2's pinned L1 copy. The anchor (src1) lives
    // elsewhere, so the op degrades to near-place and re-reads src2.
    const Addr b = 0x2000000;
    const Addr a = b + 0x40;
    const Addr d = b + 8 * kL2SetStride;
    hier.memory().writeBlock(a, pattern(3));
    hier.memory().writeBlock(b, pattern(4));
    hier.read(0, b);
    for (unsigned k = 1; k < 8; ++k)
        hier.read(0, b + k * kL2SetStride);

    CcController ctrl = controllerAt(CacheLevel::L1);
    CcExecResult r = ctrl.execute(0, CcInstruction::logicalXor(a, b, d, 64));

    EXPECT_FALSE(r.riscFallback);
    EXPECT_EQ(r.nearPlaceOps, 1u);
    EXPECT_EQ(races(), 1u);
    EXPECT_EQ(refetches(), 1u);
    EXPECT_EQ(hier.debugRead(d), xorBlocks(pattern(3), pattern(4)));
    EXPECT_EQ(hier.debugRead(b), pattern(4));
}

TEST_F(StagedOperands, L2AnchorLostToL3VictimFallsBackToRisc)
{
    // src1 is the LRU line of a full L3 set (the fillers come from core
    // 1, so core 0's L2 keeps src1). Staging src2 into that L3 set
    // evicts src1 from L3, and inclusion drops its pinned L2 copy.
    const Addr a = 0x4000000;
    const Addr b = a + 16 * kL3SetStride;
    const Addr d = a + 17 * kL3SetStride;
    for (unsigned k = 0; k <= 17; ++k)
        hier.mapPage(a + k * kL3SetStride, 0);
    hier.memory().writeBlock(a, pattern(5));
    hier.memory().writeBlock(b, pattern(6));
    hier.read(0, a);
    for (unsigned k = 1; k < 16; ++k)
        hier.read(1, a + k * kL3SetStride);

    CcController ctrl = controllerAt(CacheLevel::L2);
    CcExecResult r = ctrl.execute(0, CcInstruction::logicalXor(a, b, d, 64));

    EXPECT_TRUE(r.riscFallback);
    EXPECT_EQ(races(), 1u);
    EXPECT_EQ(refetches(), 0u);
    EXPECT_EQ(hier.debugRead(d), xorBlocks(pattern(5), pattern(6)));
    EXPECT_EQ(hier.debugRead(a), pattern(5));
}

TEST_F(StagedOperands, InPlaceXorWithDestAliasingSrc1)
{
    // dest == src1: the same pinned line is read as a source and
    // overwritten as the destination, for every block of the vector.
    const Addr a = 0x6000000, b = 0x6100000;
    const std::size_t n = 4096;
    std::vector<Block> va, vb;
    for (std::size_t i = 0; i < n / kBlockSize; ++i) {
        va.push_back(pattern(static_cast<std::uint8_t>(i)));
        vb.push_back(pattern(static_cast<std::uint8_t>(100 + i)));
        hier.memory().writeBlock(a + i * kBlockSize, va.back());
        hier.memory().writeBlock(b + i * kBlockSize, vb.back());
    }

    CcController ctrl(hier, &em, &stats);
    CcExecResult r = ctrl.execute(0, CcInstruction::logicalXor(a, b, a, n));

    EXPECT_EQ(r.level, CacheLevel::L3);
    EXPECT_EQ(r.inPlaceOps, n / kBlockSize);
    EXPECT_EQ(races(), 0u);
    EXPECT_EQ(refetches(), 0u);
    for (std::size_t i = 0; i < n / kBlockSize; ++i) {
        EXPECT_EQ(hier.debugRead(a + i * kBlockSize),
                  xorBlocks(va[i], vb[i]));
        EXPECT_EQ(hier.debugRead(b + i * kBlockSize), vb[i]);
        EXPECT_FALSE(hier.l3Slice(0).isPinned(a + i * kBlockSize));
    }

    // Applying the same xor again restores the original data.
    ctrl.execute(0, CcInstruction::logicalXor(a, b, a, n));
    for (std::size_t i = 0; i < n / kBlockSize; ++i)
        EXPECT_EQ(hier.debugRead(a + i * kBlockSize), va[i]);
}

TEST_F(StagedOperands, InPlaceCopyOntoItselfKeepsData)
{
    const Addr a = 0x7000000;
    const std::size_t n = 2048;
    for (std::size_t i = 0; i < n / kBlockSize; ++i)
        hier.memory().writeBlock(a + i * kBlockSize,
                                 pattern(static_cast<std::uint8_t>(7 * i)));

    // Once cold (staged at L3) and once with every block in L1.
    for (CacheLevel level : {CacheLevel::L3, CacheLevel::L1}) {
        if (level == CacheLevel::L1)
            hier.loadBytes(0, a, nullptr, n);
        CcController ctrl(hier, &em, &stats);
        CcExecResult r = ctrl.execute(0, CcInstruction::copy(a, a, n));
        EXPECT_EQ(r.level, level);
        EXPECT_EQ(r.inPlaceOps, n / kBlockSize);
        for (std::size_t i = 0; i < n / kBlockSize; ++i) {
            Addr blk = a + i * kBlockSize;
            EXPECT_EQ(hier.debugRead(blk),
                      pattern(static_cast<std::uint8_t>(7 * i)));
            EXPECT_FALSE(hier.cacheAt(level, 0, blk).isPinned(blk));
        }
    }
    EXPECT_EQ(races(), 0u);
    EXPECT_EQ(refetches(), 0u);
}

} // namespace
} // namespace ccache::cc
