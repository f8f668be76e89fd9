/**
 * @file
 * Controller edge cases: cross-slice operands (near-place fallback at
 * L3), RISC-fallback result correctness for CC-R, odd vector sizes
 * through the engines, and replicated-clmul bookkeeping.
 */

#include <gtest/gtest.h>

#include <optional>

#include "cache/hierarchy.hh"
#include "cc/cc_controller.hh"
#include "common/rng.hh"
#include "sim/system.hh"

namespace ccache::cc {
namespace {

TEST(ControllerEdges, CrossSliceOperandsFallToNearPlace)
{
    energy::EnergyModel em;
    StatRegistry stats;
    cache::Hierarchy hier(cache::HierarchyParams{}, &em, &stats);
    CcController ctrl(hier, &em, &stats);

    // Same page offsets, but the pages are pinned to different NUCA
    // slices: the blocks cannot share bit-lines, so the op must execute
    // near-place (and still be correct).
    hier.mapPage(0x100000, 0);
    hier.mapPage(0x200000, 3);
    hier.mapPage(0x300000, 0);

    Block a, b;
    for (std::size_t i = 0; i < kBlockSize; ++i) {
        a[i] = static_cast<std::uint8_t>(i);
        b[i] = static_cast<std::uint8_t>(0x33 + i);
    }
    hier.memory().writeBlock(0x100000, a);
    hier.memory().writeBlock(0x200000, b);

    auto res = ctrl.execute(
        0, CcInstruction::logicalAnd(0x100000, 0x200000, 0x300000, 64));
    EXPECT_EQ(res.nearPlaceOps, 1u);
    EXPECT_EQ(res.inPlaceOps, 0u);

    Block expect;
    for (std::size_t i = 0; i < kBlockSize; ++i)
        expect[i] = a[i] & b[i];
    EXPECT_EQ(hier.debugRead(0x300000), expect);
}

TEST(ControllerEdges, RiscFallbackCmpMaskCorrect)
{
    energy::EnergyModel em;
    StatRegistry stats;
    cache::Hierarchy hier(cache::HierarchyParams{}, &em, &stats);
    CcControllerParams p;
    p.forceLevel = CacheLevel::L1;
    CcController ctrl(hier, &em, &stats, p);

    // Pin the operands' L1 set so staging fails and the cmp runs as
    // RISC loads + compares.
    const Addr a = 0x400000, b = 0x409040;
    for (unsigned i = 1; i <= 8; ++i) {
        Addr filler = a + i * 4096;
        hier.read(0, filler);
        ASSERT_TRUE(hier.l1(0).pin(filler));
    }

    Block da, db;
    for (std::size_t i = 0; i < kBlockSize; ++i)
        da[i] = db[i] = static_cast<std::uint8_t>(i * 5);
    db[16] ^= 0xff;  // word 2 differs
    hier.memory().writeBlock(a, da);
    hier.memory().writeBlock(b, db);

    auto res = ctrl.execute(0, CcInstruction::cmp(a, b, 64));
    EXPECT_TRUE(res.riscFallback);
    EXPECT_EQ(res.result & 0xff, 0xffu & ~(1u << 2));
}

TEST(ControllerEdges, ReplicatedClmulDisassemblesAndValidates)
{
    auto instr = CcInstruction::clmulReplicated(0x1000, 0x2000, 0x3000,
                                                4096, 256);
    EXPECT_TRUE(instr.src2Replicated);
    EXPECT_EQ(instr.clmulBitsPerBlock(), 2u);
    EXPECT_NO_THROW(instr.validate());
    // The replicated block and packed dest never span pages here.
    EXPECT_FALSE(instr.spansPage());
}

TEST(ControllerEdges, PartiallyOverlappingCopyThrowsAndWritesNothing)
{
    sim::System sys;
    const Addr src = 0x100000;
    const std::size_t n = 2048;
    std::vector<std::uint8_t> data(n + kBlockSize);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7 + 3);
    sys.load(src, data.data(), data.size());

    EXPECT_THROW(
        sys.cc().execute(0, CcInstruction::copy(src, src + kBlockSize, n)),
        FatalError);
    EXPECT_EQ(sys.dump(src, data.size()), data);
}

TEST(ControllerEdges, InPlaceXorMatchesSnapshotAtEveryLevel)
{
    // dest == src1: every block reads its operands before it writes, so
    // the in-place update equals a ^ b computed from the old a.
    const Addr a = 0x100000, b = 0x200000;
    const std::size_t n = 2048;
    std::vector<std::uint8_t> da(n), db(n), expect(n);
    for (std::size_t i = 0; i < n; ++i) {
        da[i] = static_cast<std::uint8_t>(i * 13 + 1);
        db[i] = static_cast<std::uint8_t>(i * 5 + 9);
        expect[i] = da[i] ^ db[i];
    }
    for (std::optional<CacheLevel> level :
         {std::optional<CacheLevel>{}, std::optional{CacheLevel::L1},
          std::optional{CacheLevel::L2}, std::optional{CacheLevel::L3}}) {
        sim::SystemConfig config;
        config.cc.forceLevel = level;
        sim::System sys(config);
        sys.load(a, da.data(), n);
        sys.load(b, db.data(), n);
        sys.cc().execute(0, CcInstruction::logicalXor(a, b, a, n));
        EXPECT_EQ(sys.dump(a, n), expect);
        EXPECT_EQ(sys.dump(b, n), db);
    }
}

TEST(ControllerEdges, EngineHandlesNonChunkMultipleSizes)
{
    sim::System sys;
    const std::size_t n = 4096 + 512 + 64;  // not a chunk multiple
    std::vector<std::uint8_t> data(n);
    for (std::size_t i = 0; i < n; ++i)
        data[i] = static_cast<std::uint8_t>(i * 11);
    sys.load(0x500000, data.data(), n);

    sys.ccEngine().copy(0, 0x500000, 0x600000, n);
    EXPECT_EQ(sys.dump(0x600000, n), data);

    auto cmp = sys.ccEngine().compare(0, 0x500000, 0x600000, n);
    EXPECT_EQ(cmp.value, 1u);
}

TEST(ControllerEdges, StreamWithSingleInstructionMatchesExecute)
{
    sim::System a_sys, b_sys;
    std::vector<std::uint8_t> data(1024, 0x42);
    a_sys.load(0x100000, data.data(), data.size());
    b_sys.load(0x100000, data.data(), data.size());

    auto instr = CcInstruction::copy(0x100000, 0x200000, 1024);
    auto single = a_sys.cc().execute(0, instr);

    Cycles stream_total = 0;
    auto rs = b_sys.cc().executeStream(0, {instr}, &stream_total);
    ASSERT_EQ(rs.size(), 1u);
    EXPECT_EQ(rs[0].blockOps, single.blockOps);
    // The stream total and the single latency agree to within the
    // notification constant.
    EXPECT_NEAR(static_cast<double>(stream_total),
                static_cast<double>(single.latency), 16.0);
}

TEST(ControllerEdges, BuzOnColdDestinationSkipsMemoryFetch)
{
    sim::System sys;
    std::uint64_t before = sys.stats().value("hier.mem_reads");
    sys.cc().execute(0, CcInstruction::buz(0x700000, 4096));
    // The destination is fully overwritten: Figure 6's "need not be
    // fetched from memory" optimization.
    EXPECT_EQ(sys.stats().value("hier.mem_reads"), before);
    EXPECT_EQ(sys.dump(0x700000, 4096),
              std::vector<std::uint8_t>(4096, 0));
}

TEST(ControllerEdges, LockRetryCounterVisible)
{
    // Retries surface in stats when staging has to re-fetch.
    sim::System sys;
    auto &hier = sys.hierarchy();
    CcControllerParams p;
    p.forceLevel = CacheLevel::L1;
    CcController ctrl(hier, &sys.energy(), &sys.stats(), p);

    const Addr dest = 0x210000;
    for (unsigned i = 1; i <= 8; ++i) {
        Addr filler = dest + i * 4096;
        hier.read(0, filler);
        hier.l1(0).pin(filler);
    }
    ctrl.execute(0, CcInstruction::buz(dest, 64));
    EXPECT_GT(sys.stats().value("cc.lock_retries"), 0u);
    EXPECT_GT(sys.stats().value("cc.risc_fallbacks"), 0u);
}

} // namespace
} // namespace ccache::cc
