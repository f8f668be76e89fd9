/**
 * @file
 * Unit tests for a single cache level: tags, LRU, fills/evictions,
 * pinning, and geometry-mapped placement.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "common/rng.hh"

namespace ccache::cache {
namespace {

CacheParams
tinyParams()
{
    CacheParams p;
    p.geometry = geometry::CacheGeometryParams::l1d();
    p.level = CacheLevel::L1;
    p.accessLatency = 5;
    return p;
}

Block
patternBlock(std::uint8_t seed)
{
    Block b;
    for (std::size_t i = 0; i < kBlockSize; ++i)
        b[i] = static_cast<std::uint8_t>(seed + i);
    return b;
}

class CacheTest : public ::testing::Test
{
  protected:
    CacheTest() : cache(tinyParams(), &em, &stats, "l1.0") {}
    energy::EnergyModel em;
    StatRegistry stats;
    Cache cache;
};

TEST_F(CacheTest, MissOnEmpty)
{
    Block out;
    EXPECT_FALSE(cache.contains(0x1000));
    EXPECT_FALSE(cache.read(0x1000, out));
    EXPECT_EQ(cache.state(0x1000), Mesi::Invalid);
}

TEST_F(CacheTest, FillThenHit)
{
    Block data = patternBlock(1);
    auto fill = cache.fill(0x1000, data, Mesi::Exclusive);
    ASSERT_TRUE(fill);
    EXPECT_FALSE(fill->evicted);
    EXPECT_TRUE(cache.contains(0x1000));
    EXPECT_EQ(cache.state(0x1000), Mesi::Exclusive);
    Block out;
    EXPECT_TRUE(cache.read(0x1000, out));
    EXPECT_EQ(out, data);
}

TEST_F(CacheTest, WriteMarksDirty)
{
    cache.fill(0x1000, patternBlock(1), Mesi::Exclusive);
    cache.write(0x1000, patternBlock(2));
    auto ev = cache.invalidate(0x1000);
    ASSERT_TRUE(ev);
    EXPECT_TRUE(ev->dirty);
    EXPECT_EQ(ev->data, patternBlock(2));
}

TEST_F(CacheTest, LruEviction)
{
    // The L1 has 8 ways; fill 9 blocks of the same set and check the
    // first-touched one is evicted.
    std::size_t set_stride = 64u << 8;  // same set every 2^8 blocks (6+1+1)
    // Same set: addresses differing only above the set index bits.
    // L1 geometry: 64 sets, so set repeats every 64*64 = 4096 bytes.
    Addr base = 0x100000;
    for (unsigned i = 0; i < 8; ++i) {
        auto fill = cache.fill(base + i * 4096, patternBlock(i),
                               Mesi::Shared);
        ASSERT_TRUE(fill);
        EXPECT_FALSE(fill->evicted) << i;
    }
    // Touch block 0 so block 1 becomes LRU.
    Block out;
    cache.read(base, out);
    auto fill = cache.fill(base + 8 * 4096, patternBlock(9), Mesi::Shared);
    ASSERT_TRUE(fill);
    ASSERT_TRUE(fill->evicted);
    EXPECT_EQ(fill->evicted->addr, base + 1 * 4096);
    (void)set_stride;
}

TEST_F(CacheTest, PinnedLinesAreNotVictims)
{
    Addr base = 0x100000;
    for (unsigned i = 0; i < 8; ++i)
        cache.fill(base + i * 4096, patternBlock(i), Mesi::Shared);
    // Pin the LRU line (block 0).
    EXPECT_TRUE(cache.pin(base));
    auto fill = cache.fill(base + 8 * 4096, patternBlock(9), Mesi::Shared);
    ASSERT_TRUE(fill);
    ASSERT_TRUE(fill->evicted);
    EXPECT_NE(fill->evicted->addr, base);  // pinned line survived
    EXPECT_TRUE(cache.isPinned(base));
    cache.unpin(base);
    EXPECT_FALSE(cache.isPinned(base));
}

TEST_F(CacheTest, AllPinnedBlocksFill)
{
    Addr base = 0x100000;
    for (unsigned i = 0; i < 8; ++i) {
        cache.fill(base + i * 4096, patternBlock(i), Mesi::Shared);
        cache.pin(base + i * 4096);
    }
    auto fill = cache.fill(base + 8 * 4096, patternBlock(9), Mesi::Shared);
    EXPECT_FALSE(fill.has_value());
    EXPECT_EQ(stats.value("l1.0.fill_blocked_pinned"), 1u);
}

TEST_F(CacheTest, RefillUpdatesInPlace)
{
    cache.fill(0x2000, patternBlock(3), Mesi::Shared);
    auto refill = cache.fill(0x2000, patternBlock(4), Mesi::Modified);
    ASSERT_TRUE(refill);
    EXPECT_FALSE(refill->evicted);
    EXPECT_EQ(*cache.peek(0x2000), patternBlock(4));
    EXPECT_EQ(cache.state(0x2000), Mesi::Modified);
    EXPECT_EQ(cache.validLines(), 1u);
}

TEST_F(CacheTest, PeekPokeBypassEnergy)
{
    cache.fill(0x3000, patternBlock(5), Mesi::Exclusive);
    double before = em.dynamic().dynamicTotal();
    ASSERT_NE(cache.peek(0x3000), nullptr);
    EXPECT_TRUE(cache.poke(0x3000, patternBlock(6)));
    EXPECT_DOUBLE_EQ(em.dynamic().dynamicTotal(), before);
    EXPECT_EQ(*cache.peek(0x3000), patternBlock(6));
}

TEST_F(CacheTest, EnergyChargedPerTableV)
{
    cache.fill(0x1000, patternBlock(1), Mesi::Exclusive);  // one write
    Block out;
    cache.read(0x1000, out);  // one read
    const auto &p = em.params();
    double expect =
        p.cacheOpEnergy(CacheLevel::L1, energy::CacheOp::Write) +
        p.cacheOpEnergy(CacheLevel::L1, energy::CacheOp::Read);
    EXPECT_DOUBLE_EQ(em.dynamic().l1Access + em.dynamic().l1Ic, expect);
}

TEST_F(CacheTest, MarkDirtyPromotesToModified)
{
    cache.fill(0x1000, patternBlock(1), Mesi::Exclusive);
    cache.markDirty(0x1000);
    EXPECT_EQ(cache.state(0x1000), Mesi::Modified);
    auto ev = cache.invalidate(0x1000);
    ASSERT_TRUE(ev);
    EXPECT_TRUE(ev->dirty);
}

TEST_F(CacheTest, PlaceOfResidentLine)
{
    cache.fill(0x1000, patternBlock(1), Mesi::Exclusive);
    auto place = cache.placeOf(0x1000);
    ASSERT_TRUE(place);
    auto expected = cache.geom().place(cache.geom().setIndex(0x1000), 0);
    EXPECT_EQ(*place, expected);
    EXPECT_FALSE(cache.placeOf(0x9999000).has_value());
}

TEST_F(CacheTest, SlotHoldsItsLineUntilEvicted)
{
    const Addr base = 0x100000;   // L1 set repeats every 4 KB
    EXPECT_FALSE(cache.find(base));
    EXPECT_FALSE(cache.holds(Cache::Slot{}, base));

    cache.fill(base, patternBlock(1), Mesi::Exclusive);
    auto slot = cache.find(base);
    ASSERT_TRUE(slot);
    EXPECT_TRUE(cache.holds(*slot, base));
    EXPECT_TRUE(cache.holds(*slot, base + 17));       // same block
    EXPECT_FALSE(cache.holds(*slot, base + 64));      // other set
    EXPECT_FALSE(cache.holds(*slot, base + 4096));    // same set, other tag

    // The slot accessors act on the same line as the address ones.
    EXPECT_EQ(*cache.peek(*slot), patternBlock(1));
    EXPECT_EQ(cache.placeOf(*slot), *cache.placeOf(base));
    cache.pin(*slot);
    EXPECT_TRUE(cache.isPinned(base));
    cache.unpin(*slot);
    EXPECT_FALSE(cache.isPinned(base));
    cache.poke(*slot, patternBlock(2));
    cache.markDirty(*slot);
    EXPECT_EQ(cache.state(*slot), Mesi::Modified);
    EXPECT_TRUE(cache.isDirty(base));
    EXPECT_EQ(*cache.peek(base), patternBlock(2));

    // Once the line leaves, the slot no longer holds it — even after
    // another line of the same set takes that very way.
    cache.invalidate(base);
    EXPECT_FALSE(cache.holds(*slot, base));
    cache.fill(base + 4096, patternBlock(3), Mesi::Shared);
    ASSERT_EQ(cache.find(base + 4096)->way, slot->way);
    EXPECT_FALSE(cache.holds(*slot, base));
    EXPECT_TRUE(cache.holds(*slot, base + 4096));
}

TEST_F(CacheTest, ForEachLineAndAddrOf)
{
    cache.fill(0x1000, patternBlock(1), Mesi::Exclusive);
    cache.fill(0x2040, patternBlock(2), Mesi::Shared);
    cache.write(0x1000, patternBlock(7));
    std::vector<Addr> seen;
    cache.forEachLine([&](Addr addr, Mesi state, bool dirty,
                          const Block &data) {
        seen.push_back(addr);
        if (addr == 0x1000) {
            EXPECT_TRUE(dirty);
            EXPECT_EQ(data, patternBlock(7));
            EXPECT_EQ(state, Mesi::Exclusive);
        } else {
            EXPECT_EQ(addr, 0x2040u & ~Addr{63});
            EXPECT_FALSE(dirty);
        }
    });
    EXPECT_EQ(seen.size(), 2u);
}

TEST(TagArray, VictimPrefersInvalid)
{
    TagArray tags(4, 2);
    auto v = tags.victim(0);
    ASSERT_TRUE(v);
    tags.line(0, *v).state = Mesi::Shared;
    tags.line(0, *v).tag = 1;
    tags.touch(0, *v);
    auto v2 = tags.victim(0);
    ASSERT_TRUE(v2);
    EXPECT_NE(*v2, *v);
}

TEST(TagArray, AllPinnedNoVictim)
{
    TagArray tags(1, 2);
    for (std::size_t w = 0; w < 2; ++w) {
        tags.line(0, w).state = Mesi::Shared;
        tags.line(0, w).pinned = true;
    }
    EXPECT_FALSE(tags.victim(0).has_value());
}

} // namespace
} // namespace ccache::cache
