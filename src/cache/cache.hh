/**
 * @file
 * One cache level: geometry-mapped tags + data with access timing/energy.
 *
 * The data array is organized per the operand-locality-aware geometry of
 * Section IV-C: CacheGeometry::place() tells the CC controller which bank,
 * sub-array and block partition any resident line occupies, which drives
 * both the legality of in-place operations and the parallelism schedule.
 */

#ifndef CCACHE_CACHE_CACHE_HH
#define CCACHE_CACHE_CACHE_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/tag_array.hh"
#include "common/block.hh"
#include "common/stats.hh"
#include "energy/energy_model.hh"
#include "geometry/cache_geometry.hh"

namespace ccache::cache {

/** Configuration of one cache level. */
struct CacheParams
{
    geometry::CacheGeometryParams geometry;
    CacheLevel level = CacheLevel::L1;
    Cycles accessLatency = 5;   ///< Table IV: L1 5, L2 11, L3 11 + queue
};

/** A line evicted to make room for a fill. */
struct Eviction
{
    Addr addr;
    Block data;
    bool dirty;
    Mesi state;
};

/** Outcome of a fill. */
struct FillResult
{
    std::size_t way;
    std::optional<Eviction> evicted;
};

/** One cache (an L1-D, an L2, or one L3 slice). */
class Cache
{
  public:
    Cache(const CacheParams &params, energy::EnergyModel *energy,
          StatRegistry *stats, std::string stat_prefix);

    const CacheParams &params() const { return params_; }
    const geometry::CacheGeometry &geom() const { return geom_; }
    CacheLevel level() const { return params_.level; }
    Cycles latency() const { return params_.accessLatency; }

    /** Handle to a resident line: its (set, way). A slot stays right
     *  only while that line stays put, so every use must be preceded by
     *  holds(); the slot overloads below assume that check passed. */
    struct Slot
    {
        std::size_t set = ~std::size_t{0};
        std::size_t way = 0;
    };

    /** Locate a resident line with one tag scan; nullopt on a miss. No
     *  LRU update or energy charge. */
    std::optional<Slot> find(Addr addr) const
    {
        auto f = geom_.decode(addr);
        Lookup l = tags_.lookup(f.set, f.tag);
        if (!l.hit)
            return std::nullopt;
        return Slot{f.set, l.way};
    }

    /** O(1): true iff @p slot holds a valid line whose address is
     *  @p addr (a default-constructed slot holds nothing). */
    bool holds(Slot slot, Addr addr) const
    {
        auto f = geom_.decode(addr);
        if (slot.set != f.set)
            return false;
        const Line &l = tags_.line(slot.set, slot.way);
        return l.valid() && l.tag == f.tag;
    }

    /** Tag probe without LRU update or energy charge. */
    bool contains(Addr addr) const { return find(addr).has_value(); }

    /** State of @p addr, Invalid if absent. */
    Mesi state(Addr addr) const;

    /** Set the MESI state of a resident line. */
    void setState(Addr addr, Mesi state);

    /**
     * Read a resident block. Charges read energy, updates LRU.
     * Returns false on miss.
     */
    bool read(Addr addr, Block &out);

    /**
     * Write a resident block (marks it dirty/Modified is left to the
     * caller's coherence logic; this only moves data). Charges write
     * energy, updates LRU. Returns false on miss.
     */
    bool write(Addr addr, const Block &data, bool set_dirty = true);

    /**
     * Insert @p addr with @p data in state @p state, evicting if needed.
     * Returns nullopt if no victim is available (all ways pinned).
     * Charges a write access.
     */
    std::optional<FillResult> fill(Addr addr, const Block &data, Mesi state);

    /**
     * Remove @p addr; returns its data and dirtiness so the caller can
     * write it back. Returns nullopt if not present.
     */
    std::optional<Eviction> invalidate(Addr addr);

    /** Operand pinning for the CC controller (Section IV-E). @{ */
    bool pin(Addr addr);
    void unpin(Addr addr);
    bool isPinned(Addr addr) const;
    /** Promote a line to MRU so it survives until its operation issues. */
    void promoteMRU(Addr addr);
    /** @} */

    /** Mark a resident line dirty (after an in-place CC write). */
    void markDirty(Addr addr);

    /** Slot forms of the accessors above, for a line already located
     *  by find() and confirmed by holds(): no tag scan. @{ */
    Mesi state(Slot s) const { return tags_.line(s.set, s.way).state; }
    void pin(Slot s) { tags_.line(s.set, s.way).pinned = true; }
    void unpin(Slot s) { tags_.line(s.set, s.way).pinned = false; }
    void promoteMRU(Slot s) { tags_.touch(s.set, s.way); }
    void markDirty(Slot s)
    {
        Line &l = tags_.line(s.set, s.way);
        l.dirty = true;
        l.state = Mesi::Modified;
    }
    const Block *peek(Slot s) const
    {
        return &data_[dataIndex(s.set, s.way)];
    }
    void poke(Slot s, const Block &data)
    {
        data_[dataIndex(s.set, s.way)] = data;
    }
    geometry::BlockPlace placeOf(Slot s) const
    {
        return geom_.place(s.set, s.way);
    }
    /** @} */

    /** True iff @p addr is resident and holds dirty data. */
    bool isDirty(Addr addr) const;

    /** Clear the dirty flag after the data has been written back. */
    void clearDirty(Addr addr);

    /**
     * Data access for in-place compute: read/write the resident block
     * WITHOUT charging the baseline access energy — the CC controller
     * charges the Table V in-place cost instead. @{
     */
    const Block *peek(Addr addr) const;
    bool poke(Addr addr, const Block &data);
    /** @} */

    /** Data of a resident DIRTY line, nullptr otherwise: one address
     *  decode where isDirty() + peek() would pay two. This is the
     *  Hierarchy::debugRead hot path (golden verification reads every
     *  block of every request). */
    const Block *dirtyPeek(Addr addr) const;

    /** Physical placement of a resident line, for the CC scheduler. */
    std::optional<geometry::BlockPlace> placeOf(Addr addr) const;

    /** Occupancy for stats. */
    std::size_t validLines() const { return tags_.validLines(); }

    /** Visit every valid line (for flushes and integrity checks). */
    void forEachLine(
        const std::function<void(Addr, Mesi, bool, const Block &)> &fn)
        const;

    /** Reconstruct the block address of a resident (set, way). */
    Addr addrOf(std::size_t set, std::size_t way) const;

  private:
    std::size_t dataIndex(std::size_t set, std::size_t way) const
    {
        return set * params_.geometry.ways + way;
    }

    void chargeRead();
    void chargeWrite();

    CacheParams params_;
    geometry::CacheGeometry geom_;
    TagArray tags_;
    /** Block storage, deliberately NOT zero-initialized: a data slot is
     *  meaningful only while its tag line is valid, and every path that
     *  validates a line (fill) writes the slot in the same call — so
     *  the constructor skips zeroing megabytes per cache. Restart-heavy
     *  harnesses construct hundreds of caches (DESIGN.md §13). */
    std::unique_ptr<Block[]> data_;
    energy::EnergyModel *energy_;
    /** Counters pre-registered under the cache's stat prefix (StatGroup
     *  registration), so the hot paths increment through stable pointers
     *  instead of re-building dotted names per access. Null without a
     *  registry. @{ */
    StatCounter *readsStat_ = nullptr;
    StatCounter *writesStat_ = nullptr;
    StatCounter *fillsStat_ = nullptr;
    StatCounter *evictionsStat_ = nullptr;
    StatCounter *invalidationsStat_ = nullptr;
    StatCounter *fillBlockedStat_ = nullptr;
    /** @} */
};

} // namespace ccache::cache

#endif // CCACHE_CACHE_CACHE_HH
