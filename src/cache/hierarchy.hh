/**
 * @file
 * Three-level inclusive cache hierarchy with directory MESI coherence
 * over a ring NoC, modeled after Table IV (SandyBridge-like, Figure 1a).
 *
 * Eight cores each own a private L1-D and L2; a shared L3 is distributed
 * into per-core NUCA slices on the ring. Transactions execute atomically
 * (gem5-classic style): each access walks the hierarchy, performs all
 * coherence actions, moves real data, and returns its total latency while
 * charging the energy model per event.
 *
 * Compute Cache hooks: fetchToLevel() stages operands at a chosen level
 * (writing back or invalidating private copies as Section IV-E requires),
 * peek/poke give the CC controller in-place data access, and the page ->
 * slice map realizes the paper's "pages map to the NUCA slice closest to
 * the accessing core" assumption.
 */

#ifndef CCACHE_CACHE_HIERARCHY_HH
#define CCACHE_CACHE_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/cache.hh"
#include "cache/directory.hh"
#include "common/event_trace.hh"
#include "common/stats.hh"
#include "energy/energy_model.hh"
#include "mem/memory.hh"
#include "noc/ring.hh"

namespace ccache::verify {
class CoherenceChecker;
class ProgressWatchdog;
} // namespace ccache::verify

namespace ccache::cache {

/** Configuration of the full hierarchy. */
struct HierarchyParams
{
    unsigned cores = 8;

    CacheParams l1{geometry::CacheGeometryParams::l1d(), CacheLevel::L1, 5};
    CacheParams l2{geometry::CacheGeometryParams::l2(), CacheLevel::L2, 11};
    CacheParams l3{geometry::CacheGeometryParams::l3Slice(), CacheLevel::L3,
                   11};

    /** Queuing delay added to every L3 slice access (Table IV). */
    Cycles l3QueueDelay = 4;

    mem::MemoryParams memory;
    noc::RingParams ring;
};

/** Where an access was served from. */
enum class ServedBy { L1, L2, L3, Memory };

const char *toString(ServedBy s);

/** Timing outcome of one block transaction. */
struct AccessResult
{
    Cycles latency = 0;
    ServedBy servedBy = ServedBy::L1;
};

/** The full memory system. */
class Hierarchy
{
  public:
    Hierarchy(const HierarchyParams &params, energy::EnergyModel *energy,
              StatRegistry *stats);

    const HierarchyParams &params() const { return params_; }
    unsigned cores() const { return params_.cores; }

    Cache &l1(CoreId core) { return *l1_[core]; }
    Cache &l2(CoreId core) { return *l2_[core]; }
    Cache &l3Slice(unsigned slice) { return *l3_[slice]; }
    Directory &directory(unsigned slice) { return *dir_[slice]; }
    mem::Memory &memory() { return memory_; }
    noc::Ring &ring() { return ring_; }

    /** NUCA page placement (first touch binds a page to the accessing
     *  core's slice; mapPage overrides). @{ */
    void mapPage(Addr addr, unsigned slice);
    unsigned sliceFor(CoreId core, Addr addr);
    /** @} */

    /** Home slice of @p addr's page, without binding an untouched page
     *  (side-effect-free sliceFor, for auditors). */
    std::optional<unsigned> homeSliceIfMapped(Addr addr) const;

    /**
     * Runtime verification hooks (DESIGN.md §9), both detachable with
     * nullptr. The checker audits coherence invariants after every
     * read/write/fetch transaction and after flushAll; the watchdog is
     * notified at each transaction start and forwarded to the ring and
     * the directories so their progress counts against its ceilings.
     * Disabled (the default), each hook costs one branch. @{
     */
    void setChecker(verify::CoherenceChecker *checker)
    {
        checker_ = checker;
    }
    void setWatchdog(verify::ProgressWatchdog *watchdog);
    /** @} */

    /** Attach (or detach with nullptr) a timeline event sink. Reads
     *  served beyond L1 become cache-category events; the sink is also
     *  forwarded to the ring. */
    void setTraceSink(EventTrace *trace)
    {
        trace_ = trace;
        ring_.setTraceSink(trace);
    }

    /**
     * Coherent block read: data lands in the core's L1 (unless
     * @p fill_to limits the fill depth) and is returned via @p out.
     */
    AccessResult read(CoreId core, Addr addr, Block *out = nullptr,
                      CacheLevel fill_to = CacheLevel::L1);

    /**
     * Coherent block write (request-for-ownership + full-block store).
     * With @p data null, only the ownership/dirty transition happens
     * (used for partial-line stores after a read-for-ownership).
     */
    AccessResult write(CoreId core, Addr addr, const Block *data = nullptr,
                       CacheLevel fill_to = CacheLevel::L1);

    /** Byte-granular convenience wrappers (split across blocks). @{ */
    Cycles loadBytes(CoreId core, Addr addr, void *out, std::size_t len);
    Cycles storeBytes(CoreId core, Addr addr, const void *data,
                      std::size_t len);
    /** @} */

    /**
     * Stage @p addr at @p level for an in-place CC operation
     * (Section IV-E): private copies above the level are written back
     * (and invalidated if @p exclusive); the block is fetched from below
     * if absent. With @p for_overwrite, an L3 miss allocates the line
     * without reading memory — the Figure 6 optimization for operands
     * that will be overwritten entirely. When the block was already
     * staged, @p found (if given) receives its slot in
     * cacheAt(level, core, addr), saving the caller a second tag scan;
     * otherwise @p found is left as it was.
     *
     * @return total latency of the staging.
     */
    Cycles fetchToLevel(CoreId core, Addr addr, CacheLevel level,
                        bool exclusive, bool for_overwrite = false,
                        Cache::Slot *found = nullptr);

    /** The cache that holds @p addr at @p level for @p core. */
    Cache &cacheAt(CacheLevel level, CoreId core, Addr addr);

    /** Highest (fastest) level at which ALL operands are present for
     *  @p core; L3 if any operand is uncached (Section IV-E policy). */
    CacheLevel chooseLevel(CoreId core, const std::vector<Addr> &operands);

    /**
     * Authoritative current value of a block (highest dirty copy wins),
     * without timing or energy side effects. For checking and loaders.
     */
    Block debugRead(Addr addr);

    /** Functional back-door write to memory AND all cached copies
     *  (workload setup). */
    void debugWrite(Addr addr, const Block &data);

    /** Drop every cached block (between benchmark phases). Dirty data is
     *  flushed to memory. */
    void flushAll();

  private:
    /** Pre-hook bodies of the public transaction entry points. @{ */
    AccessResult readImpl(CoreId core, Addr addr, Block *out,
                          CacheLevel fill_to);
    AccessResult writeImpl(CoreId core, Addr addr, const Block *data,
                           CacheLevel fill_to);
    Cycles fetchToLevelImpl(CoreId core, Addr addr, CacheLevel level,
                            bool exclusive, bool for_overwrite,
                            Cache::Slot *found);
    /** @} */

    /** Ring stop of a core (cores and slices share stops). */
    unsigned stopOf(CoreId core) const { return core % params_.ring.nodes; }

    /** Write @p victim back from L1 into L2 (inclusion guarantees a
     *  resident line). */
    void l1Writeback(CoreId core, const Eviction &victim);

    /** Handle an L2 eviction: invalidate the L1 copy, write dirty data to
     *  the home L3 slice, update the directory. Returns extra latency. */
    Cycles l2Eviction(CoreId core, const Eviction &victim);

    /** Handle an L3 slice eviction: back-invalidate all private copies,
     *  write dirty data to memory. */
    void l3Eviction(unsigned slice, const Eviction &victim);

    /** Pull the newest private copy of @p addr held by @p owner into the
     *  home slice; downgrades (read) or invalidates (exclusive) the
     *  owner's copies. Returns added latency. */
    Cycles recallFromOwner(CoreId requester, CoreId owner, Addr addr,
                           unsigned slice, bool invalidate_owner);

    /** Invalidate every private copy except @p keeper's. */
    Cycles invalidateSharers(Addr addr, unsigned slice, CoreId keeper);

    /** Fill path L3 -> L2 -> L1 after a slice grant. */
    Cycles fillUpward(CoreId core, Addr addr, const Block &data, Mesi state,
                      CacheLevel fill_to);

    /** Ensure the home slice holds @p addr; fetch from memory if not.
     *  Returns added latency. */
    Cycles ensureInL3(unsigned slice, Addr addr, bool for_overwrite);

    /** Record one served-beyond-L1 access on @p core's timeline track. */
    void traceAccess(const char *name, CoreId core, Addr addr,
                     const AccessResult &res);

    HierarchyParams params_;
    energy::EnergyModel *energy_;
    StatRegistry *stats_;
    EventTrace *trace_ = nullptr;
    verify::CoherenceChecker *checker_ = nullptr;
    verify::ProgressWatchdog *watchdog_ = nullptr;

    std::vector<std::unique_ptr<Cache>> l1_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::vector<std::unique_ptr<Cache>> l3_;
    std::vector<std::unique_ptr<Directory>> dir_;
    mem::Memory memory_;
    noc::Ring ring_;
    /**
     * NUCA page map (page address -> home slice) as a flat open-
     * addressing table: mix64 hash, linear probing, power-of-two
     * capacity grown at 75% load — the shape of PartitionClock and
     * Directory. Every access finds its home slice here, so it must
     * not chase heap nodes. Pages are never unmapped, so entries are
     * never erased (DESIGN.md §13.4). @{
     */
    struct PageSlot
    {
        Addr page = 0;
        std::uint32_t slice = kUnmapped;   ///< kUnmapped: empty slot
    };
    static constexpr std::uint32_t kUnmapped = ~std::uint32_t{0};

    /** Slot of @p page, or the empty slot where it would go. */
    std::size_t pageIndex(Addr page) const;

    /** Map the unmapped @p page to @p slice, growing the table first
     *  if that would pass 75% load. */
    void insertPage(Addr page, unsigned slice);

    std::vector<PageSlot> pageSlots_;
    std::size_t pagesMapped_ = 0;
    /** @} */

    /** Counters pre-registered under "hier." so the transaction hot
     *  paths increment through stable pointers instead of resolving
     *  dotted names per access (same pattern as Cache). Null without a
     *  registry. @{ */
    StatCounter *l1HitsStat_ = nullptr;
    StatCounter *l1MissesStat_ = nullptr;
    StatCounter *l2HitsStat_ = nullptr;
    StatCounter *l2MissesStat_ = nullptr;
    StatCounter *l3HitsStat_ = nullptr;
    StatCounter *l3MissesStat_ = nullptr;
    StatCounter *memReadsStat_ = nullptr;
    StatCounter *allocNoFetchStat_ = nullptr;
    StatCounter *l2WritebacksStat_ = nullptr;
    StatCounter *l3WritebacksStat_ = nullptr;
    StatCounter *ownerWritebacksStat_ = nullptr;
    StatCounter *sharerInvalidationsStat_ = nullptr;
    StatCounter *upgradesStat_ = nullptr;
    StatCounter *l1WriteHitsStat_ = nullptr;
    /** @} */
};

} // namespace ccache::cache

#endif // CCACHE_CACHE_HIERARCHY_HH
