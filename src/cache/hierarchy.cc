#include "cache/hierarchy.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "common/bit_util.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "verify/coherence_checker.hh"
#include "verify/watchdog.hh"

namespace ccache::cache {

const char *
toString(ServedBy s)
{
    switch (s) {
      case ServedBy::L1: return "L1";
      case ServedBy::L2: return "L2";
      case ServedBy::L3: return "L3";
      case ServedBy::Memory: return "Memory";
    }
    return "?";
}

Hierarchy::Hierarchy(const HierarchyParams &params,
                     energy::EnergyModel *energy, StatRegistry *stats)
    : params_(params), energy_(energy), stats_(stats),
      memory_(params.memory), ring_(params.ring, energy, stats),
      pageSlots_(256)
{
    if (params_.cores == 0)
        CC_FATAL("hierarchy needs at least one core");
    if (params_.cores > params_.ring.nodes)
        CC_FATAL("more cores (", params_.cores, ") than ring stops (",
                 params_.ring.nodes, ")");

    for (unsigned c = 0; c < params_.cores; ++c) {
        l1_.push_back(std::make_unique<Cache>(
            params_.l1, energy, stats, "l1." + std::to_string(c)));
        l2_.push_back(std::make_unique<Cache>(
            params_.l2, energy, stats, "l2." + std::to_string(c)));
    }
    for (unsigned s = 0; s < params_.ring.nodes; ++s) {
        l3_.push_back(std::make_unique<Cache>(
            params_.l3, energy, stats, "l3." + std::to_string(s)));
        dir_.push_back(std::make_unique<Directory>(params_.cores));
    }

    if (stats_) {
        // Derived hit ratios, evaluated at dump time from the counters.
        auto ratio = [stats = stats_](const char *hits, const char *misses) {
            return [stats, hits, misses]() {
                double h = static_cast<double>(stats->value(hits));
                double m = static_cast<double>(stats->value(misses));
                return h + m == 0.0 ? 0.0 : h / (h + m);
            };
        };
        StatGroup g = stats_->group("hier");
        g.formula("l1_hit_rate",
                  ratio("hier.l1_hits", "hier.l1_misses"),
                  "fraction of L1 lookups served by L1");
        g.formula("l2_hit_rate",
                  ratio("hier.l2_hits", "hier.l2_misses"),
                  "fraction of L2 lookups served by L2");
        g.formula("l3_hit_rate",
                  ratio("hier.l3_hits", "hier.l3_misses"),
                  "fraction of L3 lookups served by L3");

        l1HitsStat_ = &g.counter("l1_hits");
        l1MissesStat_ = &g.counter("l1_misses");
        l2HitsStat_ = &g.counter("l2_hits");
        l2MissesStat_ = &g.counter("l2_misses");
        l3HitsStat_ = &g.counter("l3_hits");
        l3MissesStat_ = &g.counter("l3_misses");
        memReadsStat_ = &g.counter("mem_reads");
        allocNoFetchStat_ = &g.counter("alloc_no_fetch");
        l2WritebacksStat_ = &g.counter("l2_writebacks");
        l3WritebacksStat_ = &g.counter("l3_writebacks");
        ownerWritebacksStat_ = &g.counter("owner_writebacks");
        sharerInvalidationsStat_ = &g.counter("sharer_invalidations");
        upgradesStat_ = &g.counter("upgrades");
        l1WriteHitsStat_ = &g.counter("l1_write_hits");
    }
}

void
Hierarchy::traceAccess(const char *name, CoreId core, Addr addr,
                       const AccessResult &res)
{
    if (!trace_ || !trace_->enabled())
        return;
    Json args = Json::object();
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(addr));
    args["addr"] = buf;
    args["served_by"] = toString(res.servedBy);
    int track = static_cast<int>(core);
    trace_->complete(tracecat::kCache, name, track, trace_->now(track),
                     res.latency, std::move(args));
}

void
Hierarchy::mapPage(Addr addr, unsigned slice)
{
    // Caller-supplied placement: reachable from any bench config, so a
    // bad slice is a configuration error, not a simulator bug.
    if (slice >= l3_.size())
        CC_FATAL("mapPage slice ", slice, " out of range (", l3_.size(),
                 " slices)");
    Addr page = alignDown(addr, kPageSize);
    PageSlot &s = pageSlots_[pageIndex(page)];
    if (s.slice != kUnmapped)
        s.slice = slice;
    else
        insertPage(page, slice);
}

std::size_t
Hierarchy::pageIndex(Addr page) const
{
    std::size_t mask = pageSlots_.size() - 1;
    std::size_t i = mix64(page) & mask;
    while (pageSlots_[i].slice != kUnmapped && pageSlots_[i].page != page)
        i = (i + 1) & mask;
    return i;
}

void
Hierarchy::insertPage(Addr page, unsigned slice)
{
    if ((pagesMapped_ + 1) * 4 > pageSlots_.size() * 3) {
        std::vector<PageSlot> old = std::move(pageSlots_);
        pageSlots_.assign(old.size() * 2, PageSlot{});
        for (const PageSlot &p : old) {
            if (p.slice != kUnmapped)
                pageSlots_[pageIndex(p.page)] = p;
        }
    }
    pageSlots_[pageIndex(page)] = PageSlot{page, slice};
    ++pagesMapped_;
}

std::optional<unsigned>
Hierarchy::homeSliceIfMapped(Addr addr) const
{
    const PageSlot &s = pageSlots_[pageIndex(alignDown(addr, kPageSize))];
    if (s.slice == kUnmapped)
        return std::nullopt;
    return s.slice;
}

void
Hierarchy::setWatchdog(verify::ProgressWatchdog *watchdog)
{
    watchdog_ = watchdog;
    ring_.setWatchdog(watchdog);
    for (auto &dir : dir_)
        dir->setWatchdog(watchdog);
}

unsigned
Hierarchy::sliceFor(CoreId core, Addr addr)
{
    Addr page = alignDown(addr, kPageSize);
    const PageSlot &s = pageSlots_[pageIndex(page)];
    if (s.slice != kUnmapped)
        return s.slice;
    // First touch: the page lands on the accessing core's local slice
    // (Section IV-C assumption).
    unsigned slice = stopOf(core);
    insertPage(page, slice);
    return slice;
}

void
Hierarchy::l1Writeback(CoreId core, const Eviction &victim)
{
    if (!victim.dirty)
        return;
    // Inclusion: L2 must hold the line; it now owns the modified data.
    bool ok = l2(core).write(victim.addr, victim.data);
    CC_ASSERT(ok, "L1 victim 0x", std::hex, victim.addr,
              " absent from inclusive L2");
    l2(core).setState(victim.addr, Mesi::Modified);
}

Cycles
Hierarchy::l2Eviction(CoreId core, const Eviction &victim)
{
    Cycles latency = 0;

    // Inclusion: drop the L1 copy; its data is at least as new as L2's.
    Block data = victim.data;
    bool dirty = victim.dirty;
    if (auto l1ev = l1(core).invalidate(victim.addr)) {
        if (l1ev->dirty) {
            data = l1ev->data;
            dirty = true;
        }
    }

    unsigned slice = sliceFor(core, victim.addr);
    if (dirty) {
        latency += ring_.send(stopOf(core), slice, noc::MsgClass::Data);
        bool ok = l3Slice(slice).write(victim.addr, data);
        CC_ASSERT(ok, "L2 victim 0x", std::hex, victim.addr,
                  " absent from inclusive L3");
        if (stats_)
            l2WritebacksStat_->inc();
    } else {
        // Presence notification so the directory stays precise.
        latency += ring_.send(stopOf(core), slice, noc::MsgClass::Control);
    }
    directory(slice).removeSharer(victim.addr, core);
    return latency;
}

void
Hierarchy::l3Eviction(unsigned slice, const Eviction &victim)
{
    Block data = victim.data;
    bool dirty = victim.dirty;

    // Inclusive LLC: every private copy must be recalled. A dirty
    // private copy is newer than the L3 line; within a core, a dirty L1
    // copy is newer than a dirty L2 one.
    DirEntry e = directory(slice).entry(victim.addr);
    for (unsigned c = 0; c < params_.cores; ++c) {
        if (!(e.sharers & (1u << c)))
            continue;
        bool l1_dirty = false;
        if (auto ev1 = l1(c).invalidate(victim.addr)) {
            if (ev1->dirty) {
                data = ev1->data;
                dirty = true;
                l1_dirty = true;
            }
        }
        if (auto ev2 = l2(c).invalidate(victim.addr)) {
            if (ev2->dirty && !l1_dirty) {
                data = ev2->data;
                dirty = true;
            }
        }
        ring_.send(slice, stopOf(c), noc::MsgClass::Control);
    }
    directory(slice).clear(victim.addr);

    if (dirty) {
        memory_.writeBlock(victim.addr, data);
        if (energy_)
            energy_->chargeDram();
        if (stats_)
            l3WritebacksStat_->inc();
    }
}

Cycles
Hierarchy::recallFromOwner(CoreId requester, CoreId owner, Addr addr,
                           unsigned slice, bool invalidate_owner)
{
    Cycles latency = ring_.send(slice, stopOf(owner),
                                noc::MsgClass::Control);

    Block newest{};
    bool have = false;
    bool dirty = false;

    if (invalidate_owner) {
        if (auto ev1 = l1(owner).invalidate(addr)) {
            newest = ev1->data;
            have = true;
            dirty = ev1->dirty;
        }
        if (auto ev2 = l2(owner).invalidate(addr)) {
            if (!have || (!dirty && ev2->dirty)) {
                newest = ev2->data;
                have = true;
                dirty = dirty || ev2->dirty;
            }
        }
        directory(slice).removeSharer(addr, owner);
    } else {
        // Downgrade to Shared, pulling the newest data.
        if (const Block *d = l1(owner).peek(addr)) {
            newest = *d;
            have = true;
            dirty = l1(owner).isDirty(addr) ||
                l1(owner).state(addr) == Mesi::Modified;
            l1(owner).setState(addr, Mesi::Shared);
        }
        if (!have) {
            if (const Block *d = l2(owner).peek(addr)) {
                newest = *d;
                have = true;
                dirty = l2(owner).isDirty(addr) ||
                    l2(owner).state(addr) == Mesi::Modified;
            }
        }
        if (l2(owner).contains(addr))
            l2(owner).setState(addr, Mesi::Shared);
        // The written-back data is clean-shared from here on.
        l1(owner).clearDirty(addr);
        l2(owner).clearDirty(addr);
        directory(slice).downgradeOwner(addr);
    }

    if (have) {
        latency += ring_.send(stopOf(owner), slice, noc::MsgClass::Data);
        if (dirty) {
            bool ok = l3Slice(slice).write(addr, newest);
            CC_ASSERT(ok, "recalled line 0x", std::hex, addr,
                      " absent from inclusive L3");
            if (stats_)
                ownerWritebacksStat_->inc();
        }
    }

    (void)requester;
    return latency;
}

Cycles
Hierarchy::invalidateSharers(Addr addr, unsigned slice, CoreId keeper)
{
    Cycles latency = 0;
    std::uint32_t sharers = directory(slice).sharersExcept(addr, keeper);
    for (unsigned c = 0; c < params_.cores; ++c) {
        if (!(sharers & (1u << c)))
            continue;
        latency = std::max(
            latency, ring_.send(slice, stopOf(c), noc::MsgClass::Control));

        Block newest{};
        bool dirty = false;
        if (auto ev1 = l1(c).invalidate(addr)) {
            newest = ev1->data;
            dirty = ev1->dirty;
        }
        if (auto ev2 = l2(c).invalidate(addr)) {
            if (!dirty && ev2->dirty) {
                newest = ev2->data;
                dirty = true;
            } else if (ev2->dirty) {
                // L1 copy was newer; keep it.
            }
        }
        if (dirty) {
            bool ok = l3Slice(slice).write(addr, newest);
            CC_ASSERT(ok, "invalidated dirty line 0x", std::hex, addr,
                      " absent from inclusive L3");
        }
        directory(slice).removeSharer(addr, c);
        if (stats_)
            sharerInvalidationsStat_->inc();
    }
    return latency;
}

Cycles
Hierarchy::fillUpward(CoreId core, Addr addr, const Block &data, Mesi state,
                      CacheLevel fill_to)
{
    Cycles latency = 0;
    if (fill_to == CacheLevel::L3)
        return latency;

    // A set full of pinned CC operands cannot accept the fill; the access
    // is then served without allocating (Section IV-E back-pressure).
    auto fill2 = l2(core).fill(addr, data, state);
    if (!fill2)
        return latency;
    if (fill2->evicted)
        latency += l2Eviction(core, *fill2->evicted);
    directory(sliceFor(core, addr)).addSharer(addr, core);

    if (fill_to == CacheLevel::L2)
        return latency;

    auto fill1 = l1(core).fill(addr, data, state);
    if (!fill1)
        return latency;
    if (fill1->evicted)
        l1Writeback(core, *fill1->evicted);
    return latency;
}

Cycles
Hierarchy::ensureInL3(unsigned slice, Addr addr, bool for_overwrite)
{
    if (l3Slice(slice).contains(addr))
        return 0;

    Cycles latency = 0;
    Block data{};
    if (for_overwrite) {
        // Figure 6 step 4 note: a destination that will be fully
        // overwritten is allocated without a memory read.
        if (stats_)
            allocNoFetchStat_->inc();
    } else {
        data = memory_.readBlock(addr);
        latency += params_.memory.accessLatency;
        if (energy_)
            energy_->chargeDram();
        if (stats_)
            memReadsStat_->inc();
    }

    auto fill = l3Slice(slice).fill(addr, data, Mesi::Exclusive);
    // A workload can legally pin every way of a set with CC operands
    // (extreme but valid config), so exhaustion is fatal, not a panic.
    if (!fill)
        CC_FATAL("L3 slice ", slice, " fill blocked at 0x", std::hex, addr,
                 std::dec, ": every way of the set is pinned by CC operands");
    if (fill->evicted)
        l3Eviction(slice, *fill->evicted);
    return latency;
}

AccessResult
Hierarchy::read(CoreId core, Addr addr, Block *out, CacheLevel fill_to)
{
    if (watchdog_)
        watchdog_->beginTransaction("read", addr);
    AccessResult res = readImpl(core, addr, out, fill_to);
    if (checker_)
        checker_->onTransaction(addr);
    return res;
}

AccessResult
Hierarchy::write(CoreId core, Addr addr, const Block *data,
                 CacheLevel fill_to)
{
    if (watchdog_)
        watchdog_->beginTransaction("write", addr);
    AccessResult res = writeImpl(core, addr, data, fill_to);
    if (checker_)
        checker_->onTransaction(addr);
    return res;
}

Cycles
Hierarchy::fetchToLevel(CoreId core, Addr addr, CacheLevel level,
                        bool exclusive, bool for_overwrite,
                        Cache::Slot *found)
{
    if (watchdog_)
        watchdog_->beginTransaction("fetch", addr);
    Cycles latency = fetchToLevelImpl(core, addr, level, exclusive,
                                      for_overwrite, found);
    if (checker_)
        checker_->onTransaction(addr);
    return latency;
}

AccessResult
Hierarchy::readImpl(CoreId core, Addr addr, Block *out, CacheLevel fill_to)
{
    addr = alignDown(addr, kBlockSize);
    AccessResult res;
    Block data;

    // L1.
    if (fill_to == CacheLevel::L1 && l1(core).read(addr, data)) {
        res.latency = l1(core).latency();
        res.servedBy = ServedBy::L1;
        if (stats_)
            l1HitsStat_->inc();
        if (out)
            *out = data;
        return res;
    }
    res.latency += l1(core).latency();
    if (stats_)
        l1MissesStat_->inc();

    // L2.
    if (l2(core).read(addr, data)) {
        res.latency += l2(core).latency();
        res.servedBy = ServedBy::L2;
        if (stats_)
            l2HitsStat_->inc();
        if (fill_to == CacheLevel::L1) {
            // A set full of pinned CC operands refuses the fill; the
            // access is served from L2 without allocating.
            auto fill1 = l1(core).fill(addr, data, l2(core).state(addr));
            if (fill1 && fill1->evicted)
                l1Writeback(core, *fill1->evicted);
        }
        if (out)
            *out = data;
        traceAccess("read.l2", core, addr, res);
        return res;
    }
    res.latency += l2(core).latency();
    if (stats_)
        l2MissesStat_->inc();

    // L3 home slice.
    unsigned slice = sliceFor(core, addr);
    res.latency += ring_.send(stopOf(core), slice, noc::MsgClass::Control);
    res.latency += params_.l3.accessLatency + params_.l3QueueDelay;

    if (l3Slice(slice).contains(addr)) {
        res.servedBy = ServedBy::L3;
        if (stats_)
            l3HitsStat_->inc();
        DirEntry e = directory(slice).entry(addr);
        if (e.owner && *e.owner != core)
            res.latency += recallFromOwner(core, *e.owner, addr, slice,
                                           /*invalidate_owner=*/false);
    } else {
        res.servedBy = ServedBy::Memory;
        if (stats_)
            l3MissesStat_->inc();
        res.latency += ensureInL3(slice, addr, /*for_overwrite=*/false);
    }

    bool read_ok = l3Slice(slice).read(addr, data);
    CC_ASSERT(read_ok, "L3 read failed after ensure at 0x", std::hex, addr);

    // Grant: Exclusive if no other private copy, else Shared. The
    // exclusive owner is recorded so later readers trigger a downgrade.
    Mesi grant = directory(slice).sharersExcept(addr, core) == 0
        ? Mesi::Exclusive
        : Mesi::Shared;
    if (grant == Mesi::Exclusive) {
        directory(slice).setOwner(addr, core);
    } else {
        // Downgrade any remaining exclusive holder before sharing.
        DirEntry e = directory(slice).entry(addr);
        if (e.owner && *e.owner != core) {
            res.latency += recallFromOwner(core, *e.owner, addr, slice,
                                           false);
            // The former owner keeps a Shared copy; reflect that here.
            Cache &oL1 = l1(*e.owner);
            if (oL1.contains(addr))
                oL1.setState(addr, Mesi::Shared);
        }
        directory(slice).addSharer(addr, core);
    }

    res.latency += ring_.send(slice, stopOf(core), noc::MsgClass::Data);
    res.latency += fillUpward(core, addr, data, grant, fill_to);
    if (out)
        *out = data;
    traceAccess(res.servedBy == ServedBy::Memory ? "read.mem" : "read.l3",
                core, addr, res);
    return res;
}

AccessResult
Hierarchy::writeImpl(CoreId core, Addr addr, const Block *data,
                     CacheLevel fill_to)
{
    addr = alignDown(addr, kBlockSize);
    AccessResult res;

    // Fast path: writable copy in L1.
    if (fill_to == CacheLevel::L1 && writable(l1(core).state(addr))) {
        Block merged = data ? *data : *l1(core).peek(addr);
        l1(core).write(addr, merged);
        l1(core).setState(addr, Mesi::Modified);
        // Keep the inclusive L2 image fresh (dirtiness stays in L1): a
        // stale-but-valid L2 copy would serve old data after the L1 line
        // is downgraded and silently dropped.
        if (l2(core).contains(addr)) {
            l2(core).poke(addr, merged);
            l2(core).setState(addr, Mesi::Modified);
        }
        res.latency = l1(core).latency();
        res.servedBy = ServedBy::L1;
        if (stats_)
            l1WriteHitsStat_->inc();
        return res;
    }

    // Need ownership: read the current data (which may already traverse
    // the hierarchy), then upgrade.
    Block current;
    res = read(core, addr, &current, fill_to);

    unsigned slice = sliceFor(core, addr);
    Cache &target = fill_to == CacheLevel::L1 ? l1(core)
        : fill_to == CacheLevel::L2 ? l2(core)
                                    : l3Slice(slice);

    if (!writable(target.state(addr))) {
        // Upgrade request to the home slice: invalidate other sharers.
        res.latency +=
            ring_.send(stopOf(core), slice, noc::MsgClass::Control);
        res.latency += invalidateSharers(addr, slice, core);
        if (stats_)
            upgradesStat_->inc();
    } else {
        // Exclusive grant may still leave stale sharers in the directory
        // if another core raced; directory invariants keep this empty.
        res.latency += invalidateSharers(addr, slice, core);
    }

    Block merged = data ? *data : current;
    if (!target.write(addr, merged)) {
        // The fill was blocked by a set full of pinned CC operands; the
        // store completes at the home slice instead, and any private
        // copies of the requester are dropped so nothing stale remains.
        l1(core).invalidate(addr);
        l2(core).invalidate(addr);
        bool ok = l3Slice(slice).write(addr, merged);
        CC_ASSERT(ok, "inclusive L3 lost line 0x", std::hex, addr);
        directory(slice).clear(addr);
        return res;
    }
    target.setState(addr, Mesi::Modified);
    if (fill_to == CacheLevel::L1 && l2(core).contains(addr)) {
        l2(core).poke(addr, merged);
        l2(core).setState(addr, Mesi::Modified);
    }

    if (fill_to == CacheLevel::L3) {
        // Dropping the directory entry while a requester-side copy
        // survives would orphan that copy (no later invalidation could
        // reach it); the L3 line just written holds the newest data, so
        // the private copies can simply be discarded.
        l1(core).invalidate(addr);
        l2(core).invalidate(addr);
        directory(slice).clear(addr);
    } else {
        directory(slice).setOwner(addr, core);
    }
    return res;
}

Cycles
Hierarchy::loadBytes(CoreId core, Addr addr, void *out, std::size_t len)
{
    Cycles total = 0;
    auto *dst = static_cast<std::uint8_t *>(out);
    while (len > 0) {
        Addr base = alignDown(addr, kBlockSize);
        std::size_t off = addr - base;
        std::size_t chunk = std::min(len, kBlockSize - off);
        Block b;
        total += read(core, base, &b).latency;
        if (dst) {
            std::memcpy(dst, b.data() + off, chunk);
            dst += chunk;
        }
        addr += chunk;
        len -= chunk;
    }
    return total;
}

Cycles
Hierarchy::storeBytes(CoreId core, Addr addr, const void *data,
                      std::size_t len)
{
    Cycles total = 0;
    auto *src = static_cast<const std::uint8_t *>(data);
    while (len > 0) {
        Addr base = alignDown(addr, kBlockSize);
        std::size_t off = addr - base;
        std::size_t chunk = std::min(len, kBlockSize - off);

        if (off == 0 && chunk == kBlockSize) {
            Block b;
            if (src)
                std::memcpy(b.data(), src, kBlockSize);
            total += write(core, base, src ? &b : nullptr).latency;
        } else {
            // Partial-line store: read-for-ownership then merge.
            Block current;
            total += read(core, base, &current).latency;
            if (src)
                std::memcpy(current.data() + off, src, chunk);
            total += write(core, base, &current).latency;
        }
        if (src)
            src += chunk;
        addr += chunk;
        len -= chunk;
    }
    return total;
}

Cycles
Hierarchy::fetchToLevelImpl(CoreId core, Addr addr, CacheLevel level,
                            bool exclusive, bool for_overwrite,
                            Cache::Slot *found)
{
    addr = alignDown(addr, kBlockSize);

    if (level != CacheLevel::L3) {
        // Fast path: operand already staged with sufficient permission.
        // The residence check is part of the CC command issue; in-place
        // compute senses the bit-cells directly, so no extra port access
        // is charged.
        Cache &target = level == CacheLevel::L1 ? l1(core) : l2(core);
        auto slot = target.find(addr);
        if (slot && (!exclusive || writable(target.state(*slot)))) {
            target.promoteMRU(*slot);
            if (found)
                *found = *slot;
            return 0;
        }

        // Otherwise the staging reuses the normal transaction machinery.
        AccessResult res = exclusive
            ? write(core, addr, nullptr, level)
            : read(core, addr, nullptr, level);
        return res.latency;
    }

    // L3 staging (Figure 6): higher-level dirty copies are written back
    // using the existing writeback mechanism; exclusivity for CC writes
    // invalidates all private copies.
    unsigned slice = sliceFor(core, addr);

    // Fast path: already resident with nothing to recall or invalidate.
    // The per-block residence check is part of the CC command issue the
    // controller models, so it costs no separate hierarchy transaction.
    if (auto slot = l3Slice(slice).find(addr)) {
        DirEntry quick = directory(slice).entry(addr);
        bool needs_action = false;
        for (unsigned c = 0; c < params_.cores && !needs_action; ++c) {
            if (!(quick.sharers & (1u << c)))
                continue;
            if (exclusive) {
                needs_action = true;
            } else {
                needs_action = l1(c).isDirty(addr) || l2(c).isDirty(addr);
            }
        }
        if (!needs_action) {
            if (found)
                *found = *slot;
            return 0;
        }
    }

    Cycles latency =
        ring_.send(stopOf(core), slice, noc::MsgClass::Control);

    DirEntry e = directory(slice).entry(addr);
    for (unsigned c = 0; c < params_.cores; ++c) {
        if (!(e.sharers & (1u << c)))
            continue;
        if (exclusive) {
            latency += recallFromOwner(core, c, addr, slice,
                                       /*invalidate_owner=*/true);
        } else {
            if (l1(c).isDirty(addr) || l2(c).isDirty(addr))
                latency += recallFromOwner(core, c, addr, slice, false);
        }
    }

    latency += ensureInL3(slice, addr, for_overwrite);
    latency += params_.l3.accessLatency + params_.l3QueueDelay;
    return latency;
}

Cache &
Hierarchy::cacheAt(CacheLevel level, CoreId core, Addr addr)
{
    switch (level) {
      case CacheLevel::L1:
        return l1(core);
      case CacheLevel::L2:
        return l2(core);
      case CacheLevel::L3:
        return l3Slice(sliceFor(core, addr));
    }
    CC_PANIC("bad level");
}

CacheLevel
Hierarchy::chooseLevel(CoreId core, const std::vector<Addr> &operands)
{
    // Section IV-E: compute at the highest level where ALL operands are
    // present; if any operand is uncached, compute at L3. No L3 probe is
    // needed: L3 is the unconditional fallback, and the probe's only
    // side effect — sliceFor's first-touch page pinning — is reproduced
    // exactly by ensureInL3 with the same core whenever the op actually
    // computes at L3 (an operand resident in L1/L2 had its page pinned
    // by the fill that brought it there). This runs once per block
    // operand per instruction, so it early-exits as soon as both
    // candidate levels are ruled out.
    bool all_l1 = true, all_l2 = true;
    for (Addr a : operands) {
        Addr blk = alignDown(a, kBlockSize);
        if (all_l1)
            all_l1 = l1(core).contains(blk);
        if (all_l2)
            all_l2 = l2(core).contains(blk);
        if (!all_l1 && !all_l2)
            return CacheLevel::L3;
    }
    if (all_l1)
        return CacheLevel::L1;
    if (all_l2)
        return CacheLevel::L2;
    return CacheLevel::L3;
}

Block
Hierarchy::debugRead(Addr addr)
{
    addr = alignDown(addr, kBlockSize);
    // Private copies can exist only for cores whose sharer bit is set in
    // the home slice's directory, and only for mapped pages (the
    // inclusion and dir.missing_sharer invariants the coherence checker
    // audits, DESIGN.md §9) — so walk the directory instead of probing
    // every core's L1 and L2. Core order is preserved, so the answer is
    // bit-identical to the exhaustive scan.
    if (auto home = homeSliceIfMapped(addr)) {
        DirEntry e = dir_[*home]->entry(addr);
        for (unsigned c = 0; c < params_.cores && e.sharers != 0; ++c) {
            if (!(e.sharers & (1u << c)))
                continue;
            if (const Block *d = l1(c).dirtyPeek(addr))
                return *d;
            if (const Block *d = l2(c).dirtyPeek(addr))
                return *d;
        }
        // L3 residency is possible only at the home slice: every fill
        // goes through ensureInL3 with a sliceFor-derived target, and
        // sliceFor pins the page mapping on first touch (mapPage is
        // pre-access test setup only). L3 data is newest unless a
        // private M copy exists (checked above); L3-dirty beats memory.
        if (const Block *d = l3_[*home]->peek(addr))
            return *d;
    }
    // Unmapped page: never filled anywhere (the coherence checker's
    // "unmapped implies no valid copies" invariant, DESIGN.md §9).
    return memory_.readBlock(addr);
}

void
Hierarchy::debugWrite(Addr addr, const Block &data)
{
    addr = alignDown(addr, kBlockSize);
    memory_.writeBlock(addr, data);
    // Same directory walk as debugRead: only sharer-listed cores can
    // hold private copies, so the old poke-every-cache broadcast (24
    // probes per block on the System::load workload-setup hot path)
    // reduces to the tracked copies plus the slices.
    if (auto home = homeSliceIfMapped(addr)) {
        DirEntry e = dir_[*home]->entry(addr);
        for (unsigned c = 0; c < params_.cores && e.sharers != 0; ++c) {
            if (!(e.sharers & (1u << c)))
                continue;
            l1(c).poke(addr, data);
            l2(c).poke(addr, data);
        }
        // Only the home slice can hold the line (see debugRead); an
        // unmapped page has no cached copies to update at all.
        l3_[*home]->poke(addr, data);
    }
}

void
Hierarchy::flushAll()
{
    // Gather dirty data lowest level first so the copy closest to a core
    // (the newest under single-owner MESI) overwrites staler ones.
    std::unordered_map<Addr, Block> newest;
    auto gather = [&](Cache &cache) {
        cache.forEachLine([&](Addr addr, Mesi, bool dirty,
                              const Block &data) {
            if (dirty)
                newest[addr] = data;
        });
    };
    for (auto &slice : l3_)
        gather(*slice);
    for (unsigned c = 0; c < params_.cores; ++c)
        gather(l2(c));
    for (unsigned c = 0; c < params_.cores; ++c)
        gather(l1(c));

    for (const auto &[addr, data] : newest)
        memory_.writeBlock(addr, data);

    auto clear = [&](Cache &cache) {
        std::vector<Addr> all;
        cache.forEachLine([&](Addr addr, Mesi, bool, const Block &) {
            all.push_back(addr);
        });
        for (Addr addr : all)
            cache.invalidate(addr);
    };
    for (unsigned c = 0; c < params_.cores; ++c) {
        clear(l1(c));
        clear(l2(c));
    }
    for (unsigned s = 0; s < l3_.size(); ++s) {
        std::vector<Addr> tracked;
        l3Slice(s).forEachLine([&](Addr addr, Mesi, bool, const Block &) {
            tracked.push_back(addr);
        });
        clear(l3Slice(s));
        for (Addr addr : tracked)
            directory(s).clear(addr);
    }

    // A flush must leave nothing behind: private lines, slices and
    // directories are all empty, which the full audit confirms.
    if (checker_)
        checker_->checkNow();
}

} // namespace ccache::cache
