#include "cache/cache.hh"

#include "common/bit_util.hh"
#include "common/logging.hh"

namespace ccache::cache {

Cache::Cache(const CacheParams &params, energy::EnergyModel *energy,
             StatRegistry *stats, std::string stat_prefix)
    : params_(params), geom_(params.geometry),
      tags_(geom_.numSets(), params.geometry.ways),
      data_(std::make_unique_for_overwrite<Block[]>(
          geom_.numSets() * params.geometry.ways)),
      energy_(energy)
{
    if (stats) {
        StatGroup g = stats->group(stat_prefix);
        readsStat_ = &g.counter("reads", "block reads served");
        writesStat_ = &g.counter("writes", "block writes absorbed");
        fillsStat_ = &g.counter("fills", "lines allocated");
        evictionsStat_ = &g.counter("evictions", "lines evicted");
        invalidationsStat_ =
            &g.counter("invalidations", "coherence invalidations");
        fillBlockedStat_ = &g.counter(
            "fill_blocked_pinned", "fills refused by a fully pinned set");
    }
}

Mesi
Cache::state(Addr addr) const
{
    auto loc = find(addr);
    if (!loc)
        return Mesi::Invalid;
    return tags_.line(loc->set, loc->way).state;
}

void
Cache::setState(Addr addr, Mesi state)
{
    auto loc = find(addr);
    CC_ASSERT(loc, "setState on absent line 0x", std::hex, addr);
    tags_.line(loc->set, loc->way).state = state;
}

void
Cache::chargeRead()
{
    if (energy_)
        energy_->chargeCacheOp(params_.level, energy::CacheOp::Read);
    if (readsStat_)
        readsStat_->inc();
}

void
Cache::chargeWrite()
{
    if (energy_)
        energy_->chargeCacheOp(params_.level, energy::CacheOp::Write);
    if (writesStat_)
        writesStat_->inc();
}

bool
Cache::read(Addr addr, Block &out)
{
    auto loc = find(addr);
    if (!loc)
        return false;
    tags_.touch(loc->set, loc->way);
    out = data_[dataIndex(loc->set, loc->way)];
    chargeRead();
    return true;
}

bool
Cache::write(Addr addr, const Block &data, bool set_dirty)
{
    auto loc = find(addr);
    if (!loc)
        return false;
    tags_.touch(loc->set, loc->way);
    data_[dataIndex(loc->set, loc->way)] = data;
    if (set_dirty)
        tags_.line(loc->set, loc->way).dirty = true;
    chargeWrite();
    return true;
}

std::optional<FillResult>
Cache::fill(Addr addr, const Block &data, Mesi state)
{
    CC_ASSERT(isAligned(addr, kBlockSize), "fill of unaligned 0x", std::hex,
              addr);
    auto f = geom_.decode(addr);

    // Refill of a line that is already resident just updates it.
    if (Lookup l = tags_.lookup(f.set, f.tag); l.hit) {
        tags_.touch(f.set, l.way);
        tags_.line(f.set, l.way).state = state;
        data_[dataIndex(f.set, l.way)] = data;
        chargeWrite();
        return FillResult{l.way, std::nullopt};
    }

    auto victim_way = tags_.victim(f.set);
    if (!victim_way) {
        if (fillBlockedStat_)
            fillBlockedStat_->inc();
        return std::nullopt;
    }

    FillResult result{*victim_way, std::nullopt};
    Line &line = tags_.line(f.set, *victim_way);
    if (line.valid()) {
        Eviction ev;
        ev.addr = ((line.tag << geom_.setIndexBits()) | f.set)
            << geom_.blockOffsetBits();
        ev.data = data_[dataIndex(f.set, *victim_way)];
        ev.dirty = line.dirty;
        ev.state = line.state;
        result.evicted = ev;
        if (evictionsStat_)
            evictionsStat_->inc();
    }

    line.tag = f.tag;
    line.state = state;
    line.dirty = false;
    line.pinned = false;
    tags_.touch(f.set, *victim_way);
    data_[dataIndex(f.set, *victim_way)] = data;
    chargeWrite();
    if (fillsStat_)
        fillsStat_->inc();
    return result;
}

std::optional<Eviction>
Cache::invalidate(Addr addr)
{
    auto loc = find(addr);
    if (!loc)
        return std::nullopt;
    Line &line = tags_.line(loc->set, loc->way);
    Eviction ev;
    ev.addr = addr;
    ev.data = data_[dataIndex(loc->set, loc->way)];
    ev.dirty = line.dirty;
    ev.state = line.state;
    line.state = Mesi::Invalid;
    line.dirty = false;
    line.pinned = false;
    if (invalidationsStat_)
        invalidationsStat_->inc();
    return ev;
}

bool
Cache::pin(Addr addr)
{
    auto loc = find(addr);
    if (!loc)
        return false;
    tags_.line(loc->set, loc->way).pinned = true;
    return true;
}

void
Cache::unpin(Addr addr)
{
    if (auto loc = find(addr))
        tags_.line(loc->set, loc->way).pinned = false;
}

bool
Cache::isPinned(Addr addr) const
{
    auto loc = find(addr);
    return loc && tags_.line(loc->set, loc->way).pinned;
}

void
Cache::promoteMRU(Addr addr)
{
    if (auto loc = find(addr))
        tags_.touch(loc->set, loc->way);
}

void
Cache::markDirty(Addr addr)
{
    auto loc = find(addr);
    CC_ASSERT(loc, "markDirty on absent line 0x", std::hex, addr);
    Line &l = tags_.line(loc->set, loc->way);
    l.dirty = true;
    l.state = Mesi::Modified;
}

bool
Cache::isDirty(Addr addr) const
{
    auto loc = find(addr);
    return loc && tags_.line(loc->set, loc->way).dirty;
}

void
Cache::clearDirty(Addr addr)
{
    if (auto loc = find(addr))
        tags_.line(loc->set, loc->way).dirty = false;
}

const Block *
Cache::dirtyPeek(Addr addr) const
{
    auto loc = find(addr);
    if (!loc || !tags_.line(loc->set, loc->way).dirty)
        return nullptr;
    return &data_[dataIndex(loc->set, loc->way)];
}

const Block *
Cache::peek(Addr addr) const
{
    auto loc = find(addr);
    if (!loc)
        return nullptr;
    return &data_[dataIndex(loc->set, loc->way)];
}

bool
Cache::poke(Addr addr, const Block &data)
{
    auto loc = find(addr);
    if (!loc)
        return false;
    data_[dataIndex(loc->set, loc->way)] = data;
    return true;
}

Addr
Cache::addrOf(std::size_t set, std::size_t way) const
{
    const Line &l = tags_.line(set, way);
    return ((l.tag << geom_.setIndexBits()) | set)
        << geom_.blockOffsetBits();
}

void
Cache::forEachLine(
    const std::function<void(Addr, Mesi, bool, const Block &)> &fn) const
{
    for (std::size_t set = 0; set < geom_.numSets(); ++set) {
        for (std::size_t way = 0; way < params_.geometry.ways; ++way) {
            const Line &l = tags_.line(set, way);
            if (!l.valid())
                continue;
            fn(addrOf(set, way), l.state, l.dirty,
               data_[dataIndex(set, way)]);
        }
    }
}

std::optional<geometry::BlockPlace>
Cache::placeOf(Addr addr) const
{
    auto loc = find(addr);
    if (!loc)
        return std::nullopt;
    return geom_.place(loc->set, loc->way);
}

} // namespace ccache::cache
