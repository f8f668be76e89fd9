#include "cc/operation_table.hh"

#include "common/logging.hh"

namespace ccache::cc {

const char *
toString(OpStatus s)
{
    switch (s) {
      case OpStatus::WaitingOperands: return "waiting";
      case OpStatus::Ready: return "ready";
      case OpStatus::Issued: return "issued";
      case OpStatus::Done: return "done";
    }
    return "?";
}

OperationTable::OperationTable(std::size_t entries) : entries_(entries)
{
    CC_ASSERT(entries > 0, "operation table needs entries");
}

std::size_t
OperationTable::occupancy() const
{
    std::size_t n = 0;
    for (const auto &e : entries_)
        n += e.valid ? 1 : 0;
    return n;
}

std::optional<std::size_t>
OperationTable::allocate(InstrId instr, std::size_t op_index,
                         std::initializer_list<Addr> operands)
{
    CC_ASSERT(operands.size() > 0 && operands.size() <= 32,
              "bad operand count ", operands.size());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].valid)
            continue;
        OpEntry &e = entries_[i];
        e.valid = true;
        e.instr = instr;
        e.opIndex = op_index;
        e.operands.assign(operands.begin(), operands.end());
        e.fetched = 0;
        e.status = OpStatus::WaitingOperands;
        return i;
    }
    return std::nullopt;
}

OpEntry &
OperationTable::entry(std::size_t id)
{
    CC_ASSERT(id < entries_.size() && entries_[id].valid,
              "bad operation-table id ", id);
    return entries_[id];
}

void
OperationTable::markFetched(std::size_t id, std::size_t idx)
{
    OpEntry &e = entry(id);
    CC_ASSERT(idx < e.operands.size(), "operand index out of range");
    e.fetched |= 1u << idx;
    if (e.allFetched() && e.status == OpStatus::WaitingOperands)
        e.status = OpStatus::Ready;
}

void
OperationTable::markLost(std::size_t id, std::size_t idx)
{
    OpEntry &e = entry(id);
    CC_ASSERT(idx < e.operands.size(), "operand index out of range");
    CC_ASSERT(e.status != OpStatus::Done, "lost operand after completion");
    e.fetched &= ~(1u << idx);
    e.status = OpStatus::WaitingOperands;
}

void
OperationTable::markIssued(std::size_t id)
{
    OpEntry &e = entry(id);
    CC_ASSERT(e.status == OpStatus::Ready, "issue of non-ready op ", id,
              " in state ", toString(e.status));
    e.status = OpStatus::Issued;
}

void
OperationTable::markDone(std::size_t id)
{
    OpEntry &e = entry(id);
    CC_ASSERT(e.status == OpStatus::Issued, "completion of non-issued op");
    e.status = OpStatus::Done;
}

void
OperationTable::release(std::size_t id)
{
    entry(id).valid = false;
}

} // namespace ccache::cc
