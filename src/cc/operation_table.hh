/**
 * @file
 * Operation table (Section IV-D): tracks each simple vector operation —
 * one cache-block-wide slice of a CC instruction — through its operand
 * fetch, issue and completion.
 */

#ifndef CCACHE_CC_OPERATION_TABLE_HH
#define CCACHE_CC_OPERATION_TABLE_HH

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <vector>

#include "cc/instruction_table.hh"
#include "common/types.hh"

namespace ccache::cc {

/** Lifecycle of a simple vector operation. */
enum class OpStatus {
    WaitingOperands,  ///< fetch requests outstanding
    Ready,            ///< all operands resident and pinned
    Issued,           ///< command sent to the sub-array
    Done,
};

/** Human-readable status name (logging / test diagnostics). */
const char *toString(OpStatus s);

/** One simple vector operation: operands span at most one cache block. */
struct OpEntry
{
    bool valid = false;
    InstrId instr = 0;
    std::size_t opIndex = 0;      ///< which slice of the instruction

    /** Block addresses involved. The storage stays with the table
     *  entry and is reused by every later allocation of that entry. */
    std::vector<Addr> operands;
    std::uint32_t fetched = 0;    ///< bit per operand: resident + pinned
    OpStatus status = OpStatus::WaitingOperands;

    bool allFetched() const
    {
        return fetched == (1u << operands.size()) - 1;
    }
};

/** Fixed-capacity operation table. */
class OperationTable
{
  public:
    explicit OperationTable(std::size_t entries = 64);

    std::size_t capacity() const { return entries_.size(); }
    std::size_t occupancy() const;
    bool full() const { return occupancy() == capacity(); }

    /** Allocate an entry; nullopt when full (back-pressure). Once an
     *  entry's operand storage has grown to fit, allocating it again
     *  does not touch the heap (DESIGN.md §13.4). */
    std::optional<std::size_t> allocate(InstrId instr, std::size_t op_index,
                                        std::initializer_list<Addr> operands);

    OpEntry &entry(std::size_t id);

    /** Mark operand @p idx of op @p id fetched; promotes to Ready when
     *  the operand set completes. */
    void markFetched(std::size_t id, std::size_t idx);

    /** A forwarded coherence request stole operand @p idx: drop it and
     *  fall back to WaitingOperands (Section IV-E lock release). */
    void markLost(std::size_t id, std::size_t idx);

    /** Advance the lifecycle: command sent / result written back. @{ */
    void markIssued(std::size_t id);
    void markDone(std::size_t id);
    /** @} */

    /** Free a completed entry for reuse. */
    void release(std::size_t id);

  private:
    std::vector<OpEntry> entries_;
};

} // namespace ccache::cc

#endif // CCACHE_CC_OPERATION_TABLE_HH
