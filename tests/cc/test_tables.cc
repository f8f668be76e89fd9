/**
 * @file
 * Tests for the CC controller bookkeeping structures: instruction table,
 * operation table and key table (Section IV-D).
 */

#include <gtest/gtest.h>

#include "cc/instruction_table.hh"
#include "cc/key_table.hh"
#include "cc/operation_table.hh"

namespace ccache::cc {
namespace {

TEST(InstructionTable, AllocateUntilFull)
{
    InstructionTable table(2);
    auto instr = CcInstruction::copy(0x1000, 0x2000, 256);
    auto a = table.allocate(instr, 0, 4);
    auto b = table.allocate(instr, 1, 4);
    ASSERT_TRUE(a);
    ASSERT_TRUE(b);
    EXPECT_TRUE(table.full());
    EXPECT_FALSE(table.allocate(instr, 2, 4).has_value());
    table.release(*a);
    EXPECT_FALSE(table.full());
    EXPECT_TRUE(table.allocate(instr, 2, 4).has_value());
}

TEST(InstructionTable, OpGenerationAndCompletion)
{
    InstructionTable table;
    auto id = table.allocate(CcInstruction::copy(0, 0x2000, 192), 0, 3);
    ASSERT_TRUE(id);
    EXPECT_EQ(table.nextOp(*id), 0u);
    EXPECT_EQ(table.nextOp(*id), 1u);
    EXPECT_EQ(table.nextOp(*id), 2u);
    EXPECT_FALSE(table.nextOp(*id).has_value());

    EXPECT_FALSE(table.complete(*id));
    EXPECT_FALSE(table.complete(*id));
    EXPECT_TRUE(table.complete(*id));  // third completion retires
    EXPECT_TRUE(table.entry(*id).done());
}

TEST(InstructionTable, ResultAccumulation)
{
    InstructionTable table;
    auto id = table.allocate(CcInstruction::cmp(0x0, 0x1000, 128), 0, 2);
    ASSERT_TRUE(id);
    table.complete(*id, 0xab, 8);
    table.complete(*id, 0xcd, 8);
    EXPECT_EQ(table.entry(*id).result, 0xcdabu);
}

TEST(OperationTable, FetchLifecycle)
{
    OperationTable table(4);
    auto id = table.allocate(0, 0, {0x1000, 0x2000, 0x3000});
    ASSERT_TRUE(id);
    EXPECT_EQ(table.entry(*id).status, OpStatus::WaitingOperands);
    table.markFetched(*id, 0);
    table.markFetched(*id, 1);
    EXPECT_EQ(table.entry(*id).status, OpStatus::WaitingOperands);
    table.markFetched(*id, 2);
    EXPECT_EQ(table.entry(*id).status, OpStatus::Ready);
    table.markIssued(*id);
    table.markDone(*id);
    table.release(*id);
    EXPECT_EQ(table.occupancy(), 0u);
}

TEST(OperationTable, ForwardedRequestLosesOperand)
{
    OperationTable table(4);
    auto id = table.allocate(0, 0, {0x1000, 0x2000});
    table.markFetched(*id, 0);
    table.markFetched(*id, 1);
    EXPECT_EQ(table.entry(*id).status, OpStatus::Ready);
    // Section IV-E: a forwarded coherence request releases the lock; the
    // op drops back to waiting and re-fetches.
    table.markLost(*id, 1);
    EXPECT_EQ(table.entry(*id).status, OpStatus::WaitingOperands);
    EXPECT_FALSE(table.entry(*id).allFetched());
    table.markFetched(*id, 1);
    EXPECT_EQ(table.entry(*id).status, OpStatus::Ready);
}

TEST(OperationTable, ReallocationReusesOperandStorage)
{
    OperationTable table(1);
    auto id = table.allocate(7, 3, {0x1000, 0x2000, 0x3000});
    ASSERT_TRUE(id);
    const Addr *storage = table.entry(*id).operands.data();
    table.markFetched(*id, 0);
    table.markFetched(*id, 1);
    table.markFetched(*id, 2);
    table.markIssued(*id);
    table.markDone(*id);
    table.release(*id);

    // Same entry, no larger operand set: same storage, fresh state.
    auto again = table.allocate(8, 0, {0x4000, 0x5000});
    ASSERT_EQ(again, id);
    const OpEntry &e = table.entry(*again);
    EXPECT_EQ(e.operands.data(), storage);
    EXPECT_EQ(e.operands, (std::vector<Addr>{0x4000, 0x5000}));
    EXPECT_EQ(e.instr, 8u);
    EXPECT_EQ(e.opIndex, 0u);
    EXPECT_EQ(e.fetched, 0u);
    EXPECT_EQ(e.status, OpStatus::WaitingOperands);
    EXPECT_FALSE(e.allFetched());
}

TEST(OperationTable, CapacityBackPressure)
{
    OperationTable table(2);
    EXPECT_TRUE(table.allocate(0, 0, {0x0}).has_value());
    EXPECT_TRUE(table.allocate(0, 1, {0x40}).has_value());
    EXPECT_FALSE(table.allocate(0, 2, {0x80}).has_value());
}

TEST(KeyTable, TracksReplicationPerPartition)
{
    KeyTable keys;
    PartitionId p0{CacheLevel::L3, 0, 5};
    PartitionId p1{CacheLevel::L3, 0, 6};

    EXPECT_TRUE(keys.needsReplication(1, 0x1000, p0));
    // Same instruction + key + partition: already replicated.
    EXPECT_FALSE(keys.needsReplication(1, 0x1000, p0));
    // Different partition still needs it.
    EXPECT_TRUE(keys.needsReplication(1, 0x1000, p1));
    // Different instruction starts fresh.
    EXPECT_TRUE(keys.needsReplication(2, 0x1000, p0));
    EXPECT_EQ(keys.replications(), 3u);
}

TEST(KeyTable, ReleaseInstr)
{
    KeyTable keys;
    PartitionId p{CacheLevel::L1, 2, 1};
    keys.needsReplication(7, 0x40, p);
    EXPECT_EQ(keys.trackedInstructions(), 1u);
    keys.releaseInstr(7);
    EXPECT_EQ(keys.trackedInstructions(), 0u);
    EXPECT_TRUE(keys.needsReplication(7, 0x40, p));
}

} // namespace
} // namespace ccache::cc
