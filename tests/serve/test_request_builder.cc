/**
 * @file
 * Tests for the shared request builder: operand placement, heap
 * exhaustion degrading into a structured no_capacity rejection with
 * full rollback (DESIGN.md §12), and the CcServer-level regression —
 * an undersized heap sheds instead of killing the run.
 */

#include <gtest/gtest.h>

#include "geometry/locality_allocator.hh"
#include "serve/server.hh"
#include "sim/system.hh"
#include "workload/traffic_gen.hh"

namespace ccache::serve {
namespace {

workload::RequestSpec
makeSpec(cc::CcOpcode op, std::size_t bytes, Cycles arrival = 0)
{
    workload::RequestSpec spec;
    spec.arrival = arrival;
    spec.tenant = 0;
    spec.op = op;
    spec.bytes = bytes;
    return spec;
}

TEST(RequestBuilder, BuildsAndRecycles)
{
    sim::System sys;
    geometry::LocalityAllocator alloc(0x40000000, 1 << 20);
    RequestBuildParams params;

    RejectReason why = RejectReason::Malformed;
    std::optional<Request> req = buildRequest(
        sys, alloc, params, makeSpec(cc::CcOpcode::And, 4096), 1, &why);
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->buffers.size(), 3u); // src1, src2, dest
    std::size_t free_before = alloc.freeBytes();
    EXPECT_LT(free_before, static_cast<std::size_t>(1 << 20));

    recycleRequest(alloc, *req);
    EXPECT_GT(alloc.freeBytes(), free_before);
}

TEST(RequestBuilder, ChunksToIsaLimits)
{
    sim::System sys;
    geometry::LocalityAllocator alloc(0x40000000, 4 << 20);
    RequestBuildParams params;

    // 48 KB And = 3 chunks of the 16 KB vector limit.
    std::optional<Request> req =
        buildRequest(sys, alloc, params,
                     makeSpec(cc::CcOpcode::And, 3 * cc::kMaxVectorBytes),
                     2, nullptr);
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->chunks.size(), 2u); // head instr + 2 extra chunks

    // 2 KB Cmp = 4 chunks of the 512 B CC-R limit.
    std::optional<Request> cmp = buildRequest(
        sys, alloc, params, makeSpec(cc::CcOpcode::Cmp, 2048), 3, nullptr);
    ASSERT_TRUE(cmp.has_value());
    EXPECT_EQ(cmp->chunks.size(), 3u);
}

TEST(RequestBuilder, HeapExhaustionIsStructuredAndRollsBack)
{
    sim::System sys;
    geometry::LocalityAllocator alloc(0x40000000, 8192);
    RequestBuildParams params;
    std::size_t free_at_start = alloc.freeBytes();

    // Three 16 KB operands can never fit an 8 KB heap.
    RejectReason why = RejectReason::Malformed;
    std::optional<Request> req =
        buildRequest(sys, alloc, params,
                     makeSpec(cc::CcOpcode::And, cc::kMaxVectorBytes), 1,
                     &why);
    EXPECT_FALSE(req.has_value());
    EXPECT_EQ(why, RejectReason::NoCapacity);
    // Rollback is complete: the partial operand allocations were
    // returned, so a request that fits still succeeds.
    EXPECT_EQ(alloc.freeBytes(), free_at_start);
    std::optional<Request> small = buildRequest(
        sys, alloc, params, makeSpec(cc::CcOpcode::Buz, 1024), 2, nullptr);
    EXPECT_TRUE(small.has_value());
}

TEST(RequestBuilder, PatternFillIsShardIndependent)
{
    // The operand bytes are a pure function of (patternSeed, id): two
    // independent systems building the same request must agree on
    // every byte — the property hedged re-dispatch and golden
    // verification rest on.
    RequestBuildParams params;
    params.fillPattern = true;
    params.patternSeed = 0xfeedULL;

    auto build_and_dump = [&](std::uint64_t) {
        sim::System sys;
        geometry::LocalityAllocator alloc(0x40000000, 1 << 20);
        std::optional<Request> req = buildRequest(
            sys, alloc, params, makeSpec(cc::CcOpcode::Cmp, 512), 7,
            nullptr);
        EXPECT_TRUE(req.has_value());
        return sys.dump(req->instr.src1, 512);
    };
    EXPECT_EQ(build_and_dump(0), build_and_dump(1));
}

/** Run every instruction of @p req on core 0. */
void
executeRequest(sim::System &sys, const Request &req)
{
    sys.cc().execute(0, req.instr);
    for (const cc::CcInstruction &in : req.chunks)
        sys.cc().execute(0, in);
}

TEST(GoldenVerify, ExecutedRequestsVerifyAndOneWrongByteFails)
{
    RequestBuildParams params;
    params.fillPattern = true;
    params.patternSeed = 0x5eedULL;
    // Two chunks, so the reference covers the chunk loop too.
    const std::size_t bytes = cc::kMaxVectorBytes + 4096;
    RequestId id = 1;
    for (cc::CcOpcode op :
         {cc::CcOpcode::Buz, cc::CcOpcode::Copy, cc::CcOpcode::Not,
          cc::CcOpcode::And, cc::CcOpcode::Or, cc::CcOpcode::Xor}) {
        SCOPED_TRACE(cc::toString(op));
        sim::System sys;
        geometry::LocalityAllocator alloc(0x40000000, 1 << 20);
        std::optional<Request> req = buildRequest(
            sys, alloc, params, makeSpec(op, bytes), id++, nullptr);
        ASSERT_TRUE(req.has_value());
        ASSERT_EQ(req->chunks.size(), 1u);

        executeRequest(sys, *req);
        EXPECT_TRUE(goldenVerifyRequest(sys, *req, 0));

        // One flipped destination byte, in the last chunk.
        const cc::CcInstruction &last = req->chunks.back();
        Addr where = last.dest + last.size - 3;
        std::uint8_t byte = sys.dump(where, 1)[0] ^ 0x10;
        sys.load(where, &byte, 1);
        EXPECT_FALSE(goldenVerifyRequest(sys, *req, 0));
    }
}

TEST(GoldenVerify, UnexecutedBuzFails)
{
    sim::System sys;
    geometry::LocalityAllocator alloc(0x40000000, 1 << 20);
    RequestBuildParams params;
    std::optional<Request> req = buildRequest(
        sys, alloc, params, makeSpec(cc::CcOpcode::Buz, 4096), 1, nullptr);
    ASSERT_TRUE(req.has_value());
    std::vector<std::uint8_t> filled(4096, 0xAB);
    sys.load(req->instr.dest, filled.data(), filled.size());
    EXPECT_FALSE(goldenVerifyRequest(sys, *req, 0));

    executeRequest(sys, *req);
    EXPECT_TRUE(goldenVerifyRequest(sys, *req, 0));
}

TEST(CcServer, UndersizedHeapShedsNoCapacity)
{
    // Regression: heap exhaustion at admission must degrade into a
    // structured no_capacity shed, not a FatalError mid-run.
    workload::TrafficParams traffic;
    traffic.totalRequests = 30;
    traffic.seed = 5;
    workload::TenantTraffic t;
    t.name = "tenant";
    t.requestsPerKilocycle = 1.0;
    t.minBytes = 16384;
    t.maxBytes = 16384;
    traffic.tenants.push_back(t);

    sim::System sys;
    ServerParams params;
    params.heapBytes = 8192;
    CcServer server(sys, params);
    ServeReport report = server.run(generateTraffic(traffic));

    EXPECT_EQ(report.served, 0u);
    EXPECT_EQ(report.rejected, report.offered);
    EXPECT_NE(report.rejections.dump().find("no_capacity"),
              std::string::npos);
}

} // namespace
} // namespace ccache::serve
