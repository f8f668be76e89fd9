#include "serve/request_builder.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "common/rng.hh"

namespace ccache::serve {

namespace {

using Bytes = std::vector<std::uint8_t>;

/** Seeded operand bytes: a pure function of (patternSeed, id, stream),
 *  so the same request carries the same data on every shard. */
Bytes
patternBytes(std::uint64_t pattern_seed, RequestId id, unsigned stream,
             std::size_t n)
{
    Rng rng(mix64(mix64(pattern_seed ^ id) ^ (0xb0b0000 + stream)));
    Bytes out(n);
    // One xoshiro draw yields eight operand bytes (low byte first, a
    // platform-independent unpack). Operand fill is the serve harness's
    // hottest loop (DESIGN.md §13), and the bytes stay a pure function
    // of (patternSeed, id, stream), so every shard still builds
    // identical request data.
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t w = rng.next();
        for (unsigned k = 0; k < 8; ++k)
            out[i + k] = static_cast<std::uint8_t>(w >> (k * 8));
    }
    if (i < n) {
        std::uint64_t w = rng.next();
        for (; i < n; ++i, w >>= 8)
            out[i] = static_cast<std::uint8_t>(w);
    }
    return out;
}

std::uint64_t
wordAt(const Bytes &buf, std::size_t word)
{
    std::uint64_t w = 0;
    std::memcpy(&w, buf.data() + word * 8, 8);
    return w;
}

/** Host-side reference of a logical op, in place over @p a (src1),
 *  one 8-byte word at a time (vector sizes are word multiples,
 *  CcInstruction::validate); @p b is src2, unused by Not. */
void
refLogic(cc::CcOpcode op, Bytes &a, const Bytes &b)
{
    for (std::size_t i = 0; i + 8 <= a.size(); i += 8) {
        std::uint64_t x, y = 0;
        std::memcpy(&x, a.data() + i, 8);
        if (op != cc::CcOpcode::Not)
            std::memcpy(&y, b.data() + i, 8);
        x = op == cc::CcOpcode::Not ? ~x
          : op == cc::CcOpcode::And ? (x & y)
          : op == cc::CcOpcode::Or  ? (x | y)
                                    : (x ^ y);
        std::memcpy(a.data() + i, &x, 8);
    }
}

/** Host-side reference of one CC-R chunk's packed result register:
 *  bit w set iff 8-byte word w of src1 equals word w of src2 (cmp) or
 *  word (w % 8) of the 64-byte key (search). */
std::uint64_t
refChunkMask(const Bytes &a, const Bytes &b, bool search)
{
    std::uint64_t mask = 0;
    for (std::size_t w = 0; w < a.size() / 8; ++w) {
        std::uint64_t bw = search ? wordAt(b, w % kWordsPerBlock)
                                  : wordAt(b, w);
        if (wordAt(a, w) == bw)
            mask |= std::uint64_t{1} << w;
    }
    return mask;
}

/** Write the golden-verifiable operand fill for one placed request.
 *  cmp/search operands are seeded with deliberate partial matches so
 *  the packed result register exercises both bit values. */
void
fillOperands(sim::System &sys, const RequestBuildParams &params,
             RequestId id, cc::CcOpcode op, Addr src1, Addr src2,
             std::size_t n)
{
    Bytes a = patternBytes(params.patternSeed, id, 1, n);
    switch (op) {
      case cc::CcOpcode::Cmp: {
        // Word w of src2 equals src1 on a fixed id-dependent stride.
        Bytes b = patternBytes(params.patternSeed, id, 2, n);
        for (std::size_t w = 0; w < n / 8; ++w) {
            if ((w + id) % 3 == 0)
                std::memcpy(b.data() + w * 8, a.data() + w * 8, 8);
        }
        sys.load(src1, a.data(), a.size());
        sys.load(src2, b.data(), b.size());
        return;
      }
      case cc::CcOpcode::Search: {
        // Plant the key into an id-dependent subset of src1's blocks.
        Bytes key = patternBytes(params.patternSeed, id, 2,
                                 cc::kSearchKeyBytes);
        for (std::size_t blk = 0; blk < n / kBlockSize; ++blk) {
            if ((blk + id) % 5 == 0)
                std::memcpy(a.data() + blk * kBlockSize, key.data(),
                            kBlockSize);
        }
        sys.load(src1, a.data(), a.size());
        sys.load(src2, key.data(), key.size());
        return;
      }
      case cc::CcOpcode::And:
      case cc::CcOpcode::Or:
      case cc::CcOpcode::Xor: {
        Bytes b = patternBytes(params.patternSeed, id, 2, n);
        sys.load(src1, a.data(), a.size());
        sys.load(src2, b.data(), b.size());
        return;
      }
      default:  // Copy / Not / Buz: one source operand
        sys.load(src1, a.data(), a.size());
        return;
    }
}

} // namespace

std::optional<Request>
buildRequest(sim::System &sys, geometry::LocalityAllocator &alloc,
             const RequestBuildParams &params,
             const workload::RequestSpec &spec, RequestId id,
             RejectReason *why_not)
{
    Request req;
    req.id = id;
    req.tenant = spec.tenant;
    req.arrival = spec.arrival;
    req.bytes = spec.bytes;
    req.scattered = spec.scattered;

    const geometry::GroupId group =
        static_cast<geometry::GroupId>(id % params.allocGroups);

    bool exhausted = false;
    auto alloc_local = [&](std::size_t n) -> Addr {
        if (exhausted)
            return 0;
        std::optional<Addr> a = alloc.tryAllocate(n, group);
        if (!a) {
            exhausted = true;
            return 0;
        }
        req.buffers.emplace_back(*a, n);
        return *a;
    };
    // Scattered operand: same size, page offset guaranteed to differ
    // from the request's locality group, so the controller's operand-
    // locality check fails and the op degrades to the near-place unit.
    auto alloc_scattered = [&](std::size_t n) -> Addr {
        if (exhausted)
            return 0;
        Addr group_off = alloc.groupOffset(group);
        std::optional<Addr> a = alloc.tryAllocate(n + kBlockSize);
        if (!a) {
            exhausted = true;
            return 0;
        }
        req.buffers.emplace_back(*a, n + kBlockSize);
        return (*a & (kPageSize - 1)) == group_off ? *a + kBlockSize : *a;
    };
    auto alloc_second = [&](std::size_t n) {
        return spec.scattered ? alloc_scattered(n) : alloc_local(n);
    };

    // CC-R ops (cmp/search) are limited to 512 B so the result fits a
    // 64-bit register; everything else takes a full 16 KB ISA vector.
    const std::size_t n = spec.bytes;
    const std::size_t chunk_limit =
        cc::isCcR(spec.op) ? cc::kMaxCmpBytes : cc::kMaxVectorBytes;

    Addr src1 = 0, src2 = 0, dest = 0;
    switch (spec.op) {
      case cc::CcOpcode::Buz:
        src1 = alloc_local(n);
        break;
      case cc::CcOpcode::Copy:
      case cc::CcOpcode::Not:
        src1 = alloc_local(n);
        dest = alloc_second(n);
        break;
      case cc::CcOpcode::Cmp:
        src1 = alloc_local(n);
        src2 = alloc_second(n);
        break;
      case cc::CcOpcode::Search:
        src1 = alloc_local(n);
        src2 = alloc_second(cc::kSearchKeyBytes);   // 64-byte key
        break;
      default:   // And / Or / Xor
        src1 = alloc_local(n);
        src2 = alloc_second(n);
        dest = alloc_local(n);
        break;
    }

    if (exhausted) {
        recycleRequest(alloc, req);
        if (why_not)
            *why_not = RejectReason::NoCapacity;
        return std::nullopt;
    }

    if (params.fillPattern)
        fillOperands(sys, params, id, spec.op, src1, src2, n);

    if (params.warmL3) {
        for (const auto &[addr, len] : req.buffers)
            sys.warm(CacheLevel::L3, 0, addr, len);
    }

    // Chunk to the ISA limits; the first chunk is the head instruction,
    // the rest ride in req.chunks and batch into the wave as extra
    // instruction slots.
    std::vector<cc::CcInstruction> instrs;
    for (std::size_t off = 0; off < n; off += chunk_limit) {
        std::size_t len = std::min(chunk_limit, n - off);
        switch (spec.op) {
          case cc::CcOpcode::Buz:
            instrs.push_back(cc::CcInstruction::buz(src1 + off, len));
            break;
          case cc::CcOpcode::Copy:
            instrs.push_back(
                cc::CcInstruction::copy(src1 + off, dest + off, len));
            break;
          case cc::CcOpcode::Not:
            instrs.push_back(
                cc::CcInstruction::logicalNot(src1 + off, dest + off, len));
            break;
          case cc::CcOpcode::Cmp:
            instrs.push_back(
                cc::CcInstruction::cmp(src1 + off, src2 + off, len));
            break;
          case cc::CcOpcode::Search:
            instrs.push_back(
                cc::CcInstruction::search(src1 + off, src2, len));
            break;
          case cc::CcOpcode::And:
            instrs.push_back(cc::CcInstruction::logicalAnd(
                src1 + off, src2 + off, dest + off, len));
            break;
          case cc::CcOpcode::Or:
            instrs.push_back(cc::CcInstruction::logicalOr(
                src1 + off, src2 + off, dest + off, len));
            break;
          case cc::CcOpcode::Xor:
            instrs.push_back(cc::CcInstruction::logicalXor(
                src1 + off, src2 + off, dest + off, len));
            break;
          default:
            CC_FATAL("unsupported serve opcode ", cc::toString(spec.op));
        }
    }
    CC_ASSERT(!instrs.empty(), "request built no instructions");
    req.instr = instrs.front();
    req.chunks.assign(instrs.begin() + 1, instrs.end());
    return req;
}

void
recycleRequest(geometry::LocalityAllocator &alloc, const Request &req)
{
    for (const auto &[addr, len] : req.buffers)
        alloc.free(addr, len);
}

bool
goldenVerifyRequest(sim::System &sys, const Request &req,
                    std::uint64_t result_mask)
{
    std::vector<cc::CcInstruction> instrs;
    instrs.push_back(req.instr);
    instrs.insert(instrs.end(), req.chunks.begin(), req.chunks.end());

    if (cc::isCcR(req.instr.op)) {
        // The scheduler folds chunk result registers by OR (each chunk
        // packs one bit per 8-byte word); the reference does the same.
        std::uint64_t expect = 0;
        for (const cc::CcInstruction &in : instrs) {
            Bytes a = sys.dump(in.src1, in.size);
            bool search = in.op == cc::CcOpcode::Search;
            Bytes b = sys.dump(in.src2,
                               search ? cc::kSearchKeyBytes : in.size);
            expect |= refChunkMask(a, b, search);
        }
        return expect == result_mask;
    }

    for (const cc::CcInstruction &in : instrs) {
        // cc_buz keeps its only operand in dest (CcInstruction::buz).
        Bytes want;
        if (in.op == cc::CcOpcode::Buz) {
            want.assign(in.size, 0);
        } else {
            want = sys.dump(in.src1, in.size);
            switch (in.op) {
              case cc::CcOpcode::Copy:
                break;
              case cc::CcOpcode::Not:
              case cc::CcOpcode::And:
              case cc::CcOpcode::Or:
              case cc::CcOpcode::Xor: {
                Bytes b;
                if (in.op != cc::CcOpcode::Not)
                    b = sys.dump(in.src2, in.size);
                refLogic(in.op, want, b);
                break;
              }
              default:
                return false;   // not a serve opcode
            }
        }
        if (sys.dump(in.dest, in.size) != want)
            return false;
    }
    return true;
}

} // namespace ccache::serve
