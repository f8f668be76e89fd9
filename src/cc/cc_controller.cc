#include "cc/cc_controller.hh"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "cc/bitserial.hh"
#include "common/bit_util.hh"
#include "common/logging.hh"
#include "common/perf_counters.hh"
#include "common/rng.hh"
#include "verify/coherence_checker.hh"
#include "verify/watchdog.hh"

namespace ccache::cc {

using cache::Cache;

Cycles &
CcController::PartitionClock::operator[](std::uint64_t key)
{
    if (slots.empty())
        slots.resize(256);
    else if (live * 4 >= slots.size() * 3)
        grow();
    std::size_t mask = slots.size() - 1;
    std::size_t i = mix64(key) & mask;
    while (true) {
        Slot &s = slots[i];
        if (s.epoch != epoch) {
            s.key = key;
            s.value = 0;
            s.epoch = epoch;
            ++live;
            return s.value;
        }
        if (s.key == key)
            return s.value;
        i = (i + 1) & mask;
    }
}

void
CcController::PartitionClock::clear()
{
    ++epoch;
    live = 0;
    if (epoch == 0) {
        // Epoch counter wrapped: stale slots could alias the new epoch,
        // so pay one full sweep every 2^32 clears.
        for (Slot &s : slots)
            s.epoch = 0;
        epoch = 1;
    }
}

void
CcController::PartitionClock::grow()
{
    std::vector<Slot> old = std::move(slots);
    slots.assign(old.size() * 2, Slot{});
    std::size_t mask = slots.size() - 1;
    for (const Slot &s : old) {
        if (s.epoch != epoch)
            continue;
        std::size_t i = mix64(s.key) & mask;
        while (slots[i].epoch == epoch)
            i = (i + 1) & mask;
        slots[i] = s;
    }
}

void
CcController::ScheduleState::reset(unsigned power_cap)
{
    streaming = false;
    issueClock = 0;
    horizon = 0;
    partitionFree.clear();
    nearFree.clear();
    powerSlots.clear();
    // An ascending-index run of equal keys is already a valid min-heap,
    // so no make_heap is needed after this fill.
    for (unsigned i = 0; i < power_cap; ++i)
        powerSlots.emplace_back(0, i);
    fetchLats.clear();
}

void
CcController::ScheduleState::holdPowerSlot(Cycles free_at)
{
    // The top's key only grows, so one sift-down restores the heap.
    // Keys are unique (slot indices differ), so the top is always the
    // same slot whichever way the heap is arranged.
    auto less = [](const std::pair<Cycles, std::uint32_t> &a,
                   const std::pair<Cycles, std::uint32_t> &b) {
        return a.first < b.first ||
            (a.first == b.first && a.second < b.second);
    };
    std::pair<Cycles, std::uint32_t> top{free_at, powerSlots[0].second};
    std::size_t n = powerSlots.size();
    std::size_t i = 0;
    for (std::size_t c = 1; c < n; c = 2 * i + 1) {
        if (c + 1 < n && less(powerSlots[c + 1], powerSlots[c]))
            ++c;
        if (!less(powerSlots[c], top))
            break;
        powerSlots[i] = powerSlots[c];
        i = c;
    }
    powerSlots[i] = top;
}

namespace {

/** Overlap a set of staging latencies MLP-deep: the longest miss
 *  dominates and the rest pipeline behind it. */
Cycles
foldFetchLatencies(std::vector<Cycles> &lats, unsigned mlp)
{
    if (lats.empty())
        return 0;
    std::sort(lats.begin(), lats.end(), std::greater<Cycles>());
    Cycles total = lats.front();
    Cycles rest = 0;
    for (std::size_t i = 1; i < lats.size(); ++i)
        rest += lats[i];
    return total + rest / std::max(1u, mlp);
}

/** True for CC opcodes whose in-place form activates two word-lines
 *  simultaneously (the reduced-margin sensing mode). */
bool
isDualRowOp(CcOpcode op)
{
    switch (op) {
      case CcOpcode::And:
      case CcOpcode::Or:
      case CcOpcode::Xor:
      case CcOpcode::Cmp:
      case CcOpcode::Search:
      case CcOpcode::Clmul:
      // Every bit-serial step senses two rows at once (the a/b or
      // partial-product/accumulator slice pair).
      case CcOpcode::Add:
      case CcOpcode::Sub:
      case CcOpcode::Mul:
      case CcOpcode::Lt:
      case CcOpcode::Gt:
      case CcOpcode::Eq:
        return true;
      case CcOpcode::Copy:
      case CcOpcode::Buz:
      case CcOpcode::Not:
        return false;
    }
    return false;
}

} // namespace

CcController::CcController(cache::Hierarchy &hier,
                           energy::EnergyModel *energy, StatRegistry *stats,
                           const CcControllerParams &params)
    : hier_(hier), energy_(energy), stats_(stats), params_(params),
      instrTable_(params.instrTableEntries),
      opTable_(params.opTableEntries),
      nearPlace_(params.nearPlace, energy, stats),
      faults_(params.faults)
{
    if (params_.verifyCircuit) {
        sram::SubArrayParams sp;
        // Three bit-serial slice stacks of up to kMaxBitSerialWidth rows
        // must fit alongside the single-block scratch rows.
        sp.rows = 128;
        sp.cols = 8 * kBlockSize;
        circuit_ = std::make_unique<sram::SubArray>(sp);
    }

    if (stats_) {
        instrLatencyHist_ = &stats_->histogram(
            "cc.instr_latency", 64.0, 64,
            "per-CC-instruction completion latency (cycles)");
        faultScrubCyclesAccum_ = &stats_->accum("cc.fault.scrub_cycles");
        instructionsStat_ = &stats_->counter("cc.instructions");
        pageSplitExceptionsStat_ =
            &stats_->counter("cc.page_split_exceptions");
        lockRetriesStat_ = &stats_->counter("cc.lock_retries");
        operandRefetchesStat_ = &stats_->counter("cc.operand_refetches");
        inPlaceOpsStat_ = &stats_->counter("cc.in_place_ops");
        nearPlaceOpsStat_ = &stats_->counter("cc.near_place_ops");
        blockOpsStat_ = &stats_->counter("cc.block_ops");
        circuitVerificationsStat_ =
            &stats_->counter("cc.circuit_verifications");
        riscFallbacksStat_ = &stats_->counter("cc.risc_fallbacks");
        reuseHoistsStat_ = &stats_->counter("cc.reuse_hoists");
        instrTableFullStat_ = &stats_->counter("cc.instr_table_full");
        stagingRacesStat_ = &stats_->counter("cc.staging_races");
        keyReplicationsStat_ = &stats_->counter("cc.key_replications");
        opTableOverflowsStat_ = &stats_->counter("cc.op_table_overflows");
        faultRiscRecoveriesStat_ =
            &stats_->counter("cc.fault.risc_recoveries");
        faultDegradedNearPlaceStat_ =
            &stats_->counter("cc.fault.degraded_near_place");
        faultRetriesStat_ = &stats_->counter("cc.fault.retries");
        faultMarginFailuresStat_ =
            &stats_->counter("cc.fault.margin_failures");
        faultEccUncorrectableStat_ =
            &stats_->counter("cc.fault.ecc_uncorrectable");
        faultEccCorrectedStat_ = &stats_->counter("cc.fault.ecc_corrected");
        faultSilentCorruptionsStat_ =
            &stats_->counter("cc.fault.silent_corruptions");
        faultScrubVisitsStat_ = &stats_->counter("cc.fault.scrub_visits");
        faultScrubRefillsStat_ = &stats_->counter("cc.fault.scrub_refills");
        faultScrubCorrectionsStat_ =
            &stats_->counter("cc.fault.scrub_corrections");
        for (CacheLevel lvl :
             {CacheLevel::L1, CacheLevel::L2, CacheLevel::L3})
            levelOpsStat_[static_cast<unsigned>(lvl)] = &stats_->counter(
                std::string("cc.level_") + ccache::toString(lvl));
    }
}

CcExecResult
CcController::execute(CoreId core, const CcInstruction &instr)
{
    if (watchdog_)
        watchdog_->beginInstruction(toString(instr.op));

    CcExecResult res = executeInstr(core, instr);

    if (checker_) {
        // The controller wrote the cache arrays directly, below the
        // hierarchy's transaction hooks: audit every operand block now
        // that the instruction (and any fault-ladder recovery) retired.
        for (Addr base : {instr.src1, instr.src2, instr.dest}) {
            if (!base)
                continue;
            std::size_t slices =
                isBitSerial(instr.op) ? instr.sliceCount(base) : 1;
            for (std::size_t k = 0; k < slices; ++k) {
                Addr slice = isBitSerial(instr.op)
                    ? CcInstruction::sliceAddr(base, k)
                    : base;
                Addr first = alignDown(slice, kBlockSize);
                Addr last =
                    alignDown(slice + instr.size - 1, kBlockSize);
                for (Addr blk = first; blk <= last; blk += kBlockSize)
                    checker_->onTransaction(blk);
            }
        }
    }

    if (stats_) {
        instrLatencyHist_->sample(static_cast<double>(res.latency));
    }
    if (trace_ && trace_->enabled()) {
        Json args = Json::object();
        args["size"] = static_cast<std::uint64_t>(instr.size);
        args["level"] = ccache::toString(res.level);
        args["block_ops"] = static_cast<std::uint64_t>(res.blockOps);
        args["in_place_ops"] = static_cast<std::uint64_t>(res.inPlaceOps);
        args["near_place_ops"] =
            static_cast<std::uint64_t>(res.nearPlaceOps);
        if (res.riscFallback)
            args["risc_fallback"] = true;
        trace_->complete(tracecat::kCc, toString(instr.op),
                         static_cast<int>(core),
                         trace_->now(static_cast<int>(core)), res.latency,
                         std::move(args));
    }
    return res;
}

CcExecResult
CcController::executeInstr(CoreId core, const CcInstruction &instr)
{
    instr.validate();

    if (stats_)
        instructionsStat_->inc();
    if (energy_)
        energy_->chargeVectorInstructions(1);

    if (faults_.enabled()) {
        // Between instructions: background upsets strike resident
        // blocks, and the scrubber walks a few of them.
        faults_.backgroundTick();
        scrubTick();
    }

    if (isBitSerial(instr.op))
        return executeBitSerial(core, instr);

    if (!instr.spansPage())
        return executeOnce(core, instr);

    // Section IV-D: page-spanning operands raise a pipeline exception and
    // the handler splits the instruction per page.
    if (stats_)
        pageSplitExceptionsStat_->inc();
    CcExecResult total;
    total.latency = params_.pageSplitPenalty;
    std::size_t result_bits = 0;
    for (const CcInstruction &piece : instr.splitAtPageBoundaries()) {
        CcExecResult r = executeOnce(core, piece);
        total.latency += r.latency;
        total.fetchLatency += r.fetchLatency;
        total.computeLatency += r.computeLatency;
        total.blockOps += r.blockOps;
        total.inPlaceOps += r.inPlaceOps;
        total.nearPlaceOps += r.nearPlaceOps;
        total.keyReplications += r.keyReplications;
        total.lockRetries += r.lockRetries;
        total.riscFallback |= r.riscFallback;
        total.faultRetries += r.faultRetries;
        total.faultDegradedOps += r.faultDegradedOps;
        total.faultRiscRecoveries += r.faultRiscRecoveries;
        total.level = r.level;
        ++total.pageSplits;
        if (isCcR(instr.op)) {
            std::size_t bits = piece.size / 8;
            total.result |= r.result << result_bits;
            result_bits += bits;
        }
    }
    return total;
}

std::vector<CcExecResult>
CcController::executeStream(CoreId core,
                            const std::vector<CcInstruction> &instrs,
                            Cycles *total_latency)
{
    sched_.reset(params_.maxActiveSubarrays);
    sched_.streaming = true;
    std::vector<CcExecResult> results;
    results.reserve(instrs.size());
    for (const CcInstruction &instr : instrs)
        results.push_back(execute(core, instr));
    sched_.streaming = false;

    if (total_latency) {
        Cycles fetch = foldFetchLatencies(sched_.fetchLats,
                                          params_.fetchMlp);
        // One completion notification covers the drained stream.
        *total_latency = sched_.horizon + fetch +
            hier_.ring().send(0, core % hier_.cores(),
                              noc::MsgClass::Control);
    }
    return results;
}

void
CcController::traceFault(const char *name, Addr addr, CacheLevel level)
{
    if (!trace_ || !trace_->enabled())
        return;
    Json args = Json::object();
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(addr));
    args["addr"] = buf;
    args["level"] = ccache::toString(level);
    trace_->instant(tracecat::kFault, name, EventTrace::kGlobalTrack,
                    trace_->now(EventTrace::kGlobalTrack),
                    std::move(args));
}

std::optional<CcController::StagedOperand>
CcController::stageOperand(CoreId core, Addr addr, CacheLevel level,
                           bool exclusive, bool for_overwrite)
{
    // The operand's cache is fixed for the whole instruction: the
    // core's L1/L2, or the page's home slice (sliceFor binds an
    // untouched page to this core exactly as fetchToLevel would).
    StagedOperand staged;
    staged.addr = addr;
    staged.cacheIndex = level == CacheLevel::L3
        ? hier_.sliceFor(core, addr)
        : core;
    Cache &cache = level == CacheLevel::L3
        ? hier_.l3Slice(staged.cacheIndex)
        : hier_.cacheAt(level, core, addr);
    staged.cache = &cache;
    for (unsigned attempt = 0; attempt <= params_.maxLockRetries;
         ++attempt) {
        staged.latency += hier_.fetchToLevel(core, addr, level, exclusive,
                                             for_overwrite, &staged.slot);
        if (auto resident = locateStaged(staged)) {
            // Pin + promote to MRU so the operand survives until issue
            // (Section IV-E).
            cache.pin(*resident);
            cache.promoteMRU(*resident);
            faults_.noteResident(addr);
            staged.slot = *resident;
            return staged;
        }
        if (stats_)
            lockRetriesStat_->inc();
        if (watchdog_)
            watchdog_->noteRetry("lock", addr);
    }
    return std::nullopt;
}

std::optional<cache::Cache::Slot>
CcController::locateStaged(const StagedOperand &s) const
{
    if (s.cache->holds(s.slot, s.addr))
        return s.slot;
    return s.cache->find(s.addr);
}

const Block *
CcController::peekStaged(const StagedOperand &s) const
{
    if (s.cache->holds(s.slot, s.addr))
        return s.cache->peek(s.slot);
    return s.cache->peek(s.addr);
}

bool
CcController::pokeStaged(const StagedOperand &s, const Block &data)
{
    if (s.cache->holds(s.slot, s.addr)) {
        s.cache->poke(s.slot, data);
        s.cache->markDirty(s.slot);
        return true;
    }
    if (!s.cache->poke(s.addr, data))
        return false;
    s.cache->markDirty(s.addr);
    return true;
}

void
CcController::unpinStaged()
{
    for (const StagedOperand &s : scratchStaged_) {
        if (auto slot = locateStaged(s))
            s.cache->unpin(*slot);
    }
}

CcController::BlockOpOutcome
CcController::performBlockOp(CoreId core, const CcInstruction &instr,
                             const BlockOp &op, CacheLevel level)
{
    BlockOpOutcome out;

    // Every operand of an executeOnce block op was staged; its data is
    // read and written through the staged slot while that holds.
    auto read_block = [&](const StagedOperand &s) -> Block {
        if (const Block *p = peekStaged(s))
            return *p;
        // A staged operand can be lost to an unexpected invalidation;
        // re-fetch it instead of aborting the simulation.
        if (stats_)
            operandRefetchesStat_->inc();
        Block blk{};
        out.extraLatency += hier_.read(core, s.addr, &blk, level).latency;
        return blk;
    };

    const StagedOperand *dst =
        op.dest ? &scratchStaged_[op.destStaged] : nullptr;
    auto write_block = [&](const Block &data) {
        if (pokeStaged(*dst, data))
            return;
        if (stats_)
            operandRefetchesStat_->inc();
        out.extraLatency += hier_.write(core, dst->addr, &data, level).latency;
    };

    // Final rung of the degradation ladder: the operands' cells are
    // unusable (multi-bit defect or persistent margin loss) -- discard
    // the cached copies, refill clean data from memory into fresh
    // cells, and run this block's op on the scalar core.
    auto risc_recover = [&]() {
        out.riscRecovered = true;
        if (stats_)
            faultRiscRecoveriesStat_->inc();
        traceFault("fault.risc_recovery", op.src1, level);
        for (Addr addr : {op.src1, op.src2}) {
            if (!addr)
                continue;
            faults_.clearLatent(addr);
            faults_.remap(addr);
            if (energy_)
                energy_->chargeDram(1);
        }
        out.extraLatency += params_.faultRefillLatency;
        if (energy_)
            energy_->chargeInstructions(3 * kWordsPerBlock);
    };

    Block a{};
    Block b{};
    if (op.src1)
        a = read_block(scratchStaged_[op.src1Staged]);
    if (op.src2)
        b = read_block(scratchStaged_[op.src2Staged]);

    // Rung 2: re-sense through the near-place path (single rows at
    // full margin, so margin failures cannot recur), with one more ECC
    // check round; an error that still persists is a cell defect and
    // falls through to the final rung. Returns the effective operands.
    auto degrade_sense = [&]() -> std::pair<Block, Block> {
        out.degradedNearPlace = true;
        if (stats_)
            faultDegradedNearPlaceStat_->inc();
        traceFault("fault.degrade_near_place", op.src1, level);
        out.extraLatency += params_.nearPlace.latency(level);
        std::uint64_t sid = fault::subarrayId(level, op.cacheIndex,
                                              op.partition);
        Block sa = a;
        Block sb = b;
        bool ok = true;
        if (op.src1)
            ok = checkOperand(&sa, a, op.src1, sid, level, &out);
        if (ok && op.src2)
            ok = checkOperand(&sb, b, op.src2, sid, level, &out);
        if (ok)
            return {sa, sb};
        risc_recover();
        return {a, b};  // clean data after the refill
    };

    bool dual_row = isDualRowOp(instr.op);
    energy::CacheOp cost_op = energy::cacheOpFor(sram::BitlineOp::Read);
    switch (instr.op) {
      case CcOpcode::Copy: cost_op = energy::CacheOp::Copy; break;
      case CcOpcode::Buz: cost_op = energy::CacheOp::Buz; break;
      case CcOpcode::Cmp: cost_op = energy::CacheOp::Cmp; break;
      case CcOpcode::Search: cost_op = energy::CacheOp::Cmp; break;
      case CcOpcode::And:
      case CcOpcode::Or:
      case CcOpcode::Xor: cost_op = energy::CacheOp::Logic; break;
      case CcOpcode::Not: cost_op = energy::CacheOp::Not; break;
      case CcOpcode::Clmul: cost_op = energy::CacheOp::Clmul; break;
      // Bit-serial instructions never reach the block-op path (they
      // dispatch to executeBitSerial), but the classification keeps
      // this switch exhaustive.
      case CcOpcode::Add:
      case CcOpcode::Sub:
      case CcOpcode::Mul:
      case CcOpcode::Lt:
      case CcOpcode::Gt:
      case CcOpcode::Eq: cost_op = energy::CacheOp::Logic; break;
    }

    if (instr.src2Replicated) {
        // Replicated clmul: the XOR tree's parities stream into the
        // controller's result register and land packed in dest.
        if (energy_)
            energy_->chargeCacheOp(level, cost_op);
        if (stats_)
            (op.inPlace ? inPlaceOpsStat_ : nearPlaceOpsStat_)->inc();

        if (faults_.enabled() &&
            !senseOperands(op, level, dual_row && op.inPlace,
                           params_.inPlaceLatency(level), cost_op,
                           &a, &b, &out)) {
            auto [sa, sb] = degrade_sense();
            a = sa;
            b = sb;
        }

        std::size_t bits_per_op = instr.clmulBitsPerBlock();
        std::size_t ops_per_dest = (8 * kBlockSize) / bits_per_op;
        std::size_t bit_off = (op.index % ops_per_dest) * bits_per_op;

        Block parities = BlockCompute::clmulPack(a, b,
                                                 instr.clmulWordBits);
        std::uint64_t bits = blockWord(parities, 0);

        Block merged{};
        if (const Block *cur = peekStaged(*dst)) {
            merged = *cur;
        } else {
            // The packed destination was evicted mid-instruction;
            // recover the partial parities instead of aborting.
            if (stats_)
                operandRefetchesStat_->inc();
            out.extraLatency +=
                hier_.read(core, op.dest, &merged, level).latency;
        }
        std::size_t word = bit_off / 64;
        std::size_t shift = bit_off % 64;
        std::uint64_t w = blockWord(merged, word);
        std::uint64_t mask = bits_per_op == 64
            ? ~std::uint64_t{0}
            : ((std::uint64_t{1} << bits_per_op) - 1) << shift;
        w = (w & ~mask) | ((bits << shift) & mask);
        setBlockWord(merged, word, w);
        bool written = pokeStaged(*dst, merged);
        CC_ASSERT(written, "packed clmul destination 0x", std::hex,
                  op.dest, " absent after refetch");

        // One result-register drain (a block write) per filled dest.
        if (energy_ && bit_off + bits_per_op == 8 * kBlockSize)
            energy_->chargeCacheOp(level, energy::CacheOp::Write);
        return out;
    }

    if (op.inPlace) {
        if (energy_)
            energy_->chargeCacheOp(level, cost_op);
        if (stats_)
            inPlaceOpsStat_->inc();

        if (faults_.enabled() &&
            !senseOperands(op, level, dual_row,
                           params_.inPlaceLatency(level), cost_op,
                           &a, &b, &out)) {
            // Rung 2: the near-place unit re-reads with single-row
            // activations at full margin and computes in its own logic.
            auto [sa, sb] = degrade_sense();
            if (out.riscRecovered) {
                // Final rung: compute on the (refilled) clean data.
                if (isCcR(instr.op)) {
                    out.mask = BlockCompute::wordEqualMask(sa, sb);
                } else {
                    write_block(BlockCompute::apply(instr.op, sa, sb,
                                                    instr.clmulWordBits));
                }
                return out;
            }
            NearPlaceResult res = nearPlace_.execute(
                instr.op, level, sa, sb, instr.clmulWordBits);
            if (isCcR(instr.op))
                out.mask = res.wordEqualMask;
            else
                write_block(res.result);
            return out;
        }

        if (isCcR(instr.op)) {
            out.mask = BlockCompute::wordEqualMask(a, b);
        } else {
            Block result = BlockCompute::apply(instr.op, a, b,
                                               instr.clmulWordBits);
            write_block(result);
            if (faults_.enabled()) {
                // Section IV-I: an in-place op bypasses the normal ECC
                // datapath, so the result's code is recomputed by the
                // check unit before it can be written back.
                out.extraLatency += params_.eccCheckLatency;
                if (energy_)
                    energy_->addCacheAccess(
                        level, energy_->params().eccCheckPerBlock);
            }
            if (params_.verifyCircuit)
                verifyAgainstCircuit(instr, a, b, result);
        }
    } else {
        // Near-place reads use single-row full-margin senses; only cell
        // defects and soft errors apply, and a persistent failure goes
        // straight to the final rung (there is no lower unit to try).
        if (faults_.enabled() &&
            !senseOperands(op, level, false,
                           params_.nearPlace.latency(level),
                           energy::CacheOp::Read, &a, &b, &out)) {
            risc_recover();
        }
        // Near-place: the unit charges reads/logic/writeback itself.
        NearPlaceResult res = nearPlace_.execute(
            instr.op, level, a, b, instr.clmulWordBits);
        if (isCcR(instr.op)) {
            out.mask = res.wordEqualMask;
        } else {
            write_block(res.result);
        }
    }

    return out;
}

bool
CcController::senseOperands(const BlockOp &op, CacheLevel level,
                            bool dual_row, Cycles retry_latency,
                            energy::CacheOp retry_op, Block *a, Block *b,
                            BlockOpOutcome *out)
{
    const Block ta = *a;
    const Block tb = *b;
    std::uint64_t sid = fault::subarrayId(level, op.cacheIndex,
                                          op.partition);
    for (unsigned attempt = 0; attempt <= params_.maxFaultRetries;
         ++attempt) {
        if (attempt > 0) {
            // Rung 1: bounded retry -- re-activate and re-sense the
            // partition, paying another op's worth of delay and energy.
            out->extraLatency += retry_latency;
            ++out->retries;
            if (energy_)
                energy_->chargeCacheOp(level, retry_op);
            if (stats_)
                faultRetriesStat_->inc();
            if (watchdog_)
                watchdog_->noteRetry("sense", op.src1);
            traceFault("fault.retry", op.src1, level);
        }
        if (dual_row && faults_.drawMarginFailure(sid)) {
            // The margin detector flagged this dual-row activation:
            // nothing sensed in this attempt can be trusted.
            if (stats_)
                faultMarginFailuresStat_->inc();
            traceFault("fault.margin_failure", op.src1, level);
            continue;
        }
        Block sa = ta;
        Block sb = tb;
        bool ok = true;
        if (op.src1)
            ok = checkOperand(&sa, ta, op.src1, sid, level, out);
        if (ok && op.src2)
            ok = checkOperand(&sb, tb, op.src2, sid, level, out);
        if (!ok)
            continue;
        *a = sa;
        *b = sb;
        return true;
    }
    return false;
}

bool
CcController::checkOperand(Block *sensed, const Block &truth, Addr addr,
                           std::uint64_t subarray_id, CacheLevel level,
                           BlockOpOutcome *out)
{
    // The stored code always protects the true data: codes are copied
    // along with data on cc_copy and recomputed on every write-back
    // (Section IV-I), so a mismatch below is sensing damage, not a
    // stale code.
    BlockEcc stored = encodeBlock(truth);

    faults_.applyLatent(addr, *sensed);
    fault::FaultInjector::corrupt(*sensed,
                            faults_.stuckAtFault(subarray_id, addr));
    fault::FaultInjector::corrupt(*sensed, faults_.drawOperandFault(subarray_id));

    // Route the sensed block through the ECC check unit.
    out->extraLatency += params_.eccCheckLatency;
    if (energy_)
        energy_->addCacheAccess(level,
                                energy_->params().eccCheckPerBlock);

    EccStatus status = checkBlock(*sensed, stored);
    if (status == EccStatus::DetectedDoubleBit) {
        if (stats_)
            faultEccUncorrectableStat_->inc();
        traceFault("fault.ecc_uncorrectable", addr, level);
        return false;
    }
    if (status == EccStatus::CorrectedSingleBit && stats_)
        faultEccCorrectedStat_->inc();

    // A clean or corrected pass also scrubs any latent damage on the
    // line (access-triggered scrubbing).
    faults_.clearLatent(addr);

    if (*sensed != truth && stats_) {
        // The check unit saw nothing wrong (or miscorrected an odd-
        // count burst): the op consumes wrong bits with no error raised.
        faultSilentCorruptionsStat_->inc();
    }
    return true;
}

void
CcController::scrubTick()
{
    if (params_.scrubBlocksPerInstr == 0)
        return;
    std::size_t visited = 0;
    auto hits = faults_.scrubVisit(params_.scrubBlocksPerInstr, &visited);
    if (visited == 0)
        return;
    if (stats_) {
        faultScrubVisitsStat_->inc(visited);
        // Scrubbing steals idle cycles (Section IV-I alternative 2), so
        // its time is tracked in its own budget, not in any
        // instruction's latency.
        faultScrubCyclesAccum_->add(static_cast<double>(visited) *
                                    static_cast<double>(
                                        params_.scrubCheckLatency));
    }
    if (energy_)
        energy_->chargeCacheOp(CacheLevel::L3, energy::CacheOp::Read,
                               visited);
    for (const auto &hit : hits) {
        Block truth = hier_.debugRead(hit.addr);
        Block sensed = truth;
        fault::FaultInjector::corrupt(sensed, hit.event);
        BlockEcc stored = encodeBlock(truth);
        EccStatus status = checkBlock(sensed, stored);
        if (status == EccStatus::DetectedDoubleBit) {
            // Uncorrectable latent damage caught before any op consumed
            // it: discard the line and refill clean data into fresh
            // cells.
            faults_.clearLatent(hit.addr);
            faults_.remap(hit.addr);
            if (stats_)
                faultScrubRefillsStat_->inc();
            if (energy_)
                energy_->chargeDram(1);
            continue;
        }
        faults_.clearLatent(hit.addr);
        if (sensed != truth) {
            // An odd-count burst aliased through the scrubber's check:
            // it "corrected" the line into a still-wrong value.
            if (stats_)
                faultSilentCorruptionsStat_->inc();
        } else if (status == EccStatus::CorrectedSingleBit) {
            if (stats_)
                faultScrubCorrectionsStat_->inc();
            if (energy_)
                energy_->chargeCacheOp(CacheLevel::L3,
                                       energy::CacheOp::Write);
        }
    }
}

void
CcController::verifyAgainstCircuit(const CcInstruction &instr,
                                   const Block &a, const Block &b,
                                   const Block &result)
{
    sram::BlockLoc la{0, 0}, lb{0, 1}, ld{0, 2};
    circuit_->write(la, a);
    circuit_->write(lb, b);
    Block circuit_result{};
    switch (instr.op) {
      case CcOpcode::Copy:
        circuit_->opCopy(la, ld);
        circuit_result = circuit_->read(ld);
        break;
      case CcOpcode::Buz:
        circuit_->opBuz(ld);
        circuit_result = circuit_->read(ld);
        break;
      case CcOpcode::Not:
        circuit_->opNot(la, ld);
        circuit_result = circuit_->read(ld);
        break;
      case CcOpcode::And:
        circuit_->opAnd(la, lb, ld);
        circuit_result = circuit_->read(ld);
        break;
      case CcOpcode::Or:
        circuit_->opOr(la, lb, ld);
        circuit_result = circuit_->read(ld);
        break;
      case CcOpcode::Xor:
        circuit_->opXor(la, lb, ld);
        circuit_result = circuit_->read(ld);
        break;
      case CcOpcode::Clmul: {
        auto clres = circuit_->opClmul(la, lb, instr.clmulWordBits);
        std::uint64_t packed = 0;
        for (std::size_t i = 0; i < clres.parities.size(); ++i)
            packed |= static_cast<std::uint64_t>(clres.parities[i]) << i;
        setBlockWord(circuit_result, 0, packed);
        break;
      }
      case CcOpcode::Cmp:
      case CcOpcode::Search:
        return;  // mask ops verified separately at the sub-array tests
      case CcOpcode::Add:
      case CcOpcode::Sub:
      case CcOpcode::Mul:
      case CcOpcode::Lt:
      case CcOpcode::Gt:
      case CcOpcode::Eq:
        return;  // slice stacks go through verifyBitSerialCircuit
    }
    CC_ASSERT(circuit_result == result,
              "circuit/functional divergence for ", toString(instr.op));
    if (stats_)
        circuitVerificationsStat_->inc();
}

CcExecResult
CcController::riscFallback(CoreId core, const CcInstruction &instr)
{
    if (isBitSerial(instr.op))
        return riscBitSerial(core, instr);

    // Section IV-E: after repeated lock failures the core translates the
    // CC operation into RISC operations.
    CcExecResult res;
    res.riscFallback = true;
    res.level = CacheLevel::L1;
    if (stats_)
        riscFallbacksStat_->inc();

    std::size_t blocks = divCeil(instr.size, kBlockSize);
    for (std::size_t i = 0; i < blocks; ++i) {
        Addr off = i * kBlockSize;
        Block a{};
        Block b{};
        if (instr.src1)
            res.latency += hier_.read(core, instr.src1 + off, &a).latency;
        if (instr.src2 && instr.op != CcOpcode::Search)
            res.latency += hier_.read(core, instr.src2 + off, &b).latency;
        if (instr.op == CcOpcode::Search)
            res.latency += hier_.read(core, instr.src2, &b).latency;

        if (isCcR(instr.op)) {
            std::uint64_t mask = BlockCompute::wordEqualMask(a, b);
            res.result |= mask << (i * kWordsPerBlock);
        } else {
            Block out = BlockCompute::apply(instr.op, a, b,
                                            instr.clmulWordBits);
            res.latency +=
                hier_.write(core, instr.dest + off, &out).latency;
        }
        // Word-granular loads/stores/ALU ops on the scalar core.
        if (energy_)
            energy_->chargeInstructions(3 * kWordsPerBlock);
        res.latency += kWordsPerBlock;  // ALU ops overlap the misses
    }
    res.blockOps = blocks;
    return res;
}

CcExecResult
CcController::riscBitSerial(CoreId core, const CcInstruction &instr)
{
    CcExecResult res;
    res.riscFallback = true;
    res.level = CacheLevel::L1;
    if (stats_)
        riscFallbacksStat_->inc();

    const std::size_t width = instr.laneBits;
    const std::size_t groups = instr.size / kBlockSize;
    const std::size_t dst_slices = instr.sliceCount(instr.dest);
    const std::size_t steps = BitSerialCompute::steps(instr.op, width);

    std::vector<Block> &a = scratchSliceA_;
    std::vector<Block> &b = scratchSliceB_;
    std::vector<Block> &d = scratchSliceD_;
    for (std::size_t g = 0; g < groups; ++g) {
        Addr off = g * kBlockSize;
        a.assign(width, Block{});
        b.assign(width, Block{});
        d.assign(dst_slices, Block{});
        for (std::size_t k = 0; k < width; ++k) {
            res.latency += hier_.read(
                core, CcInstruction::sliceAddr(instr.src1, k) + off,
                &a[k]).latency;
            res.latency += hier_.read(
                core, CcInstruction::sliceAddr(instr.src2, k) + off,
                &b[k]).latency;
        }
        // One 64-byte block per slice: the group's slice stride is
        // kBlockSize in the scratch buffers (vector<Block> is
        // contiguous).
        BitSerialCompute::apply(instr, d[0].data(), a[0].data(),
                                b[0].data(), kBlockSize);
        for (std::size_t k = 0; k < dst_slices; ++k) {
            res.latency += hier_.write(
                core, CcInstruction::sliceAddr(instr.dest, k) + off,
                &d[k]).latency;
        }
        // Word-granular loads/stores plus the shift/mask ALU work of
        // the software bit-serial recurrences on the scalar core.
        if (energy_)
            energy_->chargeInstructions(
                (2 * width + dst_slices + steps) * kWordsPerBlock);
        res.latency += steps;  // ALU recurrences overlap the misses
    }
    res.blockOps = groups * (2 * width + dst_slices);
    return res;
}

void
CcController::verifyBitSerialCircuit(const CcInstruction &instr,
                                     const std::vector<Block> &a,
                                     const std::vector<Block> &b,
                                     const std::vector<Block> &dst)
{
    const std::size_t width = instr.laneBits;
    // Disjoint row stacks inside the scratch sub-array; row capacity is
    // checked at construction (rows = 128 >= 3 * kMaxBitSerialWidth).
    sram::BitSerialOperand oa{0, 0};
    sram::BitSerialOperand ob{0, kMaxBitSerialWidth};
    sram::BitSerialOperand od{0, 2 * kMaxBitSerialWidth};
    for (std::size_t k = 0; k < width; ++k) {
        circuit_->write({0, oa.row0 + k}, a[k]);
        circuit_->write({0, ob.row0 + k}, b[k]);
    }
    if (isBitSerialCompare(instr.op)) {
        sram::BitSerialCmpResult cres = circuit_->opBitSerialCompare(
            oa, ob, width, instr.isSigned);
        const BitVector &want = instr.op == CcOpcode::Lt ? cres.lt
            : instr.op == CcOpcode::Gt                   ? cres.gt
                                                         : cres.eq;
        CC_ASSERT(bitsToBlock(want) == dst[0],
                  "circuit/functional divergence for ",
                  toString(instr.op));
    } else {
        switch (instr.op) {
          case CcOpcode::Add:
            circuit_->opBitSerialAdd(oa, ob, od, width);
            break;
          case CcOpcode::Sub:
            circuit_->opBitSerialSub(oa, ob, od, width);
            break;
          case CcOpcode::Mul:
            circuit_->opBitSerialMul(oa, ob, od, width);
            break;
          default:
            CC_PANIC("not a bit-serial arithmetic op");
        }
        for (std::size_t k = 0; k < width; ++k) {
            CC_ASSERT(circuit_->read({0, od.row0 + k}) == dst[k],
                      "circuit/functional divergence for ",
                      toString(instr.op), " slice ", k);
        }
    }
    if (stats_)
        circuitVerificationsStat_->inc();
}

CcExecResult
CcController::executeBitSerial(CoreId core, const CcInstruction &instr)
{
    CcExecResult res;
    if (!sched_.streaming)
        sched_.reset(params_.maxActiveSubarrays);
    else
        sched_.issueClock += params_.issueLatency;  // dispatch serializes
    res.latency = params_.issueLatency;

    const std::size_t width = instr.laneBits;
    const std::size_t groups = instr.size / kBlockSize;
    const std::size_t dst_slices = instr.sliceCount(instr.dest);
    const std::size_t steps = BitSerialCompute::steps(instr.op, width);
    res.blockOps = groups * steps;
    perf::addCcBlockOps(res.blockOps);

    // ------------------------------------------------------------------
    // Level selection over every slice block of every operand.
    // ------------------------------------------------------------------
    std::vector<Addr> &all_blocks = scratchBlocks_;
    all_blocks.clear();
    for (std::size_t g = 0; g < groups; ++g) {
        Addr off = g * kBlockSize;
        for (std::size_t k = 0; k < width; ++k) {
            all_blocks.push_back(
                CcInstruction::sliceAddr(instr.src1, k) + off);
            all_blocks.push_back(
                CcInstruction::sliceAddr(instr.src2, k) + off);
        }
        for (std::size_t k = 0; k < dst_slices; ++k)
            all_blocks.push_back(
                CcInstruction::sliceAddr(instr.dest, k) + off);
    }
    CacheLevel level = params_.forceLevel
        ? *params_.forceLevel
        : hier_.chooseLevel(core, all_blocks);
    if (params_.useReusePredictor && !params_.forceLevel) {
        level = reuse_.recommend(level, all_blocks);
        if (level != CacheLevel::L3 && stats_)
            reuseHoistsStat_->inc();
    }
    if (params_.useReusePredictor) {
        for (Addr addr : all_blocks)
            reuse_.touch(addr);
    }
    res.level = level;

    auto instr_id = instrTable_.allocate(instr, core, groups);
    if (!instr_id) {
        if (stats_)
            instrTableFullStat_->inc();
        return riscBitSerial(core, instr);
    }

    // ------------------------------------------------------------------
    // Stage + pin every slice block. Sources first, so an aliased
    // add/sub destination stack is fetched before the for-overwrite
    // staging of dest sees it resident.
    // ------------------------------------------------------------------
    std::vector<StagedOperand> &staged = scratchStaged_;
    std::vector<Cycles> &fetch_lats = scratchFetchLats_;
    staged.clear();
    fetch_lats.clear();
    bool fallback = false;

    auto stage = [&](Addr addr, bool exclusive, bool overwrite) {
        auto s = stageOperand(core, addr, level, exclusive, overwrite);
        if (!s) {
            fallback = true;
            return;
        }
        if (s->latency > 0)
            fetch_lats.push_back(s->latency);
        staged.push_back(*s);
    };

    for (std::size_t g = 0; g < groups && !fallback; ++g) {
        Addr off = g * kBlockSize;
        for (std::size_t k = 0; k < width && !fallback; ++k) {
            stage(CcInstruction::sliceAddr(instr.src1, k) + off, false,
                  false);
            if (!fallback)
                stage(CcInstruction::sliceAddr(instr.src2, k) + off,
                      false, false);
        }
        for (std::size_t k = 0; k < dst_slices && !fallback; ++k)
            stage(CcInstruction::sliceAddr(instr.dest, k) + off, true,
                  true);
    }

    if (fallback) {
        unpinStaged();
        instrTable_.release(*instr_id);
        return riscBitSerial(core, instr);
    }

    if (!fetch_lats.empty()) {
        if (sched_.streaming) {
            sched_.fetchLats.insert(sched_.fetchLats.end(),
                                    fetch_lats.begin(), fetch_lats.end());
        } else {
            Cycles fetch = foldFetchLatencies(fetch_lats,
                                              params_.fetchMlp);
            res.fetchLatency = fetch;
            res.latency += fetch;
        }
    }

    // ------------------------------------------------------------------
    // One block op per lane group: locality holds when every slice of
    // every operand sits in the same cache instance and partition (the
    // page-stride layout guarantees it once the blocks are resident).
    // ------------------------------------------------------------------
    std::vector<BlockOp> &ops = scratchOps_;
    ops.assign(groups, BlockOp{});
    for (std::size_t g = 0; g < groups; ++g) {
        BlockOp &op = ops[g];
        op.index = g;
        Addr off = g * kBlockSize;
        op.src1 = instr.src1 + off;  // slice-0 anchor
        op.src2 = instr.src2 + off;
        op.dest = instr.dest + off;

        cache::Cache &anchor_cache = hier_.cacheAt(level, core, op.src1);
        auto place = anchor_cache.placeOf(op.src1);
        if (!place) {
            if (stats_)
                stagingRacesStat_->inc();
            unpinStaged();
            instrTable_.release(*instr_id);
            return riscBitSerial(core, instr);
        }
        op.cacheIndex = level == CacheLevel::L3
            ? hier_.sliceFor(core, op.src1)
            : core;
        op.partition = place->globalPartition;

        op.inPlace = !params_.forceNearPlace;
        auto check_member = [&](Addr m) {
            unsigned idx = level == CacheLevel::L3
                ? hier_.sliceFor(core, m)
                : core;
            cache::Cache &c = hier_.cacheAt(level, core, m);
            auto p = c.placeOf(m);
            if (!p) {
                if (stats_)
                    stagingRacesStat_->inc();
                op.inPlace = false;
                return;
            }
            if (idx != op.cacheIndex ||
                p->globalPartition != op.partition)
                op.inPlace = false;
        };
        for (std::size_t k = 0; k < width; ++k) {
            check_member(CcInstruction::sliceAddr(instr.src1, k) + off);
            check_member(CcInstruction::sliceAddr(instr.src2, k) + off);
        }
        for (std::size_t k = 0; k < dst_slices; ++k)
            check_member(CcInstruction::sliceAddr(instr.dest, k) + off);
    }

    // ------------------------------------------------------------------
    // Execute + schedule each lane group: the whole carry-latch
    // sequence occupies its partition; near-place groups serialize on
    // the controller's single word-serial logic unit.
    // ------------------------------------------------------------------
    Cycles finish = sched_.horizon;
    auto &issue_clock = sched_.issueClock;
    auto &partition_free = sched_.partitionFree;
    auto &near_free = sched_.nearFree;
    auto &power_slots = sched_.powerSlots;

    const Cycles step_latency = params_.inPlaceLatency(level);

    for (BlockOp &op : ops) {
        issue_clock += 1;  // command delivery on the shared bus
        Cycles start = issue_clock / params_.commandIssuePerCycle;
        Cycles end;
        BlockOpOutcome outcome;
        Addr off = op.index * kBlockSize;

        auto read_block = [&](Addr addr) -> Block {
            cache::Cache &c = hier_.cacheAt(level, core, addr);
            if (const Block *p = c.peek(addr))
                return *p;
            if (stats_)
                operandRefetchesStat_->inc();
            Block blk{};
            outcome.extraLatency +=
                hier_.read(core, addr, &blk, level).latency;
            return blk;
        };
        auto write_block = [&](Addr addr, const Block &data) {
            cache::Cache &c = hier_.cacheAt(level, core, addr);
            if (c.poke(addr, data)) {
                c.markDirty(addr);
                return;
            }
            if (stats_)
                operandRefetchesStat_->inc();
            outcome.extraLatency +=
                hier_.write(core, addr, &data, level).latency;
        };

        std::vector<Block> &a = scratchSliceA_;
        std::vector<Block> &b = scratchSliceB_;
        std::vector<Block> &d = scratchSliceD_;
        a.assign(width, Block{});
        b.assign(width, Block{});
        d.assign(dst_slices, Block{});
        for (std::size_t k = 0; k < width; ++k) {
            a[k] = read_block(CcInstruction::sliceAddr(instr.src1, k) +
                              off);
            b[k] = read_block(CcInstruction::sliceAddr(instr.src2, k) +
                              off);
        }

        // Fault ladder, slice-pair by slice-pair: a pair that exhausts
        // its retries degrades the WHOLE group to the near-place unit
        // (the carry latch cannot resume mid-sequence), and a pair that
        // still fails there refills clean data and recovers on the
        // scalar core's recurrences.
        bool group_recovered = false;
        if (faults_.enabled()) {
            bool group_degraded = false;
            for (std::size_t k = 0; k < width && !group_degraded; ++k) {
                BlockOp sop = op;
                sop.src1 =
                    CcInstruction::sliceAddr(instr.src1, k) + off;
                sop.src2 =
                    CcInstruction::sliceAddr(instr.src2, k) + off;
                if (!senseOperands(sop, level, op.inPlace, step_latency,
                                   energy::CacheOp::Logic, &a[k], &b[k],
                                   &outcome))
                    group_degraded = true;
            }
            if (group_degraded) {
                outcome.degradedNearPlace = true;
                if (stats_)
                    faultDegradedNearPlaceStat_->inc();
                traceFault("fault.degrade_near_place", op.src1, level);
                outcome.extraLatency += params_.nearPlace.latency(level);
                op.inPlace = false;
                std::uint64_t sid = fault::subarrayId(
                    level, op.cacheIndex, op.partition);
                bool ok = true;
                for (std::size_t k = 0; k < width && ok; ++k) {
                    Addr sa =
                        CcInstruction::sliceAddr(instr.src1, k) + off;
                    Addr sb =
                        CcInstruction::sliceAddr(instr.src2, k) + off;
                    Block ta = read_block(sa);
                    Block tb = read_block(sb);
                    a[k] = ta;
                    b[k] = tb;
                    ok = checkOperand(&a[k], ta, sa, sid, level,
                                      &outcome) &&
                        checkOperand(&b[k], tb, sb, sid, level,
                                     &outcome);
                }
                if (!ok) {
                    group_recovered = true;
                    outcome.riscRecovered = true;
                    if (stats_)
                        faultRiscRecoveriesStat_->inc();
                    traceFault("fault.risc_recovery", op.src1, level);
                    for (std::size_t k = 0; k < width; ++k) {
                        for (Addr addr :
                             {CcInstruction::sliceAddr(instr.src1, k) +
                                  off,
                              CcInstruction::sliceAddr(instr.src2, k) +
                                  off}) {
                            faults_.clearLatent(addr);
                            faults_.remap(addr);
                        }
                        a[k] = read_block(
                            CcInstruction::sliceAddr(instr.src1, k) +
                            off);
                        b[k] = read_block(
                            CcInstruction::sliceAddr(instr.src2, k) +
                            off);
                    }
                    outcome.extraLatency += params_.faultRefillLatency;
                    if (energy_) {
                        energy_->chargeDram(2 * width);
                        energy_->chargeInstructions(
                            (2 * width + dst_slices + steps) *
                            kWordsPerBlock);
                    }
                }
            }
        }

        // Functional result from the sensed slices: one block per
        // slice, so the scratch buffers' slice stride is kBlockSize.
        BitSerialCompute::apply(instr, d[0].data(), a[0].data(),
                                b[0].data(), kBlockSize);
        for (std::size_t k = 0; k < dst_slices; ++k)
            write_block(CcInstruction::sliceAddr(instr.dest, k) + off,
                        d[k]);

        if (op.inPlace) {
            if (energy_)
                energy_->chargeCacheOp(level, energy::CacheOp::Logic,
                                       steps);
            if (stats_)
                inPlaceOpsStat_->inc();
            if (faults_.enabled()) {
                // Section IV-I: in-place results bypass the ECC
                // datapath; the check unit recomputes each written
                // slice's code.
                outcome.extraLatency +=
                    dst_slices * params_.eccCheckLatency;
                if (energy_)
                    energy_->addCacheAccess(
                        level,
                        energy_->params().eccCheckPerBlock *
                            static_cast<double>(dst_slices));
            }
            if (params_.verifyCircuit)
                verifyBitSerialCircuit(instr, a, b, d);

            std::uint64_t key =
                (static_cast<std::uint64_t>(op.cacheIndex) << 32) |
                (static_cast<std::uint64_t>(op.partition) & 0xffffffffULL);
            Cycles interval = std::max<Cycles>(
                1, static_cast<Cycles>(params_.partitionPipelineFactor *
                                       static_cast<double>(step_latency)));
            Cycles &pfree = partition_free[key];
            start = std::max(start, pfree);
            // The first step pays the full activation latency; later
            // steps pipeline at the partition interval behind it.
            Cycles busy = step_latency +
                static_cast<Cycles>(steps - 1) * interval +
                outcome.extraLatency;
            if (!power_slots.empty()) {
                start = std::max(start, power_slots.front().first);
                end = start + busy;
                sched_.holdPowerSlot(end);
            } else {
                end = start + busy;
            }
            // The carry latch holds live state: the partition stays
            // busy for the whole sequence.
            pfree = end;
            ++res.inPlaceOps;
        } else {
            // Near-place: 2W slice reads cross the H-tree, the logic
            // unit runs W word-serial recurrence steps, results write
            // back.
            if (energy_ && !group_recovered) {
                for (std::size_t k = 0; k < 2 * width; ++k)
                    energy_->chargeCacheOp(level, energy::CacheOp::Read);
                energy_->chargeNearPlaceLogic(width);
                for (std::size_t k = 0; k < dst_slices; ++k)
                    energy_->chargeCacheOp(level,
                                           energy::CacheOp::Write);
            }
            if (stats_)
                nearPlaceOpsStat_->inc();
            if (op.cacheIndex >= near_free.size())
                near_free.resize(op.cacheIndex + 1, 0);
            start = std::max(start, near_free[op.cacheIndex]);
            end = start + params_.nearPlace.latency(level) +
                static_cast<Cycles>(2 * width) + outcome.extraLatency;
            near_free[op.cacheIndex] = end;
            ++res.nearPlaceOps;
        }
        finish = std::max(finish, end);

        res.faultRetries += outcome.retries;
        if (outcome.degradedNearPlace)
            ++res.faultDegradedOps;
        if (outcome.riscRecovered)
            ++res.faultRiscRecoveries;
        instrTable_.complete(*instr_id, 0, 0);
    }

    sched_.horizon = std::max(sched_.horizon, finish);
    res.computeLatency = finish;
    res.latency += finish;

    if (level == CacheLevel::L3 && groups > 0) {
        unsigned slice = ops.front().cacheIndex;
        Cycles notify = hier_.ring().send(slice, core % hier_.cores(),
                                          noc::MsgClass::Control);
        if (!sched_.streaming)
            res.latency += notify;
    }

    unpinStaged();
    instrTable_.release(*instr_id);

    if (stats_) {
        blockOpsStat_->inc(res.blockOps);
        levelOpsStat_[static_cast<unsigned>(level)]->inc();
    }
    return res;
}

CcExecResult
CcController::executeOnce(CoreId core, const CcInstruction &instr)
{
    CcExecResult res;
    if (!sched_.streaming)
        sched_.reset(params_.maxActiveSubarrays);
    else
        sched_.issueClock += params_.issueLatency;  // dispatch serializes
    res.latency = params_.issueLatency;
    std::size_t blocks = divCeil(instr.size, kBlockSize);
    res.blockOps = blocks;
    perf::addCcBlockOps(blocks);

    // ------------------------------------------------------------------
    // Level selection (Section IV-E): highest level where all operands
    // hit; L3 when anything is uncached.
    // ------------------------------------------------------------------
    bool fixed_src2 = instr.op == CcOpcode::Search || instr.src2Replicated;
    // Replicated clmul packs its parities densely: far fewer dest blocks.
    std::size_t dest_blocks = blocks;
    std::size_t ops_per_dest_block = 1;
    if (instr.src2Replicated) {
        ops_per_dest_block = (8 * kBlockSize) / instr.clmulBitsPerBlock();
        dest_blocks = divCeil(blocks, ops_per_dest_block);
    }

    std::vector<Addr> &all_blocks = scratchBlocks_;
    all_blocks.clear();
    for (std::size_t i = 0; i < blocks; ++i) {
        Addr off = i * kBlockSize;
        if (instr.src1)
            all_blocks.push_back(instr.src1 + off);
        if (instr.src2 && !fixed_src2)
            all_blocks.push_back(instr.src2 + off);
        if (instr.dest && !instr.src2Replicated)
            all_blocks.push_back(instr.dest + off);
    }
    if (fixed_src2)
        all_blocks.push_back(instr.src2);
    if (instr.src2Replicated) {
        for (std::size_t i = 0; i < dest_blocks; ++i)
            all_blocks.push_back(instr.dest + i * kBlockSize);
    }

    CacheLevel level = params_.forceLevel
        ? *params_.forceLevel
        : hier_.chooseLevel(core, all_blocks);
    if (params_.useReusePredictor && !params_.forceLevel) {
        level = reuse_.recommend(level, all_blocks);
        if (level != CacheLevel::L3 && stats_)
            reuseHoistsStat_->inc();
    }
    if (params_.useReusePredictor) {
        for (Addr a : all_blocks)
            reuse_.touch(a);
    }
    res.level = level;

    std::uint64_t seq = ++instrSeq_;
    auto instr_id = instrTable_.allocate(instr, core, blocks);
    if (!instr_id) {
        // A full instruction table is a structural hazard, not a bug:
        // degrade to the scalar path rather than aborting.
        if (stats_)
            instrTableFullStat_->inc();
        return riscFallback(core, instr);
    }

    // ------------------------------------------------------------------
    // Operand staging: fetch + pin every block of every operand. Misses
    // overlap up to fetchMlp deep.
    // ------------------------------------------------------------------
    // Each block op records where its operands were staged, so issue
    // reuses the pinned slots instead of scanning tags again.
    std::vector<BlockOp> &ops = scratchOps_;
    ops.assign(blocks, BlockOp{});
    std::vector<StagedOperand> &staged = scratchStaged_;
    std::vector<Cycles> &fetch_lats = scratchFetchLats_;
    staged.clear();
    fetch_lats.clear();
    bool fallback = false;

    auto stage = [&](Addr addr, bool exclusive,
                     bool overwrite) -> std::uint32_t {
        auto s = stageOperand(core, addr, level, exclusive, overwrite);
        if (!s) {
            fallback = true;
            return kUnstaged;
        }
        if (s->latency > 0)
            fetch_lats.push_back(s->latency);
        staged.push_back(*s);
        return static_cast<std::uint32_t>(staged.size() - 1);
    };

    bool dest_overwritten = instr.op != CcOpcode::Clmul ||
        instr.src2Replicated;
    for (std::size_t i = 0; i < blocks && !fallback; ++i) {
        BlockOp &op = ops[i];
        Addr off = i * kBlockSize;
        if (instr.src1)
            op.src1Staged = stage(instr.src1 + off, false, false);
        if (instr.src2 && !fixed_src2 && !fallback)
            op.src2Staged = stage(instr.src2 + off, false, false);
        if (instr.dest && !instr.src2Replicated && !fallback)
            op.destStaged = stage(instr.dest + off, true, dest_overwritten);
    }
    if (fixed_src2 && !fallback) {
        std::uint32_t key = stage(instr.src2, false, false);
        for (BlockOp &op : ops)
            op.src2Staged = key;
    }
    if (instr.src2Replicated) {
        for (std::size_t i = 0; i < dest_blocks && !fallback; ++i) {
            std::uint32_t d = stage(instr.dest + i * kBlockSize, true, true);
            for (std::size_t k = i * ops_per_dest_block;
                 k < std::min(blocks, (i + 1) * ops_per_dest_block); ++k)
                ops[k].destStaged = d;
        }
    }

    if (fallback) {
        unpinStaged();
        instrTable_.release(*instr_id);
        return riscFallback(core, instr);
    }

    // Fetch latency: the longest miss dominates; the rest overlap with
    // MLP-deep pipelining. In stream mode staging overlaps with other
    // instructions' compute, so it folds into the stream total instead.
    if (!fetch_lats.empty()) {
        if (sched_.streaming) {
            sched_.fetchLats.insert(sched_.fetchLats.end(),
                                    fetch_lats.begin(), fetch_lats.end());
        } else {
            Cycles fetch = foldFetchLatencies(fetch_lats,
                                              params_.fetchMlp);
            res.fetchLatency = fetch;
            res.latency += fetch;
        }
    }

    // ------------------------------------------------------------------
    // Build block ops, resolve placement and operand locality.
    // ------------------------------------------------------------------
    // Placement of a staged operand; nullopt once its line has left.
    auto place_of = [&](std::uint32_t si)
        -> std::optional<geometry::BlockPlace> {
        const StagedOperand &s = staged[si];
        auto slot = locateStaged(s);
        if (!slot)
            return std::nullopt;
        return s.cache->placeOf(*slot);
    };

    for (std::size_t i = 0; i < blocks; ++i) {
        BlockOp &op = ops[i];
        op.index = i;
        Addr off = i * kBlockSize;
        op.src1 = instr.src1 ? instr.src1 + off : 0;
        op.src2 = fixed_src2 ? instr.src2
                             : (instr.src2 ? instr.src2 + off : 0);
        op.dest = instr.dest ? instr.dest + off : 0;
        if (instr.src2Replicated)
            op.dest = instr.dest + (i / ops_per_dest_block) * kBlockSize;

        // The anchor operand is src1, or dest for cc_buz.
        std::uint32_t anchor_staged = op.src1 ? op.src1Staged
                                              : op.destStaged;
        auto place = place_of(anchor_staged);
        if (!place) {
            // Lost to an invalidation race between staging and issue
            // (Section IV-E's lock window): release and degrade.
            if (stats_)
                stagingRacesStat_->inc();
            unpinStaged();
            keys_.releaseInstr(seq);
            instrTable_.release(*instr_id);
            return riscFallback(core, instr);
        }
        op.cacheIndex = staged[anchor_staged].cacheIndex;
        op.partition = place->globalPartition;

        // Locality: every (non-key) operand must sit in the same cache
        // instance and block partition. The search key is replicated, so
        // it never constrains locality.
        op.inPlace = !params_.forceNearPlace;
        std::array<std::uint32_t, 3> members;
        std::size_t n_members = 0;
        if (op.src1)
            members[n_members++] = op.src1Staged;
        if (op.src2 && !fixed_src2)
            members[n_members++] = op.src2Staged;
        // A replicated clmul's dest is filled by the controller's result
        // shift register, so it does not constrain bit-line locality.
        if (op.dest && !instr.src2Replicated)
            members[n_members++] = op.destStaged;
        for (std::size_t mi = 0; mi < n_members; ++mi) {
            std::uint32_t si = members[mi];
            unsigned idx = staged[si].cacheIndex;
            auto p = place_of(si);
            if (!p) {
                // Same race as the anchor, but survivable: the near-
                // place path re-reads through the hierarchy.
                if (stats_)
                    stagingRacesStat_->inc();
                op.inPlace = false;
                continue;
            }
            if (idx != op.cacheIndex ||
                p->globalPartition != op.partition) {
                op.inPlace = false;
            }
        }

        if (op.inPlace && (instr.op == CcOpcode::Search ||
                           instr.src2Replicated)) {
            // Replicate the key into this data block's partition once per
            // instruction (Section IV-D key table). The replication write
            // is what Table V's search row adds on top of cmp.
            PartitionId pid{level, op.cacheIndex, op.partition};
            if (keys_.needsReplication(seq, instr.src2, pid)) {
                op.keyWrite = true;
                ++res.keyReplications;
                if (stats_)
                    keyReplicationsStat_->inc();
            }
        }
    }

    // ------------------------------------------------------------------
    // Schedule: one command per cycle on the shared address bus;
    // same-partition ops serialize; the active-sub-array cap bounds
    // concurrency; near-place ops serialize on the controller's single
    // logic unit.
    // ------------------------------------------------------------------
    Cycles finish = sched_.horizon;
    auto &issue_clock = sched_.issueClock;
    auto &partition_free = sched_.partitionFree;
    auto &near_free = sched_.nearFree;
    auto &power_slots = sched_.powerSlots;

    std::uint64_t result_mask = 0;
    std::size_t result_bits = 0;

    // Key replication is an H-tree broadcast: the tree transfer is paid
    // once per instruction, each receiving partition pays only the
    // bit-array write component.
    bool key_htree_charged = false;

    for (BlockOp &op : ops) {
        auto op_entry = opTable_.allocate(*instr_id, op.index,
                                          {op.src1, op.src2, op.dest});
        // Synchronous mode drains the table every iteration, so
        // allocation only fails on undersized configurations; overflow
        // is survivable -- the op just executes untracked.
        if (op_entry) {
            for (std::size_t oi = 0; oi < 3; ++oi)
                opTable_.markFetched(*op_entry, oi);
        } else if (stats_) {
            opTableOverflowsStat_->inc();
        }

        issue_clock += 1;  // command delivery on the shared bus
        Cycles start = issue_clock / params_.commandIssuePerCycle;
        Cycles end;

        // Execute functionally first: the fault ladder's retries,
        // degradations and refills lengthen this op's occupancy below.
        if (op_entry)
            opTable_.markIssued(*op_entry);
        BlockOpOutcome outcome = performBlockOp(core, instr, op, level);
        if (op_entry) {
            opTable_.markDone(*op_entry);
            opTable_.release(*op_entry);
        }
        res.faultRetries += outcome.retries;
        if (outcome.degradedNearPlace)
            ++res.faultDegradedOps;
        if (outcome.riscRecovered)
            ++res.faultRiscRecoveries;

        if (op.inPlace) {
            std::uint64_t key =
                (static_cast<std::uint64_t>(op.cacheIndex) << 32) |
                (static_cast<std::uint64_t>(op.partition) & 0xffffffffULL);
            Cycles interval = std::max<Cycles>(
                1, static_cast<Cycles>(params_.partitionPipelineFactor *
                                       static_cast<double>(
                                           params_.inPlaceLatency(level))));
            // One probe serves both the read here and the store below;
            // no other PartitionClock access intervenes, so the
            // reference stays valid.
            Cycles &pfree = partition_free[key];
            start = std::max(start, pfree);
            if (op.keyWrite) {
                // The key replication write occupies the partition before
                // the search op can activate. Energy: one H-tree
                // broadcast per instruction plus an array write per
                // receiving partition.
                start += params_.inPlaceLatency(level);
                if (energy_) {
                    EnergyPJ write = energy_->params().cacheOpEnergy(
                        level, energy::CacheOp::Write);
                    double ic = energy_->params().htreeFraction(
                        level, energy::CacheOp::Write);
                    if (!key_htree_charged) {
                        energy_->addCacheIc(level, write * ic);
                        key_htree_charged = true;
                    }
                    energy_->addCacheAccess(level, write * (1.0 - ic));
                }
            }
            Cycles busy = params_.inPlaceLatency(level) +
                outcome.extraLatency;
            if (!power_slots.empty()) {
                start = std::max(start, power_slots.front().first);
                end = start + busy;
                sched_.holdPowerSlot(end);
            } else {
                end = start + busy;
            }
            pfree = start + interval + outcome.extraLatency;
            ++res.inPlaceOps;
        } else {
            if (op.cacheIndex >= near_free.size())
                near_free.resize(op.cacheIndex + 1, 0);
            start = std::max(start, near_free[op.cacheIndex]);
            end = start + params_.nearPlace.latency(level) +
                outcome.extraLatency;
            near_free[op.cacheIndex] = end;
            ++res.nearPlaceOps;
        }
        finish = std::max(finish, end);

        std::uint64_t mask = outcome.mask;
        if (isCcR(instr.op)) {
            std::size_t bits =
                std::min<std::size_t>(kWordsPerBlock,
                                      instr.size / 8 - result_bits);
            result_mask |= (mask & ((bits == 64
                                     ? ~std::uint64_t{0}
                                     : (std::uint64_t{1} << bits) - 1)))
                << result_bits;
            result_bits += bits;
        }
        instrTable_.complete(*instr_id, 0, 0);
    }

    sched_.horizon = std::max(sched_.horizon, finish);
    res.computeLatency = finish;
    res.latency += finish;
    res.result = result_mask;

    // Completion notification: the computing cache notifies the L1 CC
    // controller, which notifies the core (Figure 6 steps 6-7).
    if (level == CacheLevel::L3 && blocks > 0) {
        unsigned slice = ops.front().cacheIndex;
        Cycles notify = hier_.ring().send(slice, core % hier_.cores(),
                                          noc::MsgClass::Control);
        if (!sched_.streaming)
            res.latency += notify;
    }

    unpinStaged();
    keys_.releaseInstr(seq);
    instrTable_.release(*instr_id);

    if (stats_) {
        blockOpsStat_->inc(blocks);
        levelOpsStat_[static_cast<unsigned>(level)]->inc();
    }
    return res;
}

} // namespace ccache::cc
