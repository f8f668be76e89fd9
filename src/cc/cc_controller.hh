/**
 * @file
 * Compute Cache controller (Sections IV-D, IV-E).
 *
 * The controller turns a CC instruction into per-cache-block simple
 * vector operations, chooses the cache level (highest level holding all
 * operands, else L3), stages and pins operands, checks operand locality,
 * executes in-place (bit-line) or near-place (controller logic unit),
 * schedules the operations across block partitions under the shared
 * address-bus and peak-power constraints, and returns the completion
 * latency plus the cmp/search result mask.
 *
 * Functional results are computed with BlockCompute, whose equivalence to
 * the circuit-level sram::SubArray model is established by the test
 * suite; the controller can optionally re-verify every in-place op
 * against a live sub-array (verifyCircuit mode).
 */

#ifndef CCACHE_CC_CC_CONTROLLER_HH
#define CCACHE_CC_CC_CONTROLLER_HH

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "cache/hierarchy.hh"
#include "cc/ecc.hh"
#include "common/event_trace.hh"
#include "cc/instruction_table.hh"
#include "cc/isa.hh"
#include "cc/key_table.hh"
#include "cc/near_place_unit.hh"
#include "cc/operation_table.hh"
#include "cc/reuse_predictor.hh"
#include "fault/fault_injector.hh"
#include "sram/subarray.hh"

namespace ccache::cc {

/** Controller configuration. */
struct CcControllerParams
{
    /** Latency of one in-place block operation (Section IV-J: 14 cycles
     *  vs 22 near-place, for the large L3 sub-arrays; the smaller L1/L2
     *  arrays activate and sense faster). @{ */
    Cycles inPlaceOpLatency = 14;   ///< L3
    Cycles inPlaceOpLatencyL2 = 8;
    Cycles inPlaceOpLatencyL1 = 4;
    /** @} */

    /** Back-to-back in-place ops in one partition overlap precharge with
     *  the previous op's write-back: the initiation interval is this
     *  fraction of the op latency. */
    double partitionPipelineFactor = 0.5;

    /** In-place op latency at @p level. */
    Cycles
    inPlaceLatency(CacheLevel level) const
    {
        switch (level) {
          case CacheLevel::L1: return inPlaceOpLatencyL1;
          case CacheLevel::L2: return inPlaceOpLatencyL2;
          case CacheLevel::L3: return inPlaceOpLatency;
        }
        return inPlaceOpLatency;
    }

    NearPlaceParams nearPlace;

    /** Peak-power cap: sub-arrays allowed to compute simultaneously
     *  (Section IV-D limits concurrency to bound peak power). 0 = no cap. */
    unsigned maxActiveSubarrays = 128;

    /** Commands deliverable per cycle on the shared address H-tree. */
    unsigned commandIssuePerCycle = 1;

    /** Operand-lock retry budget before RISC fallback (Section IV-E). */
    unsigned maxLockRetries = 2;

    /** Pipeline-exception penalty for page-spanning operands. */
    Cycles pageSplitPenalty = 30;

    /** Core -> L1 CC controller dispatch cost per instruction. */
    Cycles issueLatency = 4;

    /** Memory-level parallelism of the operand fetch engine. */
    unsigned fetchMlp = 8;

    /** Force every op to a fixed level (benchmark configurations
     *  CC_L1 / CC_L2 / CC_L3). */
    std::optional<CacheLevel> forceLevel;

    /** Force the near-place path (the Figure 8a configuration). */
    bool forceNearPlace = false;

    /** Re-execute every in-place op on a circuit-level sub-array and
     *  compare (slow; integration tests enable it). */
    bool verifyCircuit = false;

    /** Enhance level selection with the page-reuse predictor
     *  (Section IV-E future-work extension): L3-policy instructions
     *  whose operand pages show recent reuse are hoisted to L2. */
    bool useReusePredictor = false;

    std::size_t instrTableEntries = 8;
    std::size_t opTableEntries = 64;

    /**
     * Fault injection and the graceful-degradation ladder. With
     * faults.enabled every sensed operand passes through the injector
     * and the ECC check unit; detected failures climb the recovery
     * ladder: in-place retry -> near-place unit (single-row, full
     * margin) -> discard-and-refill plus RISC recompute. Disabled (the
     * default), none of the fault code runs and all outputs are
     * bit-identical to a fault-free build. @{
     */
    fault::FaultParams faults;

    /** ECC logic-unit check latency per 64-byte block (Section IV-I
     *  alternative 1: the xor-identity check unit). */
    Cycles eccCheckLatency = 3;

    /** Re-sense attempts before degrading to the near-place unit. */
    unsigned maxFaultRetries = 2;

    /** Background scrubber stops per instruction (0 disables).
     *  Scrubbing steals idle cycles (Section IV-I alternative 2), so
     *  its cycles are tracked as a stat, not instruction latency. */
    unsigned scrubBlocksPerInstr = 4;

    /** Cycles to scrub one block (read + ECC check). */
    Cycles scrubCheckLatency = 4;

    /** Latency of discarding an uncorrectable line and refilling clean
     *  data from memory (the final rung's recovery cost). */
    Cycles faultRefillLatency = 240;
    /** @} */
};

/** Outcome of executing one CC instruction. */
struct CcExecResult
{
    Cycles latency = 0;             ///< fetch + compute + notification

    /** Portion of the latency spent staging operands (cold misses). */
    Cycles fetchLatency = 0;

    /** Portion spent computing in / near the cache sub-arrays. */
    Cycles computeLatency = 0;
    std::uint64_t result = 0;       ///< cmp/search mask (word-granular)
    CacheLevel level = CacheLevel::L3;
    std::size_t blockOps = 0;
    std::size_t inPlaceOps = 0;
    std::size_t nearPlaceOps = 0;
    std::size_t keyReplications = 0;
    std::size_t pageSplits = 0;
    std::size_t lockRetries = 0;
    bool riscFallback = false;

    /** Fault-ladder activity (all zero with injection disabled). @{ */
    std::size_t faultRetries = 0;        ///< re-sense attempts
    std::size_t faultDegradedOps = 0;    ///< degraded to near-place
    std::size_t faultRiscRecoveries = 0; ///< discard+refill+RISC blocks
    /** @} */
};

/** The controller. One instance serves the whole hierarchy (it models
 *  the cooperating per-cache CC controllers of Figure 1). */
class CcController
{
  public:
    CcController(cache::Hierarchy &hier, energy::EnergyModel *energy,
                 StatRegistry *stats,
                 const CcControllerParams &params = CcControllerParams{});

    const CcControllerParams &params() const { return params_; }
    CcControllerParams &mutableParams() { return params_; }

    /** Attach (or detach with nullptr) a timeline event sink. Completed
     *  instructions and fault-ladder rungs are recorded when the sink is
     *  enabled; a disabled or absent sink costs one branch per hook. */
    void setTraceSink(EventTrace *trace) { trace_ = trace; }

    /**
     * Runtime verification hooks (DESIGN.md §9). The controller pokes
     * cache arrays directly (bypassing Hierarchy's transaction hooks),
     * so it re-audits every operand block after each instruction; the
     * watchdog bounds the operand-lock and fault-retry ladders. Both
     * detach with nullptr and cost one branch when absent. @{
     */
    void setChecker(verify::CoherenceChecker *checker)
    {
        checker_ = checker;
    }
    void setWatchdog(verify::ProgressWatchdog *watchdog)
    {
        watchdog_ = watchdog;
    }
    /** @} */

    /** Execute one CC instruction issued by @p core to its L1 CC
     *  controller; blocks until completion (atomic-transaction model). */
    CcExecResult execute(CoreId core, const CcInstruction &instr);

    /**
     * Execute a stream of INDEPENDENT CC instructions with instruction-
     * level overlap: the instruction table keeps several in flight, so
     * successive instructions share the command bus, power slots and
     * partition schedule instead of serializing end-to-end (how DB-BitMap
     * issues its many independent cc_or operations, Section VI-E, and
     * how consecutive 512-byte cc_cmp/cc_search chunks pipeline).
     *
     * The caller must guarantee independence (no RAW/WAW overlap between
     * the instructions); each returned entry carries its own result mask.
     * @p total_latency receives the overlapped makespan of the stream.
     */
    std::vector<CcExecResult> executeStream(
        CoreId core, const std::vector<CcInstruction> &instrs,
        Cycles *total_latency);

    /** Tables exposed for inspection in tests. @{ */
    const KeyTable &keyTable() const { return keys_; }
    const ReusePredictor &reusePredictor() const { return reuse_; }
    const fault::FaultInjector &faultInjector() const { return faults_; }
    /** @} */

    /** Mutable injector access for runtime fault-rate scheduling (the
     *  chaos harness raises and clears per-shard fault storms through
     *  FaultInjector::setParams; see DESIGN.md §12). */
    fault::FaultInjector &mutableFaultInjector() { return faults_; }

  private:
    /**
     * An operand block staged and pinned by stageOperand(): the cache
     * holding it and the slot its pin went to, so issue reaches the
     * line without another tag scan. Per-instruction scratch, dead
     * after one execute(). The slot is used only after Cache::holds()
     * confirms it; a failed check (the line was invalidated or moved
     * since staging) takes the address path (DESIGN.md §13.4).
     */
    struct StagedOperand
    {
        Addr addr = 0;
        cache::Cache *cache = nullptr;
        cache::Cache::Slot slot;
        unsigned cacheIndex = 0;   ///< slice (L3) or core (L1/L2)
        Cycles latency = 0;        ///< staging latency
    };

    /** Index into scratchStaged_; kUnstaged for an absent operand. */
    static constexpr std::uint32_t kUnstaged = ~std::uint32_t{0};

    /** One simple vector operation, decomposed and placed. */
    struct BlockOp
    {
        Addr src1 = 0;
        Addr src2 = 0;   ///< 0 when unused; key address for search
        Addr dest = 0;   ///< 0 for CC-R
        std::size_t index = 0;

        /** Staged entries of src1, src2 and dest (executeOnce only;
         *  the bit-serial path leaves them kUnstaged). @{ */
        std::uint32_t src1Staged = kUnstaged;
        std::uint32_t src2Staged = kUnstaged;
        std::uint32_t destStaged = kUnstaged;
        /** @} */

        bool inPlace = false;
        bool keyWrite = false;          ///< search key replication first
        unsigned cacheIndex = 0;        ///< slice (L3) or core (L1/L2)
        std::size_t partition = 0;      ///< global partition in that cache
        Cycles fetchLatency = 0;
    };

    /** The pre-instrumentation body of execute(): dispatch, page-split
     *  handling and the fault-model inter-instruction ticks. */
    CcExecResult executeInstr(CoreId core, const CcInstruction &instr);

    CcExecResult executeOnce(CoreId core, const CcInstruction &instr);

    /**
     * Bit-serial arithmetic path: operands are laneBits bit-slice rows
     * at kSliceStride apart, carved into lane groups of one 64-byte
     * block per slice. Each group runs as one carry-latch sequence in
     * its partition (in-place) or as a word-serial pass through the
     * near-place logic unit.
     */
    CcExecResult executeBitSerial(CoreId core, const CcInstruction &instr);

    /** RISC translation of a bit-serial instruction (staging failure /
     *  structural hazards): slice blocks move through the hierarchy and
     *  the scalar core runs the same BitSerialCompute recurrences. */
    CcExecResult riscBitSerial(CoreId core, const CcInstruction &instr);

    /** Optionally verify one bit-serial lane group against the
     *  sub-array carry-latch circuit model. Slice blocks of a/b hold
     *  the group's sensed source slices; @p dst the functional result
     *  (sliceCount(dest) blocks). */
    void verifyBitSerialCircuit(const CcInstruction &instr,
                                const std::vector<Block> &a,
                                const std::vector<Block> &b,
                                const std::vector<Block> &dst);

    /** Stage + pin one operand; returns where it was pinned and the
     *  staging latency, or nullopt if the line could not be pinned (all
     *  ways pinned by other ops). */
    std::optional<StagedOperand> stageOperand(CoreId core, Addr addr,
                                              CacheLevel level,
                                              bool exclusive,
                                              bool for_overwrite);

    /** Where a staged operand's line is now: its pinned slot while
     *  holds() confirms it (no tag scan), else a tag lookup; nullopt
     *  once the line has left the cache. */
    std::optional<cache::Cache::Slot>
    locateStaged(const StagedOperand &s) const;

    /** Read / overwrite-and-mark-dirty a staged operand in place,
     *  through its slot while holds() confirms it, else by address;
     *  nullptr / false once the line has left the cache. Kept apart
     *  from locateStaged so the block-op path inlines only the O(1)
     *  check and reaches the tag scan through Cache's out-of-line
     *  address API (inlining the scan here slowed kernels_cc ~20%). @{ */
    const Block *peekStaged(const StagedOperand &s) const;
    bool pokeStaged(const StagedOperand &s, const Block &data);
    /** @} */

    /** Release the pins of every operand in scratchStaged_. */
    void unpinStaged();

    /** Outcome of one block op, including fault-ladder effects. */
    struct BlockOpOutcome
    {
        std::uint64_t mask = 0;        ///< cmp/search word-equality bits
        Cycles extraLatency = 0;       ///< retries, ECC checks, refills
        unsigned retries = 0;
        bool degradedNearPlace = false;
        bool riscRecovered = false;
    };

    /** Execute one block op functionally + charge its energy. */
    BlockOpOutcome performBlockOp(CoreId core, const CcInstruction &instr,
                                  const BlockOp &op, CacheLevel level);

    /**
     * Fault-ladder rung 0/1: sense both operands through the injector
     * and the ECC check unit, retrying margin failures and detected-
     * uncorrectable errors up to maxFaultRetries times. On success the
     * (possibly corrected, possibly silently corrupted) sensed data is
     * left in @p a / @p b. Returns false when every attempt failed and
     * the caller must degrade to the next rung.
     */
    bool senseOperands(const BlockOp &op, CacheLevel level, bool dual_row,
                       Cycles retry_latency, energy::CacheOp retry_op,
                       Block *a, Block *b, BlockOpOutcome *out);

    /** One operand through the fault model + ECC check unit. Returns
     *  false on a detected-uncorrectable error. */
    bool checkOperand(Block *sensed, const Block &truth, Addr addr,
                      std::uint64_t subarray_id, CacheLevel level,
                      BlockOpOutcome *out);

    /** Background scrubber: visit a few resident blocks, correct or
     *  discard latent errors (idle-cycle model, Section IV-I alt 2). */
    void scrubTick();

    /** Record a fault-ladder rung on the trace timeline (no-op when
     *  tracing is off). Fault hooks run below the per-core context, so
     *  these land on the global "system" track. */
    void traceFault(const char *name, Addr addr, CacheLevel level);

    /** Optionally verify an in-place op against the circuit model. */
    void verifyAgainstCircuit(const CcInstruction &instr, const Block &a,
                              const Block &b, const Block &result);

    /** Fallback: run the instruction as RISC loads/stores. */
    CcExecResult riscFallback(CoreId core, const CcInstruction &instr);

    cache::Hierarchy &hier_;
    energy::EnergyModel *energy_;
    StatRegistry *stats_;
    EventTrace *trace_ = nullptr;
    verify::CoherenceChecker *checker_ = nullptr;
    verify::ProgressWatchdog *watchdog_ = nullptr;
    CcControllerParams params_;

    /**
     * Flat open-addressed map from a packed (cache index, partition)
     * key to that partition's next-free cycle. The schedule loop hits
     * this once per in-place block op, which made the former
     * `std::map<std::pair<...>, Cycles>` the single hottest scheduler
     * structure (DESIGN.md §13); linear probing over a power-of-two
     * table keeps the lookup allocation-free, and clear() is O(1) via
     * an epoch stamp instead of touching every slot. Fully
     * deterministic: probe order depends only on the keys inserted.
     */
    struct PartitionClock
    {
        struct Slot
        {
            std::uint64_t key = 0;
            Cycles value = 0;
            std::uint32_t epoch = 0;   ///< live iff equal to map epoch
        };

        /** Find-or-insert; a fresh entry reads as 0 (partition free at
         *  cycle 0). The reference stays valid until the next call. */
        Cycles &operator[](std::uint64_t key);

        /** Forget every entry (O(1): bumps the epoch). */
        void clear();

        std::vector<Slot> slots;
        std::uint32_t epoch = 1;
        std::size_t live = 0;

      private:
        void grow();
    };

    /** Shared scheduling state for one instruction or one stream. */
    struct ScheduleState
    {
        bool streaming = false;
        Cycles issueClock = 0;
        Cycles horizon = 0;
        PartitionClock partitionFree;
        /** Next-free cycle of each controller's near-place logic unit,
         *  indexed by cache index (flat: at most one per core/slice). */
        std::vector<Cycles> nearFree;
        /** Active-sub-array power slots as a binary min-heap of
         *  (free-at cycle, slot index), ordered lexicographically so the
         *  top is what a first-minimum linear scan would pick —
         *  smallest free time, then smallest slot index. Replaces an
         *  O(cap) std::min_element per in-place op with O(log cap). */
        std::vector<std::pair<Cycles, std::uint32_t>> powerSlots;
        std::vector<Cycles> fetchLats;

        void reset(unsigned power_cap);

        /** Occupy the earliest-free power slot (the heap top) until
         *  @p free_at, which is no earlier than its current free time. */
        void holdPowerSlot(Cycles free_at);
    };

    InstructionTable instrTable_;
    OperationTable opTable_;
    KeyTable keys_;
    NearPlaceUnit nearPlace_;
    ReusePredictor reuse_;
    fault::FaultInjector faults_;
    ScheduleState sched_;
    std::uint64_t instrSeq_ = 0;

    /** Stats pre-registered in the constructor under "cc." so the
     *  per-block-op paths increment through stable pointers instead of
     *  resolving dotted names in every iteration (same pattern as Cache
     *  and Hierarchy; StatRegistry storage is pointer-stable). All null
     *  without a registry. @{ */
    StatHistogram *instrLatencyHist_ = nullptr;
    StatAccum *faultScrubCyclesAccum_ = nullptr;
    StatCounter *instructionsStat_ = nullptr;
    StatCounter *pageSplitExceptionsStat_ = nullptr;
    StatCounter *lockRetriesStat_ = nullptr;
    StatCounter *operandRefetchesStat_ = nullptr;
    StatCounter *inPlaceOpsStat_ = nullptr;
    StatCounter *nearPlaceOpsStat_ = nullptr;
    StatCounter *blockOpsStat_ = nullptr;
    StatCounter *circuitVerificationsStat_ = nullptr;
    StatCounter *riscFallbacksStat_ = nullptr;
    StatCounter *reuseHoistsStat_ = nullptr;
    StatCounter *instrTableFullStat_ = nullptr;
    StatCounter *stagingRacesStat_ = nullptr;
    StatCounter *keyReplicationsStat_ = nullptr;
    StatCounter *opTableOverflowsStat_ = nullptr;
    StatCounter *faultRiscRecoveriesStat_ = nullptr;
    StatCounter *faultDegradedNearPlaceStat_ = nullptr;
    StatCounter *faultRetriesStat_ = nullptr;
    StatCounter *faultMarginFailuresStat_ = nullptr;
    StatCounter *faultEccUncorrectableStat_ = nullptr;
    StatCounter *faultEccCorrectedStat_ = nullptr;
    StatCounter *faultSilentCorruptionsStat_ = nullptr;
    StatCounter *faultScrubVisitsStat_ = nullptr;
    StatCounter *faultScrubRefillsStat_ = nullptr;
    StatCounter *faultScrubCorrectionsStat_ = nullptr;
    /** Per-level op counters ("cc.level_L1" .. "cc.level_L3"), indexed
     *  by the CacheLevel enum value (slot 0 unused). */
    std::array<StatCounter *, 4> levelOpsStat_{};
    /** @} */

    /** Per-instruction scratch buffers, pool-allocated once and reused
     *  across executeOnce() calls so the block-op hot path performs no
     *  heap allocation in steady state (DESIGN.md §13 arena rules:
     *  contents are dead outside one executeOnce activation). @{ */
    std::vector<Addr> scratchBlocks_;
    std::vector<StagedOperand> scratchStaged_;
    std::vector<Cycles> scratchFetchLats_;
    std::vector<BlockOp> scratchOps_;
    /** Sensed source / result slice blocks of one bit-serial lane
     *  group. */
    std::vector<Block> scratchSliceA_;
    std::vector<Block> scratchSliceB_;
    std::vector<Block> scratchSliceD_;
    /** @} */

    /** Scratch sub-array for verifyCircuit mode. */
    std::unique_ptr<sram::SubArray> circuit_;
};

} // namespace ccache::cc

#endif // CCACHE_CC_CC_CONTROLLER_HH
