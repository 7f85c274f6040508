#include "tracecache/fill_unit.hh"

#include <array>
#include <cstdint>

#include "cluster/station.hh"
#include "common/logging.hh"
#include "obs/sink.hh"

namespace ctcp {

FillUnit::FillUnit(const TraceCacheConfig &cfg, unsigned num_clusters,
                   unsigned slots_per_cluster, TraceCache &tc,
                   RetireAssignmentPolicy &policy)
    : cfg_(cfg), numClusters_(num_clusters),
      slotsPerCluster_(slots_per_cluster), tc_(tc), policy_(policy)
{
    ctcp_assert(num_clusters * slots_per_cluster == cfg.maxInsts,
                "trace line size must equal total issue slots");
    ctcp_assert(cfg.maxInsts <= maxMachineWidth,
                "trace line size %u exceeds the %u-slot limit", cfg.maxInsts,
                maxMachineWidth);
    draftScratch_.numClusters = num_clusters;
    draftScratch_.slotsPerCluster = slots_per_cluster;
    draftScratch_.insts.reserve(cfg.maxInsts);
    pending_.reserve(cfg.maxInsts);
}

void
FillUnit::retire(const TimedInst &inst, Cycle now)
{
    const DynInst &dyn = inst.dyn;
    DraftInst &d = draftScratch_.insts.emplace_back();
    d.pc = dyn.pc;
    d.dst = dyn.dst;
    d.src1 = dyn.src1;
    d.src2 = dyn.src2;
    d.writesDst = dyn.hasDst();
    const TimedInstCold &cold = inst.cold();
    d.criticalSrc = cold.criticalSrc;
    d.criticalForwarded = cold.criticalForwarded;
    d.criticalInterTrace = cold.criticalInterTrace;
    d.criticalProducerPc = cold.criticalProducerPc;
    d.criticalProducerProfile = cold.criticalProducerProfile;
    d.carriedProfile = inst.profile;
    d.newProfile = inst.profile;   // policies may refine

    pending_.push_back({dyn.op, dyn.taken});
    successorPc_ = dyn.nextPc;

    bool done = false;
    if (isBranch(dyn.op)) {
        ++blocks_;
        if (isIndirect(dyn.op) || blocks_ >= cfg_.maxBlocks)
            done = true;
        // A backward taken branch (loop-closing edge) also ends the
        // trace. This aligns trace boundaries to loop bodies so that a
        // loop reconstructs the same trace identities every iteration,
        // which is what lets the FDRT profile fields accumulate
        // meaningful history instead of phase-shifted noise.
        if (dyn.taken && dyn.targetPc <= dyn.pc)
            done = true;
    }
    if (pending_.size() >= cfg_.maxInsts || dyn.op == Opcode::Halt)
        done = true;
    if (done)
        finalize(now);
}

void
FillUnit::flush()
{
    if (!pending_.empty())
        finalize(0);
}

void
FillUnit::analyzeIntraTrace(TraceDraft &draft)
{
    const std::size_t n = draft.insts.size();
    ctcp_assert(n <= maxMachineWidth, "draft of %zu instructions", n);
    // RegId is a byte, so one entry per possible value (invalidReg
    // included) needs no range checks.
    constexpr std::size_t regIds = std::size_t{1} << (8 * sizeof(RegId));

    // Forward: the critical intra-trace producer is the last earlier
    // writer of the dynamically critical source register.
    std::array<std::int8_t, regIds> last_writer;
    last_writer.fill(-1);
    for (std::size_t i = 0; i < n; ++i) {
        DraftInst &d = draft.insts[i];
        d.intraProducer = -1;
        if (d.criticalSrc != 0) {
            const RegId reg = d.criticalSrc == 1 ? d.src1 : d.src2;
            if (reg != invalidReg && reg != zeroReg)
                d.intraProducer = last_writer[reg];
        }
        if (d.writesDst)
            last_writer[d.dst] = static_cast<std::int8_t>(i);
    }

    // Backward: an instruction has an intra-trace consumer when the
    // next event on its destination is a read, not a redefinition.
    enum : std::uint8_t { noEvent, readNext, writtenNext };
    std::array<std::uint8_t, regIds> next;
    next.fill(noEvent);
    for (std::size_t i = n; i-- > 0;) {
        DraftInst &d = draft.insts[i];
        d.hasIntraConsumer = d.writesDst && next[d.dst] == readNext;
        if (d.writesDst)
            next[d.dst] = writtenNext;
        next[d.src1] = readNext;   // after the write: reads win
        next[d.src2] = readNext;
    }
}

void
FillUnit::finalize(Cycle now)
{
    ctcp_assert(!pending_.empty(), "finalize with no pending instructions");

    TraceDraft &draft = draftScratch_;
    analyzeIntraTrace(draft);
    policy_.setObsCycle(now);
    policy_.assign(draft);

    const std::size_t n = draft.insts.size();
    TraceLine line;
    line.key.startPc = draft.insts.front().pc;
    unsigned blocks = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const PendingInst &p = pending_[i];
        if (isBranch(p.op)) {
            ++blocks;
            if (isConditionalBranch(p.op)) {
                ctcp_assert(line.key.numCondBranches < traceLineMaxBranches,
                            "too many conditional branches in one trace");
                if (p.taken)
                    line.key.condDirs |=
                        1u << line.key.numCondBranches;
                line.condBranchPcs.push_back(draft.insts[i].pc);
                ++line.key.numCondBranches;
            }
            if (isIndirect(p.op))
                line.endsWithIndirect = true;
        }
    }
    line.numBlocks = static_cast<std::uint8_t>(blocks);
    line.successorPc = successorPc_;

    line.insts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const DraftInst &d = draft.insts[i];
        ctcp_assert(d.physSlot >= 0 &&
                    d.physSlot < static_cast<int>(draft.totalSlots()),
                    "policy left an instruction without a physical slot");
        TraceSlot slot;
        slot.pc = d.pc;
        slot.physSlot = static_cast<std::uint8_t>(d.physSlot);
        // Memoized dispatch plan: this line's slot→cluster routing and
        // the instruction's station class are fixed once the policy
        // has placed it, so compute them here — fetch replays the two
        // bytes instead of re-deriving them per delivered instruction.
        slot.cluster =
            static_cast<std::uint8_t>(slot.physSlot / slotsPerCluster_);
        slot.station = static_cast<std::uint8_t>(
            stationFor(opcodeInfo(pending_[i].op).fu));
        slot.profile = d.newProfile;
        line.insts.push_back(slot);
    }

    if (observer_)
        observer_->onTraceConstructed(draft, line);
    if (obs_ && obs_->enabled(ObsKind::TraceBuild)) {
        ObsEvent ev;
        ev.cycle = now;
        ev.kind = ObsKind::TraceBuild;
        ev.pc = line.key.startPc;
        ev.arg0 = static_cast<std::int64_t>(n);
        ev.arg1 = line.numBlocks;
        obs_->record(ev);
    }

    ++traces_;
    instsInTraces_ += n;
    tc_.insert(std::move(line), now + cfg_.fillLatency);

    draft.insts.clear();
    pending_.clear();
    blocks_ = 0;
}

void
FillUnit::dumpStats(StatDump &out) const
{
    out.scalar("fill.traces_built", traces_.value());
    out.scalar("fill.mean_trace_size", meanTraceSize());
}

} // namespace ctcp
