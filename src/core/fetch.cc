#include "core/fetch.hh"

#include <algorithm>
#include <bit>

#include "cluster/station.hh"
#include "common/logging.hh"
#include "obs/sink.hh"

namespace ctcp {

namespace {

// Out of line so the per-instruction fetch path carries only the
// obs_ guard branch, not the event-construction code.
[[gnu::noinline]] [[gnu::cold]] void
recordFetchEvent(ObsSink &obs, Cycle now, const DynInst &dyn, bool from_tc)
{
    ObsEvent ev;
    ev.cycle = now;
    ev.kind = ObsKind::Fetch;
    ev.seq = dyn.seq;
    ev.pc = dyn.pc;
    ev.arg0 = from_tc ? 1 : 0;
    ev.label = dyn.info().mnemonic;
    obs.record(ev);
}

} // namespace

FetchEngine::FetchEngine(const SimConfig &cfg, TraceCache &tc,
                         InstMemory &imem, BranchPredictor &bpred,
                         Executor &exec, TimedInstPool &pool)
    : cfg_(cfg), tc_(tc), imem_(imem), bpred_(bpred), exec_(exec),
      pool_(pool), plansOn_(!cfg.debug.disableDispatchPlans)
{
    // peekSlow(k) buffers through index k + peekAhead, and fetch peeks
    // below the widest of a fetch, a trace line and an I-cache fetch.
    const std::size_t widest =
        std::max({cfg.frontEnd.fetchWidth, cfg.frontEnd.icacheFetchWidth,
                  cfg.frontEnd.traceCache.maxInsts});
    ring_.resize(std::bit_ceil(widest + peekAhead));
    ringMask_ = ring_.size() - 1;
}

const DynInst *
FetchEngine::peekSlow(std::size_t k)
{
    // Buffer a short batch past k: fetch peeks the stream one
    // instruction at a time, so running the functional simulator a few
    // steps ahead keeps the next several peeks on the inline fast
    // path. Read-ahead is invisible to timing — the buffer only holds
    // committed-stream instructions until fetch consumes them.
    const std::size_t want = k + peekAhead;
    ctcp_assert(want < ring_.size(),
                "peek %zu beyond the %zu-entry stream ring", k,
                ring_.size());
    while (buffered_ <= want && !execDone_) {
        // step() resets the slot before filling it; the Halt itself is
        // part of the stream.
        const bool more = exec_.step(ring_[(head_ + buffered_) & ringMask_]);
        ++buffered_;
        if (!more)
            execDone_ = true;
    }
    return k < buffered_ ? &ring_[(head_ + k) & ringMask_] : nullptr;
}

void
FetchEngine::consume(std::size_t n)
{
    ctcp_assert(n <= buffered_, "consuming past the stream buffer");
    head_ = (head_ + n) & ringMask_;
    buffered_ -= n;
}

void
FetchEngine::resolveGate(InstSeqNum seq, Cycle resume_at)
{
    if (gatingSeq_ == seq) {
        gatingSeq_ = invalidSeqNum;
        resumeAt_ = resume_at;
    }
}

TimedInst *
FetchEngine::makeInst(const DynInst &dyn, Cycle now, bool from_tc,
                      std::uint64_t instance, std::uint64_t key, int slot,
                      int logical, const ChainProfile &profile)
{
    TimedInst *ti = pool_.acquire();
    ti->dyn = dyn;
    ti->fromTraceCache = from_tc;
    ti->traceInstance = instance;
    ti->traceKey = key;
    ti->slotIndex = slot;
    ti->cold().logicalIndex = logical;
    ti->profile = profile;
    ti->fetchAt = now;
    if (from_tc)
        ++fromTC_;
    else
        ++fromIC_;
    if (obs_ && obs_->enabled(ObsKind::Fetch))
        recordFetchEvent(*obs_, now, dyn, from_tc);
    return ti;
}

bool
FetchEngine::predictBranch(TimedInst &ti, bool embedded_dir_valid,
                           bool embedded_dir)
{
    const DynInst &dyn = ti.dyn;
    if (dyn.isCondBranch()) {
        ti.predictedTaken = embedded_dir_valid
            ? embedded_dir
            : bpred_.peekDirection(dyn.pc);
        ti.mispredicted = ti.predictedTaken != dyn.taken;
        return ti.mispredicted;
    }

    // Unconditional transfers are always taken.
    ti.predictedTaken = true;
    if (dyn.isCallOp())
        bpred_.pushRas(dyn.pc + 1);
    if (dyn.isReturnOp()) {
        auto [target, valid] = bpred_.popRas();
        ti.cold().predictedTarget = target;
        ti.cold().predictedTargetValid = valid;
        ti.mispredicted = !valid || target != dyn.targetPc;
        return ti.mispredicted;
    }
    if (dyn.op == Opcode::JumpReg) {
        auto [target, valid] = bpred_.peekBtb(dyn.pc);
        ti.cold().predictedTarget = target;
        ti.cold().predictedTargetValid = valid;
        ti.mispredicted = !valid || target != dyn.targetPc;
        return ti.mispredicted;
    }

    // Direct jumps and calls: the target is encodable at decode; we
    // idealize next-line prediction for them (no BTB dependence).
    ti.cold().predictedTarget = dyn.targetPc;
    ti.cold().predictedTargetValid = true;
    ti.mispredicted = false;
    return false;
}

std::optional<FetchGroup>
FetchEngine::fetchCycle(Cycle now)
{
    if (gatingSeq_ != invalidSeqNum || now < resumeAt_)
        return std::nullopt;

    const DynInst *first = peek(0);
    if (first == nullptr)
        return std::nullopt;

    FetchGroup group;

    // ---- Trace-cache path -----------------------------------------------
    const TraceLine *line = tc_.lookup(first->pc,
        [this](Addr branch_pc, unsigned) {
            return bpred_.peekDirection(branch_pc);
        },
        now);

    if (line != nullptr) {
        group.fromTraceCache = true;
        group.readyAt = now + cfg_.frontEnd.fetchStages;
        const std::uint64_t instance = nextInstance_++;
        const std::uint64_t key = line->key.hash();
        ++tcLines_;

        std::size_t delivered = 0;
        unsigned cond_seen = 0;
        for (std::size_t i = 0; i < line->insts.size(); ++i) {
            const DynInst *dyn = peek(i);
            if (dyn == nullptr)
                break;
            const TraceSlot &lslot = line->insts[i];
            ctcp_assert(dyn->pc == lslot.pc,
                        "trace line diverged from the committed stream "
                        "without a mispredicted branch");
            TimedInst *ti = makeInst(*dyn, now, true, instance, key,
                                     lslot.physSlot, static_cast<int>(i),
                                     lslot.profile);
            if (plansOn_) {
                // Memoized dispatch plan: slot routing and station
                // class computed once when the fill unit built the
                // line, replayed here as two byte copies.
                ti->plannedCluster = lslot.cluster;
                ti->stationKind = lslot.station;
            }
            bool gate = false;
            if (dyn->isBranchOp()) {
                bool embedded_valid = false;
                bool embedded = false;
                if (dyn->isCondBranch()) {
                    ctcp_assert(cond_seen < line->key.numCondBranches,
                                "more conditionals in stream than in line");
                    embedded_valid = true;
                    embedded = (line->key.condDirs >> cond_seen) & 1;
                    ++cond_seen;
                }
                gate = predictBranch(*ti, embedded_valid, embedded);
            }
            const InstSeqNum seq = ti->dyn.seq;
            group.insts.push_back(ti);
            ++delivered;
            if (gate) {
                gatingSeq_ = seq;
                ++gates_;
                break;
            }
        }
        consume(delivered);
        tcLineInsts_ += delivered;
        if (group.insts.empty())
            return std::nullopt;
        return group;
    }

    // ---- I-cache path ------------------------------------------------------
    group.fromTraceCache = false;
    const unsigned penalty =
        imem_.fetchPenalty(Program::byteAddr(first->pc));
    group.readyAt = now + cfg_.frontEnd.fetchStages + penalty;
    const std::uint64_t instance = nextInstance_++;

    std::size_t delivered = 0;
    for (unsigned i = 0; i < cfg_.frontEnd.icacheFetchWidth; ++i) {
        const DynInst *dyn = peek(i);
        if (dyn == nullptr)
            break;
        TimedInst *ti = makeInst(*dyn, now, false, instance, 0,
                                 static_cast<int>(i), static_cast<int>(i),
                                 ChainProfile{});
        if (plansOn_) {
            ti->plannedCluster = static_cast<std::uint8_t>(
                i / cfg_.cluster.clusterWidth);
            ti->stationKind =
                static_cast<std::uint8_t>(stationFor(dyn->fu()));
        }
        bool gate = false;
        bool stop = false;
        if (dyn->isBranchOp()) {
            gate = predictBranch(*ti, false, false);
            // Cannot fetch past a predicted-taken transfer this cycle.
            if (ti->predictedTaken)
                stop = true;
        }
        if (dyn->op == Opcode::Halt)
            stop = true;
        const InstSeqNum seq = ti->dyn.seq;
        group.insts.push_back(ti);
        ++delivered;
        if (gate) {
            gatingSeq_ = seq;
            ++gates_;
            break;
        }
        if (stop)
            break;
    }
    consume(delivered);
    if (group.insts.empty())
        return std::nullopt;
    return group;
}

void
FetchEngine::dumpStats(StatDump &out) const
{
    out.scalar("fetch.from_tc", fromTC_.value());
    out.scalar("fetch.from_ic", fromIC_.value());
    out.scalar("fetch.tc_lines", tcLines_.value());
    out.scalar("fetch.mean_tc_line_insts", meanFetchedTraceSize());
    out.scalar("fetch.mispredict_gates", gates_.value());
}

} // namespace ctcp
