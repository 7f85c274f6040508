/**
 * @file
 * The CTCP fetch engine.
 *
 * Fetch is trace-driven: the functional simulator supplies the
 * committed (correct-path) stream and the engine fetches along the
 * predicted path. While predictions are correct the two coincide; when
 * a delivered branch's prediction disagrees with its actual outcome,
 * fetch gates until the branch resolves in the execution core — the
 * standard execute-at-commit approximation of wrong-path fetch, which
 * charges the full redirect penalty (branch resolution plus the
 * front-end pipeline refill) without simulating wrong-path work.
 *
 * Per cycle the engine tries the trace cache first (a full multi-block
 * line of up to fetchWidth instructions) and falls back to one
 * basic-block-limited I-cache fetch of up to icacheFetchWidth
 * instructions on a trace-cache miss.
 */

#ifndef CTCPSIM_CORE_FETCH_HH
#define CTCPSIM_CORE_FETCH_HH

#include <cstddef>
#include <optional>
#include <vector>

#include "bpred/predictor.hh"
#include "cluster/inst_pool.hh"
#include "cluster/timed_inst.hh"
#include "common/small_vec.hh"
#include "config/sim_config.hh"
#include "func/executor.hh"
#include "mem/dmem.hh"
#include "stats/stats.hh"
#include "tracecache/trace_cache.hh"

namespace ctcp {

class ObsSink;

/**
 * One group of instructions fetched in a single cycle. Instructions
 * are owned by the engine's TimedInstPool; rename nulls each entry as
 * it moves the instruction into the ROB, and retire returns it to the
 * pool.
 */
struct FetchGroup
{
    SmallVec<TimedInst *, traceLineMaxInsts> insts;
    /** Cycle the group becomes available to rename. */
    Cycle readyAt = 0;
    bool fromTraceCache = false;
};

/** Trace-driven fetch engine with mispredict gating. */
class FetchEngine
{
  public:
    FetchEngine(const SimConfig &cfg, TraceCache &tc, InstMemory &imem,
                BranchPredictor &bpred, Executor &exec, TimedInstPool &pool);

    /**
     * Attempt to fetch one group at cycle @p now.
     *
     * @return the fetched group, or std::nullopt when fetch is gated
     *         by an unresolved mispredict or the stream has ended.
     */
    std::optional<FetchGroup> fetchCycle(Cycle now);

    /** Fetch is currently gated by the given branch (invalidSeqNum if not). */
    InstSeqNum gatingBranch() const { return gatingSeq_; }

    /**
     * Fetch delivers nothing at @p now because of a branch redirect:
     * either gated behind an unresolved mispredict or still refilling
     * the front-end pipeline after one resolved. Mirrors the gate test
     * at the top of fetchCycle(); used by cycle accounting to split
     * fetch starvation into redirect vs cache-miss.
     */
    bool
    gatedByRedirect(Cycle now) const
    {
        return gatingSeq_ != invalidSeqNum || now < resumeAt_;
    }

    /**
     * The committed stream is fully consumed (non-mutating peek of the
     * streamEnded() condition): nothing remains to fetch, so empty
     * front-end cycles are drain, not starvation.
     */
    bool streamDrained() const { return execDone_ && buffered_ == 0; }

    /** Resolve the gating branch; fetch resumes at @p resume_at. */
    void resolveGate(InstSeqNum seq, Cycle resume_at);

    /** True once the functional stream is exhausted and buffered empty. */
    bool streamEnded() { return peek(0) == nullptr; }

    std::uint64_t instsFromTC() const { return fromTC_.value(); }
    std::uint64_t instsFromIC() const { return fromIC_.value(); }
    std::uint64_t tcLineFetches() const { return tcLines_.value(); }
    std::uint64_t tcLineInsts() const { return tcLineInsts_.value(); }

    /** Mean instructions per fetched trace-cache line (Table 1). */
    double
    meanFetchedTraceSize() const
    {
        return ratio(tcLineInsts_.value(), tcLines_.value());
    }

    void dumpStats(StatDump &out) const;

    /** Attach an observability sink (null = off, the default). */
    void setObs(ObsSink *obs) { obs_ = obs; }

  private:
    /**
     * Peek the k-th not-yet-fetched committed instruction. The fast
     * path (already buffered) stays inline — this runs once per
     * fetched instruction plus once per cycle via streamEnded().
     */
    const DynInst *
    peek(std::size_t k)
    {
        if (k < buffered_)
            return &ring_[(head_ + k) & ringMask_];
        return peekSlow(k);
    }
    /** Functional-simulator read-ahead beyond the requested index. */
    static constexpr std::size_t peekAhead = 15;
    /** Advance the functional simulator until k is buffered (or EOF). */
    const DynInst *peekSlow(std::size_t k);
    void consume(std::size_t n);

    TimedInst *makeInst(const DynInst &dyn, Cycle now, bool from_tc,
                        std::uint64_t instance, std::uint64_t key, int slot,
                        int logical, const ChainProfile &profile);

    /**
     * Handle prediction for a delivered control transfer; sets the
     * prediction fields and returns true when it mispredicts (fetch
     * must gate).
     */
    bool predictBranch(TimedInst &ti, bool embedded_dir_valid,
                       bool embedded_dir);

    SimConfig cfg_;
    TraceCache &tc_;
    InstMemory &imem_;
    BranchPredictor &bpred_;
    Executor &exec_;
    TimedInstPool &pool_;
    /** Stamp memoized dispatch plans (off under disableDispatchPlans). */
    bool plansOn_ = true;

    /**
     * Committed-stream read-ahead: a power-of-two ring sized at
     * construction for the widest fetch plus peekAhead. buffered_
     * instructions start at head_; Executor::step() writes the next
     * one straight into the tail slot, and consume() advances head_.
     */
    std::vector<DynInst> ring_;
    std::size_t ringMask_ = 0;
    std::size_t head_ = 0;
    std::size_t buffered_ = 0;
    bool execDone_ = false;

    InstSeqNum gatingSeq_ = invalidSeqNum;
    Cycle resumeAt_ = 0;

    std::uint64_t nextInstance_ = 1;

    ObsSink *obs_ = nullptr;

    Counter fromTC_;
    Counter fromIC_;
    Counter tcLines_;
    Counter tcLineInsts_;
    Counter gates_;
};

} // namespace ctcp

#endif // CTCPSIM_CORE_FETCH_HH
