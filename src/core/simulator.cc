#include "core/simulator.hh"

#include <algorithm>
#include <chrono>

#include "assign/adaptive_steering.hh"
#include "assign/base_assignment.hh"
#include "assign/fdrt_assignment.hh"
#include "assign/friendly_assignment.hh"
#include "common/logging.hh"
#include "common/sim_error.hh"
#include "obs/accounting.hh"
#include "obs/sink.hh"
#include "obs/writers.hh"
#include "stats/interval.hh"
#include "verify/invariant_checker.hh"

namespace ctcp {

namespace {

// Event construction is kept out of line so the pipeline loops carry
// only the `obs_ && enabled()` branch; inlining these bodies measurably
// slows the untraced simulator (register pressure + code bloat in the
// per-instruction loops).

[[gnu::noinline]] [[gnu::cold]] void
recordInstEvent(ObsSink &obs, ObsKind kind, Cycle cycle,
                const TimedInst &inst)
{
    ObsEvent ev;
    ev.cycle = cycle;
    ev.kind = kind;
    ev.seq = inst.dyn.seq;
    ev.pc = inst.dyn.pc;
    ev.cluster = inst.cluster;
    obs.record(ev);
}

[[gnu::noinline]] [[gnu::cold]] void
recordFlushEvent(ObsSink &obs, Cycle cycle, const TimedInst &inst,
                 Cycle resume)
{
    ObsEvent ev;
    ev.cycle = cycle;
    ev.kind = ObsKind::Flush;
    ev.seq = inst.dyn.seq;
    ev.pc = inst.dyn.pc;
    ev.cluster = inst.cluster;
    ev.arg0 = static_cast<std::int64_t>(resume);
    obs.record(ev);
}

[[gnu::noinline]] [[gnu::cold]] void
recordForwardEvent(ObsSink &obs, Cycle cycle, const TimedInst &inst,
                   unsigned hops, ClusterId producer)
{
    ObsEvent ev;
    ev.cycle = cycle;
    ev.kind = ObsKind::Forward;
    ev.seq = inst.dyn.seq;
    ev.pc = inst.dyn.pc;
    ev.cluster = inst.cluster;
    ev.arg0 = hops;
    ev.arg1 = producer;
    obs.record(ev);
}

} // namespace

CtcpSimulator::CtcpSimulator(const SimConfig &cfg, const Program &program,
                             Arena *arena)
    : cfg_(cfg), program_(program),
      ownedArena_(arena != nullptr ? nullptr : std::make_unique<Arena>()),
      pool_(arena != nullptr ? *arena : *ownedArena_),
      exec_(program), dmem_(cfg.mem),
      imem_(cfg.frontEnd, dmem_), interconnect_(cfg.cluster),
      rob_(cfg.core.robEntries),
      renameTable_(numArchRegs, nullptr)
{
    cfg_.validate();
    bpred_ = std::make_unique<BranchPredictor>(cfg_.bpred);
    tc_ = std::make_unique<TraceCache>(cfg_.frontEnd.traceCache);

    for (unsigned c = 0; c < cfg_.cluster.numClusters; ++c)
        clusters_.emplace_back(static_cast<ClusterId>(c), cfg_.cluster);

    switch (cfg_.assign.strategy) {
      case AssignStrategy::BaseSlotOrder:
        policy_ = std::make_unique<BaseSlotOrderAssignment>();
        break;
      case AssignStrategy::Friendly:
        policy_ = std::make_unique<FriendlyAssignment>(
            interconnect_, cfg_.assign.friendlyMiddleBias);
        break;
      case AssignStrategy::Fdrt: {
        auto fdrt = std::make_unique<FdrtAssignment>(
            interconnect_, cfg_.assign.fdrtPinning,
            cfg_.assign.fdrtChains);
        fdrt_ = fdrt.get();
        policy_ = std::move(fdrt);
        break;
      }
      case AssignStrategy::IssueTime:
        // The fill unit leaves traces in fetch order; clusters are
        // chosen at issue by the steering logic, whose analysis and
        // routing latency shows up as extra front-end stages.
        policy_ = std::make_unique<BaseSlotOrderAssignment>();
        steering_ = std::make_unique<IssueTimeSteering>(
            interconnect_, cfg_.cluster.clusterWidth);
        issueExtraStages_ = cfg_.assign.issueTimeLatency;
        routeToIssueQueue_ = true;
        break;
      case AssignStrategy::Adaptive: {
        // Facade over the retire-time policies plus the steering logic
        // for issue-time phases. The chooser (built with the cycle
        // accounting in setupObservability) starts in base mode, so
        // rename routes to the cluster queues until the first switch.
        auto adaptive = std::make_unique<AdaptivePolicy>(interconnect_,
                                                         cfg_.assign);
        adaptivePolicy_ = adaptive.get();
        policy_ = std::move(adaptive);
        steering_ = std::make_unique<IssueTimeSteering>(
            interconnect_, cfg_.cluster.clusterWidth);
        break;
      }
    }

    clusterQueues_.resize(cfg_.cluster.numClusters);
    if (interconnect_.isBus())
        busSchedule_ = std::make_unique<InOrderPortSchedule>(
            cfg_.cluster.busBandwidth);

    fillUnit_ = std::make_unique<FillUnit>(
        cfg_.frontEnd.traceCache, cfg_.cluster.numClusters,
        cfg_.cluster.clusterWidth, *tc_, *policy_);
    fetch_ = std::make_unique<FetchEngine>(cfg_, *tc_, imem_, *bpred_,
                                           exec_, pool_);

    if (cfg_.checkLevel > 0) {
        checker_ = std::make_unique<verify::InvariantChecker>(
            cfg_.checkLevel, cfg_.cluster.numClusters,
            cfg_.cluster.clusterWidth);
        // Also validate every trace line's slot permutation as the
        // fill unit constructs it.
        fillUnit_->setObserver(checker_.get());
    }

    setupObservability();
}

void
CtcpSimulator::setupObservability()
{
    const ObsConfig &oc = cfg_.obs;
    if (oc.tracingEnabled()) {
        obs_ = std::make_unique<ObsSink>();
        obs_->setFilter(ObsSink::parseFilter(oc.traceFilter));
        if (!oc.traceEventsPath.empty())
            obs_->addWriter(
                std::make_unique<ChromeTraceWriter>(oc.traceEventsPath));
        if (!oc.traceTextPath.empty())
            obs_->addWriter(
                std::make_unique<ObsTextWriter>(oc.traceTextPath));

        ObsSink *sink = obs_.get();
        fetch_->setObs(sink);
        tc_->setObs(sink);
        fillUnit_->setObs(sink);
        policy_->setObs(sink);
        dmem_.setObs(sink);
        for (Cluster &cluster : clusters_)
            cluster.setObs(sink);
    }
    // The adaptive chooser feeds on the slot taxonomy, so strategy
    // Adaptive runs the accounting layer even when no export was
    // requested (the export itself stays gated on oc.accounting).
    if (oc.accounting ||
        cfg_.assign.strategy == AssignStrategy::Adaptive) {
        acct_ = std::make_unique<CycleAccounting>(
            cfg_.cluster.numClusters, cfg_.cluster.clusterWidth,
            interconnect_);
        fwdMatrix_ = acct_->forwardMatrixData();
        fwdMatrixCols_ = acct_->numClusters();
        for (Cluster &cluster : clusters_)
            cluster.setAccounting(acct_.get());
    }
    if (adaptivePolicy_ != nullptr) {
        adaptive_ = std::make_unique<AdaptiveSteeringController>(
            cfg_.assign, *acct_);
        adaptivePolicy_->setController(adaptive_.get());
    }
    if (oc.intervalEnabled()) {
        interval_ = std::make_unique<IntervalRecorder>(oc.intervalCycles);
        interval_->addRate("ipc",
            [this] { return static_cast<double>(retired_); });
        interval_->addRatio("tc_hit_rate",
            [this] { return static_cast<double>(tc_->hits()); },
            [this] {
                return static_cast<double>(tc_->hits() + tc_->misses());
            });
        interval_->addRatio("inter_cluster_fwd_per_instr",
            [this] { return static_cast<double>(fwdInterCluster_.value()); },
            [this] { return static_cast<double>(retired_); });
        for (std::size_t c = 0; c < clusters_.size(); ++c)
            interval_->addGauge(
                "cluster" + std::to_string(c) + "_occupancy",
                [this, c] {
                    return static_cast<double>(clusters_[c].occupancy());
                });
        if (acct_) {
            // Per-interval slot mix: each category's share of the
            // interval's attributed slot-cycles (ratios of deltas).
            for (unsigned k = 0; k < numSlotCats; ++k) {
                const SlotCat cat = static_cast<SlotCat>(k);
                interval_->addRatio(
                    std::string("slots_") + slotCatName(cat),
                    [this, cat] {
                        return static_cast<double>(
                            acct_->machineSlots(cat));
                    },
                    [this] {
                        return static_cast<double>(
                            acct_->machineSlotsTotal());
                    });
            }
        }
    }
}

CtcpSimulator::~CtcpSimulator() = default;

ClusterId
CtcpSimulator::slotCluster(const TimedInst &inst) const
{
    // Replay the memoized plan byte when one was stamped at fetch;
    // derive from the slot index otherwise.
    if (inst.plannedCluster != 0xff)
        return static_cast<ClusterId>(inst.plannedCluster);
    const int c = inst.slotIndex /
        static_cast<int>(cfg_.cluster.clusterWidth);
    ctcp_assert(c >= 0 && c < static_cast<int>(cfg_.cluster.numClusters),
                "slot %d maps to invalid cluster", inst.slotIndex);
    return static_cast<ClusterId>(c);
}

// ---------------------------------------------------------------------
// Operand readiness and criticality
// ---------------------------------------------------------------------

CtcpSimulator::Readiness
CtcpSimulator::operandReadiness(const TimedInst &inst) const
{
    const AblationConfig &ab = cfg_.ablation;
    Cycle eff[2] = {0, 0};
    bool forwarded[2] = {false, false};

    for (int i = 0; i < 2; ++i) {
        const OperandState &op = inst.ops[i];
        if (!op.valid)
            continue;
        if (op.fromRF) {
            eff[i] = op.rawReady;
            continue;
        }
        forwarded[i] = true;
        if (!op.producerComplete) {
            eff[i] = neverCycle;
            continue;
        }
        const bool zero_lat = ab.zeroAllForwardLatency ||
            (ab.zeroIntraTraceForwardLatency &&
             op.producerTraceInstance == inst.traceInstance) ||
            (ab.zeroInterTraceForwardLatency &&
             op.producerTraceInstance != inst.traceInstance);
        if (zero_lat) {
            eff[i] = op.rawReady;
        } else if (interconnect_.isBus() &&
                   op.producerCluster != inst.cluster) {
            // Bus: the broadcast slot + uniform bus latency, computed
            // when the producer completed.
            eff[i] = op.remoteReady;
        } else {
            eff[i] = op.rawReady + interconnect_.latency(op.producerCluster,
                                                         inst.cluster);
        }
    }

    Readiness r;
    const bool v0 = inst.ops[0].valid;
    const bool v1 = inst.ops[1].valid;
    if (v0 && v1) {
        if (eff[1] > eff[0]) {
            r.critical = 1;
        } else if (eff[0] > eff[1]) {
            r.critical = 0;
        } else {
            // Tie: a forwarded input is "more critical" than a
            // register-file read; among equals prefer RS1.
            r.critical = (forwarded[1] && !forwarded[0]) ? 1 : 0;
        }
    } else if (v0) {
        r.critical = 0;
    } else if (v1) {
        r.critical = 1;
    }

    if (r.critical >= 0 && ab.zeroCriticalForwardLatency &&
        forwarded[r.critical] &&
        inst.ops[r.critical].producerComplete) {
        // Figure 5 "No Crit Fwd Lat": only the last-arriving forwarded
        // value is delivered with zero forwarding latency.
        eff[r.critical] = inst.ops[r.critical].rawReady;
    }

    r.ready = 0;
    if (v0)
        r.ready = std::max(r.ready, eff[0]);
    if (v1)
        r.ready = std::max(r.ready, eff[1]);
    return r;
}

void
CtcpSimulator::recordCriticality(TimedInst &inst)
{
    const Readiness r = operandReadiness(inst);
    TimedInstCold &cold = inst.cold();
    cold.criticalSrc = 0;
    cold.criticalForwarded = false;
    cold.criticalInterTrace = false;
    cold.criticalDistance = 0;
    if (r.critical < 0)
        return;
    const OperandState &op = inst.ops[r.critical];
    if (op.fromRF)
        return;   // criticalSrc stays 0 (register file)
    cold.criticalSrc = r.critical + 1;
    cold.criticalForwarded = true;
    cold.criticalInterTrace =
        op.producerTraceInstance != inst.traceInstance;
    cold.criticalDistance = interconnect_.distance(op.producerCluster,
                                                   inst.cluster);
    cold.criticalProducerPc = op.producerPc;
    cold.criticalProducerProfile = op.producerProfile;
    cold.criticalProducerCluster = op.producerCluster;
    cold.criticalProducerTraceKey = op.producerTraceKey;
}

void
CtcpSimulator::cacheReadiness(TimedInst &inst)
{
    if (inst.pendingProducers > 0) {
        inst.readyAt = neverCycle;
        // Park-time snapshot of the worst incomplete producer's hop
        // distance: the attribution walk charges parked instructions
        // from this byte every cycle instead of chasing producers.
        if (acct_)
            inst.stallHops =
                static_cast<std::uint8_t>(acct_->waitingHops(inst));
        return;
    }
    const Readiness r = operandReadiness(inst);
    inst.readyAt = r.ready;
    if (!acct_)
        return;
    // Cache the critical operand's hop distance so the dispatch walk
    // can charge a stalled slot to wait_intra / wait_fwd<hops> with a
    // single byte read instead of re-deriving readiness.
    inst.stallHops = 0;
    if (r.critical < 0)
        return;
    const OperandState &op = inst.ops[r.critical];
    if (op.fromRF || op.producerCluster == invalidCluster ||
        inst.cluster == invalidCluster)
        return;
    inst.stallHops = static_cast<std::uint8_t>(
        interconnect_.distance(op.producerCluster, inst.cluster));
}

CycleAccounting::FetchState
CtcpSimulator::fetchStarvation() const
{
    if (!fetchQueue_.empty())
        return CycleAccounting::FetchState::Flowing;
    if (fetch_->gatedByRedirect(cycle_))
        return CycleAccounting::FetchState::Redirect;
    if (fetch_->streamDrained())
        return CycleAccounting::FetchState::Flowing;   // drain, not a stall
    return CycleAccounting::FetchState::TcMiss;
}

// ---------------------------------------------------------------------
// Dispatch hooks
// ---------------------------------------------------------------------

bool
CtcpSimulator::readyToDispatch(const TimedInst &inst, Cycle now_cycle)
{
    // Operand readiness is pre-checked by the cluster scheduler against
    // the cached TimedInst::readyAt; only the memory-ordering
    // constraints remain. No speculative disambiguation (Table 7): a
    // load waits until the addresses of all older stores are resolved.
    if (inst.dyn.isLoadOp()) {
        if (!storeWindow_.olderStoresDispatched(inst))
            return false;
        if (dmem_.loadQueueFull(now_cycle))
            return false;
    }
    return true;
}

Cycle
CtcpSimulator::executeInst(TimedInst &inst, Cycle now_cycle)
{
    recordCriticality(inst);
    profiler_.onExecute(inst);
    if (inst.cold().criticalForwarded && inst.cold().criticalInterTrace)
        policy_->noteCriticalForward(inst, *tc_);

    // Count forwarded (bypassed) operand deliveries and emit one
    // Forward event per bypass, with the interconnect hop count.
    for (int i = 0; i < 2; ++i) {
        const OperandState &op = inst.ops[i];
        if (!op.valid || op.fromRF)
            continue;
        ++fwdTotal_;
        // distance() == 0 iff same cluster in every topology, so the
        // counter needs only the comparison; the hop count itself is
        // computed on the traced path.
        if (op.producerCluster != inst.cluster)
            ++fwdInterCluster_;
        if (fwdMatrix_ != nullptr)
            ++fwdMatrix_[static_cast<unsigned>(op.producerCluster) *
                             fwdMatrixCols_ +
                         static_cast<unsigned>(inst.cluster)];
        if (obs_ && obs_->enabled(ObsKind::Forward))
            recordForwardEvent(*obs_, now_cycle, inst,
                               interconnect_.distance(op.producerCluster,
                                                      inst.cluster),
                               op.producerCluster);
    }

    Cycle complete = now_cycle + inst.dyn.info().execLatency;
    if (inst.dyn.isLoadOp()) {
        if (const TimedInst *st = storeWindow_.forwardingStore(inst)) {
            // In-flight store-to-load forwarding: one extra cycle past
            // the store's address/data availability.
            complete = std::max(complete, st->completeAt + 1);
        } else {
            complete = dmem_.load(inst.dyn.effAddr, complete).ready;
        }
    }
    return complete;
}

// ---------------------------------------------------------------------
// Pipeline stages (one call each per cycle)
// ---------------------------------------------------------------------

void
CtcpSimulator::doCompletions()
{
    // Pop the cycle's due completions as one batch, then handle it.
    // Completing an instruction never schedules another completion, so
    // off the bus this is the heap's own order. The bus grants its
    // broadcast slots in completion order, so there the batch is
    // sorted oldest first (lowest sequence number), not left in the
    // heap's tie order.
    dueScratch_.clear();
    while (!completions_.empty() &&
           completions_.top().completeAt <= cycle_) {
        dueScratch_.push_back(completions_.top());
        completions_.pop();
    }
    if (busSchedule_)
        std::sort(dueScratch_.begin(), dueScratch_.end(),
                  [](const PendingComplete &a, const PendingComplete &b) {
                      if (a.completeAt != b.completeAt)
                          return a.completeAt < b.completeAt;
                      return a.inst->dyn.seq < b.inst->dyn.seq;
                  });
    for (const PendingComplete &due : dueScratch_) {
        TimedInst *inst = due.inst;
        inst->completed = true;
        if (obs_ && obs_->enabled(ObsKind::Complete))
            recordInstEvent(*obs_, ObsKind::Complete, cycle_, *inst);
        if (interconnect_.isBus() && inst->dyn.hasDst()) {
            // Reserve a broadcast slot on the shared result bus.
            const Cycle slot = busSchedule_->reserve(inst->completeAt);
            inst->busReadyAt = slot + cfg_.cluster.busLatency;
        }
        // Wake consumers whose last outstanding producer this was:
        // their operands are final, so the cached readiness becomes
        // exact and they move onto their cluster's schedulable list.
        inst->pushCompletion([this](TimedInst *w) {
            if (!w->issued)
                return;   // readiness is computed at issue instead
            cacheReadiness(*w);
            clusters_[static_cast<std::size_t>(w->cluster)].wake(w);
        });

        if (inst->dyn.isBranchOp()) {
            // Resolution (redirect timing) happens here; predictor
            // training is deferred to in-order retirement so that the
            // global-history register sees branches in program order
            // regardless of completion order.
            if (inst->dyn.isCondBranch()) {
                ++condResolved_;
                if (inst->mispredicted)
                    ++condMispredicted_;
            } else if (inst->dyn.isIndirectOp()) {
                ++indirectResolved_;
                if (inst->mispredicted)
                    ++indirectMispredicted_;
            }
            if (inst->mispredicted) {
                fetch_->resolveGate(inst->dyn.seq, cycle_ + 1);
                if (obs_ && obs_->enabled(ObsKind::Flush))
                    recordFlushEvent(*obs_, cycle_, *inst, cycle_ + 1);
            }
        }
    }
}

void
CtcpSimulator::doRetire()
{
    if (faultStallRetire_)
        return;   // injected retirement stall (watchdog tests)
    for (unsigned n = 0; n < cfg_.core.retireWidth && !rob_.empty(); ++n) {
        TimedInst *head = rob_.front();
        if (!head->completed)
            break;
        if (head->dyn.isStoreOp()) {
            if (!dmem_.store(head->dyn.effAddr, cycle_)) {
                ++storeRetireStalls_;
                break;   // store buffer full: retirement stalls
            }
        }

        if (head->dyn.isBranchOp())
            bpred_->update(head->dyn.pc, head->dyn.isCondBranch(),
                           head->dyn.taken, head->dyn.targetPc);

        if (obs_ && obs_->enabled(ObsKind::Retire))
            recordInstEvent(*obs_, ObsKind::Retire, cycle_, *head);

        fillUnit_->retire(*head, cycle_);
        profiler_.onRetire(*head);

        if (head->dyn.hasDst() &&
            renameTable_[head->dyn.dst] == head) {
            renameTable_[head->dyn.dst] = nullptr;
        }
        storeWindow_.retire(head);

        ++retired_;
        rob_.popFront();
        // Recycle the slot. Safe: the instruction has completed (its
        // completion push cleared every waiter registration), the
        // rename table no longer points at it, and consumers only
        // dereference producerPtr while producerComplete is false.
        pool_.release(head);
    }
}

void
CtcpSimulator::doDispatch()
{
    const DispatchClient client{*this};
    for (Cluster &cluster : clusters_) {
        dispatchScratch_.clear();
        cluster.dispatch(cycle_, client, dispatchScratch_);
        for (TimedInst *inst : dispatchScratch_)
            completions_.push({inst->completeAt, inst});
    }
}

void
CtcpSimulator::doIssue()
{
    if (steering_ && !issueQueue_.empty()) {
        // Issue-time steering: the steering logic examines the whole
        // issue buffer (one machine width of instructions) in
        // parallel, so a blocked instruction does not prevent younger
        // ones from being routed to other clusters this cycle.
        //
        // Issued entries are null-marked and the queue compacted once
        // at the end of the cycle, instead of paying an O(n) erase per
        // issued instruction. The walk visits the same instructions in
        // the same order as erase-as-you-go: `failed` counts the
        // entries left buffered (what `index` used to count) and the
        // cursor position is always failed + issued.
        steering_->newCycle(cycle_);
        unsigned issued = 0;
        std::size_t failed = 0;
        std::size_t pos = 0;
        // Station kinds already reprobed for rs-full attribution since
        // the last successful issue. Station occupancy and write ports
        // only change when an issue lands, so a repeat stall of the
        // same station class cannot yield new rs-full information —
        // noteRsFull() is an idempotent OR, making the skip exact.
        unsigned rsProbedKinds = 0;
        while (pos < issueQueue_.size() &&
               failed < cfg_.core.issueWidth &&
               issued < cfg_.core.issueWidth) {
            TimedInst *inst = issueQueue_[pos];
            const Cycle issue_ready = inst->renameAt +
                cfg_.frontEnd.renameStages + issueExtraStages_;
            if (issue_ready > cycle_)
                break;   // younger entries are not ready either
            const ClusterId cluster = steering_->pick(*inst, clusters_);
            if (cluster == invalidCluster) {
                ++issueStalls_;
                if (acct_) {
                    const unsigned kind_bit = 1u << static_cast<unsigned>(
                        instStation(*inst));
                    if ((rsProbedKinds & kind_bit) == 0) {
                        rsProbedKinds |= kind_bit;
                        // Charge next cycle's empty slots to the
                        // clusters whose stations actually rejected
                        // this inst.
                        for (std::size_t c = 0; c < clusters_.size();
                             ++c)
                            if (!clusters_[c].canAccept(*inst, cycle_))
                                acct_->noteRsFull(
                                    static_cast<ClusterId>(c));
                    }
                }
                ++failed;
                ++pos;   // leave it buffered; examine the next slot
                continue;
            }
            inst->cluster = cluster;
            cacheReadiness(*inst);
            const bool ok =
                clusters_[static_cast<std::size_t>(cluster)].issue(inst,
                                                                   cycle_);
            ctcp_assert(ok, "steering picked a cluster that rejected");
            inst->issued = true;
            inst->issueAt = cycle_;
            if (obs_ && obs_->enabled(ObsKind::Issue))
                recordInstEvent(*obs_, ObsKind::Issue, cycle_, *inst);
            issueQueue_[pos] = nullptr;
            ++pos;
            ++issued;
            rsProbedKinds = 0;   // occupancy changed: memo is stale
        }
        if (issued > 0) {
            issueQueue_.erase(std::remove(issueQueue_.begin(),
                                          issueQueue_.end(), nullptr),
                              issueQueue_.end());
        }
    }

    // Slot-based modes: each cluster drains its own issue-buffer slice
    // independently, up to clusterWidth per cycle. Only the active
    // mode's structure ever holds instructions (an adaptive mode switch
    // moves them across), so in issue-time mode the cluster queues are
    // empty and this loop is a no-op.
    for (unsigned c = 0; c < cfg_.cluster.numClusters; ++c) {
        auto &queue = clusterQueues_[c];
        Cluster &cluster = clusters_[c];
        for (unsigned n = 0; n < cfg_.cluster.clusterWidth; ++n) {
            if (queue.empty())
                break;
            TimedInst *inst = queue.front();
            const Cycle issue_ready = inst->renameAt +
                cfg_.frontEnd.renameStages + issueExtraStages_;
            if (issue_ready > cycle_)
                break;
            if (!cluster.canAccept(*inst, cycle_)) {
                ++issueStalls_;
                if (acct_)
                    acct_->noteRsFull(static_cast<ClusterId>(c));
                break;   // reservation station full or out of ports
            }
            inst->cluster = static_cast<ClusterId>(c);
            cacheReadiness(*inst);
            const bool ok = cluster.issue(inst, cycle_);
            ctcp_assert(ok, "cluster rejected an issue it could accept");
            inst->issued = true;
            inst->issueAt = cycle_;
            if (obs_ && obs_->enabled(ObsKind::Issue))
                recordInstEvent(*obs_, ObsKind::Issue, cycle_, *inst);
            queue.pop_front();
        }
    }
}

void
CtcpSimulator::renameOperand(TimedInst &inst, int index, RegId reg)
{
    OperandState &op = inst.ops[index];
    if (reg == invalidReg || reg == zeroReg)
        return;   // not a real data input
    op.valid = true;
    TimedInst *producer = renameTable_[reg];
    if (producer == nullptr) {
        op.fromRF = true;
        op.rawReady = cycle_ +
            (cfg_.ablation.zeroRegisterFileLatency
                 ? 0 : cfg_.core.registerFileLatency);
        return;
    }
    op.fromRF = false;
    op.producerSeq = producer->dyn.seq;
    op.producerPc = producer->dyn.pc;
    op.producerTraceInstance = producer->traceInstance;
    op.producerTraceKey = producer->traceKey;
    op.producerProfile = producer->profile;
    op.producerPtr = producer;
    if (producer->completed) {
        op.producerComplete = true;
        op.rawReady = producer->completeAt;
        op.remoteReady = producer->busReadyAt == neverCycle
            ? producer->completeAt : producer->busReadyAt;
        op.producerCluster = producer->cluster;
    } else {
        producer->waiters.push_back(&inst);
        ++inst.pendingProducers;
    }
}

void
CtcpSimulator::doRename()
{
    for (unsigned n = 0; n < cfg_.core.decodeWidth; ++n) {
        if (fetchQueue_.empty())
            break;
        FetchGroup &group = fetchQueue_.front();
        if (group.readyAt + cfg_.frontEnd.decodeStages > cycle_)
            break;
        if (rob_.full()) {
            ++robStalls_;
            if (acct_)
                acct_->noteRobFull();
            break;
        }

        TimedInst *inst = group.insts[frontGroupPos_];
        if (inst->dyn.info().readsSrc1)
            renameOperand(*inst, 0, inst->dyn.src1);
        if (inst->dyn.info().readsSrc2)
            renameOperand(*inst, 1, inst->dyn.src2);
        if (inst->dyn.hasDst())
            renameTable_[inst->dyn.dst] = inst;
        inst->renameAt = cycle_;
        if (obs_ && obs_->enabled(ObsKind::Rename))
            recordInstEvent(*obs_, ObsKind::Rename, cycle_, *inst);

        rob_.pushBack(inst);
        // Hand-off: the group entry is nulled so the fetch-queue no
        // longer claims the instruction (the invariant checker relies
        // on this to tell renamed-out entries apart).
        group.insts[frontGroupPos_] = nullptr;
        if (routeToIssueQueue_)
            issueQueue_.push_back(inst);
        else
            clusterQueues_[static_cast<std::size_t>(slotCluster(*inst))]
                .push_back(inst);
        if (inst->dyn.isStoreOp())
            storeWindow_.insert(inst);

        if (++frontGroupPos_ >= group.insts.size()) {
            fetchQueue_.pop_front();
            frontGroupPos_ = 0;
        }
    }
}

void
CtcpSimulator::doFetch()
{
    if (fetchQueue_.size() >= fetchQueueCap)
        return;
    if (auto group = fetch_->fetchCycle(cycle_))
        fetchQueue_.push_back(std::move(*group));
}

void
CtcpSimulator::applyAdaptiveMode()
{
    const bool steer = adaptive_->mode() == AssignStrategy::IssueTime;
    routeToIssueQueue_ = steer;
    issueExtraStages_ = steer ? cfg_.assign.issueTimeLatency : 0;

    // Move the renamed, unissued instructions into the new mode's
    // structure, so only one ever holds instructions. Left behind,
    // they wait while the other structure, served first by doIssue,
    // fills reservation stations with younger instructions that
    // depend on them: a deadlock.
    if (steer) {
        // Each cluster queue is in program order; the issue queue must
        // be in program order across all of them.
        for (auto &queue : clusterQueues_) {
            issueQueue_.insert(issueQueue_.end(), queue.begin(),
                               queue.end());
            queue.clear();
        }
        std::sort(issueQueue_.begin(), issueQueue_.end(),
                  [](const TimedInst *a, const TimedInst *b) {
                      return a->dyn.seq < b->dyn.seq;
                  });
    } else {
        for (TimedInst *inst : issueQueue_)
            clusterQueues_[static_cast<std::size_t>(slotCluster(*inst))]
                .push_back(inst);
        issueQueue_.clear();
    }
}

void
CtcpSimulator::step()
{
    // Adaptive phase evaluation happens at interval boundaries before
    // this cycle's accounting opens, so the chooser sees exactly the
    // slots attributed through the end of the previous cycle.
    if (adaptive_ && adaptive_->due(cycle_) &&
        adaptive_->evaluate(cycle_))
        applyAdaptiveMode();
    if (acct_)
        acct_->beginCycle(fetchStarvation());
    doCompletions();
    doRetire();
    doDispatch();
    doIssue();
    doRename();
    doFetch();
    ++cycle_;
    if (interval_ && interval_->due(cycle_))
        interval_->sample(cycle_);
    if (checker_)
        checker_->checkCycle(*this);
}

bool
CtcpSimulator::done()
{
    if (cfg_.instructionLimit > 0 && retired_ >= cfg_.instructionLimit)
        return true;
    return fetch_->streamEnded() && fetchQueue_.empty() && rob_.empty();
}

void
CtcpSimulator::dumpPipelineSnapshot(const char *reason)
{
    ctcp_warn("pipeline snapshot (%s): cycle %llu, %llu retired, "
              "rob %zu/%zu, fetch queue %zu groups, %zu in-flight "
              "stores, %zu pending completions", reason,
              static_cast<unsigned long long>(cycle_),
              static_cast<unsigned long long>(retired_),
              rob_.size(), rob_.capacity(), fetchQueue_.size(),
              storeWindow_.size(), completions_.size());
    if (!rob_.empty()) {
        const TimedInst &head = *rob_.front();
        ctcp_warn("  rob head: seq %llu pc %llu cluster %d "
                  "issued=%d dispatched=%d completed=%d readyAt=%llu "
                  "pendingProducers=%u",
                  static_cast<unsigned long long>(head.dyn.seq),
                  static_cast<unsigned long long>(head.dyn.pc),
                  static_cast<int>(head.cluster), head.issued ? 1 : 0,
                  head.dispatched ? 1 : 0, head.completed ? 1 : 0,
                  static_cast<unsigned long long>(head.readyAt),
                  head.pendingProducers);
    }
    for (std::size_t c = 0; c < clusters_.size(); ++c)
        ctcp_warn("  cluster %zu: occupancy %zu", c,
                  clusters_[c].occupancy());

    if (!obs_)
        return;
    // The same snapshot as events, so a --trace-events file of a hung
    // run ends with the pipeline state that stopped retiring.
    auto snap = [this](const char *label, std::int64_t occupancy,
                       std::int64_t detail) {
        ObsEvent ev;
        ev.cycle = cycle_;
        ev.kind = ObsKind::Snapshot;
        ev.label = label;
        ev.arg0 = occupancy;
        ev.arg1 = detail;
        obs_->record(ev);
    };
    snap("rob", static_cast<std::int64_t>(rob_.size()),
         rob_.empty() ? 0
                      : static_cast<std::int64_t>(rob_.front()->dyn.seq));
    snap("retired", static_cast<std::int64_t>(retired_), 0);
    snap("fetch-queue", static_cast<std::int64_t>(fetchQueue_.size()), 0);
    snap("store-window", static_cast<std::int64_t>(storeWindow_.size()),
         0);
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
        ObsEvent ev;
        ev.cycle = cycle_;
        ev.kind = ObsKind::Snapshot;
        ev.label = "cluster-occupancy";
        ev.cluster = static_cast<ClusterId>(c);
        ev.arg0 = static_cast<std::int64_t>(clusters_[c].occupancy());
        obs_->record(ev);
    }
}

SimResult
CtcpSimulator::run()
{
    const auto host_start = std::chrono::steady_clock::now();
    const Cycle watchdog = cfg_.watchdogCycles;
    std::uint64_t last_retired = retired_;
    Cycle last_progress = cycle_;
    while (!done()) {
        step();
        // Forward-progress watchdog: a pipeline that stops retiring is
        // wedged (a deadlocked dependence, a scheduler bug); abort with
        // a diagnosable snapshot instead of spinning forever.
        if (retired_ != last_retired) {
            last_retired = retired_;
            last_progress = cycle_;
        } else if (watchdog > 0 && cycle_ - last_progress >= watchdog) {
            dumpPipelineSnapshot("watchdog");
            throw SimError(ErrorCategory::Hang, detail::format(
                "no instruction retired for %llu cycles (cycle %llu, "
                "%llu retired)",
                static_cast<unsigned long long>(watchdog),
                static_cast<unsigned long long>(cycle_),
                static_cast<unsigned long long>(retired_)));
        }
        // Cooperative deadline, checked every 4096 cycles so the
        // steady-clock read stays off the per-cycle path.
        if (cfg_.deadlineSeconds > 0.0 && (cycle_ & 4095u) == 0) {
            const double elapsed = std::chrono::duration<double>(
                std::chrono::steady_clock::now() - host_start).count();
            if (elapsed > cfg_.deadlineSeconds)
                throw SimError(ErrorCategory::Timeout, detail::format(
                    "run exceeded its %.3fs deadline (%.3fs elapsed, "
                    "cycle %llu, %llu retired)", cfg_.deadlineSeconds,
                    elapsed, static_cast<unsigned long long>(cycle_),
                    static_cast<unsigned long long>(retired_)));
        }
    }
    hostSeconds_ = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - host_start).count();
    return assemble();
}

SimResult
CtcpSimulator::assemble()
{
    SimResult r;
    r.benchmark = program_.name();
    r.strategy = cfg_.assign.strategy == AssignStrategy::IssueTime
                     ? "issue-time"
                     : policy_->name();
    r.cycles = cycle_;
    r.instructions = retired_;

    r.pctFromTraceCache = profiler_.pctFromTraceCache();
    r.meanTraceSize = fetch_->meanFetchedTraceSize();

    r.pctCritFromRF = profiler_.pctCriticalFromRF();
    r.pctCritFromRs1 = profiler_.pctCriticalFromRs1();
    r.pctCritFromRs2 = profiler_.pctCriticalFromRs2();

    r.pctDepsCritical = profiler_.pctDepsCritical();
    r.pctCritInterTrace = profiler_.pctCriticalInterTrace();

    r.repeatRs1 = profiler_.repeatRs1();
    r.repeatRs2 = profiler_.repeatRs2();
    r.repeatRs1CritInter = profiler_.repeatRs1CritInter();
    r.repeatRs2CritInter = profiler_.repeatRs2CritInter();

    r.pctIntraClusterFwd = profiler_.pctIntraClusterForwarding();
    r.meanFwdDistance = profiler_.meanForwardingDistance();

    if (fdrt_) {
        const FdrtOptionStats &o = fdrt_->optionStats();
        const std::uint64_t total = o.total();
        r.pctOptionA = percent(o.optionA, total);
        r.pctOptionB = percent(o.optionB, total);
        r.pctOptionC = percent(o.optionC, total);
        r.pctOptionD = percent(o.optionD, total);
        r.pctOptionE = percent(o.optionE, total);
        r.pctSkipped = percent(o.skipped, total);
    }

    r.migrationAllPct = profiler_.migrationAllPct();
    r.migrationChainPct = profiler_.migrationChainPct();

    r.bpredAccuracy =
        100.0 - percent(condMispredicted_.value(), condResolved_.value());
    r.tcHitRate = percent(tc_->hits(), tc_->hits() + tc_->misses());
    r.mispredicts = condMispredicted_.value() + indirectMispredicted_.value();

    StatDump dump;
    dump.note("benchmark", r.benchmark);
    dump.note("strategy", r.strategy);
    dump.scalar("cycles", r.cycles);
    dump.scalar("instructions", r.instructions);
    dump.scalar("ipc", r.ipc());
    dump.scalar("cond_resolved", condResolved_.value());
    dump.scalar("cond_mispredicted", condMispredicted_.value());
    dump.scalar("indirect_resolved", indirectResolved_.value());
    dump.scalar("indirect_mispredicted", indirectMispredicted_.value());
    dump.scalar("rob_stalls", robStalls_.value());
    dump.scalar("issue_stalls", issueStalls_.value());
    dump.scalar("store_retire_stalls", storeRetireStalls_.value());
    for (std::size_t c = 0; c < clusters_.size(); ++c)
        dump.scalar("cluster" + std::to_string(c) + ".dispatched",
                    clusters_[c].dispatched());
    if (fdrt_) {
        dump.scalar("fdrt.option_a_pct", r.pctOptionA);
        dump.scalar("fdrt.option_b_pct", r.pctOptionB);
        dump.scalar("fdrt.option_c_pct", r.pctOptionC);
        dump.scalar("fdrt.option_d_pct", r.pctOptionD);
        dump.scalar("fdrt.option_e_pct", r.pctOptionE);
        dump.scalar("fdrt.skipped_pct", r.pctSkipped);
        dump.scalar("fdrt.promotions", fdrt_->promotions());
        dump.scalar("fdrt.pins", static_cast<std::uint64_t>(
            fdrt_->pinCount()));
    }
    dump.scalar("fwd.total", fwdTotal_.value());
    dump.scalar("fwd.inter_cluster", fwdInterCluster_.value());
    profiler_.dumpStats(dump);
    fetch_->dumpStats(dump);
    tc_->dumpStats(dump);
    fillUnit_->dumpStats(dump);
    bpred_->dumpStats(dump);
    dmem_.dumpStats(dump);

    // ---- Structured run telemetry (SimResult::metrics) -----------------
    r.metrics["fwd.total"] = static_cast<double>(fwdTotal_.value());
    r.metrics["fwd.inter_cluster"] =
        static_cast<double>(fwdInterCluster_.value());
    r.metrics["fwd.inter_cluster_per_instr"] =
        ratio(fwdInterCluster_.value(), retired_);
    r.metrics["fetch.from_tc"] =
        static_cast<double>(fetch_->instsFromTC());
    r.metrics["fetch.from_ic"] =
        static_cast<double>(fetch_->instsFromIC());
    r.metrics["tc.hits"] = static_cast<double>(tc_->hits());
    r.metrics["tc.misses"] = static_cast<double>(tc_->misses());
    r.metrics["fill.traces_built"] =
        static_cast<double>(fillUnit_->tracesBuilt());
    r.metrics["dmem.loads"] = static_cast<double>(dmem_.loads());
    r.metrics["dmem.stores"] = static_cast<double>(dmem_.stores());
    r.metrics["rob_stalls"] = static_cast<double>(robStalls_.value());
    r.metrics["issue_stalls"] = static_cast<double>(issueStalls_.value());
    for (std::size_t c = 0; c < clusters_.size(); ++c)
        r.metrics["cluster" + std::to_string(c) + ".dispatched"] =
            static_cast<double>(clusters_[c].dispatched());

    // ---- Cycle accounting (SimResult::accounting) ----------------------
    // Deliberately a separate map from r.metrics: the golden-stats
    // contract covers the default serialization, and accounting output
    // only appears under its own flag-gated key. Strategy Adaptive
    // runs the accounting layer internally as its feedback signal, so
    // the export keeps its own gate on the user-facing flag.
    if (acct_ && cfg_.obs.accounting) {
        acct_->exportTo(r.accounting);
        r.accounting["migration.revisits"] =
            static_cast<double>(profiler_.migrationRevisits());
        r.accounting["migration.migrated"] =
            static_cast<double>(profiler_.migrationMigrated());
        r.accounting["migration.chain_revisits"] =
            static_cast<double>(profiler_.chainRevisits());
        r.accounting["migration.chain_migrated"] =
            static_cast<double>(profiler_.chainMigrated());
        dump.scalar("acct.slots.total", acct_->machineSlotsTotal());
        for (unsigned k = 0; k < numSlotCats; ++k) {
            const SlotCat cat = static_cast<SlotCat>(k);
            dump.scalar(std::string("acct.slots.") + slotCatName(cat),
                        acct_->machineSlots(cat));
        }
    }

    // ---- Adaptive chooser telemetry (strategy Adaptive only) -----------
    if (adaptive_) {
        dump.note("adaptive.final_mode",
                  assignStrategyName(adaptive_->mode()));
        dump.scalar("adaptive.switches", adaptive_->switches());
        dump.scalar("adaptive.intervals", adaptive_->intervals());
        r.metrics["adaptive.switches"] =
            static_cast<double>(adaptive_->switches());
        r.metrics["adaptive.intervals"] =
            static_cast<double>(adaptive_->intervals());
        for (const AssignStrategy mode :
             {AssignStrategy::BaseSlotOrder, AssignStrategy::Friendly,
              AssignStrategy::Fdrt, AssignStrategy::IssueTime}) {
            const std::string key = std::string("adaptive.intervals.") +
                                    assignStrategyName(mode);
            dump.scalar(key, adaptive_->intervalsIn(mode));
            r.metrics[key] =
                static_cast<double>(adaptive_->intervalsIn(mode));
        }
        // The phase trajectory itself, one "cycle:mode" token per
        // switch — small (bounded by switches()) and deterministic.
        if (!adaptive_->phaseTrace().empty()) {
            std::string trace;
            for (const auto &step : adaptive_->phaseTrace()) {
                if (!trace.empty())
                    trace += ' ';
                trace += std::to_string(step.first) + ':' +
                         assignStrategyName(step.second);
            }
            dump.note("adaptive.trace", trace);
        }
    }

    // Host-side throughput. Non-deterministic by nature, so these are
    // excluded from the default JSON serialization (the golden-stats
    // contract) and only exported when explicitly requested.
    r.hostSeconds = hostSeconds_;
    r.metrics["host.seconds"] = hostSeconds_;
    r.metrics["host.sim_insts_per_sec"] = r.simInstsPerHostSecond();

    // ---- Observability wrap-up -----------------------------------------
    if (interval_) {
        // Trailing partial interval: a run of C cycles sampled every N
        // dumps exactly ceil(C / N) rows (sample() dedups the boundary
        // case where C is a multiple of N).
        interval_->sample(cycle_);
        interval_->writeFile(cfg_.obs.intervalPath);
        r.metrics["interval.rows"] =
            static_cast<double>(interval_->rows());
    }
    if (obs_) {
        obs_->finish();
        dump.scalar("obs.events", obs_->recorded());
        for (unsigned k = 0; k < numObsKinds; ++k) {
            const auto kind = static_cast<ObsKind>(k);
            r.metrics[std::string("obs.events.") + obsKindName(kind)] =
                static_cast<double>(obs_->recorded(kind));
        }
    }

    r.statsText = dump.render();
    return r;
}

} // namespace ctcp
