#include "assign/adaptive_steering.hh"

namespace ctcp {

namespace {

// Decision thresholds, in per-mille of the interval's attributed
// slot-cycles. Integer so every comparison is exact 64-bit arithmetic
// (DESIGN decision 9). wait_fwd share >= Hi: forwarding-bound, steer
// at issue time (clean phases) or with FDRT (redirect-heavy phases);
// in [Lo, Hi): FDRT; in [Min, Lo): Friendly; below Min: base.
constexpr std::uint64_t fwdHiPermille = 220;
constexpr std::uint64_t fwdLoPermille = 60;
constexpr std::uint64_t fwdMinPermille = 15;
/** Redirect share above which issue-time's extra stages hurt. */
constexpr std::uint64_t redirectHiPermille = 80;

} // namespace

AdaptiveSteeringController::AdaptiveSteeringController(
    const AssignConfig &cfg, const CycleAccounting &acct)
    : cfg_(cfg), acct_(acct), nextEval_(cfg.adaptiveInterval)
{}

bool
AdaptiveSteeringController::evaluate(Cycle now)
{
    nextEval_ += cfg_.adaptiveInterval;
    ++intervals_;
    // The interval that just ended ran under the current mode; charge
    // it before any switch below takes effect.
    ++perMode_[static_cast<unsigned>(mode_)];

    std::uint64_t delta[numSlotCats];
    std::uint64_t total = 0;
    for (unsigned k = 0; k < numSlotCats; ++k) {
        const std::uint64_t cur =
            acct_.machineSlots(static_cast<SlotCat>(k));
        delta[k] = cur - prev_[k];
        prev_[k] = cur;
        total += delta[k];
    }
    if (total == 0)
        return false;

    const std::uint64_t fwd =
        delta[static_cast<unsigned>(SlotCat::WaitFwd1)] +
        delta[static_cast<unsigned>(SlotCat::WaitFwd2)] +
        delta[static_cast<unsigned>(SlotCat::WaitFwd3)];
    const std::uint64_t redirect =
        delta[static_cast<unsigned>(SlotCat::FetchRedirect)];

    // Top-down ladder over integer per-mille shares: with >= at every
    // rung, an exact tie resolves to the earlier (more specialized)
    // rung, giving a deterministic total order over outcomes.
    AssignStrategy want;
    if (fwd * 1000 >= fwdHiPermille * total) {
        want = redirect * 1000 > redirectHiPermille * total
                   ? AssignStrategy::Fdrt
                   : AssignStrategy::IssueTime;
    } else if (fwd * 1000 >= fwdLoPermille * total) {
        want = AssignStrategy::Fdrt;
    } else if (fwd * 1000 >= fwdMinPermille * total) {
        want = AssignStrategy::Friendly;
    } else {
        want = AssignStrategy::BaseSlotOrder;
    }

    if (want == mode_) {
        pendingWins_ = 0;
        return false;
    }
    if (want == pending_ && pendingWins_ > 0)
        ++pendingWins_;
    else {
        pending_ = want;
        pendingWins_ = 1;
    }
    if (pendingWins_ < cfg_.adaptiveHysteresis)
        return false;

    mode_ = want;
    pendingWins_ = 0;
    ++switches_;
    trace_.emplace_back(now, want);
    return true;
}

AdaptivePolicy::AdaptivePolicy(const Interconnect &interconnect,
                               const AssignConfig &cfg)
    : friendly_(interconnect, cfg.friendlyMiddleBias),
      fdrt_(interconnect, cfg.fdrtPinning, cfg.fdrtChains)
{}

RetireAssignmentPolicy &
AdaptivePolicy::current()
{
    if (ctrl_ == nullptr)
        return base_;
    switch (ctrl_->mode()) {
      case AssignStrategy::Friendly:
        return friendly_;
      case AssignStrategy::Fdrt:
        return fdrt_;
      default:
        // BaseSlotOrder keeps fetch order; so does IssueTime mode,
        // where clusters are picked at issue by the steering logic.
        return base_;
    }
}

void
AdaptivePolicy::assign(TraceDraft &draft)
{
    RetireAssignmentPolicy &sub = current();
    sub.setObs(obs_);
    sub.setObsCycle(obsCycle_);
    sub.assign(draft);
}

void
AdaptivePolicy::noteCriticalForward(const TimedInst &consumer,
                                    TraceCache &tc)
{
    // Always feed FDRT so its chain state is warm when a phase switches
    // to it; delivery is deterministic simulation state in every mode.
    fdrt_.setObs(obs_);
    fdrt_.setObsCycle(obsCycle_);
    fdrt_.noteCriticalForward(consumer, tc);
}

} // namespace ctcp
