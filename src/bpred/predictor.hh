/**
 * @file
 * Branch direction and target prediction: a 16k-entry gshare/bimodal
 * hybrid (per Table 7), a 512-entry 4-way BTB, and a return-address
 * stack.
 *
 * The trace-cache fetch engine asks for several predictions per cycle
 * (one per embedded branch); this model serves them serially, which is
 * the standard idealization for multiple-branch prediction studies.
 */

#ifndef CTCPSIM_BPRED_PREDICTOR_HH
#define CTCPSIM_BPRED_PREDICTOR_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "config/sim_config.hh"
#include "common/types.hh"

namespace ctcp {

/** Saturating 2-bit counter helper. */
class TwoBitCounter
{
  public:
    explicit TwoBitCounter(std::uint8_t initial = 2) : value_(initial) {}

    bool taken() const { return value_ >= 2; }

    void
    update(bool outcome)
    {
        if (outcome && value_ < 3)
            ++value_;
        else if (!outcome && value_ > 0)
            --value_;
    }

    std::uint8_t raw() const { return value_; }

  private:
    std::uint8_t value_;
};

/** gshare/bimodal hybrid with chooser, BTB and RAS. */
class BranchPredictor
{
  public:
    explicit BranchPredictor(const BranchPredictorConfig &cfg);

    /**
     * Train on the resolved outcome.
     *
     * @param taken   actual direction
     * @param target  actual taken target
     */
    void update(Addr pc, bool is_cond, bool taken, Addr target);

    // The trace-cache fetch engine probes directions during
    // path-associative lookup without disturbing predictor state.

    /** Predicted direction for the conditional at @p pc (no update). */
    bool peekDirection(Addr pc) const;

    /** Push a return address (call fetched). */
    void pushRas(Addr return_pc);

    /**
     * Pop the return-address stack.
     * @return (target, valid); invalid when the stack is empty.
     */
    std::pair<Addr, bool> popRas();

    /** BTB target for @p pc. @return (target, valid). */
    std::pair<Addr, bool> peekBtb(Addr pc) const;

  private:
    unsigned gshareIndex(Addr pc) const;
    unsigned bimodalIndex(Addr pc) const;
    unsigned chooserIndex(Addr pc) const;

    BranchPredictorConfig cfg_;
    std::vector<TwoBitCounter> gshare_;
    std::vector<TwoBitCounter> bimodal_;
    /** Chooser: taken state means "trust gshare". */
    std::vector<TwoBitCounter> chooser_;
    std::uint64_t history_ = 0;

    struct BtbEntry
    {
        Addr pc = 0;
        Addr target = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };
    std::vector<BtbEntry> btb_;
    std::uint64_t btbClock_ = 0;

    std::vector<Addr> ras_;
    std::size_t rasTop_ = 0;
    std::size_t rasDepth_ = 0;

    void btbInsert(Addr pc, Addr target);
};

} // namespace ctcp

#endif // CTCPSIM_BPRED_PREDICTOR_HH
