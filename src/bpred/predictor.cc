#include "bpred/predictor.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace ctcp {

BranchPredictor::BranchPredictor(const BranchPredictorConfig &cfg)
    : cfg_(cfg),
      gshare_(cfg.gshareEntries),
      bimodal_(cfg.bimodalEntries),
      chooser_(cfg.chooserEntries),
      btb_(cfg.btbEntries),
      ras_(cfg.rasEntries, 0)
{
    ctcp_assert(isPowerOfTwo(cfg.gshareEntries) &&
                isPowerOfTwo(cfg.bimodalEntries) &&
                isPowerOfTwo(cfg.chooserEntries),
                "predictor tables must be power-of-two sized");
    ctcp_assert(cfg.btbEntries % cfg.btbAssoc == 0,
                "BTB entries must divide evenly into ways");
    ctcp_assert(cfg.rasEntries > 0, "RAS needs at least one entry");
}

unsigned
BranchPredictor::gshareIndex(Addr pc) const
{
    const std::uint64_t hist_mask = (1ull << cfg_.historyBits) - 1;
    return static_cast<unsigned>((pc ^ (history_ & hist_mask)) &
                                 (cfg_.gshareEntries - 1));
}

unsigned
BranchPredictor::bimodalIndex(Addr pc) const
{
    return static_cast<unsigned>(pc & (cfg_.bimodalEntries - 1));
}

unsigned
BranchPredictor::chooserIndex(Addr pc) const
{
    return static_cast<unsigned>(pc & (cfg_.chooserEntries - 1));
}

void
BranchPredictor::btbInsert(Addr pc, Addr target)
{
    const unsigned sets = cfg_.btbEntries / cfg_.btbAssoc;
    const unsigned set = static_cast<unsigned>(pc) & (sets - 1);
    BtbEntry *base = &btb_[static_cast<std::size_t>(set) * cfg_.btbAssoc];
    BtbEntry *victim = &base[0];
    for (unsigned w = 0; w < cfg_.btbAssoc; ++w) {
        if (base[w].valid && base[w].pc == pc) { victim = &base[w]; break; }
        if (!base[w].valid) { victim = &base[w]; break; }
        if (base[w].lastUse < victim->lastUse)
            victim = &base[w];
    }
    victim->pc = pc;
    victim->target = target;
    victim->valid = true;
    victim->lastUse = ++btbClock_;
}

bool
BranchPredictor::peekDirection(Addr pc) const
{
    const bool g = gshare_[gshareIndex(pc)].taken();
    const bool b = bimodal_[bimodalIndex(pc)].taken();
    return chooser_[chooserIndex(pc)].taken() ? g : b;
}

void
BranchPredictor::pushRas(Addr return_pc)
{
    ras_[rasTop_] = return_pc;
    rasTop_ = (rasTop_ + 1) % ras_.size();
    if (rasDepth_ < ras_.size())
        ++rasDepth_;
}

std::pair<Addr, bool>
BranchPredictor::popRas()
{
    if (rasDepth_ == 0)
        return {0, false};
    rasTop_ = (rasTop_ + ras_.size() - 1) % ras_.size();
    --rasDepth_;
    return {ras_[rasTop_], true};
}

std::pair<Addr, bool>
BranchPredictor::peekBtb(Addr pc) const
{
    const unsigned sets = cfg_.btbEntries / cfg_.btbAssoc;
    const unsigned set = static_cast<unsigned>(pc) & (sets - 1);
    const BtbEntry *base = &btb_[static_cast<std::size_t>(set) * cfg_.btbAssoc];
    for (unsigned w = 0; w < cfg_.btbAssoc; ++w)
        if (base[w].valid && base[w].pc == pc)
            return {base[w].target, true};
    return {0, false};
}

void
BranchPredictor::update(Addr pc, bool is_cond, bool taken, Addr target)
{
    if (is_cond) {
        TwoBitCounter &g = gshare_[gshareIndex(pc)];
        TwoBitCounter &b = bimodal_[bimodalIndex(pc)];
        TwoBitCounter &c = chooser_[chooserIndex(pc)];
        const bool g_correct = g.taken() == taken;
        const bool b_correct = b.taken() == taken;
        if (g_correct != b_correct)
            c.update(g_correct);
        g.update(taken);
        b.update(taken);
        history_ = (history_ << 1) | (taken ? 1u : 0u);
    }
    if (taken)
        btbInsert(pc, target);
}

} // namespace ctcp
