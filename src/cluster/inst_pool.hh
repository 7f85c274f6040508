/**
 * @file
 * Arena-backed pool of TimedInst records.
 *
 * The fetch engine allocates one TimedInst per simulated instruction
 * and the retire stage frees it a few hundred cycles later — a
 * perfectly LIFO-ish churn that used to hit malloc/free once per
 * instruction. The pool carves blocks of hot records plus their
 * parallel cold array out of a per-run Arena, placement-constructs each
 * slot exactly once, and recycles freed slots through an intrusive free
 * list threaded via schedNext (unused while an instruction is free).
 *
 * Recycling preserves two expensive-to-rebuild resources: the cold
 * pointer wired at carve time, and the waiters SmallVec's heap spill
 * buffer (if it ever grew past inline capacity, the capacity survives
 * reinitialisation, so steady state performs no allocation at all).
 *
 * The pool must be destroyed (or clear() called) before the Arena it
 * draws from is reset: the destructor runs ~TimedInst on every carved
 * slot to release any SmallVec spill buffers.
 */

#ifndef CTCPSIM_CLUSTER_INST_POOL_HH
#define CTCPSIM_CLUSTER_INST_POOL_HH

#include <cstddef>
#include <new>
#include <utility>
#include <vector>

#include "cluster/timed_inst.hh"
#include "common/arena.hh"

namespace ctcp {

/** Fixed-block TimedInst allocator over an Arena. */
class TimedInstPool
{
  public:
    /** @param arena backing storage; must outlive the pool. */
    explicit TimedInstPool(Arena &arena) : arena_(arena) {}

    TimedInstPool(const TimedInstPool &) = delete;
    TimedInstPool &operator=(const TimedInstPool &) = delete;

    ~TimedInstPool() { clear(); }

    /** A freshly default-initialised instruction (cold slot wired). */
    TimedInst *
    acquire()
    {
        if (free_ == nullptr)
            carveBlock();
        TimedInst *inst = free_;
        free_ = inst->schedNext;
        // Reinitialise in place: one store over the trivially copyable
        // state, while the slot's cold pointer and the waiters vector's
        // grown capacity survive reuse.
        static constexpr TimedInstState fresh{};
        static_cast<TimedInstState &>(*inst) = fresh;
        inst->waiters.clear();
        *inst->coldSlot = TimedInstCold{};
        return inst;
    }

    /** Return @p inst to the free list. No pointers to it may remain. */
    void
    release(TimedInst *inst)
    {
        inst->schedNext = free_;
        free_ = inst;
    }

    /**
     * Destroy every carved slot and drop all block references. Call
     * before resetting the backing Arena; every instruction must
     * already be released (or at least no longer referenced).
     */
    void
    clear()
    {
        for (const Block &block : blocks_) {
            for (std::size_t i = 0; i < blockSize; ++i)
                block.hot[i].~TimedInst();
        }
        blocks_.clear();
        free_ = nullptr;
    }

    /** Slots carved so far (live + free). */
    std::size_t capacity() const { return blocks_.size() * blockSize; }

  private:
    static constexpr std::size_t blockSize = 64;

    struct Block
    {
        TimedInst *hot = nullptr;
        TimedInstCold *cold = nullptr;
    };

    void
    carveBlock()
    {
        Block block;
        block.hot = arena_.allocate<TimedInst>(blockSize);
        block.cold = arena_.allocate<TimedInstCold>(blockSize);
        for (std::size_t i = 0; i < blockSize; ++i) {
            TimedInst *inst = new (&block.hot[i]) TimedInst{};
            inst->coldSlot = new (&block.cold[i]) TimedInstCold{};
            inst->schedNext = free_;
            free_ = inst;
        }
        blocks_.push_back(block);
    }

    Arena &arena_;
    TimedInst *free_ = nullptr;
    std::vector<Block> blocks_;
};

} // namespace ctcp

#endif // CTCPSIM_CLUSTER_INST_POOL_HH
