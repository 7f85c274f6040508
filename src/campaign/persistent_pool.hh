/**
 * @file
 * Long-lived worker pool shared across campaigns.
 *
 * WorkStealingPool (work_queue.hh) spins up threads per runCampaign()
 * call and joins them at the end — the right shape for a batch process
 * that runs one campaign and exits. A service that accepts campaign
 * submissions over its lifetime needs the opposite: one set of worker
 * threads that outlives any single campaign, onto which concurrently
 * submitted campaigns enqueue their jobs. PersistentPool is that pool:
 * run() blocks the calling thread (a per-run dispatcher in ctcpd)
 * until its batch finishes, while the batch's jobs interleave with
 * other batches' jobs on the shared workers.
 *
 * Scheduling order across batches is nondeterministic, exactly like
 * the work-stealing pool's order within a batch — which is fine for
 * the same reason: the campaign layer writes every outcome into a
 * slot preassigned by submission index, so reports never depend on
 * execution order.
 */

#ifndef CTCPSIM_CAMPAIGN_PERSISTENT_POOL_HH
#define CTCPSIM_CAMPAIGN_PERSISTENT_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ctcp::campaign {

/**
 * Fixed set of worker threads executing indexed jobs from any number
 * of concurrent run() calls. Threads start in the constructor and are
 * joined by shutdown() (or the destructor).
 */
class PersistentPool
{
  public:
    /** @param workers thread count; 0 = one per hardware thread */
    explicit PersistentPool(unsigned workers = 0);
    ~PersistentPool();

    PersistentPool(const PersistentPool &) = delete;
    PersistentPool &operator=(const PersistentPool &) = delete;

    unsigned workers() const { return static_cast<unsigned>(threads_.size()); }

    /**
     * Run @p body(i) for every i in [0, njobs) on the pool's workers
     * and block until all have finished. Safe to call from multiple
     * threads at once; the batches' jobs interleave. @p body must not
     * throw (same contract as WorkStealingPool::run).
     *
     * After shutdown() the batch runs inline on the calling thread, so
     * a race between a late submission and service teardown degrades
     * to serial execution instead of hanging.
     */
    void run(std::size_t njobs, const std::function<void(std::size_t)> &body);

    /** Stop the workers once the queue drains, and join them. */
    void shutdown();

  private:
    /** One run() call: its body and completion accounting. */
    struct Batch
    {
        const std::function<void(std::size_t)> *body = nullptr;
        std::size_t remaining = 0;
        std::condition_variable done;
    };

    /** One queued job: which batch, which index. */
    struct Task
    {
        Batch *batch = nullptr;
        std::size_t index = 0;
    };

    void workerLoop();

    std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<Task> tasks_;
    bool stopping_ = false;
    std::vector<std::thread> threads_;
};

} // namespace ctcp::campaign

#endif // CTCPSIM_CAMPAIGN_PERSISTENT_POOL_HH
