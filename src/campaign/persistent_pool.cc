#include "campaign/persistent_pool.hh"

#include "campaign/work_queue.hh"

namespace ctcp::campaign {

PersistentPool::PersistentPool(unsigned workers)
{
    const unsigned n = workers ? workers : hardwareWorkers();
    threads_.reserve(n);
    for (unsigned w = 0; w < n; ++w)
        threads_.emplace_back([this] { workerLoop(); });
}

PersistentPool::~PersistentPool()
{
    shutdown();
}

void
PersistentPool::workerLoop()
{
    while (true) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock,
                       [this] { return stopping_ || !tasks_.empty(); });
            if (tasks_.empty())
                return; // stopping_ and drained
            task = tasks_.front();
            tasks_.pop_front();
        }
        (*task.batch->body)(task.index);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (--task.batch->remaining == 0)
                task.batch->done.notify_all();
        }
    }
}

void
PersistentPool::run(std::size_t njobs,
                    const std::function<void(std::size_t)> &body)
{
    if (njobs == 0)
        return;

    Batch batch;
    batch.body = &body;
    batch.remaining = njobs;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (stopping_) {
            // Teardown fallback: run the batch inline rather than
            // queueing jobs no worker will ever pop.
            lock.unlock();
            for (std::size_t i = 0; i < njobs; ++i)
                body(i);
            return;
        }
        for (std::size_t i = 0; i < njobs; ++i)
            tasks_.push_back(Task{&batch, i});
    }
    wake_.notify_all();

    std::unique_lock<std::mutex> lock(mutex_);
    batch.done.wait(lock, [&batch] { return batch.remaining == 0; });
}

void
PersistentPool::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_ && threads_.empty())
            return;
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : threads_)
        if (t.joinable())
            t.join();
    threads_.clear();
}

} // namespace ctcp::campaign
