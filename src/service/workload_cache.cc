#include "service/workload_cache.hh"

#include <stdexcept>

#include "workload/workload.hh"

namespace ctcp::service {

std::shared_ptr<const Program>
WorkloadCache::get(const std::string &benchmark,
                   std::uint64_t instructionLimit)
{
    const std::string key =
        benchmark + "@" + std::to_string(instructionLimit);
    std::promise<Built> building;
    std::shared_future<Built> pending;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->key == key) {
                ++stats_.hits;
                entries_.splice(entries_.begin(), entries_, it);
                return entries_.front().program;
            }
        }
        const auto flight = inFlight_.find(key);
        if (flight != inFlight_.end()) {
            ++stats_.hits;
            pending = flight->second;
        } else {
            ++stats_.misses;
            inFlight_.emplace(key, building.get_future().share());
        }
    }
    if (pending.valid())
        return pending.get().program();

    // Build outside the lock: a slow builder must not stall every
    // worker that happens to hit a different benchmark.
    Built built;
    try {
        if (!workloads::exists(benchmark))
            throw std::invalid_argument("unknown benchmark '" +
                                        benchmark + "'");
        built.ok =
            std::make_shared<const Program>(workloads::build(benchmark));
    } catch (const std::exception &e) {
        built.error = e.what();
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inFlight_.erase(key);
        if (built.ok) {
            entries_.push_front(Entry{key, built.ok});
            while (entries_.size() > maxEntries_) {
                entries_.pop_back();
                ++stats_.evictions;
            }
        }
    }
    building.set_value(built);
    return built.program();
}

std::shared_ptr<const Program>
WorkloadCache::Built::program() const
{
    if (!ok)
        throw std::invalid_argument(error);
    return ok;
}

WorkloadCache::Stats
WorkloadCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats out = stats_;
    out.entries = entries_.size();
    return out;
}

} // namespace ctcp::service
