/**
 * @file
 * Cross-request workload setup cache for the ctcpd service.
 *
 * Building a workload's Program (code generation, data-image
 * construction) is pure and deterministic — builders seed their own
 * Rng locally, which is what the golden-stats contract already relies
 * on. A batch run pays that construction once per job; a service that
 * sees the same benchmarks in spec after spec should pay it once per
 * (benchmark, instructionLimit) key and hand each job a copy of the
 * cached image. The copy (not a shared pointer into the simulator)
 * preserves the campaign engine's isolation guarantee: jobs never
 * share mutable state.
 *
 * Bounded LRU: the full workload registry is small (~26 programs),
 * but instructionLimit is part of the key by contract, so unbounded
 * growth across many-budget campaigns is capped.
 *
 * Single-flight: concurrent misses on one key share one build. The
 * first caller builds outside the lock; later callers wait on its
 * shared future and count as hits. A failed build leaves nothing
 * cached and reaches every waiting caller as a std::invalid_argument
 * with the same message. The outcome is shared as a value, not as
 * one exception object rethrown on several threads.
 */

#ifndef CTCPSIM_SERVICE_WORKLOAD_CACHE_HH
#define CTCPSIM_SERVICE_WORKLOAD_CACHE_HH

#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "prog/program.hh"

namespace ctcp::service {

/** Thread-safe bounded LRU of built Programs. */
class WorkloadCache
{
  public:
    explicit WorkloadCache(std::size_t max_entries = 64)
        : maxEntries_(max_entries ? max_entries : 1)
    {}

    /**
     * The Program for @p benchmark under @p instructionLimit, built on
     * first use and cached after. The returned pointer stays valid
     * even if the entry is evicted (shared ownership); callers that
     * need a private copy (campaign jobs) copy the pointee.
     * @throws std::invalid_argument for an unknown benchmark — the
     *         same error (and message) a campaign builder raises, so
     *         cached and uncached failure reports match byte for byte
     */
    std::shared_ptr<const Program> get(const std::string &benchmark,
                                       std::uint64_t instructionLimit);

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::size_t entries = 0;
    };

    Stats stats() const;

  private:
    using ProgramPtr = std::shared_ptr<const Program>;

    struct Entry
    {
        std::string key;
        ProgramPtr program;
    };

    /** One build's outcome: the program, or why there is none. */
    struct Built
    {
        ProgramPtr ok;
        std::string error;

        /** @throws std::invalid_argument carrying error, when !ok */
        ProgramPtr program() const;
    };

    mutable std::mutex mutex_;
    /** Front = most recently used. */
    std::list<Entry> entries_;
    /** Builds in progress, by key; erased when the build settles. */
    std::map<std::string, std::shared_future<Built>> inFlight_;
    std::size_t maxEntries_;
    Stats stats_;
};

} // namespace ctcp::service

#endif // CTCPSIM_SERVICE_WORKLOAD_CACHE_HH
