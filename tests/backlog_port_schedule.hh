/**
 * @file
 * The booking loop PortSchedule had before it became a ring of
 * per-cycle counts, kept as a test oracle: a backlog of (cycle, ports
 * booked) pairs that drops every booking before the requested cycle.
 * On requests in non-decreasing cycle order it never forgets a live
 * booking, so there the ring must return the same cycles. Out of
 * order it over-books (the defect the ring fixes), so it is no oracle
 * there.
 */

#ifndef CTCPSIM_TESTS_BACKLOG_PORT_SCHEDULE_HH
#define CTCPSIM_TESTS_BACKLOG_PORT_SCHEDULE_HH

#include <algorithm>
#include <deque>
#include <utility>

#include "common/types.hh"

namespace ctcp::test {

class BacklogPortSchedule
{
  public:
    explicit BacklogPortSchedule(unsigned ports_per_cycle)
        : ports_(ports_per_cycle)
    {}

    /** Earliest cycle >= @p now with a free port; books the port. */
    Cycle
    reserve(Cycle now)
    {
        // Drop bookings for cycles that have passed.
        while (!booked_.empty() && booked_.front().first < now)
            booked_.pop_front();

        Cycle candidate = now;
        while (true) {
            auto it = std::find_if(booked_.begin(), booked_.end(),
                [candidate](const auto &p) { return p.first == candidate; });
            if (it == booked_.end()) {
                booked_.emplace_back(candidate, 1u);
                return candidate;
            }
            if (it->second < ports_) {
                ++it->second;
                return candidate;
            }
            ++candidate;
        }
    }

  private:
    unsigned ports_;
    /** (cycle, ports already booked) for current and future cycles. */
    std::deque<std::pair<Cycle, unsigned>> booked_;
};

} // namespace ctcp::test

#endif // CTCPSIM_TESTS_BACKLOG_PORT_SCHEDULE_HH
