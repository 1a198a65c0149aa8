// Analytic FIFO-server model behind the device timing (paper Fig. 7).
//
// The replayer needs no event calendar: each request's completion time
// follows from its arrival, its service time and when the server next
// becomes free, so one running maximum replaces a queue of events.
#pragma once

#include <cstdint>

namespace phftl {

/// Simulated time in nanoseconds.
using SimTime = std::uint64_t;

/// Single-server FIFO resource with analytic waiting: a job arriving at
/// `arrival` with service time `service` begins at max(arrival, free_at).
/// Models a controller core, a DMA engine, or a flash die without needing
/// explicit queue events. Tracks busy time for utilization reporting.
class FifoServer {
 public:
  /// Returns the completion time of the job and advances the server state.
  SimTime serve(SimTime arrival, SimTime service) {
    const SimTime start = arrival > free_at_ ? arrival : free_at_;
    free_at_ = start + service;
    busy_time_ += service;
    ++jobs_;
    return free_at_;
  }

  /// Time at which the server next becomes idle.
  SimTime free_at() const { return free_at_; }

  /// Total busy time accumulated across all jobs.
  SimTime busy_time() const { return busy_time_; }
  std::uint64_t jobs() const { return jobs_; }

 private:
  SimTime free_at_ = 0;
  SimTime busy_time_ = 0;
  std::uint64_t jobs_ = 0;
};

}  // namespace phftl
