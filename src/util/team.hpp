// The host's threads: the process-wide fork-join team that runs window
// training, and run_grid, which runs a harness's experiment grid.
//
// PHFTL's Model Trainer runs on the host (paper §III-A), and a host has
// cores to spare. A training window splits into phases; a phase is a set of
// shards, fixed pieces of work that write disjoint memory, and it joins
// before the next phase starts. The team runs those phases: the calling
// thread claims shards like any member, so a phase never waits for a worker
// that is asleep — workers only take the shards the caller has not reached.
// Shards change which thread computes a value, never the value, so callers
// cut them where the float add order stays the scalar order (ml/gru.cpp);
// every output is then the same with any team size, including none.
//
// A phase runs inline, on the caller alone, when
//  * the team has no workers (one usable CPU),
//  * the caller is a job of a grid run on more than one thread (grid jobs
//    already use the CPUs; run_grid holds an InlineScope),
//  * another thread holds the team, or the caller is inside a phase,
//  * an InlineScope is active on the calling thread.
// Workers spin for the next phase only while a Lease is held (a training
// window is in progress) and block on a condition variable otherwise.
// The team holds no simulated state: a phase's inputs and outputs belong
// to its caller.
//
// A grid job is a whole run (one replay, seconds long) that shares nothing
// with the others, so run_grid's threads are started for one grid, claim
// jobs until none is left and exit; they never spin between phases as the
// team's workers do.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace phftl::util {

/// A harness's job count: `jobs` (its --jobs value), or one per usable
/// CPU (sched_getaffinity, as Team::global() counts) when 0.
unsigned resolve_jobs(unsigned jobs);

/// Threads run_grid(jobs, n, fn) runs on: min(resolve_jobs(jobs), n), at
/// least 1.
inline unsigned grid_threads(unsigned jobs, std::size_t n) {
  return static_cast<unsigned>(
      std::clamp<std::size_t>(n, 1, resolve_jobs(jobs)));
}

namespace detail {
void run_grid_jobs(unsigned threads, std::size_t n,
                   const std::function<void(std::size_t)>& job);
}  // namespace detail

/// fn(i) for every i in [0, n) on grid_threads(jobs, n) threads, which
/// claim indices from one counter; returns the results in index order,
/// whichever thread ran them. One thread is the caller itself, whose team
/// phases then run on the team; with more, every thread (the caller
/// included) holds an InlineScope while it runs jobs. If fn throws, the
/// lowest failing index's exception is rethrown once every index has run.
template <class Fn>
auto run_grid(unsigned jobs, std::size_t n, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  static_assert(!std::is_same_v<R, bool>,
                "std::vector<bool> packs results into shared words");
  std::vector<R> results(n);
  detail::run_grid_jobs(grid_threads(jobs, n), n,
                        [&](std::size_t i) { results[i] = fn(i); });
  return results;
}

/// While alive, every team phase started on this thread runs inline.
class InlineScope {
 public:
  InlineScope();
  ~InlineScope();
  InlineScope(const InlineScope&) = delete;
  InlineScope& operator=(const InlineScope&) = delete;
};

class Team {
 public:
  /// Spawns `workers` threads; the caller of a phase is one more member.
  explicit Team(unsigned workers);
  ~Team();
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  /// The process-wide team, created on first use: one worker per usable
  /// CPU (sched_getaffinity) beyond the caller's.
  static Team& global();

  unsigned workers() const { return static_cast<unsigned>(threads_.size()); }

  /// The calling thread's claim on a team for a stretch of phases (one
  /// training window). A lease that cannot claim the team under the
  /// inline rules above runs every phase inline with width 1. Leases nest
  /// on one thread; only the outermost releases the team.
  class Lease {
   public:
    /// A lease on the global team (not created when the caller must run
    /// inline anyway).
    Lease();
    explicit Lease(Team& team);
    ~Lease();
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    /// Threads that run this lease's phases: workers + 1, or 1 inline.
    std::size_t width() const { return width_; }

    /// fn(i) for every i in [0, n), each exactly once, on any member;
    /// returns when all have finished. An exception from fn is rethrown
    /// here after the join.
    template <class Fn>
    void run(std::size_t n, Fn&& fn) const {
      if (!team_ || n <= 1 || team_->in_phase_) {
        for (std::size_t i = 0; i < n; ++i) fn(i);
        return;
      }
      using F = std::remove_reference_t<Fn>;
      team_->run_phase(
          n, [](void* f, std::size_t i) { (*static_cast<F*>(f))(i); },
          const_cast<void*>(static_cast<const void*>(&fn)));
    }

   private:
    void claim(Team& team);

    Team* team_ = nullptr;  ///< null when inline
    bool owner_ = false;    ///< this lease claimed the team (outermost)
    std::size_t width_ = 1;
  };

  /// One phase under a temporary lease on this team.
  template <class Fn>
  void run(std::size_t n, Fn&& fn) {
    Lease(*this).run(n, std::forward<Fn>(fn));
  }

 private:
  using ShardFn = void (*)(void*, std::size_t);

  /// Publish a phase of n shards, claim shards until none is left, then
  /// wait for the ones workers claimed. Holder only.
  void run_phase(std::size_t n, ShardFn fn, void* ctx);
  /// Claim and run one shard of the current phase; false when none is left.
  bool run_one();
  void worker_loop();

  // The phase word: generation (high 32 bits), shard count (16) and next
  // unclaimed shard (16). A claim is a CAS on it, so it succeeds only in
  // the phase whose count it checked, and fn_/ctx_ (written before the
  // word is published) stay valid until every claimed shard is done.
  alignas(64) std::atomic<std::uint64_t> phase_{0};
  alignas(64) std::atomic<std::uint32_t> done_{0};
  alignas(64) std::atomic<bool> leased_{false};
  ShardFn fn_ = nullptr;
  void* ctx_ = nullptr;
  bool in_phase_ = false;  ///< holder only

  std::mutex mu_;  // guards holder_, stop_, error_; leased_ changes under it
  std::condition_variable cv_;
  std::thread::id holder_;
  bool stop_ = false;
  std::exception_ptr error_;
  std::vector<std::thread> threads_;  // last: joined before the state goes
};

}  // namespace phftl::util
