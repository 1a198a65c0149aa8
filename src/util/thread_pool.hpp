// Fixed-size thread pool for embarrassingly parallel experiment grids.
//
// The suite benchmarks replay a (scheme × trace × config) grid of fully
// independent runs — each owns its FTL, FlashArray, RNG, and observability
// registry (docs/ARCHITECTURE.md "Threading model") — so the pool needs no
// work stealing, no task graph, and no shared mutable state beyond the
// queue itself. submit() returns a std::future; an exception thrown by a
// task is captured and rethrown at future.get(), so a failing run surfaces
// in the thread that scheduled it instead of terminating the process.
//
// Determinism contract: the pool schedules, it never reorders results —
// callers hold the futures in grid order and join them in grid order, so
// merged output is byte-identical to a serial run regardless of which
// worker finishes first (tests/test_runner.cpp proves this property).
//
// A pool of more than one thread already keeps the CPUs busy with grid
// jobs, so its workers run training phases inline (util/team.hpp).
#pragma once

#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/cli.hpp"
#include "util/team.hpp"

namespace phftl::util {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(unsigned num_threads) {
    if (num_threads == 0) num_threads = 1;
    workers_.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i)
      workers_.emplace_back([this, num_threads] {
        std::optional<InlineScope> grid_job;
        if (num_threads > 1) grid_job.emplace();
        worker_loop();
      });
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue (queued tasks still run), then joins all workers.
  ~ThreadPool() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Schedule `fn` on a worker; the future delivers its result, or rethrows
  /// the exception it exited with.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> fut = task->get_future();
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ and drained
        job = std::move(queue_.front());
        queue_.pop();
      }
      job();  // packaged_task captures any exception into the future
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

/// Job-count resolution shared by every harness that takes `--jobs N`:
/// explicit CLI value > PHFTL_JOBS environment variable > `fallback` (1,
/// serial, unless the harness keeps its own default). 0 from either source
/// means "one per hardware thread". PHFTL_JOBS is held to the --jobs
/// contract: anything but an integer in [0, 256] exits 2 with one stderr
/// line naming the variable and the value.
inline unsigned resolve_jobs(long cli_jobs = -1, unsigned fallback = 1) {
  long jobs = cli_jobs;
  if (jobs < 0) {
    if (const char* env = std::getenv("PHFTL_JOBS"); env && *env)
      jobs = static_cast<long>(
          FlagParser("environment").parse_uint("PHFTL_JOBS", env, 0, 256));
    else
      jobs = fallback;
  }
  if (jobs == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs = hw == 0 ? 1 : static_cast<long>(hw);
  }
  return jobs < 1 ? 1u : static_cast<unsigned>(jobs);
}

}  // namespace phftl::util
