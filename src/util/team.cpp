#include "util/team.hpp"

#include <sched.h>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "util/assert.hpp"

namespace phftl::util {
namespace {

thread_local int t_inline_depth = 0;
/// The team this thread holds through its outermost lease.
thread_local Team* t_held = nullptr;

/// A spin-wait step: pause, and every 64th step let another runnable
/// thread on this CPU go first (the host may be oversubscribed).
struct Backoff {
  unsigned spins = 0;
  void wait() {
    if (++spins % 64 == 0) {
      std::this_thread::yield();
    } else {
#if defined(__x86_64__) || defined(__i386__)
      _mm_pause();
#endif
    }
  }
};

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n < 1 ? 1u : static_cast<unsigned>(n);
}

}  // namespace

InlineScope::InlineScope() { ++t_inline_depth; }
InlineScope::~InlineScope() { --t_inline_depth; }

unsigned resolve_jobs(unsigned jobs) { return jobs ? jobs : usable_cpus(); }

void detail::run_grid_jobs(unsigned threads, std::size_t n,
                           const std::function<void(std::size_t)>& job) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;  // guards failed, error
  std::size_t failed = n;
  std::exception_ptr error;
  const auto claim_jobs = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        job(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (i < failed) {
          failed = i;
          error = std::current_exception();
        }
      }
    }
  };
  if (threads <= 1) {
    claim_jobs();
  } else {
    const auto grid_thread = [&] {
      const InlineScope grid_job;
      claim_jobs();
    };
    std::vector<std::jthread> helpers;  // joined on the way out
    helpers.reserve(threads - 1);
    for (unsigned t = 1; t < threads; ++t) helpers.emplace_back(grid_thread);
    grid_thread();
  }
  if (error) std::rethrow_exception(error);
}

Team::Team(unsigned workers) {
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

Team::~Team() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    PHFTL_CHECK_MSG(holder_ == std::thread::id(),
                    "team destroyed while a lease holds it");
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

Team& Team::global() {
  static Team team(usable_cpus() - 1);
  return team;
}

Team::Lease::Lease() {
  if (t_inline_depth == 0) claim(global());
}

Team::Lease::Lease(Team& team) {
  if (t_inline_depth == 0) claim(team);
}

void Team::Lease::claim(Team& team) {
  if (team.workers() == 0) return;
  if (t_held == &team) {
    // Nested on the holder: share the outer lease, unless called from
    // inside one of its phases.
    if (team.in_phase_) return;
  } else {
    if (t_held != nullptr) return;
    {
      std::lock_guard<std::mutex> lock(team.mu_);
      if (team.holder_ != std::thread::id()) return;  // another thread's
      team.holder_ = std::this_thread::get_id();
      team.leased_.store(true, std::memory_order_relaxed);
    }
    team.cv_.notify_all();
    t_held = &team;
    owner_ = true;
  }
  team_ = &team;
  width_ = team.workers() + 1;
}

Team::Lease::~Lease() {
  if (!owner_) return;
  t_held = nullptr;
  std::lock_guard<std::mutex> lock(team_->mu_);
  team_->holder_ = std::thread::id();
  team_->leased_.store(false, std::memory_order_relaxed);
}

void Team::run_phase(std::size_t n, ShardFn fn, void* ctx) {
  PHFTL_CHECK(n < (1u << 16));
  fn_ = fn;
  ctx_ = ctx;
  in_phase_ = true;
  done_.store(0, std::memory_order_relaxed);
  const std::uint64_t gen = (phase_.load(std::memory_order_relaxed) >> 32) + 1;
  phase_.store(gen << 32 | std::uint64_t{n} << 16, std::memory_order_release);
  while (run_one()) {
  }
  Backoff backoff;
  while (done_.load(std::memory_order_acquire) != n) backoff.wait();
  in_phase_ = false;
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::swap(error, error_);
  }
  if (error) std::rethrow_exception(error);
}

bool Team::run_one() {
  std::uint64_t word = phase_.load(std::memory_order_acquire);
  for (;;) {
    const std::uint64_t next = word & 0xffff;
    if (next >= ((word >> 16) & 0xffff)) return false;
    if (phase_.compare_exchange_weak(word, word + 1,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire))
      break;
  }
  try {
    fn_(ctx_, static_cast<std::size_t>(word & 0xffff));
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!error_) error_ = std::current_exception();
  }
  done_.fetch_add(1, std::memory_order_release);
  return true;
}

void Team::worker_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return stop_ || leased_.load(std::memory_order_relaxed);
      });
      if (stop_) return;
    }
    Backoff backoff;
    while (leased_.load(std::memory_order_relaxed)) {
      if (run_one())
        backoff = {};
      else
        backoff.wait();
    }
  }
}

}  // namespace phftl::util
