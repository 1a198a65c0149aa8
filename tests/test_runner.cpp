// Thread pool + parallel experiment runner tests.
//
// The load-bearing property is the determinism contract
// (docs/ARCHITECTURE.md "Threading model"): running the experiment grid
// with any `--jobs N` must produce results — including the full serialized
// metrics registry of every run — byte-identical to the serial run. CI
// executes this binary under ThreadSanitizer as well (PHFTL_SANITIZE_THREAD)
// to prove the workers genuinely share no mutable state.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "util/team.hpp"
#include "util/thread_pool.hpp"

namespace phftl {
namespace {

// --- ThreadPool ---

TEST(ThreadPool, RunsSubmittedTasksAndReturnsValues) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 64; ++i)
    futs.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 64; ++i) EXPECT_EQ(futs[i].get(), i * i);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  util::ThreadPool pool(2);
  auto ok = pool.submit([] { return 1; });
  auto bad = pool.submit(
      []() -> int { throw std::runtime_error("boom"); });
  EXPECT_EQ(ok.get(), 1);
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The worker that ran the throwing task must still be alive.
  EXPECT_EQ(pool.submit([] { return 2; }).get(), 2);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> ran{0};
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 32; ++i)
      pool.submit([&ran] { ++ran; });
  }  // dtor joins after the queue drains
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, ManyMoreTasksThanWorkers) {
  util::ThreadPool pool(3);
  std::atomic<std::uint64_t> sum{0};
  std::vector<std::future<void>> futs;
  for (std::uint64_t i = 1; i <= 1000; ++i)
    futs.push_back(pool.submit([&sum, i] { sum += i; }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(sum.load(), 500500u);
}

// --- Team (training phases) ---

TEST(Team, RunsEachIndexExactlyOnce) {
  util::Team team(3);
  for (const std::size_t n : {0u, 1u, 7u, 64u}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    std::vector<std::atomic<int>> hits(n);
    team.run(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(Team, TwoCallersAtOnceBothFinish) {
  // One caller holds the team while the other runs its phases inline; both
  // get every index, on every round.
  util::Team team(3);
  auto caller = [&team](std::uint64_t salt) {
    for (int round = 0; round < 200; ++round) {
      std::vector<std::uint64_t> out(16, 0);
      team.run(out.size(), [&](std::size_t i) { out[i] = salt * 100 + i; });
      for (std::size_t i = 0; i < out.size(); ++i)
        if (out[i] != salt * 100 + i) return false;
    }
    return true;
  };
  auto a = std::async(std::launch::async, caller, 1);
  auto b = std::async(std::launch::async, caller, 2);
  EXPECT_TRUE(a.get());
  EXPECT_TRUE(b.get());
}

TEST(Team, HeldByAnotherThreadRunsInline) {
  util::Team team(3);
  std::promise<void> held, release;
  auto holder = std::async(std::launch::async, [&] {
    const util::Team::Lease lease(team);
    EXPECT_EQ(lease.width(), 4u);
    held.set_value();
    release.get_future().wait();
  });
  held.get_future().wait();
  const util::Team::Lease lease(team);
  EXPECT_EQ(lease.width(), 1u);
  release.set_value();
  holder.get();
}

/// Thread ids that ran fn for n indices under `lease`.
std::vector<std::thread::id> runners(const util::Team::Lease& lease,
                                     std::size_t n) {
  std::vector<std::thread::id> ids(n);
  lease.run(n, [&](std::size_t i) { ids[i] = std::this_thread::get_id(); });
  return ids;
}

TEST(Team, PoolWorkerRunsInline) {
  // Grid jobs already use the CPUs: a worker of a multi-thread pool runs
  // a phase entirely on itself.
  util::Team team(3);
  util::ThreadPool pool(4);
  pool.submit([&team] {
        const util::Team::Lease lease(team);
        EXPECT_EQ(lease.width(), 1u);
        for (const std::thread::id id : runners(lease, 64))
          EXPECT_EQ(id, std::this_thread::get_id());
      })
      .get();
}

TEST(Team, InlineScopeRunsInline) {
  util::Team team(3);
  util::InlineScope scope;
  const util::Team::Lease lease(team);
  EXPECT_EQ(lease.width(), 1u);
  for (const std::thread::id id : runners(lease, 64))
    EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(Team, ZeroWorkersRunInline) {
  util::Team team(0);
  const util::Team::Lease lease(team);
  EXPECT_EQ(lease.width(), 1u);
  for (const std::thread::id id : runners(lease, 64))
    EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(Team, NestedLeaseSharesTheTeamAndPhasesDoNotNest) {
  util::Team team(3);
  const util::Team::Lease outer(team);
  const util::Team::Lease inner(team);
  EXPECT_EQ(inner.width(), 4u);
  std::vector<std::atomic<int>> hits(8 * 8);
  inner.run(8, [&](std::size_t i) {
    // A phase started inside a shard runs on that shard's thread.
    const std::thread::id self = std::this_thread::get_id();
    team.run(8, [&](std::size_t j) {
      EXPECT_EQ(std::this_thread::get_id(), self);
      ++hits[i * 8 + j];
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Team, ShardExceptionIsRethrownAfterTheJoin) {
  util::Team team(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(team.run(32,
                        [&](std::size_t i) {
                          ++ran;
                          if (i == 5) throw std::runtime_error("shard");
                        }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 32);
  team.run(4, [&](std::size_t) { ++ran; });  // the team still works
  EXPECT_EQ(ran.load(), 36);
}

// --- resolve_jobs precedence ---

TEST(ResolveJobs, CliBeatsEnvBeatsDefault) {
  ::unsetenv("PHFTL_JOBS");
  EXPECT_EQ(util::resolve_jobs(-1), 1u);  // default: serial
  EXPECT_EQ(util::resolve_jobs(3), 3u);   // CLI value
  ::setenv("PHFTL_JOBS", "5", 1);
  EXPECT_EQ(util::resolve_jobs(-1), 5u);  // env fallback
  EXPECT_EQ(util::resolve_jobs(2), 2u);   // CLI still wins
  ::unsetenv("PHFTL_JOBS");
}

TEST(ResolveJobs, ZeroMeansHardwareConcurrency) {
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(util::resolve_jobs(0), hw == 0 ? 1u : hw);
}

// --- ExperimentRunner determinism ---

std::vector<bench::GridCell> determinism_grid(double drive_writes) {
  std::vector<bench::GridCell> cells;
  for (const char* id : {"#52", "#144"}) {
    for (const char* scheme : {"Base", "SepBIT", "PHFTL"}) {
      bench::GridCell cell{&suite_spec(id), scheme, drive_writes, {}};
      cell.opts.capture_metrics = true;  // full registry dump per run
      cells.push_back(cell);
    }
  }
  return cells;
}

/// Serial (jobs=1) and parallel (jobs=4) execution of the same grid must
/// agree on every computed quantity, including the complete serialized
/// metrics registry of every run — the property that makes `--jobs N`
/// safe to use for paper-facing artifacts.
TEST(ExperimentRunner, ParallelGridIsByteIdenticalToSerial) {
  const double drive_writes = 1.0;
  const auto serial =
      bench::ExperimentRunner(1).run(determinism_grid(drive_writes));
  const auto parallel =
      bench::ExperimentRunner(4).run(determinism_grid(drive_writes));

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& a = serial[i];
    const auto& b = parallel[i];
    SCOPED_TRACE(a.trace_id + " / " + a.scheme);
    // Results arrive in grid order regardless of completion order.
    EXPECT_EQ(a.trace_id, b.trace_id);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.wa, b.wa);  // exact, not approximate
    EXPECT_EQ(a.stats.user_writes, b.stats.user_writes);
    EXPECT_EQ(a.stats.gc_writes, b.stats.gc_writes);
    EXPECT_EQ(a.stats.meta_writes, b.stats.meta_writes);
    EXPECT_EQ(a.stats.erases, b.stats.erases);
    EXPECT_EQ(a.stats.gc_invocations, b.stats.gc_invocations);
    EXPECT_EQ(a.stats.meta_reads, b.stats.meta_reads);
    EXPECT_EQ(a.cache_hit_rate, b.cache_hit_rate);
    EXPECT_EQ(a.classifier.tp(), b.classifier.tp());
    EXPECT_EQ(a.classifier.fp(), b.classifier.fp());
    EXPECT_EQ(a.classifier.tn(), b.classifier.tn());
    EXPECT_EQ(a.classifier.fn(), b.classifier.fn());
    // The strongest check: the whole metrics registry, serialized.
    EXPECT_EQ(a.metrics_json, b.metrics_json)
        << "metrics registries diverged between serial and parallel runs";
    EXPECT_FALSE(a.metrics_json.empty());
  }
}

/// Repeated parallel execution of the same grid agrees with itself: catches
/// scheduling-dependent state leaks that a single serial/parallel pair can
/// miss by luck.
TEST(ExperimentRunner, ParallelRunsAgreeAcrossRepeats) {
  const auto first = bench::ExperimentRunner(4).run(determinism_grid(0.5));
  const auto second = bench::ExperimentRunner(4).run(determinism_grid(0.5));
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(first[i].metrics_json, second[i].metrics_json)
        << first[i].trace_id << " / " << first[i].scheme;
}

}  // namespace
}  // namespace phftl
