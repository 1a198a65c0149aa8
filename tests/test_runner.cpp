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
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
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
