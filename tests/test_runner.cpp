// Grid runner, training team and parallel experiment grid tests.
//
// The load-bearing property is the determinism contract
// (docs/ARCHITECTURE.md "Threading model"): running the experiment grid
// with any `--jobs N` must produce results — including the full serialized
// metrics registry of every run — byte-identical to the serial run. CI
// executes this binary under ThreadSanitizer as well (PHFTL_SANITIZE_THREAD)
// to prove the grid's threads genuinely share no mutable state.
#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <future>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "util/team.hpp"

namespace phftl {
namespace {

// --- run_grid (experiment grids) ---

TEST(Grid, RunsEachIndexOnceAndReturnsResultsInIndexOrder) {
  for (const unsigned width : {1u, 3u}) {
    for (const std::size_t n : {0u, 1u, 7u, 64u}) {
      SCOPED_TRACE("width " + std::to_string(width) + ", n = " +
                   std::to_string(n));
      std::vector<std::atomic<int>> hits(n);
      std::vector<std::thread::id> ran_on(n);
      const std::vector<std::size_t> squares =
          util::run_grid(width, n, [&](std::size_t i) {
            ++hits[i];
            ran_on[i] = std::this_thread::get_id();
            return i * i;
          });
      ASSERT_EQ(squares.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << i;
        EXPECT_EQ(squares[i], i * i) << i;
      }
      const std::set<std::thread::id> threads(ran_on.begin(), ran_on.end());
      EXPECT_LE(threads.size(), util::grid_threads(width, n));
      if (width == 1 && n > 0) {
        EXPECT_EQ(*threads.begin(), std::this_thread::get_id());
      }
    }
  }
  EXPECT_EQ(util::grid_threads(4, 99), 4u);
  EXPECT_EQ(util::grid_threads(4, 2), 2u);
  EXPECT_EQ(util::grid_threads(4, 0), 1u);
}

TEST(Grid, LowestFailingIndexIsRethrownAfterEveryIndexRan) {
  for (const unsigned width : {1u, 3u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    std::vector<std::atomic<int>> hits(32);
    std::atomic<bool> high_failed{false};
    try {
      util::run_grid(width, hits.size(), [&](std::size_t i) {
        ++hits[i];
        if (i == 25) {
          high_failed = true;
          throw std::runtime_error("25");
        }
        if (i == 5) {
          // On more than one thread, fail only after index 25 has.
          while (width > 1 && !high_failed) std::this_thread::yield();
          throw std::runtime_error("5");
        }
        return i;
      });
      ADD_FAILURE() << "no exception reached the caller";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "5");
    }
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

/// Thread ids that ran fn for n indices under `lease`.
std::vector<std::thread::id> runners(const util::Team::Lease& lease,
                                     std::size_t n) {
  std::vector<std::thread::id> ids(n);
  lease.run(n, [&](std::size_t i) { ids[i] = std::this_thread::get_id(); });
  return ids;
}

TEST(Grid, OneThreadTrainsOnTheTeamAndWiderGridsRunPhasesInline) {
  util::Team team(3);
  // A one-thread grid runs on the caller, whose leases claim the team.
  const std::thread::id caller = std::this_thread::get_id();
  const std::vector<std::size_t> lone =
      util::run_grid(1, 3, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        return util::Team::Lease(team).width();
      });
  for (const std::size_t w : lone) EXPECT_EQ(w, 4u);
  // Jobs of a wider grid already use the CPUs: each runs its phases itself.
  const std::vector<std::size_t> widths =
      util::run_grid(4, 8, [&team](std::size_t) {
        const util::Team::Lease lease(team);
        for (const std::thread::id id : runners(lease, 64))
          EXPECT_EQ(id, std::this_thread::get_id());
        return lease.width();
      });
  for (const std::size_t w : widths) EXPECT_EQ(w, 1u);
}

TEST(ResolveJobs, ZeroMeansOnePerUsableCpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  const auto usable = static_cast<unsigned>(CPU_COUNT(&set));
  EXPECT_EQ(util::resolve_jobs(0), usable);
  EXPECT_EQ(util::resolve_jobs(3), 3u);
  EXPECT_EQ(util::grid_threads(0, 1000), usable);
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

// --- Suite grid determinism ---

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
TEST(SuiteGrid, ParallelGridIsByteIdenticalToSerial) {
  const double drive_writes = 1.0;
  const auto serial =
      bench::run_suite_grid(1, determinism_grid(drive_writes));
  const auto parallel =
      bench::run_suite_grid(4, determinism_grid(drive_writes));

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
TEST(SuiteGrid, ParallelRunsAgreeAcrossRepeats) {
  const auto first = bench::run_suite_grid(4, determinism_grid(0.5));
  const auto second = bench::run_suite_grid(4, determinism_grid(0.5));
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(first[i].metrics_json, second[i].metrics_json)
        << first[i].trace_id << " / " << first[i].scheme;
}

}  // namespace
}  // namespace phftl
