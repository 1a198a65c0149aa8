// Time-sliced (preemptive) GC: equivalence with stop-the-world, per-write
// relocation bounds, drain semantics, and the preemption observability
// surface. docs/QOS.md documents the contract these tests enforce.
#include <gtest/gtest.h>

#include <string>

#include "ftl/host_oracle.hpp"
#include "helpers.hpp"
#include "util/rng.hpp"

namespace phftl {
namespace {

using test::scheme_config;
using test::small_config;
using test::small_workload;
using test::submit_ok;
using test::write_ok;

class GcPreemptTest : public ::testing::TestWithParam<std::string> {};

FtlConfig sliced_config(std::uint64_t step_pages = 4) {
  FtlConfig cfg = small_config();
  cfg.gc_step_pages = step_pages;
  return cfg;
}

// The QoS contract's WA-neutrality clause: time-sliced GC relocates the
// same victims' live pages the stop-the-world engine would, minus any the
// host invalidates between steps, so the final per-LPN state is identical
// and WA agrees to within 1 % (docs/QOS.md).
TEST_P(GcPreemptTest, TimeSlicedMatchesStopTheWorldFinalState) {
  const FtlConfig stw_cfg = small_config();
  const FtlConfig ts_cfg = sliced_config();
  auto stw = make_scheme(GetParam(), scheme_config(stw_cfg));
  auto sliced = make_scheme(GetParam(), scheme_config(ts_cfg));
  const Trace trace = small_workload(stw_cfg, 3.0, 137);
  // Both drives acknowledge every request, so one record serves both.
  HostOracle oracle(stw->logical_pages());
  for (const auto& req : trace.ops) {
    ASSERT_EQ(oracle.submit(*stw, req).status, WriteResult::kOk);
    submit_ok(*sliced, req);
  }
  stw->drain();
  sliced->drain();

  // Identical per-LPN final state: the same LPNs mapped, every mapped page
  // serving its acknowledged payload, and both drives consistent.
  ASSERT_EQ(oracle.check(*stw), "");
  ASSERT_EQ(oracle.check(*sliced), "");

  const double stw_wa = stw->stats().write_amplification();
  const double ts_wa = sliced->stats().write_amplification();
  EXPECT_NEAR(ts_wa, stw_wa, stw_wa * 0.01)
      << GetParam() << ": time-sliced WA drifted past 1%";

  // Stop-the-world never preempts. The sliced run may or may not (SepBIT's
  // separation leaves victims nearly empty, so rounds often finish in one
  // step); StepBudgetBoundsPerWriteGcWork covers the preemption path.
  EXPECT_EQ(stw->stats().gc_preemptions, 0u);
  EXPECT_GT(sliced->stats().gc_steps, 0u) << GetParam();
  EXPECT_GE(sliced->stats().gc_steps, sliced->stats().gc_invocations);
}

// The latency bound itself: while the free pool sits above the urgent
// floor, a single host write never triggers more than gc_step_pages GC
// relocations (docs/QOS.md "Per-write GC bound").
TEST_P(GcPreemptTest, StepBudgetBoundsPerWriteGcWork) {
  const std::uint64_t kBudget = 4;
  const FtlConfig cfg = sliced_config(kBudget);
  auto ftl = make_scheme(GetParam(), scheme_config(cfg));
  WriteContext ctx;
  Xoshiro256 rng(23);
  const std::uint64_t logical = ftl->logical_pages();
  const std::uint64_t hot = std::max<std::uint64_t>(logical / 10, 1);
  std::uint64_t bounded_writes = 0;
  for (std::uint64_t w = 0; w < logical * 3; ++w) {
    const std::uint64_t free_before = ftl->free_superblock_count();
    const std::uint64_t gc_before = ftl->stats().gc_writes;
    const Lpn lpn =
        rng.next_bool(0.5) ? rng.next_below(hot) : rng.next_below(logical);
    write_ok(*ftl, lpn, ctx);
    // Below the urgent floor GC legitimately runs whole rounds; above it
    // the per-write relocation budget is the contract.
    if (free_before >= 3) {
      ASSERT_LE(ftl->stats().gc_writes - gc_before, kBudget)
          << GetParam() << " write " << w << " free " << free_before;
      ++bounded_writes;
    }
  }
  // The bound must actually have been exercised under GC pressure.
  EXPECT_GT(bounded_writes, 0u);
  EXPECT_GT(ftl->stats().gc_preemptions, 0u) << GetParam();
}

// Wear leveling rides the same budget (docs/ENDURANCE.md): above the urgent
// floor no write pays for more than gc_step_pages relocations, leveling
// migrations included, and a leveling round parks between steps like a
// space round.
TEST_P(GcPreemptTest, StepBudgetBoundsWearLevelingWork) {
  const std::uint64_t kBudget = 4;
  const std::uint64_t kThreshold = 2;
  const FtlConfig unleveled_cfg = sliced_config(kBudget);
  FtlConfig cfg = unleveled_cfg;
  cfg.wear_level_threshold = kThreshold;
  auto ftl = make_scheme(GetParam(), scheme_config(cfg));
  auto unleveled = make_scheme(GetParam(), scheme_config(unleveled_cfg));
  WriteContext ctx;
  Xoshiro256 rng(41);
  const std::uint64_t logical = ftl->logical_pages();
  const std::uint64_t hot = std::max<std::uint64_t>(logical / 20, 1);
  std::uint64_t bounded_writes = 0;
  std::uint64_t leveling_steps = 0;  // writes that moved leveling pages
  for (std::uint64_t w = 0; w < logical * 8; ++w) {
    const Lpn lpn =
        rng.next_bool(0.9) ? rng.next_below(hot) : rng.next_below(logical);
    write_ok(*unleveled, lpn, ctx);
    const std::uint64_t free_before = ftl->free_superblock_count();
    const FtlStats before = ftl->stats();
    write_ok(*ftl, lpn, ctx);
    if (free_before >= 3) {
      ASSERT_LE(ftl->stats().gc_writes - before.gc_writes, kBudget)
          << GetParam() << " write " << w << " free " << free_before;
      ++bounded_writes;
    }
    leveling_steps += ftl->stats().wl_migrations > before.wl_migrations;
  }
  ftl->drain();
  EXPECT_GT(bounded_writes, 0u);
  // As in WearTest.WearSpreadBoundedUnderLeveling: Base mixes lifetimes and
  // largely self-levels, so leveling must fire only where the unleveled
  // twin's spread says it must.
  if (unleveled->wear_spread() > static_cast<double>(kThreshold)) {
    EXPECT_GT(ftl->stats().wl_rounds, 0u) << GetParam();
    EXPECT_GT(leveling_steps, ftl->stats().wl_rounds)
        << GetParam() << ": no leveling round parked and resumed";
  }
}

// drain() completes a parked round so shutdown never leaves a dangling
// cursor, and the in-flight accessors expose the parked state in between.
TEST_P(GcPreemptTest, DrainCompletesInflightRound) {
  const FtlConfig cfg = sliced_config(2);  // small budget: parks often
  auto ftl = make_scheme(GetParam(), scheme_config(cfg));
  WriteContext ctx;
  Xoshiro256 rng(29);
  const std::uint64_t logical = ftl->logical_pages();
  HostOracle oracle(logical);
  bool saw_inflight = false;
  for (std::uint64_t w = 0; w < logical * 3; ++w) {
    ASSERT_EQ(oracle.write(*ftl, rng.next_below(logical), ctx),
              WriteResult::kOk);
    if (ftl->gc_inflight_victim() != FtlBase::kNoVictim) {
      saw_inflight = true;
      // A parked victim is closed and carries a consistent cursor state.
      EXPECT_EQ(ftl->flash().state(ftl->gc_inflight_victim()),
                SuperblockState::kClosed);
      break;
    }
  }
  ASSERT_TRUE(saw_inflight) << GetParam() << ": GC never parked a victim";
  ASSERT_EQ(oracle.check(*ftl), "");

  ftl->drain();
  EXPECT_EQ(ftl->gc_inflight_victim(), FtlBase::kNoVictim) << GetParam();
  EXPECT_EQ(ftl->gc_inflight_valid_moved(), 0u);
  ASSERT_EQ(oracle.check(*ftl), "");
  // Still a working drive after the forced completion.
  for (int i = 0; i < 500; ++i) {
    const Lpn lpn = rng.next_below(logical);
    ASSERT_EQ(oracle.write(*ftl, lpn, ctx), WriteResult::kOk);
    ASSERT_EQ(ftl->read_page(lpn), FtlBase::payload_of(lpn));
  }
}

// Stop-the-world semantics are unchanged: no steps beyond one per round,
// no preemptions, no in-flight victim outside gc calls.
TEST_P(GcPreemptTest, StopTheWorldNeverPreempts) {
  const FtlConfig cfg = small_config();
  auto ftl = make_scheme(GetParam(), scheme_config(cfg));
  WriteContext ctx;
  Xoshiro256 rng(31);
  const std::uint64_t logical = ftl->logical_pages();
  for (std::uint64_t w = 0; w < logical * 2; ++w) {
    write_ok(*ftl, rng.next_below(logical), ctx);
    ASSERT_EQ(ftl->gc_inflight_victim(), FtlBase::kNoVictim);
  }
  EXPECT_EQ(ftl->stats().gc_preemptions, 0u);
  EXPECT_EQ(ftl->stats().gc_steps, ftl->stats().gc_invocations);
}

TEST_P(GcPreemptTest, PreemptionMetricsAndTraceAreExported) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  const FtlConfig cfg = sliced_config(2);
  auto ftl = make_scheme(GetParam(), scheme_config(cfg));
  ftl->observability().trace().enable(4096);
  WriteContext ctx;
  Xoshiro256 rng(37);
  const std::uint64_t logical = ftl->logical_pages();
  for (std::uint64_t w = 0; w < logical * 2; ++w)
    write_ok(*ftl, rng.next_below(logical), ctx);
  ftl->drain();

  const auto& reg = ftl->observability().metrics();
  const auto* steps = reg.find_counter("ftl.gc.steps");
  const auto* preempts = reg.find_counter("ftl.gc.preemptions");
  ASSERT_NE(steps, nullptr);
  ASSERT_NE(preempts, nullptr);
  EXPECT_EQ(steps->value(), ftl->stats().gc_steps);
  EXPECT_EQ(preempts->value(), ftl->stats().gc_preemptions);
  EXPECT_GT(preempts->value(), 0u) << GetParam();
  const auto* inflight = reg.find_gauge("ftl.gc.inflight_valid_moved");
  ASSERT_NE(inflight, nullptr);
  EXPECT_EQ(inflight->value(), 0.0);  // drained

  std::uint64_t step_events = 0, preempt_events = 0;
  ftl->observability().trace().for_each([&](const obs::TraceEvent& e) {
    step_events += e.type == obs::TraceEventType::kGcStep;
    preempt_events += e.type == obs::TraceEventType::kGcPreempt;
  });
  EXPECT_GT(step_events, 0u);
  EXPECT_GT(preempt_events, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, GcPreemptTest,
                         ::testing::ValuesIn(kSchemeNames));

}  // namespace
}  // namespace phftl
