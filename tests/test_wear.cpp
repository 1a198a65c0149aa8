// Endurance subsystem: erase-count tracking, static wear leveling, P/E
// budget retirement, and mount-time wear re-derivation. docs/ENDURANCE.md
// documents the contract these tests enforce.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ftl/host_oracle.hpp"
#include "helpers.hpp"
#include "util/rng.hpp"

namespace phftl {
namespace {

using test::scheme_config;
using test::small_config;
using test::small_workload;

class WearTest : public ::testing::TestWithParam<std::string> {};

/// Drives the scheme with the shared skewed workload, recording what the
/// host was promised in `oracle`. The hot/cold split pins cold superblocks
/// closed while hot blocks churn, which is exactly what builds up wear
/// spread.
void run_workload(FtlBase& ftl, HostOracle& oracle, double drive_writes,
                  std::uint64_t seed) {
  const Trace trace = small_workload(ftl.config(), drive_writes, seed);
  for (const auto& req : trace.ops)
    ASSERT_EQ(oracle.submit(ftl, req).status, WriteResult::kOk);
  ftl.drain();
}

// Without leveling, a skewed workload concentrates erases on the blocks
// cycling hot data while cold blocks stay pinned at low wear — the spread
// grows with the write volume. With leveling on, cold victims are migrated
// into worn blocks whenever the spread exceeds the threshold, so the final
// spread is bounded near the threshold and below the unleveled run's.
TEST_P(WearTest, WearSpreadBoundedUnderLeveling) {
  const std::uint64_t kThreshold = 4;
  FtlConfig off_cfg = small_config();
  FtlConfig on_cfg = small_config();
  on_cfg.wear_level_threshold = kThreshold;
  auto off = make_scheme(GetParam(), scheme_config(off_cfg));
  auto on = make_scheme(GetParam(), scheme_config(on_cfg));
  // Both drives acknowledge the same requests, so one record serves both.
  HostOracle oracle(off->logical_pages());
  ASSERT_NO_FATAL_FAILURE(run_workload(*off, oracle, 8.0, 211));
  ASSERT_NO_FATAL_FAILURE(run_workload(*on, oracle, 8.0, 211));

  EXPECT_EQ(off->stats().wl_rounds, 0u);
  EXPECT_EQ(off->stats().wl_migrations, 0u);

  const double spread_off = off->wear_spread();
  const double spread_on = on->wear_spread();
  // Leveling must act exactly when the unleveled spread says it must. A
  // separating scheme (2R/SepBIT/PHFTL) pins cold superblocks closed and
  // builds real spread; Base mixes lifetimes, so FIFO allocation largely
  // self-levels and the trigger may legitimately stay silent.
  if (spread_off > static_cast<double>(kThreshold)) {
    EXPECT_GT(on->stats().wl_rounds, 0u) << GetParam();
    EXPECT_GT(on->stats().wl_migrations, 0u) << GetParam();
  }
  EXPECT_LE(spread_on, spread_off) << GetParam();
  // Between trigger checks the spread can overshoot by the erases one
  // leveling round takes to complete; a small additive slack covers that.
  EXPECT_LE(spread_on, static_cast<double>(kThreshold) + 4.0) << GetParam();

  // Leveling migrations are charged to WA like any GC write.
  EXPECT_GE(on->stats().gc_writes, on->stats().wl_migrations);
  EXPECT_GE(on->stats().gc_invocations, on->stats().wl_rounds);

  // Both drives still serve every acknowledged page after leveling.
  ASSERT_EQ(oracle.check(*off), "");
  ASSERT_EQ(oracle.check(*on), "");
}

// A threshold high enough that the trigger never fires must leave the
// drive bit-identical to one with leveling disabled outright: the knob's
// only observable effect is through triggered rounds. (The replay
// WA-neutrality check in CI extends this to the pre-endurance baseline.)
TEST_P(WearTest, LevelingOffIsBitIdentical) {
  FtlConfig disabled_cfg = small_config();  // wear_level_threshold = 0
  FtlConfig dormant_cfg = small_config();
  dormant_cfg.wear_level_threshold = 1ULL << 60;  // armed but never fires
  auto disabled = make_scheme(GetParam(), scheme_config(disabled_cfg));
  auto dormant = make_scheme(GetParam(), scheme_config(dormant_cfg));
  HostOracle oracle(disabled->logical_pages());
  ASSERT_NO_FATAL_FAILURE(run_workload(*disabled, oracle, 5.0, 223));
  ASSERT_NO_FATAL_FAILURE(run_workload(*dormant, oracle, 5.0, 223));

  EXPECT_EQ(dormant->stats().wl_rounds, 0u);
  EXPECT_EQ(dormant->stats().wl_migrations, 0u);
  const FtlStats& a = disabled->stats();
  const FtlStats& b = dormant->stats();
  EXPECT_EQ(a.user_writes, b.user_writes);
  EXPECT_EQ(a.gc_writes, b.gc_writes);
  EXPECT_EQ(a.meta_writes, b.meta_writes);
  EXPECT_EQ(a.erases, b.erases);
  EXPECT_EQ(a.gc_invocations, b.gc_invocations);
  EXPECT_EQ(a.write_amplification(), b.write_amplification()) << GetParam();

  const Geometry& g = disabled->config().geom;
  for (std::uint64_t sb = 0; sb < g.num_superblocks(); ++sb) {
    ASSERT_EQ(disabled->flash().state(sb), dormant->flash().state(sb))
        << "sb " << sb;
    ASSERT_EQ(disabled->flash().erase_count(sb), dormant->flash().erase_count(sb))
        << "sb " << sb;
    ASSERT_EQ(disabled->wear_count(sb), dormant->wear_count(sb)) << "sb " << sb;
  }
  // The same LPNs are mapped on both: each matches the one record.
  ASSERT_EQ(oracle.check(*disabled), "");
  ASSERT_EQ(oracle.check(*dormant), "");
}

// End-of-life is an ENOSPC condition, not a crash: as blocks exhaust their
// P/E budget and retire, the capacity watermark sinks until writes are
// rejected — while every acknowledged page stays readable.
TEST_P(WearTest, BudgetExhaustionRetiresCleanly) {
  FtlConfig cfg = small_config();
  cfg.max_pe_cycles = 8;
  auto ftl = make_scheme(GetParam(), scheme_config(cfg));
  const std::uint64_t logical = ftl->logical_pages();
  const std::uint64_t fill = logical * 8 / 10;
  HostOracle oracle(logical);
  WriteContext ctx;
  for (Lpn lpn = 0; lpn < fill; ++lpn) {
    ASSERT_EQ(oracle.write(*ftl, lpn, ctx), WriteResult::kOk) << "lpn " << lpn;
  }

  // Hammer a hot region until the budget kills enough blocks for the
  // watermark to sink below the mapped count. The iteration cap is far
  // above the device's total budget (superblocks x cycles x pages), so
  // hitting it means ENOSPC never arrived — a test failure, not a hang.
  Xoshiro256 rng(401);
  const std::uint64_t hot = std::max<std::uint64_t>(fill * 15 / 100, 1);
  bool saw_enospc = false;
  for (std::uint64_t w = 0; w < logical * 40 && !saw_enospc; ++w) {
    const Lpn lpn =
        rng.next_bool(0.9) ? rng.next_below(hot) : rng.next_below(fill);
    saw_enospc = oracle.write(*ftl, lpn, ctx) == WriteResult::kEnospc;
  }
  ASSERT_TRUE(saw_enospc) << GetParam() << ": budget never exhausted";
  EXPECT_GT(ftl->stats().wear_retired, 0u) << GetParam();
  EXPECT_GT(ftl->stats().enospc_rejections, 0u);
  EXPECT_EQ(ftl->flash().wear_retired_count(), ftl->stats().wear_retired);

  // No block in service carries more erases than the budget allows, and
  // every budget-retired block is out of circulation.
  const Geometry& g = cfg.geom;
  for (std::uint64_t sb = 0; sb < g.num_superblocks(); ++sb) {
    ASSERT_LE(ftl->flash().erase_count(sb), cfg.max_pe_cycles) << "sb " << sb;
    if (ftl->flash().erase_count(sb) >= cfg.max_pe_cycles) {
      ASSERT_TRUE(ftl->flash().is_bad(sb)) << "sb " << sb;
    }
  }

  ftl->drain();
  // Read-only afterlife: acknowledged data survives end-of-life.
  ASSERT_EQ(oracle.check(*ftl), "");
  EXPECT_GE(ftl->mapped_page_count(), fill);
}

// Mount-time re-derivation (docs/ENDURANCE.md, docs/RECOVERY.md): the wear
// table is rebuilt from the per-page OOB erase-count stamps as lower
// bounds — exact for blocks holding pages, floored at 0 for free blocks
// whose history left nothing readable. Leveling keeps working afterwards.
TEST_P(WearTest, RecoveryRederivesEraseCountLowerBounds) {
  FtlConfig cfg = small_config();
  cfg.wear_level_threshold = 4;
  auto ftl = make_scheme(GetParam(), scheme_config(cfg));
  HostOracle oracle(ftl->logical_pages());
  ASSERT_NO_FATAL_FAILURE(run_workload(*ftl, oracle, 6.0, 233));

  // Snapshot the exact table, then mount.
  const Geometry& g = cfg.geom;
  std::vector<std::uint64_t> exact(g.num_superblocks());
  for (std::uint64_t sb = 0; sb < g.num_superblocks(); ++sb)
    exact[sb] = ftl->flash().erase_count(sb);
  ftl->recover();

  for (std::uint64_t sb = 0; sb < g.num_superblocks(); ++sb) {
    ASSERT_LE(ftl->wear_count(sb), exact[sb]) << "sb " << sb;
    bool holds_page = false;
    for (std::uint64_t off = 0; off < ftl->flash().write_pointer(sb); ++off)
      holds_page |= ftl->flash().is_programmed(g.make_ppn(sb, off));
    if (holds_page) {
      // Blocks with readable pages re-derive exactly: every page carries
      // the block's erase count at program time, unchanged since.
      ASSERT_EQ(ftl->wear_count(sb), exact[sb]) << "sb " << sb;
    }
  }

  // The re-derived table still drives leveling: keep writing and the
  // spread stays controlled (no stall, no crash, rounds still firing for
  // schemes whose separation builds spread in the first place).
  const std::uint64_t before = ftl->stats().wl_rounds;
  ASSERT_NO_FATAL_FAILURE(run_workload(*ftl, oracle, 6.0, 239));
  if (before > 0) {
    EXPECT_GT(ftl->stats().wl_rounds, before) << GetParam();
  }
  EXPECT_LE(ftl->wear_spread(),
            static_cast<double>(cfg.wear_level_threshold) + 4.0);
  ASSERT_EQ(oracle.check(*ftl), "");
}

TEST_P(WearTest, WearMetricsAndTraceAreExported) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  FtlConfig cfg = small_config();
  cfg.wear_level_threshold = 4;
  auto ftl = make_scheme(GetParam(), scheme_config(cfg));
  ftl->observability().trace().enable(1 << 20);
  HostOracle oracle(ftl->logical_pages());
  ASSERT_NO_FATAL_FAILURE(run_workload(*ftl, oracle, 8.0, 241));

  const auto& reg = ftl->observability().metrics();
  const auto* wl_rounds = reg.find_counter("ftl.wl.rounds");
  const auto* wl_migrations = reg.find_counter("ftl.wl.migrations");
  const auto* wear_retired = reg.find_counter("flash.wear_retired");
  ASSERT_NE(wl_rounds, nullptr);
  ASSERT_NE(wl_migrations, nullptr);
  ASSERT_NE(wear_retired, nullptr);
  EXPECT_EQ(wl_rounds->value(), ftl->stats().wl_rounds);
  EXPECT_EQ(wl_migrations->value(), ftl->stats().wl_migrations);
  // Base self-levels (no separation, no pinned cold blocks), so only the
  // separating schemes are guaranteed to have fired rounds here.
  if (GetParam() != "Base") {
    EXPECT_GT(wl_rounds->value(), 0u) << GetParam();
  }

  const auto* spread = reg.find_gauge("flash.wear_spread");
  const auto* wear_max = reg.find_gauge("flash.wear_max");
  ASSERT_NE(spread, nullptr);
  ASSERT_NE(wear_max, nullptr);
  EXPECT_EQ(spread->value(), ftl->wear_spread());
  EXPECT_GT(wear_max->value(), 0.0);

  const auto* hist = reg.find_histogram("flash.erase_count");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), ftl->stats().erases);

  std::uint64_t wl_events = 0;
  ftl->observability().trace().for_each([&](const obs::TraceEvent& e) {
    wl_events += e.type == obs::TraceEventType::kWearLevel;
  });
  if (ftl->observability().trace().dropped() == 0) {
    EXPECT_EQ(wl_events, ftl->stats().wl_rounds) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, WearTest,
                         ::testing::ValuesIn(kSchemeNames));

}  // namespace
}  // namespace phftl
