#include <gtest/gtest.h>

#include <set>
#include <string>

#include "baselines/base_ftl.hpp"
#include "ftl/host_oracle.hpp"
#include "ftl/victim_policy.hpp"
#include "helpers.hpp"
#include "util/rng.hpp"

namespace phftl {
namespace {

using test::replay_ok;
using test::scheme_config;
using test::small_config;
using test::submit_ok;
using test::write_ok;

TEST(FtlBase, LogicalCapacityRespectsOverProvisioning) {
  const FtlConfig cfg = small_config();
  BaseFtl ftl(cfg);
  EXPECT_EQ(ftl.logical_pages(),
            static_cast<std::uint64_t>(cfg.geom.total_pages() * 0.9));
  EXPECT_LT(ftl.logical_pages(), cfg.geom.total_pages());
}

TEST(FtlBase, WriteThenReadReturnsMapping) {
  BaseFtl ftl(small_config());
  WriteContext ctx;
  write_ok(ftl, 5, ctx);
  EXPECT_TRUE(ftl.is_mapped(5));
  EXPECT_NE(ftl.read_page(5), 0u);
  EXPECT_FALSE(ftl.is_mapped(6));
  EXPECT_EQ(ftl.read_page(6), 0u);  // never written
}

TEST(FtlBase, OverwriteRemapsAndInvalidatesOldPage) {
  BaseFtl ftl(small_config());
  WriteContext ctx;
  write_ok(ftl, 5, ctx);
  const Ppn first = ftl.lookup(5);
  write_ok(ftl, 5, ctx);
  const Ppn second = ftl.lookup(5);
  EXPECT_NE(first, second);
  EXPECT_FALSE(ftl.page_valid(first));
  EXPECT_TRUE(ftl.page_valid(second));
  EXPECT_EQ(ftl.page_lpn(second), 5u);
}

TEST(FtlBase, TrimUnmaps) {
  BaseFtl ftl(small_config());
  WriteContext ctx;
  write_ok(ftl, 9, ctx);
  const Ppn ppn = ftl.lookup(9);
  EXPECT_TRUE(ftl.trim_page(9));
  EXPECT_FALSE(ftl.is_mapped(9));
  EXPECT_FALSE(ftl.page_valid(ppn));
  EXPECT_EQ(ftl.stats().trims, 1u);
  EXPECT_EQ(ftl.live_tombstones(), 1u);
  // Trim of an unmapped page is a no-op: not counted, not journaled again.
  EXPECT_FALSE(ftl.trim_page(9));
  EXPECT_EQ(ftl.stats().trims, 1u);
  // The effective trim was journaled before being acknowledged.
  EXPECT_EQ(ftl.stats().journal_writes, 1u);
  EXPECT_EQ(ftl.trim_journal_superblocks(), 1u);
}

TEST(FtlBase, MappedCountAndWatermarkTracking) {
  BaseFtl ftl(small_config());
  WriteContext ctx;
  EXPECT_EQ(ftl.mapped_page_count(), 0u);
  write_ok(ftl, 3, ctx);
  write_ok(ftl, 4, ctx);
  write_ok(ftl, 3, ctx);  // overwrite: mapped count unchanged
  EXPECT_EQ(ftl.mapped_page_count(), 2u);
  ftl.trim_page(4);
  EXPECT_EQ(ftl.mapped_page_count(), 1u);
  // A healthy small_config drive admits its whole logical space.
  EXPECT_GE(ftl.capacity_watermark_pages(), ftl.logical_pages());
  EXPECT_EQ(ftl.try_write_page(4, ctx), WriteResult::kOk);
  EXPECT_EQ(ftl.mapped_page_count(), 2u);
  // A rewrite clears the tombstone (the trim no longer needs preserving).
  EXPECT_EQ(ftl.live_tombstones(), 0u);
}

TEST(FtlBase, VirtualClockCountsHostPages) {
  BaseFtl ftl(small_config());
  HostRequest req;
  req.op = OpType::kWrite;
  req.start_lpn = 0;
  req.num_pages = 10;
  submit_ok(ftl, req);
  EXPECT_EQ(ftl.virtual_clock(), 10u);
  req.op = OpType::kRead;
  submit_ok(ftl, req);
  EXPECT_EQ(ftl.virtual_clock(), 10u);  // reads don't advance it
}

TEST(FtlBase, StatsIdentityFlashWrites) {
  BaseFtl ftl(small_config());
  const Trace trace = test::small_workload(small_config(), 3.0);
  replay_ok(ftl, trace);
  const FtlStats& s = ftl.stats();
  EXPECT_EQ(s.flash_writes(), s.user_writes + s.gc_writes + s.meta_writes);
  EXPECT_EQ(s.user_writes, trace.total_write_pages());
  // The flash array must agree with the FTL's accounting.
  EXPECT_EQ(ftl.flash().total_programs(), s.flash_writes());
  EXPECT_EQ(ftl.flash().total_erases(), s.erases);
  EXPECT_GT(s.gc_invocations, 0u);
  EXPECT_DOUBLE_EQ(
      s.write_amplification(),
      static_cast<double>(s.gc_writes + s.meta_writes) / s.user_writes);
}

TEST(FtlBase, SequentialFlagDetection) {
  // Two adjacent write requests: the second is sequential.
  class Probe : public BaseFtl {
   public:
    using BaseFtl::BaseFtl;
    bool last_seq = false;

   protected:
    std::uint32_t classify_user_write(Lpn lpn, const WriteContext& ctx,
                                      OobData& oob) override {
      last_seq = ctx.is_sequential;
      return BaseFtl::classify_user_write(lpn, ctx, oob);
    }
  };
  Probe ftl(small_config());
  HostRequest req;
  req.op = OpType::kWrite;
  req.start_lpn = 100;
  req.num_pages = 4;
  submit_ok(ftl, req);
  EXPECT_FALSE(ftl.last_seq);
  req.start_lpn = 104;
  submit_ok(ftl, req);
  EXPECT_TRUE(ftl.last_seq);
  req.start_lpn = 200;
  submit_ok(ftl, req);
  EXPECT_FALSE(ftl.last_seq);
}

TEST(FtlBaseDeath, MoreStreamsThanTheLedgerCountsAborts) {
  // FtlStats counts per-stream pages in kMaxStreams-entry arrays.
  class Wide : public FtlBase {
   public:
    explicit Wide(const FtlConfig& cfg)
        : FtlBase(cfg, {.num_streams = kMaxStreams + 1}) {}
    std::string name() const override { return "Wide"; }

   protected:
    std::uint32_t classify_user_write(Lpn, const WriteContext&,
                                      OobData&) override {
      return 0;
    }
    std::uint32_t classify_gc_write(const OobData&) override { return 0; }
    std::uint64_t pick_victim() override { return greedy_victim(); }
  };
  EXPECT_DEATH(Wide{small_config()}, "stream count must be in");
}

TEST(FtlBaseDeath, OutOfRangeRequestAborts) {
  BaseFtl ftl(small_config());
  HostRequest req;
  req.op = OpType::kWrite;
  req.start_lpn = ftl.logical_pages() - 1;
  req.num_pages = 2;
  EXPECT_DEATH(ftl.submit_checked(req), "beyond logical capacity");
}

// --- Victim policy scoring ---

TEST(VictimPolicy, GreedyPrefersMostInvalid) {
  EXPECT_GT(greedy_score(0.9), greedy_score(0.5));
}

TEST(VictimPolicy, CostBenefitPrefersOlderAtEqualUtilization) {
  EXPECT_GT(cost_benefit_score(0.5, 200.0), cost_benefit_score(0.5, 100.0));
}

TEST(VictimPolicy, CostBenefitPrefersLessUtilizedAtEqualAge) {
  EXPECT_GT(cost_benefit_score(0.8, 100.0), cost_benefit_score(0.2, 100.0));
}

TEST(VictimPolicy, CostBenefitFullyInvalidIsInfinite) {
  EXPECT_TRUE(std::isinf(cost_benefit_score(1.0, 1.0)));
}

TEST(VictimPolicy, AdjustedGreedyEqualsGreedyForLongLivedBlocks) {
  EXPECT_DOUBLE_EQ(
      adjusted_greedy_score(0.4, 0.6, /*short_living=*/false, 100.0, 50.0),
      0.4);
}

TEST(VictimPolicy, AdjustedGreedyDeprioritizesFreshHotBlocks) {
  // C << T: the discount is strong — the freshly closed hot superblock is
  // left alone so its pages can self-invalidate.
  const double fresh =
      adjusted_greedy_score(0.4, 0.6, /*short_living=*/true, 1000.0, 10.0);
  EXPECT_LT(fresh, 0.01);
}

TEST(VictimPolicy, AdjustedGreedyRemediationFavorsOldHotBlocks) {
  // Pages still valid long after close were likely mispredicted; the paper
  // favours reclaiming them ("false short-living pages") — the discount
  // fades with age.
  const double fresh = adjusted_greedy_score(0.4, 0.6, true, 100.0, 10.0);
  const double old = adjusted_greedy_score(0.4, 0.6, true, 100.0, 10000.0);
  EXPECT_GT(old, fresh);
  EXPECT_NEAR(old, 0.4, 0.01);  // discount ≈ gone: competes as greedy
}

TEST(VictimPolicy, AdjustedGreedyNeverExceedsGreedy) {
  // A hot superblock can never spuriously outrank a fully invalid victim.
  for (double v : {0.1, 0.5, 0.9}) {
    for (double c : {1.0, 100.0, 1e9}) {
      const double s = adjusted_greedy_score(1.0 - v, v, true, 500.0, c);
      EXPECT_LE(s, 1.0 - v + 1e-12);
      EXPECT_TRUE(std::isfinite(s));
    }
  }
}

TEST(VictimPolicy, AdjustedGreedyFullyInvalidShortBlockIsTopVictim) {
  const double s = adjusted_greedy_score(1.0, 0.0, true, 500.0, 10.0);
  EXPECT_DOUBLE_EQ(s, 1.0);
}

// --- Property: data integrity across all schemes under random traffic ---

class FtlIntegrityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FtlIntegrityTest, RandomTrafficPreservesAllMappings) {
  const FtlConfig cfg = small_config();
  auto ftl = make_scheme(GetParam(), scheme_config(cfg));
  ASSERT_NE(ftl, nullptr);

  Xoshiro256 rng(2024);
  HostOracle oracle(ftl->logical_pages());
  WriteContext ctx;
  // Enough traffic to force many GC cycles on the tiny drive.
  for (int i = 0; i < 30000; ++i)
    ASSERT_EQ(oracle.write(*ftl, rng.next_below(ftl->logical_pages()), ctx),
              WriteResult::kOk);
  EXPECT_GT(ftl->stats().gc_invocations, 0u);
  EXPECT_EQ(oracle.check(*ftl), "") << GetParam();
}

TEST_P(FtlIntegrityTest, MappingAndValidityAreConsistentAfterGc) {
  const FtlConfig cfg = small_config();
  auto ftl = make_scheme(GetParam(), scheme_config(cfg));
  const Trace trace = test::small_workload(cfg, 4.0, /*seed=*/99);
  replay_ok(*ftl, trace);

  // Every mapped LPN points at a valid page that points back, and the
  // valid pages are exactly the mapped ones.
  EXPECT_EQ(check_invariants(*ftl), "") << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, FtlIntegrityTest,
                         ::testing::ValuesIn(kSchemeNames));

// --- Property: the incremental victim index agrees with a fresh scan ---

/// Historical greedy argmax via a full scan over flash states: the
/// smallest valid count among closed superblocks (~0 when none closed).
std::uint64_t linear_min_valid_scan(const FtlBase& ftl) {
  std::uint64_t best_valid = ~0ULL;
  bool any = false;
  for (std::uint64_t sb = 0; sb < ftl.config().geom.num_superblocks(); ++sb) {
    if (ftl.flash().state(sb) != SuperblockState::kClosed) continue;
    any = true;
    best_valid = std::min(best_valid, ftl.valid_count(sb));
  }
  return any ? best_valid : ~0ULL;
}

TEST_P(FtlIntegrityTest, VictimIndexAgreesWithFreshScanUnderRandomTraffic) {
  const FtlConfig cfg = small_config();
  auto ftl = make_scheme(GetParam(), scheme_config(cfg));
  ASSERT_NE(ftl, nullptr);

  Xoshiro256 rng(7777);
  WriteContext ctx;
  // Random write/trim(invalidate)/GC interleavings: writes trigger GC
  // internally once the free pool drains; trims invalidate without a
  // write. Check the index against a fresh linear scan as state evolves.
  for (int op = 1; op <= 20000; ++op) {
    const Lpn lpn = rng.next_below(ftl->logical_pages());
    if (rng.next_bool(0.05))
      ftl->trim_page(lpn);
    else
      write_ok(*ftl, lpn, ctx);
    if (op % 500 != 0) continue;

    // 1. The index enumerates exactly the closed superblocks.
    std::set<std::uint64_t> from_index;
    ftl->for_each_closed([&](std::uint64_t sb) { from_index.insert(sb); });
    std::set<std::uint64_t> from_scan;
    // Trim-journal superblocks are closed but never GC candidates.
    for (std::uint64_t sb = 0; sb < cfg.geom.num_superblocks(); ++sb)
      if (ftl->flash().state(sb) == SuperblockState::kClosed &&
          !ftl->is_journal_sb(sb))
        from_scan.insert(sb);
    ASSERT_EQ(from_index, from_scan) << "op " << op;
    ASSERT_EQ(ftl->closed_count(), from_scan.size());

    // 2. Every bucket holds superblocks at exactly its valid count, and
    //    buckets arrive in ascending order.
    std::uint64_t prev_valid = 0;
    bool first = true;
    ftl->visit_closed_by_valid(
        [&](std::uint64_t valid, const std::vector<std::uint64_t>& sbs) {
          EXPECT_TRUE(first || valid > prev_valid);
          first = false;
          prev_valid = valid;
          for (const std::uint64_t sb : sbs)
            EXPECT_EQ(ftl->valid_count(sb), valid) << "sb " << sb;
          return true;
        });

    // 3. The O(1) greedy pop returns a closed superblock achieving the
    //    minimum valid count a fresh scan finds (tie-breaking among equal
    //    counts is unspecified).
    const std::uint64_t victim = ftl->greedy_victim();
    ASSERT_NE(victim, ~0ULL);
    ASSERT_EQ(ftl->flash().state(victim), SuperblockState::kClosed);
    ASSERT_EQ(ftl->valid_count(victim), linear_min_valid_scan(*ftl))
        << "op " << op;
  }
  EXPECT_GT(ftl->stats().gc_invocations, 0u);
}

TEST_P(FtlIntegrityTest, VictimIndexSurvivesRecoveryRebuild) {
  const FtlConfig cfg = small_config();
  auto ftl = make_scheme(GetParam(), scheme_config(cfg));
  const Trace trace = test::small_workload(cfg, 3.0, /*seed=*/55);
  replay_ok(*ftl, trace);

  ftl->rebuild_mapping_from_flash();

  std::set<std::uint64_t> from_index;
  ftl->for_each_closed([&](std::uint64_t sb) { from_index.insert(sb); });
  std::set<std::uint64_t> from_scan;
  for (std::uint64_t sb = 0; sb < cfg.geom.num_superblocks(); ++sb)
    if (ftl->flash().state(sb) == SuperblockState::kClosed &&
        !ftl->is_journal_sb(sb))
      from_scan.insert(sb);
  EXPECT_EQ(from_index, from_scan);
  if (!from_scan.empty()) {
    EXPECT_EQ(ftl->valid_count(ftl->greedy_victim()),
              linear_min_valid_scan(*ftl));
  }
}

}  // namespace
}  // namespace phftl
