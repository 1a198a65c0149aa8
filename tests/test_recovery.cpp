// Mount-time L2P reconstruction from OOB areas (power-loss recovery), the
// randomized power-cut property tests, and fault-injection degradation
// (program-failure retirement, erase failures, factory bad blocks).
// docs/RECOVERY.md documents the contract these tests enforce.
#include <gtest/gtest.h>

#include <map>

#include "baselines/base_ftl.hpp"
#include "flash/fault_injector.hpp"
#include "ftl/host_oracle.hpp"
#include "helpers.hpp"
#include "util/rng.hpp"

namespace phftl {
namespace {

using test::replay_ok;
using test::scheme_config;
using test::small_config;
using test::small_workload;
using test::write_ok;

class RecoveryTest : public ::testing::TestWithParam<std::string> {};

/// Scheme factory with a lightened PHFTL trainer: the crash-property suite
/// replays hundreds of workloads, and classifier quality is not under test.
/// `gc_step_pages` lets the power-cut property alternate between
/// stop-the-world (0) and time-sliced GC so cuts land mid-round with a
/// half-relocated victim (docs/QOS.md "Crash consistency").
std::unique_ptr<FtlBase> make_crash_ftl(const std::string& scheme,
                                        FtlConfig cfg,
                                        std::uint64_t gc_step_pages = 0) {
  cfg.gc_step_pages = gc_step_pages;
  core::PhftlConfig pc = scheme_config(cfg, /*seed=*/11);
  pc.trainer.window_pages = 1024;
  pc.trainer.max_window_samples = 512;
  pc.trainer.train_per_class = 32;
  return make_scheme(scheme, pc);
}

TEST_P(RecoveryTest, RebuiltMappingServesIdenticalReads) {
  const FtlConfig cfg = small_config();
  auto ftl = make_scheme(GetParam(), scheme_config(cfg));
  const Trace trace = small_workload(cfg, 3.0, 41);
  replay_ok(*ftl, trace);

  // Snapshot the pre-crash state.
  std::map<Lpn, Ppn> mapping;
  for (Lpn lpn = 0; lpn < ftl->logical_pages(); ++lpn)
    if (ftl->is_mapped(lpn)) mapping[lpn] = ftl->lookup(lpn);
  ASSERT_FALSE(mapping.empty());

  // "Power loss": wipe and rebuild the volatile tables from flash.
  ftl->rebuild_mapping_from_flash();

  for (const auto& [lpn, ppn] : mapping) {
    ASSERT_TRUE(ftl->is_mapped(lpn)) << GetParam() << " lpn " << lpn;
    EXPECT_EQ(ftl->lookup(lpn), ppn);
    EXPECT_EQ(ftl->read_page(lpn), FtlBase::payload_of(lpn));
  }
}

TEST_P(RecoveryTest, RebuiltValidityCountsAreConsistent) {
  const FtlConfig cfg = small_config();
  auto ftl = make_scheme(GetParam(), scheme_config(cfg));
  const Trace trace = small_workload(cfg, 2.0, 43);
  replay_ok(*ftl, trace);

  std::vector<std::uint64_t> counts_before(cfg.geom.num_superblocks());
  for (std::uint64_t sb = 0; sb < cfg.geom.num_superblocks(); ++sb)
    counts_before[sb] = ftl->valid_count(sb);

  ftl->rebuild_mapping_from_flash();
  for (std::uint64_t sb = 0; sb < cfg.geom.num_superblocks(); ++sb)
    EXPECT_EQ(ftl->valid_count(sb), counts_before[sb]) << "sb " << sb;
}

TEST_P(RecoveryTest, DeviceRemainsUsableAfterRecovery) {
  const FtlConfig cfg = small_config();
  auto ftl = make_scheme(GetParam(), scheme_config(cfg));
  const Trace trace = small_workload(cfg, 2.0, 47);
  replay_ok(*ftl, trace);

  ftl->rebuild_mapping_from_flash();

  // Post-recovery traffic, including GC, must behave normally.
  WriteContext ctx;
  Xoshiro256 rng(5);
  for (int i = 0; i < 20000; ++i) {
    const Lpn lpn = rng.next_below(ftl->logical_pages());
    write_ok(*ftl, lpn, ctx);
    ASSERT_EQ(ftl->read_page(lpn), FtlBase::payload_of(lpn));
  }
}

TEST_P(RecoveryTest, TrimmedPagesStayUnmappedAcrossRecovery) {
  // Trims are journaled before being acknowledged, and recover() replays
  // the journal after the OOB rebuild — so a trimmed-and-not-rewritten page
  // must stay unmapped across an unclean shutdown (docs/RECOVERY.md).
  const FtlConfig cfg = small_config();
  auto ftl = make_scheme(GetParam(), scheme_config(cfg));
  WriteContext ctx;
  write_ok(*ftl, 7, ctx);
  ftl->trim_page(7);
  EXPECT_FALSE(ftl->is_mapped(7));

  // The raw OOB rebuild alone resurrects the stale copy (the newest flash
  // copy of LPN 7 still exists) — exactly the bug the journal fixes.
  ftl->rebuild_mapping_from_flash();
  EXPECT_TRUE(ftl->is_mapped(7));

  const RecoveryReport rep = ftl->recover();
  EXPECT_FALSE(ftl->is_mapped(7)) << "trim resurrected across recovery";
  EXPECT_GE(rep.trim_records_replayed, 1u);
  EXPECT_GE(rep.trim_tombstones, 1u);
  EXPECT_GE(ftl->live_tombstones(), 1u);

  // A rewrite after the trim wins over the journal record.
  write_ok(*ftl, 7, ctx);
  ftl->recover();
  EXPECT_TRUE(ftl->is_mapped(7));
  EXPECT_EQ(ftl->read_page(7), FtlBase::payload_of(7));
}

TEST_P(RecoveryTest, JournalCompactionPreservesTombstones) {
  // Force enough trim churn to trigger compaction, then crash: the rewritten
  // (dense) journal must still protect every live tombstone, and the journal
  // footprint must stay bounded at one superblock after every mount.
  const FtlConfig cfg = small_config();
  auto ftl = make_crash_ftl(GetParam(), cfg);
  const std::uint64_t logical = ftl->logical_pages();
  HostOracle oracle(logical);
  WriteContext ctx;
  Xoshiro256 rng(2024);
  // Each round writes two pages and trims one of them immediately, so every
  // trim is effective and appends one record page — comfortably exceeding
  // the compaction threshold (half a superblock of record pages).
  const std::uint64_t rounds = 2 * cfg.geom.pages_per_superblock() + 64;
  for (std::uint64_t i = 0; i < rounds; ++i) {
    ASSERT_EQ(oracle.write(*ftl, rng.next_below(logical), ctx),
              WriteResult::kOk);
    const Lpn t = rng.next_below(logical);
    ASSERT_EQ(oracle.write(*ftl, t, ctx), WriteResult::kOk);
    ASSERT_TRUE(oracle.trim(*ftl, t));
  }
  EXPECT_GE(ftl->stats().trim_journal_compactions, 1u);
  ASSERT_EQ(oracle.check(*ftl), "");

  ftl->recover();
  ASSERT_EQ(oracle.check(*ftl), "");
  // Post-mount the journal occupies at most one superblock.
  EXPECT_LE(ftl->trim_journal_superblocks(), 1u);
}

TEST_P(RecoveryTest, MultiPageTrimJournalSurvivesRecovery) {
  // One trim request whose records overflow a journal page: every other
  // LPN of the span is mapped, so the trim journals 513 one-LPN runs, three
  // record pages at 256 records per 4 KiB page. The mount must replay all
  // three, and its compaction rewrites the 513 tombstones as three pages.
  const FtlConfig cfg = small_config();
  auto ftl = make_crash_ftl(GetParam(), cfg);
  constexpr Lpn kSpan = 1026;
  constexpr Lpn kNeighbours = 300;  // [kSpan, kSpan + 300), never trimmed
  constexpr std::uint64_t kRuns = kSpan / 2;
  HostOracle oracle(ftl->logical_pages());
  WriteContext ctx;
  for (Lpn lpn = 0; lpn < kSpan; lpn += 2)
    ASSERT_EQ(oracle.write(*ftl, lpn, ctx), WriteResult::kOk);
  for (Lpn lpn = kSpan; lpn < kSpan + kNeighbours; ++lpn)
    ASSERT_EQ(oracle.write(*ftl, lpn, ctx), WriteResult::kOk);

  HostRequest trim;
  trim.op = OpType::kTrim;
  trim.start_lpn = 0;
  trim.num_pages = kSpan;
  oracle.submit(*ftl, trim);
  ASSERT_EQ(ftl->stats().trims, kRuns);
  ASSERT_EQ(ftl->stats().journal_writes, 3u);  // one flush, three pages

  const RecoveryReport rep = ftl->recover();
  ASSERT_EQ(oracle.check(*ftl), "") << GetParam();
  EXPECT_EQ(rep.trim_records_replayed, kRuns);
  EXPECT_EQ(rep.trim_tombstones, kRuns);
  EXPECT_EQ(ftl->live_tombstones(), kRuns);
  EXPECT_EQ(ftl->stats().trim_journal_compactions, 1u);
  EXPECT_EQ(ftl->stats().journal_writes, 6u);
  EXPECT_EQ(ftl->trim_journal_superblocks(), 1u);
}

TEST_P(RecoveryTest, VirtualClockSurvivesCrossing32Bits) {
  // Regression: OOB write_time used to be truncated to 32 bits, so a mount
  // after the clock crossed 2^32 would warp lifetimes back to zero.
  const FtlConfig cfg = small_config();
  auto ftl = make_crash_ftl(GetParam(), cfg);
  WriteContext ctx;
  Xoshiro256 rng(321);
  const std::uint64_t seed_clock = (1ULL << 32) - 50;
  ftl->seed_virtual_clock(seed_clock);
  const std::uint64_t writes = 200;  // clock crosses 2^32 mid-loop
  for (std::uint64_t w = 0; w < writes; ++w)
    write_ok(*ftl, rng.next_below(ftl->logical_pages()), ctx);
  EXPECT_GT(ftl->virtual_clock(), 1ULL << 32);

  const RecoveryReport rep = ftl->recover();
  EXPECT_GT(rep.recovered_vclock, 1ULL << 32)
      << "recovered clock wrapped below 2^32";
  EXPECT_LE(rep.recovered_vclock, seed_clock + writes + 1);
  ASSERT_EQ(check_invariants(*ftl), "");
}

// --- randomized power-cut property test (docs/RECOVERY.md contract) ---
//
// ISSUE acceptance criterion: >= 50 random power-cut points per scheme must
// recover acknowledged data bit-for-bit, with valid-count and victim-index
// invariants holding both right after the remount and after resumed traffic.
// Odd cuts run under time-sliced GC with a 3-page step budget, so many cuts
// strike with a half-relocated victim parked between steps — recovery must
// rebuild from whatever mix of old and new copies is on flash (the newest
// program wins by write_time; docs/QOS.md "Crash consistency").
TEST_P(RecoveryTest, RandomizedPowerCutsPreserveAcknowledgedData) {
  const FtlConfig cfg = small_config();
  constexpr std::uint64_t kCuts = 50;
  Xoshiro256 cut_rng(0xC0FFEE);
  for (std::uint64_t c = 0; c < kCuts; ++c) {
    const std::uint64_t step_pages = c % 2 == 1 ? 3 : 0;
    auto ftl = make_crash_ftl(GetParam(), cfg, step_pages);
    const std::uint64_t logical = ftl->logical_pages();
    const std::uint64_t hot = std::max<std::uint64_t>(logical / 10, 1);
    // Cuts span cold start through steady-state GC (up to 2 full drives).
    const std::uint64_t cut = 1 + cut_rng.next_below(logical * 2);

    Xoshiro256 rng(1000 + c);
    HostOracle oracle(logical);
    WriteContext ctx;
    std::uint64_t pre_vclock = 0;
    for (std::uint64_t w = 0; w < cut; ++w) {
      if (rng.next_bool(0.05)) oracle.trim(*ftl, rng.next_below(logical));
      const Lpn lpn =
          rng.next_bool(0.5) ? rng.next_below(hot) : rng.next_below(logical);
      ASSERT_EQ(oracle.write(*ftl, lpn, ctx), WriteResult::kOk);
      ++pre_vclock;
    }

    const RecoveryReport rep = ftl->recover();
    // A cut mid-round leaves no resumable cursor: the mount resets the
    // in-flight state and the victim re-enters the victim index at its
    // remaining valid count (rebuild pass 3).
    ASSERT_EQ(ftl->gc_inflight_victim(), FtlBase::kNoVictim);
    ASSERT_EQ(oracle.check(*ftl), "") << GetParam() << " cut " << cut;
    EXPECT_GT(rep.oob_scans, 0u);
    EXPECT_GT(rep.mapped_lpns, 0u);
    // The journal never spans more than one superblock after a mount.
    EXPECT_LE(ftl->trim_journal_superblocks(), 1u);
    // The re-derived clock is a lower bound on host writes issued
    // (write_time survives GC moves, so stale copies never inflate it).
    EXPECT_GT(rep.recovered_vclock, 0u);
    EXPECT_LE(rep.recovered_vclock, pre_vclock + 1);
    // Same contract shape for the wear table (docs/ENDURANCE.md): the
    // re-derived per-superblock erase counts are lower bounds on the
    // physical counts (check_invariants), exact for data blocks that still
    // hold a programmed page. Excluded from exactness: pageless blocks (cut
    // right after the opening erase) and journal blocks — the mount's own
    // step-7 compaction cycles those after the wear table was re-derived.
    for (std::uint64_t sb = 0; sb < cfg.geom.num_superblocks(); ++sb) {
      bool holds_page = false;
      for (std::uint64_t off = 0; off < ftl->flash().write_pointer(sb); ++off)
        holds_page |= ftl->flash().is_programmed(cfg.geom.make_ppn(sb, off));
      if (holds_page && !ftl->is_journal_sb(sb) &&
          ftl->flash().state(sb) == SuperblockState::kClosed) {
        ASSERT_EQ(ftl->wear_count(sb), ftl->flash().erase_count(sb))
            << GetParam() << " cut " << cut << " sb " << sb;
      }
    }

    // The drive must keep serving traffic after the remount, including
    // further trims of recovered data.
    for (int w = 0; w < 400; ++w) {
      if (rng.next_bool(0.05)) oracle.trim(*ftl, rng.next_below(logical));
      const Lpn lpn = rng.next_below(logical);
      ASSERT_EQ(oracle.write(*ftl, lpn, ctx), WriteResult::kOk);
      ASSERT_EQ(ftl->read_page(lpn), FtlBase::payload_of(lpn));
    }
    ASSERT_EQ(oracle.check(*ftl), "") << GetParam() << " cut " << cut;
  }
}

// Mapping-tier variant of the power-cut property (docs/MAPPING.md "Crash
// semantics"): the same 50 random cut points now strike a drive whose L2P
// truth lives on flash behind a deliberately tiny CMT with held-back dirty
// write-backs — so cuts routinely land with dirty CMT entries lost, a
// populated write-back buffer discarded, translation pages half-migrated
// by a parked time-sliced GC round, and trims journaled but not yet
// reflected in flash-resident translation pages. Mount-time GTD rebuild +
// reconciliation must still serve every acknowledged page bit-for-bit.
TEST_P(RecoveryTest, RandomizedPowerCutsPreserveDataWithMappingTier) {
  FtlConfig cfg = small_config();
  cfg.op_ratio = 0.20;  // room for the translation-superblock reserve
  cfg.mapping_tier = true;
  cfg.tp_entries = 64;  // 52 translation pages on the tiny drive
  cfg.cmt_pages = 8;    // heavy eviction traffic
  cfg.cmt_wb_batch = 16;
  constexpr std::uint64_t kCuts = 50;
  Xoshiro256 cut_rng(0x7EA0C0DE);
  for (std::uint64_t c = 0; c < kCuts; ++c) {
    const std::uint64_t step_pages = c % 2 == 1 ? 3 : 0;
    // Alternate the learned index on/off across cuts (period 2 vs the step
    // budget's period so both pair with both): on, the model dies with RAM
    // at the cut and mount-time reconciliation must retrain its segments
    // from the rebuilt truth (docs/MAPPING.md "Learned index").
    cfg.learned_index = (c / 2) % 2 == 0;
    auto ftl = make_crash_ftl(GetParam(), cfg, step_pages);
    const std::uint64_t logical = ftl->logical_pages();
    const std::uint64_t hot = std::max<std::uint64_t>(logical / 10, 1);
    const std::uint64_t cut = 1 + cut_rng.next_below(logical * 2);

    Xoshiro256 rng(4000 + c);
    HostOracle oracle(logical);
    WriteContext ctx;
    for (std::uint64_t w = 0; w < cut; ++w) {
      if (rng.next_bool(0.05)) oracle.trim(*ftl, rng.next_below(logical));
      const Lpn lpn =
          rng.next_bool(0.5) ? rng.next_below(hot) : rng.next_below(logical);
      ASSERT_EQ(oracle.write(*ftl, lpn, ctx), WriteResult::kOk);
    }

    const RecoveryReport rep = ftl->recover();
    ASSERT_EQ(ftl->gc_inflight_victim(), FtlBase::kNoVictim);
    ASSERT_EQ(ftl->mapping_tier()->wb_pending(), 0u);
    // The oracle reads through the demand-paged path, which cross-checks
    // every lookup against the rebuilt shadow and aborts on divergence.
    ASSERT_EQ(oracle.check(*ftl), "") << GetParam() << " cut " << cut;
    for (Lpn lpn = 0; lpn < logical; ++lpn) {
      ASSERT_EQ(ftl->mapping_tier()->lookup(lpn, /*host_read=*/false),
                ftl->lookup(lpn))
          << GetParam() << " cut " << cut << " lpn " << lpn;
    }
    // Any cut deep enough to have flushed a translation page must rebuild
    // GTD entries from OOB stamps (early cuts may legitimately find none).
    if (ftl->stats().trans_writes > 0 || cut > logical) {
      EXPECT_GT(rep.trans_gtd_rebuilt, 0u) << GetParam() << " cut " << cut;
      // Learned-on: reconciliation retrained the model from the rebuilt
      // truth, so the mount comes back with live segments (and the
      // tier lookup sweep above already verified them against the shadow).
      if (cfg.learned_index) {
        EXPECT_GT(ftl->learned_segments(), 0u) << GetParam() << " cut " << cut;
      }
    }
    EXPECT_LE(ftl->trim_journal_superblocks(), 1u);

    // The remounted drive keeps serving demand-paged traffic.
    for (int w = 0; w < 400; ++w) {
      if (rng.next_bool(0.05)) oracle.trim(*ftl, rng.next_below(logical));
      const Lpn lpn = rng.next_below(logical);
      ASSERT_EQ(oracle.write(*ftl, lpn, ctx), WriteResult::kOk);
      ASSERT_EQ(ftl->read_page(lpn), FtlBase::payload_of(lpn));
    }
    ASSERT_EQ(oracle.check(*ftl), "") << GetParam() << " cut " << cut;
  }
}

// --- fault-injection degradation (docs/RECOVERY.md "Fault model") ---

/// Fault tests run with extra over-provisioning so permanently retired
/// superblocks cannot push the drive below its GC headroom.
FtlConfig fault_config() {
  FtlConfig cfg = small_config();
  cfg.op_ratio = 0.20;
  return cfg;
}

TEST_P(RecoveryTest, ProgramFailuresRetireBlocksWithoutDataLoss) {
  FtlConfig cfg = fault_config();
  FaultInjector::Config fc;
  // Three scheduled mid-run failures keep retirement deterministic and the
  // capacity loss bounded (3 of 64 superblocks).
  FaultInjector injector(fc);
  injector.schedule_program_failure(500);
  injector.schedule_program_failure(2500);
  injector.schedule_program_failure(6000);
  cfg.fault_injector = &injector;
  auto ftl = make_crash_ftl(GetParam(), cfg);

  const std::uint64_t logical = ftl->logical_pages();
  HostOracle oracle(logical);
  WriteContext ctx;
  Xoshiro256 rng(77);
  for (std::uint64_t w = 0; w < logical * 3; ++w)
    ASSERT_EQ(oracle.write(*ftl, rng.next_below(logical), ctx),
              WriteResult::kOk);

  EXPECT_EQ(ftl->stats().program_failures, 3u);
  // Each failure marks its superblock for retirement; retirement happens
  // when GC later picks the block, and 3x drive writes force full GC churn.
  EXPECT_GE(ftl->stats().blocks_retired, 1u);
  EXPECT_EQ(ftl->flash().bad_block_count(), ftl->stats().blocks_retired);
  ASSERT_EQ(oracle.check(*ftl), "");

  // Retired blocks must survive a remount out of service.
  ftl->recover();
  EXPECT_EQ(ftl->flash().bad_block_count(), ftl->stats().blocks_retired);
  ASSERT_EQ(oracle.check(*ftl), "");
}

TEST_P(RecoveryTest, EraseFailuresShrinkTheDriveGracefully) {
  FtlConfig cfg = fault_config();
  FaultInjector::Config fc;
  FaultInjector injector(fc);
  injector.schedule_erase_failure(5);
  injector.schedule_erase_failure(25);
  cfg.fault_injector = &injector;
  auto ftl = make_crash_ftl(GetParam(), cfg);

  const std::uint64_t logical = ftl->logical_pages();
  HostOracle oracle(logical);
  WriteContext ctx;
  Xoshiro256 rng(78);
  for (std::uint64_t w = 0; w < logical * 3; ++w)
    ASSERT_EQ(oracle.write(*ftl, rng.next_below(logical), ctx),
              WriteResult::kOk);

  EXPECT_EQ(ftl->stats().erase_failures, 2u);
  EXPECT_GE(ftl->flash().bad_block_count(), 2u);
  ASSERT_EQ(oracle.check(*ftl), "");
}

TEST_P(RecoveryTest, FactoryBadBlocksStayOutOfService) {
  FtlConfig cfg = fault_config();
  FaultInjector::Config fc;
  fc.factory_bad_blocks = {0, 13, 40};
  FaultInjector injector(fc);
  cfg.fault_injector = &injector;
  auto ftl = make_crash_ftl(GetParam(), cfg);

  EXPECT_EQ(ftl->flash().bad_block_count(), 3u);
  const std::uint64_t logical = ftl->logical_pages();
  HostOracle oracle(logical);
  WriteContext ctx;
  Xoshiro256 rng(79);
  for (std::uint64_t w = 0; w < logical * 2; ++w)
    ASSERT_EQ(oracle.write(*ftl, rng.next_below(logical), ctx),
              WriteResult::kOk);

  // No live data may ever land in a factory-bad superblock.
  const Geometry& g = cfg.geom;
  for (const std::uint64_t sb : {0ULL, 13ULL, 40ULL}) {
    EXPECT_EQ(ftl->flash().state(sb), SuperblockState::kBad);
    EXPECT_EQ(ftl->valid_count(sb), 0u);
    for (std::uint64_t off = 0; off < g.pages_per_superblock(); ++off)
      EXPECT_FALSE(ftl->page_valid(g.make_ppn(sb, off)));
  }

  // And recovery must skip them while restoring everything else.
  ftl->recover();
  EXPECT_EQ(ftl->flash().bad_block_count(), 3u);
  ASSERT_EQ(oracle.check(*ftl), "");
}

TEST_P(RecoveryTest, WatermarkRejectsWritesCleanlyUnderEraseStorm) {
  // Erase-failure storm: blocks go bad until the over-provisioning is
  // nearly exhausted. The capacity watermark must turn that into clean
  // kEnospc rejections *before* GC runs out of headroom and aborts.
  FtlConfig cfg = fault_config();
  FaultInjector::Config fc;
  FaultInjector injector(fc);
  for (std::uint64_t e = 5; e <= 45; e += 5)
    injector.schedule_erase_failure(e);  // nine failures
  cfg.fault_injector = &injector;
  auto ftl = make_crash_ftl(GetParam(), cfg);
  const std::uint64_t logical = ftl->logical_pages();

  // Fill the whole logical space — a healthy drive admits all of it.
  HostOracle oracle(logical);
  WriteContext ctx;
  for (Lpn lpn = 0; lpn < logical; ++lpn)
    ASSERT_EQ(oracle.write(*ftl, lpn, ctx), WriteResult::kOk);
  ASSERT_EQ(ftl->mapped_page_count(), logical);

  // Overwrite churn drives GC; each scheduled erase failure takes a block
  // out of service until the watermark sinks below the mapped count.
  Xoshiro256 rng(90);
  bool saw_enospc = false;
  for (std::uint64_t w = 0; w < logical * 6 && !saw_enospc; ++w) {
    const Lpn lpn = rng.next_below(logical);
    saw_enospc = oracle.write(*ftl, lpn, ctx) == WriteResult::kEnospc;
  }
  ASSERT_TRUE(saw_enospc) << "erase storm never tripped the watermark";
  EXPECT_GE(ftl->stats().enospc_rejections, 1u);
  EXPECT_GT(ftl->mapped_page_count(), ftl->capacity_watermark_pages());

  // The drive is read-only, not dead: every acknowledged page reads back.
  ASSERT_EQ(oracle.check(*ftl), "");

  // Trimming frees capacity, and writes are admitted again below the
  // watermark (with slack for the request below).
  std::uint64_t freed = 0;
  for (Lpn lpn = 0;
       lpn < logical &&
       ftl->mapped_page_count() + 64 > ftl->capacity_watermark_pages();
       ++lpn)
    freed += oracle.trim(*ftl, lpn) ? 1 : 0;
  EXPECT_GT(freed, 64u);
  EXPECT_EQ(oracle.write(*ftl, logical - 1, ctx), WriteResult::kOk);

  // A request that crosses the watermark mid-flight reports honest partial
  // completion: the first pages_completed pages took effect, the rest
  // (including the page that bounced) did not, which the oracle checks.
  HostRequest req;
  req.op = OpType::kWrite;
  req.start_lpn = 0;  // the freshly trimmed region: all new mappings
  req.num_pages = 256;
  const SubmitResult sr = oracle.submit(*ftl, req);
  EXPECT_EQ(sr.status, WriteResult::kEnospc);
  ASSERT_LT(sr.pages_completed, req.num_pages);
  EXPECT_GE(sr.pages_completed, 1u);
  ASSERT_EQ(oracle.check(*ftl), "");
}

TEST_P(RecoveryTest, RecoveryAndFaultMetricsAreExported) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  FtlConfig cfg = fault_config();
  FaultInjector::Config fc;
  FaultInjector injector(fc);
  injector.schedule_program_failure(300);
  cfg.fault_injector = &injector;
  auto ftl = make_crash_ftl(GetParam(), cfg);

  WriteContext ctx;
  Xoshiro256 rng(80);
  for (std::uint64_t w = 0; w < ftl->logical_pages(); ++w)
    write_ok(*ftl, rng.next_below(ftl->logical_pages()), ctx);
  const RecoveryReport rep = ftl->recover();

  const auto& reg = ftl->observability().metrics();
  const auto* mounts = reg.find_counter("recovery.mounts");
  const auto* scans = reg.find_counter("recovery.oob_scans");
  const auto* rebuild = reg.find_counter("recovery.rebuild_ns");
  const auto* pfail = reg.find_counter("flash.program_failures");
  ASSERT_NE(mounts, nullptr);
  ASSERT_NE(scans, nullptr);
  ASSERT_NE(rebuild, nullptr);
  ASSERT_NE(pfail, nullptr);
  EXPECT_EQ(mounts->value(), 1u);
  EXPECT_EQ(scans->value(), rep.oob_scans);
  EXPECT_EQ(rebuild->value(), rep.rebuild_ns);
  EXPECT_EQ(pfail->value(), 1u);

  // The pending-retire gauge is separate from the closed-superblock gauge
  // and wiped by recover() (the flag table is RAM-only).
  const auto* pending = reg.find_gauge("ftl.pending_retire_superblocks");
  const auto* closed = reg.find_gauge("ftl.closed_superblocks");
  ASSERT_NE(pending, nullptr);
  ASSERT_NE(closed, nullptr);
  EXPECT_EQ(pending->value(), 0.0);
  EXPECT_NE(pending->value(), closed->value());

  const std::string json = obs::metrics_to_json(ftl->observability());
  for (const char* name :
       {"recovery.mounts", "recovery.oob_scans", "recovery.rebuild_ns",
        "flash.program_failures", "flash.erase_failures",
        "flash.blocks_retired", "flash.bad_blocks",
        "ftl.pending_retire_superblocks", "ftl.trim_journal.appends",
        "ftl.trim_journal.records", "ftl.trim_journal.compactions",
        "ftl.trim_journal.replayed_tombstones", "ftl.trim_journal.pages",
        "ftl.trim_journal.superblocks", "ftl.capacity_watermark_pages",
        "ftl.mapped_pages", "ftl.enospc_rejections"})
    EXPECT_NE(json.find(name), std::string::npos) << name;
}

// The oracle catches what it exists to catch. After a clean run with GC
// and a remount, which it passes, one operation done on the FTL behind its
// back must yield a report naming that operation's LPN.
TEST_P(RecoveryTest, OracleReportsOperationsBehindItsBack) {
  WriteContext ctx;
  const auto expect_caught = [&](const char* what, const auto& behind_back) {
    SCOPED_TRACE(what);
    auto ftl = make_crash_ftl(GetParam(), small_config());
    const Lpn half = ftl->logical_pages() / 2;  // [half, end) stays unwritten
    HostOracle oracle(ftl->logical_pages());
    for (Lpn lpn = 0; lpn < half; ++lpn)
      ASSERT_EQ(oracle.write(*ftl, lpn, ctx), WriteResult::kOk);
    Xoshiro256 rng(17);
    for (std::uint64_t w = 0; w < half * 3; ++w)  // overwrites: GC runs
      ASSERT_EQ(oracle.write(*ftl, rng.next_below(half), ctx),
                WriteResult::kOk);
    ASSERT_TRUE(oracle.trim(*ftl, 0));
    ftl->recover();
    ASSERT_EQ(oracle.check(*ftl), "");
    const Lpn lpn = behind_back(*ftl, half);
    const std::string report = oracle.check(*ftl);
    EXPECT_NE(report.find("lpn " + std::to_string(lpn) + " "),
              std::string::npos)
        << report;
  };
  expect_caught("lost write", [](FtlBase& ftl, Lpn) {
    EXPECT_TRUE(ftl.trim_page(1));
    return Lpn{1};
  });
  expect_caught("resurrected trim", [&](FtlBase& ftl, Lpn) {
    EXPECT_EQ(ftl.try_write_page(0, ctx), WriteResult::kOk);
    return Lpn{0};
  });
  expect_caught("never-written page", [&](FtlBase& ftl, Lpn half) {
    EXPECT_EQ(ftl.try_write_page(half, ctx), WriteResult::kOk);
    return half;
  });
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, RecoveryTest,
                         ::testing::ValuesIn(kSchemeNames));

// --- fault-driven end of life (docs/RECOVERY.md) ---

TEST(FaultEndOfLife, SingleStreamGcEndsItsRoundInsteadOfAborting) {
  // One stream and a high program-failure rate: retired blocks drain the
  // free pool, and sooner or later a GC migration's program failure closes
  // the only open superblock with nowhere left to borrow. GC must end its
  // round there so the drive goes read-only with ENOSPC, and every
  // acknowledged page must stay readable, also after a remount.
  for (const std::uint64_t seed : {1ULL, 3ULL, 5ULL}) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    FtlConfig cfg = small_config();
    FaultInjector::Config fc;
    fc.seed = seed;
    fc.program_fail_prob = 0.005;
    FaultInjector injector(fc);
    cfg.fault_injector = &injector;
    BaseFtl ftl(cfg, VictimPolicy::kGreedy);

    const std::uint64_t logical = ftl.logical_pages();
    HostOracle oracle(logical);
    WriteContext ctx;
    Xoshiro256 rng(5);
    bool read_only = false;
    for (std::uint64_t w = 0; w < logical * 20 && !read_only; ++w)
      read_only = oracle.write(ftl, rng.next_below(logical), ctx) ==
                  WriteResult::kEnospc;
    ASSERT_TRUE(read_only) << "the drive never reached end of life";
    EXPECT_EQ(ftl.stats().enospc_rejections, 1u);
    EXPECT_GT(ftl.stats().program_failures, 0u);
    ASSERT_EQ(oracle.check(ftl), "");

    ftl.recover();
    ASSERT_EQ(oracle.check(ftl), "");
  }
}

}  // namespace
}  // namespace phftl
