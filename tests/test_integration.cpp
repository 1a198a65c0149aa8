// Cross-module integration and property tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/base_ftl.hpp"
#include "baselines/sepbit.hpp"
#include "flash/fault_injector.hpp"
#include "helpers.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace phftl {
namespace {

using test::replay_ok;
using test::scheme_config;
using test::small_config;
using test::small_workload;
using test::submit_ok;
using test::write_ok;

// --- Determinism: identical seeds must reproduce identical results ---

class DeterminismTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DeterminismTest, SameSeedSameOutcome) {
  const FtlConfig cfg = small_config();
  const Trace trace = small_workload(cfg, 2.0, 77);
  std::uint64_t flash_writes[2];
  for (int run = 0; run < 2; ++run) {
    auto ftl = make_scheme(GetParam(), scheme_config(cfg, /*seed=*/5));
    replay_ok(*ftl, trace);
    flash_writes[run] = ftl->stats().flash_writes();
  }
  EXPECT_EQ(flash_writes[0], flash_writes[1]);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, DeterminismTest,
                         ::testing::ValuesIn(kSchemeNames));

// --- Conservation laws across all schemes ---

class ConservationTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ConservationTest, EraseAndProgramAccountingMatchesFlashArray) {
  const FtlConfig cfg = small_config();
  auto ftl = make_scheme(GetParam(), scheme_config(cfg));
  const Trace trace = small_workload(cfg, 3.0, 11);
  replay_ok(*ftl, trace);

  const FtlStats& s = ftl->stats();
  EXPECT_EQ(ftl->flash().total_programs(), s.flash_writes());
  EXPECT_EQ(ftl->flash().total_erases(), s.erases);

  // Per-superblock erase counts sum to the total.
  std::uint64_t sum = 0;
  for (std::uint64_t sb = 0; sb < cfg.geom.num_superblocks(); ++sb)
    sum += ftl->flash().erase_count(sb);
  EXPECT_EQ(sum, s.erases);
}

TEST_P(ConservationTest, MappedPagesNeverExceedLogicalSpace) {
  const FtlConfig cfg = small_config();
  auto ftl = make_scheme(GetParam(), scheme_config(cfg));
  const Trace trace = small_workload(cfg, 2.5, 13);
  replay_ok(*ftl, trace);
  std::uint64_t mapped = 0;
  for (Lpn lpn = 0; lpn < ftl->logical_pages(); ++lpn)
    if (ftl->is_mapped(lpn)) ++mapped;
  EXPECT_LE(mapped, ftl->logical_pages());
  EXPECT_GT(mapped, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ConservationTest,
                         ::testing::ValuesIn(kSchemeNames));

// --- Snapshots: every row's gauges read the FTL at that instant ---

class SnapshotGaugeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SnapshotGaugeTest, EveryRowReadsLiveFtlState) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  const FtlConfig cfg = small_config();
  auto ftl = make_scheme(GetParam(), scheme_config(cfg));
  ftl->observability().set_snapshot_cadence(1000);
  const Trace trace = small_workload(cfg, 2.0, 29);
  replay_ok(*ftl, trace);

  const obs::Observability& o = ftl->observability();
  const auto& entries = o.metrics().entries();
  const auto column = [&entries](const std::string& name) {
    return static_cast<std::size_t>(
        std::find_if(entries.begin(), entries.end(),
                     [&name](const auto& e) { return e.name == name; }) -
        entries.begin());
  };
  const std::size_t vclock = column("ftl.virtual_clock");
  const std::size_t mapped = column("ftl.mapped_pages");
  ASSERT_LT(vclock, entries.size());
  ASSERT_LT(mapped, entries.size());
  ASSERT_GE(o.snapshots().size(), 2u);
  for (const obs::MetricsSnapshot& row : o.snapshots()) {
    EXPECT_EQ(row.values.at(vclock), static_cast<double>(row.now));
    EXPECT_GT(row.values.at(mapped), 0.0) << "now " << row.now;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SnapshotGaugeTest,
                         ::testing::ValuesIn(kSchemeNames));

// --- Trim interaction ---

TEST(TrimIntegration, TrimmedPagesFreeSpaceAndStayUnmapped) {
  const FtlConfig cfg = small_config();
  BaseFtl ftl(cfg);
  WriteContext ctx;
  for (Lpn lpn = 0; lpn < ftl.logical_pages(); ++lpn) write_ok(ftl, lpn, ctx);
  // Trim half the drive; subsequent GC should find lots of invalid pages.
  for (Lpn lpn = 0; lpn < ftl.logical_pages() / 2; ++lpn) ftl.trim_page(lpn);
  const std::uint64_t gc_before = ftl.stats().gc_writes;
  Xoshiro256 rng(3);
  for (int i = 0; i < 20000; ++i)
    write_ok(ftl, ftl.logical_pages() / 2 + rng.next_below(100), ctx);
  // GC after trim migrates almost nothing extra per erase.
  const std::uint64_t copies = ftl.stats().gc_writes - gc_before;
  EXPECT_LT(copies, 20000u);
  for (Lpn lpn = 0; lpn < 10; ++lpn) EXPECT_FALSE(ftl.is_mapped(lpn));
}

// --- Geometry sweep: the framework must work across shapes ---

class GeometrySweepTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GeometrySweepTest, PhftlSurvivesGeometry) {
  const auto [dies, blocks, pages] = GetParam();
  FtlConfig cfg;
  cfg.geom.num_dies = static_cast<std::uint32_t>(dies);
  cfg.geom.blocks_per_die = static_cast<std::uint32_t>(blocks);
  cfg.geom.pages_per_block = static_cast<std::uint32_t>(pages);
  cfg.geom.page_size = 4096;
  cfg.op_ratio = 0.10;

  core::PhftlConfig pcfg = core::default_phftl_config(cfg);
  core::PhftlFtl ftl(pcfg);
  const Trace trace = test::small_workload(cfg, 2.0, 31);
  replay_ok(ftl, trace);
  EXPECT_EQ(ftl.stats().user_writes, trace.total_write_pages());
  EXPECT_GT(ftl.stats().erases, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeometrySweepTest,
    ::testing::Values(std::make_tuple(2, 64, 16),   // few dies
                      std::make_tuple(8, 64, 8),    // small blocks
                      std::make_tuple(4, 128, 16),  // many superblocks
                      std::make_tuple(16, 48, 8))); // wide array

// --- Skew sensitivity: WA must fall as workloads get more separable ---

TEST(WaShape, SkewReducesWaForSeparatingSchemes) {
  const FtlConfig cfg = small_config();

  WorkloadParams uniform;
  uniform.logical_pages = static_cast<std::uint64_t>(
      static_cast<double>(cfg.geom.total_pages()) * 0.9);
  uniform.total_write_pages = uniform.logical_pages * 4;
  uniform.hot_region_fraction = 0.30;
  uniform.hot_traffic_fraction = 0.34;
  uniform.warm_region_fraction = 0.30;
  uniform.warm_traffic_fraction = 0.33;
  uniform.cyclic_fraction = 0.0;  // memoryless
  uniform.seed = 1;

  WorkloadParams skewed = uniform;
  skewed.hot_region_fraction = 0.012;
  skewed.hot_traffic_fraction = 0.80;
  skewed.warm_region_fraction = 0.012;
  skewed.warm_traffic_fraction = 0.12;
  skewed.cyclic_fraction = 0.8;
  skewed.written_space_fraction = 0.8;

  double wa_uniform, wa_skewed;
  {
    SepBitFtl ftl(cfg);
    replay_ok(ftl, generate_workload(uniform));
    wa_uniform = ftl.stats().write_amplification();
  }
  {
    SepBitFtl ftl(cfg);
    replay_ok(ftl, generate_workload(skewed));
    wa_skewed = ftl.stats().write_amplification();
  }
  EXPECT_LT(wa_skewed, wa_uniform);
}

// --- PHFTL-specific invariants under load ---

TEST(PhftlInvariants, PredictionsBoundedByUserWrites) {
  const FtlConfig cfg = small_config();
  auto pcfg = core::default_phftl_config(cfg);
  core::PhftlFtl ftl(pcfg);
  const Trace trace = small_workload(cfg, 4.0, 17);
  replay_ok(ftl, trace);
  EXPECT_LE(ftl.predictions_made(), ftl.stats().user_writes);
  EXPECT_LE(ftl.short_predictions(), ftl.predictions_made());
}

TEST(PhftlInvariants, MetaReadsOnlyOnCacheMisses) {
  const FtlConfig cfg = small_config();
  auto pcfg = core::default_phftl_config(cfg);
  core::PhftlFtl ftl(pcfg);
  const Trace trace = small_workload(cfg, 3.0, 19);
  replay_ok(ftl, trace);
  EXPECT_EQ(ftl.stats().meta_reads, ftl.meta_store().cache_misses());
}

TEST(PhftlInvariants, WindowCountMatchesWriteVolume) {
  const FtlConfig cfg = small_config();
  auto pcfg = core::default_phftl_config(cfg);
  core::PhftlFtl ftl(pcfg);
  const Trace trace = small_workload(cfg, 3.0, 23);
  replay_ok(ftl, trace);
  const std::uint64_t expected =
      trace.total_write_pages() / (cfg.geom.total_pages() / 20);
  EXPECT_GE(ftl.trainer().windows_completed() + 1, expected);
  EXPECT_LE(ftl.trainer().windows_completed(), expected + 1);
}

// --- Lifetime annotation consistency with the FTL's virtual clock ---

TEST(LifetimeConsistency, AnnotatorMatchesOnlineObservation) {
  // Replay a trace while tracking per-page last-write clocks exactly as
  // the FTL does; the annotator must agree with the online observation.
  const FtlConfig cfg = small_config();
  const Trace trace = small_workload(cfg, 2.0, 29);
  const auto lifetimes = annotate_lifetimes(trace);

  std::vector<std::uint64_t> last_write(trace.logical_pages, ~0ULL);
  std::vector<std::uint64_t> last_event(trace.logical_pages, ~0ULL);
  std::uint64_t clock = 0;
  for (const auto& req : trace.ops) {
    if (req.op != OpType::kWrite) continue;
    for (std::uint32_t i = 0; i < req.num_pages; ++i) {
      const Lpn lpn = req.start_lpn + i;
      if (last_write[lpn] != ~0ULL) {
        ASSERT_EQ(lifetimes[last_event[lpn]], clock - last_write[lpn]);
      }
      last_write[lpn] = clock;
      last_event[lpn] = clock;
      ++clock;
    }
  }
}

// --- Every knob at once, pinned ---
//
// One mixed scenario per scheme with every knob on, clear of end of life:
// the mapping tier with the learned index, time-sliced GC, wear leveling
// under a P/E budget, scheduled program and erase faults, trims, reads,
// and a power cut plus recover() halfway through. Its FtlStats and flash
// totals are recorded values: a refactor of the FTL must reproduce them
// exactly, and a behaviour change must re-record them on purpose.

/// Every scalar FtlStats field, in declaration order, named. The two
/// per-stream arrays have their own test (PerStreamLedger below).
std::vector<std::pair<const char*, std::uint64_t>> stats_fields(
    const FtlStats& s) {
  static_assert(sizeof(FtlStats) == 35 * sizeof(std::uint64_t) +
                                        sizeof(s.stream_host_writes) +
                                        sizeof(s.stream_flash_writes),
                "a new FtlStats field needs a place in stats_fields()");
  return {{"user_writes", s.user_writes},
          {"gc_writes", s.gc_writes},
          {"meta_writes", s.meta_writes},
          {"host_reads", s.host_reads},
          {"gc_reads", s.gc_reads},
          {"meta_reads", s.meta_reads},
          {"erases", s.erases},
          {"gc_invocations", s.gc_invocations},
          {"gc_rounds", s.gc_rounds},
          {"gc_aborted_rounds", s.gc_aborted_rounds},
          {"gc_moved_valid_pages", s.gc_moved_valid_pages},
          {"gc_steps", s.gc_steps},
          {"gc_preemptions", s.gc_preemptions},
          {"stream_borrows", s.stream_borrows},
          {"program_failures", s.program_failures},
          {"erase_failures", s.erase_failures},
          {"blocks_retired", s.blocks_retired},
          {"trims", s.trims},
          {"journal_writes", s.journal_writes},
          {"trim_journal_compactions", s.trim_journal_compactions},
          {"enospc_rejections", s.enospc_rejections},
          {"wl_rounds", s.wl_rounds},
          {"wl_migrations", s.wl_migrations},
          {"wear_retired", s.wear_retired},
          {"host_reads_unmapped", s.host_reads_unmapped},
          {"trans_writes", s.trans_writes},
          {"trans_gc_writes", s.trans_gc_writes},
          {"trans_reads", s.trans_reads},
          {"trans_reads_host", s.trans_reads_host},
          {"cmt_hits", s.cmt_hits},
          {"cmt_misses", s.cmt_misses},
          {"learned_hits", s.learned_hits},
          {"learned_mispredicts", s.learned_mispredicts},
          {"learned_probe_reads", s.learned_probe_reads},
          {"learned_probe_reads_host", s.learned_probe_reads_host}};
}

/// Runs the scenario on `scheme`; returns the quiescent FTL.
std::unique_ptr<FtlBase> run_knob_matrix(const std::string& scheme,
                                         FaultInjector& injector) {
  FtlConfig cfg = small_config();
  cfg.op_ratio = 0.25;  // headroom for the retired blocks
  cfg.mapping_tier = true;
  cfg.cmt_pages = 4;
  cfg.tp_entries = 32;
  cfg.learned_index = true;
  cfg.gc_step_pages = 3;
  cfg.max_pe_cycles = 40;
  cfg.wear_level_threshold = 2;
  cfg.fault_injector = &injector;
  // A light PHFTL trainer: the FTL's bookkeeping is under test, not
  // accuracy.
  core::PhftlConfig pc = scheme_config(cfg, /*seed=*/11);
  pc.trainer.window_pages = 1024;
  pc.trainer.max_window_samples = 512;
  pc.trainer.train_per_class = 32;
  std::unique_ptr<FtlBase> ftl = make_scheme(scheme, pc);

  const std::uint64_t logical = ftl->logical_pages();
  const std::uint64_t ops = logical * 4;
  Xoshiro256 rng(2024);
  WriteContext ctx;
  for (std::uint64_t op = 0; op < ops; ++op) {
    if (op == ops / 2) ftl->recover();  // power cut mid-run
    // Skewed: 3/4 of the traffic hits the hottest eighth of the space.
    const Lpn lpn = rng.next_below(4) != 0 ? rng.next_below(logical / 8)
                                           : rng.next_below(logical);
    const std::uint64_t kind = rng.next_below(100);
    if (kind < 10) {
      const std::uint64_t v = ftl->read_page(lpn);
      EXPECT_TRUE(v == 0 || v == FtlBase::payload_of(lpn)) << "lpn " << lpn;
    } else if (kind < 14) {
      HostRequest req;
      req.op = OpType::kTrim;
      req.start_lpn = lpn;
      req.num_pages = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(1 + rng.next_below(8), logical - lpn));
      submit_ok(*ftl, req);
    } else {
      EXPECT_EQ(ftl->try_write_page(lpn, ctx), WriteResult::kOk);
    }
  }
  ftl->drain();
  return ftl;
}

class KnobMatrixPin : public ::testing::TestWithParam<std::string> {};

TEST_P(KnobMatrixPin, StatsAndViewsMatchRecordedValues) {
  FaultInjector::Config fc;
  FaultInjector injector(fc);
  for (const std::uint64_t k : {700ULL, 2900ULL, 8100ULL})
    injector.schedule_program_failure(k);
  for (const std::uint64_t k : {40ULL, 150ULL})
    injector.schedule_erase_failure(k);
  const auto ftl = run_knob_matrix(GetParam(), injector);
  const FtlStats& s = ftl->stats();

  // Recorded before FtlStats became the only event ledger, one row per
  // scheme: every FtlStats field in stats_fields() order, then the flash
  // array's program, read and erase totals.
  const std::map<std::string, std::vector<std::uint64_t>> recorded = {
      {"Base",
       {10553, 3707, 0,    875,   3707, 0,    353, 343,   343,
        0,     4036, 1510, 1167,  0,    3,    2,   2,     1514,
        447,   14,   0,    115,   2835, 0,    354, 10986, 329,
        11113, 248,  3524, 12912, 546,  0,    457, 457,   25693,
        4582,  353}},
      {"2R",
       {10553, 3429, 0,    875,   3429, 0,    343, 334,   334,
        0,     3728, 1384, 1050,  0,    3,    2,   3,     1514,
        447,   14,   0,    101,   2604, 0,    354, 10665, 299,
        10793, 249,  3518, 12646, 540,  0,    454, 454,   25094,
        4304,  343}},
      {"SepBIT",
       {10553, 4113, 0,    875,   4113, 0,    372, 363,   363,
        0,     4757, 1729, 1366,  0,    3,    2,   3,     1514,
        447,   14,   0,    157,   3702, 0,    354, 11455, 644,
        11584, 249,  3687, 13167, 534,  0,    438, 438,   26568,
        4988,  372}},
      {"PHFTL",
       {10553, 4231, 230,  875,   4231, 1497, 373, 363,   363,
        0,     4249, 1618, 1255,  0,    3,    2,   2,     1514,
        447,   14,   0,    78,    2577, 0,    354, 11227, 18,
        11357, 251,  3505, 13453, 548,  0,    465, 465,   26688,
        5106,  373}},
  };
  std::vector<std::uint64_t> actual;
  std::string row;
  for (const auto& [name, value] : stats_fields(s)) {
    actual.push_back(value);
    row += std::to_string(value) + ", ";
  }
  for (const std::uint64_t v :
       {ftl->flash().total_programs(), ftl->flash().total_reads(),
        ftl->flash().total_erases()}) {
    actual.push_back(v);
    row += std::to_string(v) + ", ";
  }
  EXPECT_EQ(actual, recorded.at(GetParam())) << "actual: {" << row << "}";
  // Clear of end of life, and every knob actually exercised.
  EXPECT_EQ(s.enospc_rejections, 0u);
  EXPECT_GT(s.program_failures, 0u);
  EXPECT_GT(s.erase_failures, 0u);
  EXPECT_GT(s.trims, 0u);
  EXPECT_GT(s.gc_preemptions, 0u);
  EXPECT_GT(s.wl_rounds, 0u);
  EXPECT_GT(s.trans_gc_writes, 0u);
  EXPECT_GT(s.learned_hits, 0u);

  if (!obs::kEnabled) return;  // no registry to check
  // Exported name -> the field it must read. A swapped binding shows up
  // as a mismatch here even where the two fields happen to move together.
  std::vector<std::pair<const char*, std::uint64_t>> views = {
      {"ftl.gc.rounds", s.gc_rounds},
      {"ftl.gc.aborted_rounds", s.gc_aborted_rounds},
      {"ftl.gc.moved_valid_pages", s.gc_moved_valid_pages},
      {"ftl.gc.steps", s.gc_steps},
      {"ftl.gc.preemptions", s.gc_preemptions},
      {"ftl.erases", s.erases},
      {"ftl.meta_writes", s.meta_writes},
      {"ftl.stream_borrows", s.stream_borrows},
      {"ftl.host_reads", s.host_reads},
      {"ftl.trims", s.trims},
      {"ftl.trim_journal.appends", s.journal_writes},
      {"ftl.trim_journal.compactions", s.trim_journal_compactions},
      {"ftl.enospc_rejections", s.enospc_rejections},
      {"ftl.wl.rounds", s.wl_rounds},
      {"ftl.wl.migrations", s.wl_migrations},
      {"flash.wear_retired", s.wear_retired},
      {"flash.program_failures", s.program_failures},
      {"flash.erase_failures", s.erase_failures},
      {"flash.blocks_retired", s.blocks_retired},
      {"ftl.host_reads_unmapped", s.host_reads_unmapped},
      {"ftl.map.cmt_hits", s.cmt_hits},
      {"ftl.map.cmt_misses", s.cmt_misses},
      {"ftl.map.translation_reads", s.trans_reads},
      {"ftl.map.translation_writes", s.trans_writes},
      {"ftl.map.translation_gc_writes", s.trans_gc_writes},
      {"ftl.map.learned_hits", s.learned_hits},
      {"ftl.map.learned_mispredicts", s.learned_mispredicts},
      {"ftl.map.learned_probe_reads", s.learned_probe_reads}};
  if (const auto* phftl = dynamic_cast<const core::PhftlFtl*>(ftl.get())) {
    views.push_back({"ml.predictions", phftl->predictions_made()});
    views.push_back({"ml.predictions_short", phftl->short_predictions()});
    views.push_back({"meta.cache_misses", s.meta_reads});
  }
  const obs::MetricsRegistry& reg = ftl->observability().metrics();
  for (const auto& [name, field] : views) {
    const obs::Counter* c = reg.find_counter(name);
    ASSERT_NE(c, nullptr) << name;
    EXPECT_EQ(c->value(), field) << name;
  }

  // The registry as "type name unit" lines in registration order, and every
  // gauge's value, recorded before the mapping tier moved out of FtlBase
  // (it is now the source of every ftl.map.* gauge).
  // Each scheme registers one host/flash counter pair per stream, then
  // FtlBase's block, then its own metrics.
  struct RecordedRegistry {
    std::uint32_t streams;
    std::string own;  // the scheme's metrics after FtlBase's block
    std::vector<double> gauges;
  };
  const std::string ftl_base_block = R"(counter ftl.gc.rounds rounds
counter ftl.gc.aborted_rounds rounds
counter ftl.gc.moved_valid_pages pages
counter ftl.gc.steps steps
counter ftl.gc.preemptions yields
counter ftl.erases superblocks
counter ftl.meta_writes pages
counter ftl.stream_borrows pages
counter ftl.host_reads pages
counter ftl.trims pages
counter ftl.trim_journal.appends pages
counter ftl.trim_journal.records records
counter ftl.trim_journal.compactions compactions
counter ftl.trim_journal.replayed_tombstones pages
counter ftl.enospc_rejections pages
counter ftl.wl.rounds rounds
counter ftl.wl.migrations pages
counter flash.wear_retired superblocks
counter flash.program_failures pages
counter flash.erase_failures superblocks
counter flash.blocks_retired superblocks
counter ftl.host_reads_unmapped pages
counter ftl.map.cmt_hits lookups
counter ftl.map.cmt_misses lookups
counter ftl.map.translation_reads pages
counter ftl.map.translation_writes pages
counter ftl.map.translation_gc_writes pages
counter ftl.map.wb_flushes flushes
counter ftl.map.reconciled pages
counter ftl.map.learned_hits lookups
counter ftl.map.learned_mispredicts lookups
counter ftl.map.learned_probe_reads pages
counter recovery.mounts mounts
counter recovery.oob_scans pages
counter recovery.rebuild_ns ns
histogram ftl.gc.victim_valid_pages pages
histogram flash.erase_count erases
gauge flash.bad_blocks superblocks
gauge ftl.write_amplification ratio
gauge ftl.free_superblocks superblocks
gauge ftl.closed_superblocks superblocks
gauge ftl.pending_retire_superblocks superblocks
gauge ftl.virtual_clock pages
gauge ftl.trim_journal.pages pages
gauge ftl.trim_journal.superblocks superblocks
gauge ftl.capacity_watermark_pages pages
gauge ftl.mapped_pages pages
gauge ftl.gc.inflight_valid_moved pages
gauge flash.wear_spread erases
gauge flash.wear_max erases
gauge ftl.map.cmt_hit_rate ratio
gauge ftl.map.ram_bytes bytes
gauge ftl.map.read_amplification ratio
gauge ftl.map.translation_wa ratio
gauge ftl.map.learned_segments segments
gauge ftl.map.learned_index_bytes bytes
)";
  const std::map<std::string, RecordedRegistry> recorded_registry = {
      {"Base",
       {1, "",
        {4, 1.434663128968066, 4, 53, 0, 10553, 14, 1, 3328, 1791, 0,
         2.3666666666666663, 8, 0.21440739839376977, 98500,
         1.2855980471928397, 1.041030986449351, 1135, 94464}}},
      {"2R",
       {2, "",
        {5, 1.3779020183833981, 4, 51, 0, 10553, 14, 1, 3264, 1791, 0,
         1.4406779661016946, 7, 0.21764414748824548, 98500,
         1.2839707078925957, 1.0106130958021415, 1135, 94464}}},
      {"SepBIT",
       {6, "gauge sepbit.lifetime_estimate_pages pages\n",
        {5, 1.5175779399222971, 4, 46, 0, 10553, 14, 1, 3264, 1791, 0,
         1.9152542372881358, 8, 0.21876112495550018, 98500,
         1.2709519934906428, 1.0854733251208186, 1134, 94464,
         307.20000000000005}}},
      {"PHFTL",
       {7,
        "counter ml.predictions predictions\n"
        "counter ml.predictions_short predictions\n"
        "histogram ml.predict_latency_ns ns\n"
        "counter meta.cache_hits lookups\n"
        "counter meta.cache_misses lookups\n"
        "counter meta.buffer_hits lookups\n"
        "gauge meta.cache_hit_rate ratio\n"
        "gauge trainer.threshold_pages pages\n"
        "gauge trainer.windows_completed windows\n"
        "gauge trainer.trainings_run trainings\n"
        "gauge classifier.accuracy ratio\n"
        "gauge classifier.precision ratio\n"
        "gauge classifier.recall ratio\n"
        "gauge classifier.f1 ratio\n",
        {4, 1.5289491139960201, 4, 47, 0, 10553, 14, 1, 3276, 1791, 0,
         1.9833333333333334, 8, 0.20668710932893031, 97156,
         1.2945484133441822, 1.0638680943807448, 1135, 93120,
         0.76707639645246617, 373, 5, 5, 0.5106105125693764,
         0.50325732899022801, 0.10293137908061292, 0.1709070796460177}}},
  };
  const RecordedRegistry& want = recorded_registry.at(GetParam());
  std::string want_registry;
  for (std::uint32_t i = 0; i < want.streams; ++i) {
    const std::string id = std::to_string(i);
    want_registry += "counter ftl.stream" + id + ".host_writes pages\n" +
                     "counter ftl.stream" + id + ".flash_writes pages\n";
  }
  want_registry += ftl_base_block + want.own;
  std::string registry;
  std::vector<double> gauges;
  for (const obs::MetricsRegistry::Entry& e : reg.entries()) {
    registry += std::string(obs::metric_type_name(e.type)) + " " + e.name +
                " " + e.unit + "\n";
    if (e.type == obs::MetricType::kGauge) gauges.push_back(reg.value_of(e));
  }
  EXPECT_EQ(registry, want_registry);
  EXPECT_EQ(gauges, want.gauges);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, KnobMatrixPin,
                         ::testing::ValuesIn(kSchemeNames));

// The per-stream counts on the all-knobs scenario (with one scheduled
// program failure, whose consumed page is no program): host pages add up
// to user_writes, and programmed pages to every program but the trim
// journal's, which belongs to no stream. Entries past the scheme's stream
// count stay 0, and each ftl.stream<i>.* counter reads its entry.
class PerStreamLedger : public ::testing::TestWithParam<std::string> {};

TEST_P(PerStreamLedger, SumsToTheLedgerAndCountersReadIt) {
  FaultInjector::Config fc;
  FaultInjector injector(fc);
  injector.schedule_program_failure(700);
  const auto ftl = run_knob_matrix(GetParam(), injector);
  const FtlStats& s = ftl->stats();
  std::uint64_t host = 0, flash = 0;
  for (std::uint32_t i = 0; i < kMaxStreams; ++i) {
    if (i >= ftl->layout().num_streams) {
      EXPECT_EQ(s.stream_host_writes[i], 0u) << "stream " << i;
      EXPECT_EQ(s.stream_flash_writes[i], 0u) << "stream " << i;
    }
    host += s.stream_host_writes[i];
    flash += s.stream_flash_writes[i];
  }
  EXPECT_EQ(host, s.user_writes);
  EXPECT_EQ(flash, s.flash_writes() - s.journal_writes);
  EXPECT_GT(s.meta_writes + s.trans_writes, 0u);  // both kinds charged

  if (!obs::kEnabled) return;
  const obs::MetricsRegistry& reg = ftl->observability().metrics();
  for (std::uint32_t i = 0; i < ftl->layout().num_streams; ++i) {
    const std::string id = "ftl.stream" + std::to_string(i);
    const obs::Counter* h = reg.find_counter(id + ".host_writes");
    const obs::Counter* f = reg.find_counter(id + ".flash_writes");
    ASSERT_NE(h, nullptr) << id;
    ASSERT_NE(f, nullptr) << id;
    EXPECT_EQ(h->value(), s.stream_host_writes[i]) << id;
    EXPECT_EQ(f->value(), s.stream_flash_writes[i]) << id;
  }
  EXPECT_EQ(reg.find_counter("ftl.stream" +
                             std::to_string(ftl->layout().num_streams) +
                             ".host_writes"),
            nullptr);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, PerStreamLedger,
                         ::testing::ValuesIn(kSchemeNames));

}  // namespace
}  // namespace phftl
