// Demand-paged flash-resident mapping tier (docs/MAPPING.md) and the
// read-path correctness fixes that shipped with it: overflow-safe request
// bounds and honest accounting of unmapped host reads.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ftl/ftl_base.hpp"
#include "ftl/host_oracle.hpp"
#include "helpers.hpp"
#include "obs/observability.hpp"
#include "util/rng.hpp"

namespace phftl::test {
namespace {

/// Tier-on twin of small_config(). op_ratio is widened to 0.20 so that
/// uniform writes over the whole logical space stay under the capacity
/// watermark even after the tier's translation-superblock reserve;
/// tp_entries = 64 emulates a production-scale translation-page count
/// (52 TPs instead of 8) on the tiny drive, and the small CMT forces
/// heavy miss/eviction/write-back traffic.
FtlConfig tier_config() {
  FtlConfig cfg = small_config();
  cfg.op_ratio = 0.20;
  cfg.mapping_tier = true;
  cfg.tp_entries = 64;
  cfg.cmt_pages = 8;
  cfg.cmt_wb_batch = 4;
  return cfg;
}

// --- satellite: overflow-safe request bounds ---
//
// The old admission check computed start_lpn + num_pages, which wraps for
// start values near UINT64_MAX and let the request through as if it were
// in range. Regression: such requests must abort, not wrap.

using MappingDeathTest = ::testing::Test;

TEST(MappingDeathTest, NearOverflowWriteSubmitAborts) {
  auto ftl = make_scheme("Base", scheme_config(small_config()));
  HostRequest req;
  req.op = OpType::kWrite;
  req.start_lpn = std::numeric_limits<std::uint64_t>::max() - 2;
  req.num_pages = 4;  // start + num wraps to 1: the additive bound passed
  EXPECT_DEATH(ftl->submit_checked(req), "beyond logical capacity");
}

TEST(MappingDeathTest, NearOverflowCheckedSubmitAborts) {
  auto ftl = make_scheme("Base", scheme_config(small_config()));
  HostRequest req;
  req.op = OpType::kRead;
  req.start_lpn = std::numeric_limits<std::uint64_t>::max();
  req.num_pages = 1;
  EXPECT_DEATH(ftl->submit_checked(req), "beyond logical capacity");
}

TEST(MappingDeathTest, NearOverflowTrimAborts) {
  auto ftl = make_scheme("Base", scheme_config(small_config()));
  EXPECT_DEATH(
      ftl->trim_page(std::numeric_limits<std::uint64_t>::max() - 2),
      "trim beyond logical capacity");
}

// --- satellite: unmapped host reads are counted, not silently dropped ---

TEST(MappingTier, UnmappedReadsAreCountedOnBothPaths) {
  for (const bool tier : {false, true}) {
    FtlConfig cfg = tier_config();
    cfg.mapping_tier = tier;
    auto ftl = make_scheme("Base", scheme_config(cfg));
    // Never-written LPN: zero-fill, no flash touched, no host_reads.
    EXPECT_EQ(ftl->read_page(7), 0u);
    EXPECT_EQ(ftl->stats().host_reads, 0u);
    EXPECT_EQ(ftl->stats().host_reads_unmapped, 1u);

    WriteContext ctx;
    write_ok(*ftl, 7, ctx);
    EXPECT_EQ(ftl->read_page(7), FtlBase::payload_of(7));
    EXPECT_EQ(ftl->stats().host_reads, 1u);

    // Trimmed-and-not-rewritten LPN counts as unmapped again.
    EXPECT_TRUE(ftl->trim_page(7));
    EXPECT_EQ(ftl->read_page(7), 0u);
    EXPECT_EQ(ftl->stats().host_reads_unmapped, 2u);

    if (obs::kEnabled) {
      const auto* ctr = ftl->observability().metrics().find_counter(
          "ftl.host_reads_unmapped");
      ASSERT_NE(ctr, nullptr);
      EXPECT_EQ(ctr->value(), 2u) << "tier=" << tier;
    }
  }
}

// --- tentpole: demand-paged lookups serve from flash-resident truth ---

TEST(MappingTier, TranslationPagesAreGcCitizens) {
  auto ftl = make_scheme("Base", scheme_config(tier_config()));
  const std::uint64_t logical = ftl->logical_pages();
  Xoshiro256 rng(42);
  WriteContext ctx;
  for (std::uint64_t w = 0; w < logical * 8; ++w)
    write_ok(*ftl, rng.next_below(logical), ctx);
  ftl->drain();

  const FtlStats& s = ftl->stats();
  EXPECT_GT(s.gc_invocations, 0u);
  // Dirty evictions hit flash, and GC relocated at least one valid
  // translation page out of a victim (translation superblocks sit in the
  // victim index like any data block).
  EXPECT_GT(s.trans_writes, 0u);
  EXPECT_GT(s.trans_gc_writes, 0u);
  EXPECT_LT(s.trans_gc_writes, s.trans_writes);
  EXPECT_GT(s.cmt_misses, 0u);
  EXPECT_GT(s.cmt_hits, 0u);
  // Translation programs are inside F: WA has no hidden writes.
  EXPECT_EQ(s.flash_writes(), s.user_writes + s.gc_writes + s.meta_writes +
                                  s.journal_writes + s.trans_writes);

  // The demand-paged path agrees with the in-RAM shadow for every LPN
  // (each tier lookup also cross-checks internally and aborts on drift).
  for (Lpn lpn = 0; lpn < logical; ++lpn)
    ASSERT_EQ(ftl->mapping_tier()->lookup(lpn, /*host_read=*/false),
              ftl->lookup(lpn))
        << "lpn " << lpn;

  // The tier's RAM footprint (GTD + CMT + write-back buffer) undercuts
  // the flat 8-byte-per-LPN table it replaces.
  EXPECT_LT(ftl->mapping_ram_bytes(), logical * 8);
  EXPECT_EQ(ftl->mapping_tier()->cmt_resident(),
            std::min<std::uint64_t>(
                ftl->config().cmt_pages,
                ftl->mapping_tier()->num_translation_pages()));
}

// --- satellite: differential test, demand-paged vs flat L2P ---
//
// One million mixed read/write/trim operations driven identically into a
// tier-on drive and a tier-off twin. Every read must return byte-identical
// data, every trim must agree on effectiveness, and the host-visible write
// ledger must match exactly — the tier may only add translation traffic,
// and only inside flash_writes().
TEST(MappingTier, MillionOpDifferentialAgainstFlatL2p) {
  const FtlConfig on_cfg = tier_config();
  FtlConfig off_cfg = on_cfg;
  off_cfg.mapping_tier = false;
  auto tiered = make_scheme("Base", scheme_config(on_cfg));
  auto flat = make_scheme("Base", scheme_config(off_cfg));
  ASSERT_EQ(tiered->logical_pages(), flat->logical_pages());
  const std::uint64_t logical = tiered->logical_pages();
  const std::uint64_t hot = std::max<std::uint64_t>(logical / 16, 1);

  Xoshiro256 rng(0xD17FD1FF);
  WriteContext ctx;
  constexpr std::uint64_t kOps = 1'000'000;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const std::uint64_t dice = rng.next_below(100);
    const Lpn lpn = rng.next_bool(0.5) ? rng.next_below(hot)
                                       : rng.next_below(logical);
    if (dice < 55) {
      write_ok(*tiered, lpn, ctx);
      write_ok(*flat, lpn, ctx);
    } else if (dice < 90) {
      ASSERT_EQ(tiered->read_page(lpn), flat->read_page(lpn))
          << "op " << i << " lpn " << lpn;
    } else {
      ASSERT_EQ(tiered->trim_page(lpn), flat->trim_page(lpn))
          << "op " << i << " lpn " << lpn;
    }
  }
  tiered->drain();
  flat->drain();

  for (Lpn lpn = 0; lpn < logical; ++lpn) {
    ASSERT_EQ(tiered->is_mapped(lpn), flat->is_mapped(lpn)) << "lpn " << lpn;
    ASSERT_EQ(tiered->read_page(lpn), flat->read_page(lpn)) << "lpn " << lpn;
  }

  const FtlStats& on = tiered->stats();
  const FtlStats& off = flat->stats();
  EXPECT_EQ(on.user_writes, off.user_writes);
  EXPECT_EQ(on.trims, off.trims);
  EXPECT_EQ(off.trans_writes, 0u);
  EXPECT_EQ(off.trans_reads, 0u);
  EXPECT_GT(on.trans_writes, 0u);
  EXPECT_GT(on.trans_reads_host, 0u);
  EXPECT_LE(on.trans_reads_host, on.trans_reads);
  // WA honesty: the tier's flash traffic is user + GC + journal +
  // translation, nothing hidden and nothing double-counted.
  EXPECT_GE(on.flash_writes(), off.user_writes + on.trans_writes);
}

// Shorter differential across every scheme: translation pages route to
// each scheme's StreamLayout streams without perturbing host-visible
// behavior.
class MappingSchemeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MappingSchemeTest, DifferentialMixAcrossSchemes) {
  const FtlConfig on_cfg = tier_config();
  FtlConfig off_cfg = on_cfg;
  off_cfg.mapping_tier = false;
  auto tiered = make_scheme(GetParam(), scheme_config(on_cfg));
  auto flat = make_scheme(GetParam(), scheme_config(off_cfg));
  ASSERT_NE(tiered, nullptr);
  const std::uint64_t logical = tiered->logical_pages();
  const std::uint64_t hot = std::max<std::uint64_t>(logical / 16, 1);

  Xoshiro256 rng(0xBEEF + GetParam().size());
  WriteContext ctx;
  for (std::uint64_t i = 0; i < 60'000; ++i) {
    const std::uint64_t dice = rng.next_below(100);
    const Lpn lpn = rng.next_bool(0.5) ? rng.next_below(hot)
                                       : rng.next_below(logical);
    if (dice < 60) {
      write_ok(*tiered, lpn, ctx);
      write_ok(*flat, lpn, ctx);
    } else if (dice < 92) {
      ASSERT_EQ(tiered->read_page(lpn), flat->read_page(lpn))
          << GetParam() << " op " << i;
    } else {
      ASSERT_EQ(tiered->trim_page(lpn), flat->trim_page(lpn))
          << GetParam() << " op " << i;
    }
  }
  tiered->drain();
  flat->drain();
  for (Lpn lpn = 0; lpn < logical; ++lpn)
    ASSERT_EQ(tiered->read_page(lpn), flat->read_page(lpn))
        << GetParam() << " lpn " << lpn;
  EXPECT_EQ(tiered->stats().user_writes, flat->stats().user_writes);
  EXPECT_GT(tiered->stats().trans_writes, 0u) << GetParam();
}

// Each live translation copy sits in a superblock of the scheme's
// translation_writeback or translation_gc stream, GC-migrated copies
// included.
TEST_P(MappingSchemeTest, TranslationPagesLandInLayoutStreams) {
  auto ftl = make_scheme(GetParam(), scheme_config(tier_config()));
  const std::uint64_t logical = ftl->logical_pages();
  Xoshiro256 rng(13);
  WriteContext ctx;
  for (std::uint64_t w = 0; w < logical * 8; ++w)
    write_ok(*ftl, rng.next_below(logical), ctx);
  ftl->drain();
  EXPECT_GT(ftl->stats().trans_gc_writes, 0u) << GetParam();

  const StreamLayout& layout = ftl->layout();
  std::uint64_t copies = 0;
  ftl->mapping_tier()->for_each_live_copy([&](std::uint64_t tpn, Ppn ppn) {
    const std::uint32_t stream =
        ftl->stream_of(ftl->flash().geometry().superblock_of(ppn));
    EXPECT_TRUE(stream == layout.translation_writeback ||
                stream == layout.translation_gc)
        << GetParam() << ": tpn " << tpn << " in stream " << stream;
    ++copies;
  });
  EXPECT_GT(copies, 0u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, MappingSchemeTest,
                         ::testing::ValuesIn(kSchemeNames));

// --- tentpole: mount-time GTD rebuild + reconciliation ---

TEST(MappingTier, MountRebuildsGtdAndReconcilesDirtyState) {
  FtlConfig cfg = tier_config();
  // Batch write-backs loosely: flushes happen during the run (so the mount
  // has a GTD to rebuild) but the cut still lands with dirty CMT entries
  // and a partially filled write-back buffer — the state reconciliation
  // exists to repair.
  cfg.cmt_wb_batch = 16;
  auto ftl = make_scheme("Base", scheme_config(cfg));
  const std::uint64_t logical = ftl->logical_pages();
  HostOracle oracle(logical);
  Xoshiro256 rng(99);
  WriteContext ctx;
  for (std::uint64_t w = 0; w < logical * 3; ++w)
    ASSERT_EQ(oracle.write(*ftl, rng.next_below(logical), ctx),
              WriteResult::kOk);
  // A few trims right before the cut: the journal replay retroactively
  // unmaps them, so their translation pages also need reconciliation.
  for (int t = 0; t < 32; ++t) oracle.trim(*ftl, rng.next_below(logical));

  const RecoveryReport rep = ftl->recover();
  EXPECT_GT(rep.trans_gtd_rebuilt, 0u);
  EXPECT_GT(rep.trans_reconciled, 0u);
  EXPECT_TRUE(ftl->mapping_tier_enabled());
  EXPECT_EQ(ftl->mapping_tier()->wb_pending(), 0u);

  ASSERT_EQ(oracle.check(*ftl), "");
  for (Lpn lpn = 0; lpn < logical; ++lpn) {
    ASSERT_EQ(ftl->mapping_tier()->lookup(lpn, /*host_read=*/false),
              ftl->lookup(lpn))
        << "lpn " << lpn;
  }

  // The remounted drive keeps serving the demand-paged path.
  for (int w = 0; w < 500; ++w) {
    const Lpn lpn = rng.next_below(logical);
    ASSERT_EQ(oracle.write(*ftl, lpn, ctx), WriteResult::kOk);
    ASSERT_EQ(ftl->read_page(lpn), FtlBase::payload_of(lpn));
  }
}

// A drained tier-on image remounts to identical mappings. drain() flushes
// the write-back buffer but deliberately leaves dirty resident CMT entries
// in place, so the mount may still reconcile those — what must hold is
// that the rebuilt GTD and the demand-paged path agree with the shadow.
TEST(MappingTier, DrainedRemountServesIdenticalMappings) {
  auto ftl = make_scheme("Base", scheme_config(tier_config()));
  const std::uint64_t logical = ftl->logical_pages();
  Xoshiro256 rng(5);
  WriteContext ctx;
  for (std::uint64_t w = 0; w < logical * 2; ++w)
    write_ok(*ftl, rng.next_below(logical), ctx);
  ftl->drain();
  ASSERT_GT(ftl->stats().trans_writes, 0u);
  const RecoveryReport rep = ftl->recover();
  EXPECT_GT(rep.trans_gtd_rebuilt, 0u);
  for (Lpn lpn = 0; lpn < logical; ++lpn)
    ASSERT_EQ(ftl->mapping_tier()->lookup(lpn, /*host_read=*/false),
              ftl->lookup(lpn))
        << "lpn " << lpn;
}

// --- learned index over the tier (docs/MAPPING.md "Learned index") ---

/// Learned-on twin of tier_config(): every CMT miss first consults the
/// PLR model and verifies the prediction against the probed page's OOB.
FtlConfig learned_config() {
  FtlConfig cfg = tier_config();
  cfg.learned_index = true;
  cfg.learned_error_bound = 8;
  return cfg;
}

// Direct model unit tests: exact fits, boundary merging, cap, holes.

TEST(LearnedIndexUnit, SequentialRunsFitOneSegmentAcrossTpBoundaries) {
  LearnedIndex li;
  li.reset(/*logical=*/1024, /*tp_entries=*/64, /*error_bound=*/0);
  // Two adjacent translation pages holding one slope-1 run, trained in
  // write-back order: the second train must extend the first's segment.
  std::vector<std::uint64_t> blob(64);
  for (std::uint64_t i = 0; i < 64; ++i) blob[i] = 500 + i;
  li.train(0, blob);
  EXPECT_EQ(li.segment_count(), 1u);
  for (std::uint64_t i = 0; i < 64; ++i) blob[i] = 564 + i;
  li.train(1, blob);
  EXPECT_EQ(li.segment_count(), 1u);
  std::int64_t pred = 0;
  std::uint32_t radius = 0;
  for (Lpn lpn = 0; lpn < 128; ++lpn) {
    ASSERT_TRUE(li.predict(lpn, &pred, &radius)) << "lpn " << lpn;
    EXPECT_EQ(pred, static_cast<std::int64_t>(500 + lpn));
    EXPECT_EQ(radius, 0u);
  }
  EXPECT_FALSE(li.predict(128, &pred, &radius));
}

TEST(LearnedIndexUnit, InvalidateSplitsWithoutMovingPredictions) {
  LearnedIndex li;
  li.reset(1024, 64, 0);
  std::vector<std::uint64_t> blob(64);
  for (std::uint64_t i = 0; i < 64; ++i) blob[i] = 100 + i;
  li.train(0, blob);
  li.invalidate(10);  // interior hole: split into [0,10) and [11,64)
  EXPECT_EQ(li.segment_count(), 2u);
  std::int64_t pred = 0;
  std::uint32_t radius = 0;
  EXPECT_FALSE(li.predict(10, &pred, &radius));
  ASSERT_TRUE(li.predict(9, &pred, &radius));
  EXPECT_EQ(pred, 109);
  ASSERT_TRUE(li.predict(11, &pred, &radius));
  EXPECT_EQ(pred, 111);  // the frozen line survives the split
  li.invalidate(0);      // edge holes shrink, never split
  li.invalidate(63);
  EXPECT_EQ(li.segment_count(), 2u);
  EXPECT_FALSE(li.predict(0, &pred, &radius));
  EXPECT_FALSE(li.predict(63, &pred, &radius));
}

TEST(LearnedIndexUnit, ScrambledPageIsCappedAndInBound) {
  LearnedIndex li;
  const std::uint32_t bound = 4;
  li.reset(4096, 256, bound);
  // Pseudo-scrambled PPNs: no learnable run, so the fit must cap its
  // segment count and every covered prediction must honor the bound.
  std::vector<std::uint64_t> blob(256);
  for (std::uint64_t i = 0; i < 256; ++i) blob[i] = (i * 2654435761u) % 4096;
  li.train(0, blob);
  EXPECT_LE(li.segment_count(), LearnedIndex::kMaxSegmentsPerTrain);
  std::int64_t pred = 0;
  std::uint32_t radius = 0;
  for (Lpn lpn = 0; lpn < 256; ++lpn) {
    if (!li.predict(lpn, &pred, &radius)) continue;
    EXPECT_LE(radius, bound);
    const std::int64_t err = pred - static_cast<std::int64_t>(blob[lpn]);
    EXPECT_LE(err < 0 ? -err : err, static_cast<std::int64_t>(radius))
        << "lpn " << lpn;
  }
}

// Seeded property test against a trivial per-LPN reference: the PPN each
// LPN's translation page last trained, or a hole (unmapped at that train,
// invalidated since, or cleared). After every op, a covered LPN must
// predict within its radius (<= the bound) of the reference, a hole must
// be uncovered, and the charged RAM must never shrink.
TEST(LearnedIndexUnit, RandomOpsAgreeWithPerLpnReference) {
  struct Shape {
    std::uint64_t logical, tp_entries;  // logical % tp_entries != 0
    std::uint32_t bound;
  };
  // 128- and 100-entry pages fit >= 33 pieces when scrambled, so the
  // kMaxSegmentsPerTrain cap is exercised; 7-entry pages stress merges.
  for (const Shape sh : {Shape{1500, 128, 0}, Shape{1030, 100, 3},
                         Shape{778, 7, 1}}) {
    SCOPED_TRACE("tp_entries " + std::to_string(sh.tp_entries));
    LearnedIndex li;
    li.reset(sh.logical, sh.tp_entries, sh.bound);
    std::vector<std::uint64_t> ref(sh.logical, kInvalidPpn);
    std::vector<std::uint64_t> blob(sh.tp_entries);
    const std::uint64_t num_tps =
        (sh.logical + sh.tp_entries - 1) / sh.tp_entries;
    Xoshiro256 rng(0x5E6A + sh.tp_entries);
    std::uint64_t ram = 0, max_segments = 0, covered_checks = 0;
    for (int op = 0; op < 1500; ++op) {
      const std::uint64_t dice = rng.next_below(1000);
      if (dice < 3) {
        li.clear();
        std::fill(ref.begin(), ref.end(), kInvalidPpn);
      } else if (dice < 350) {
        const std::uint64_t tpn = rng.next_below(num_tps);
        const Lpn lo = tpn * sh.tp_entries;
        // A page is a series of chunks: a line shared across pages (so
        // boundary merges happen), a fresh sequential run, a jittered
        // slope-2 line, scrambled PPNs or an unmapped stretch, with
        // scattered unmapped slots. One page in five is all scrambled.
        const bool scrambled = rng.next_bool(0.2);
        for (std::uint64_t i = 0; i < sh.tp_entries;) {
          const std::uint64_t len =
              scrambled ? sh.tp_entries : 1 + rng.next_below(sh.tp_entries);
          const std::uint64_t kind = scrambled ? 3 : rng.next_below(5);
          const std::uint64_t offset = rng.next_bool(0.5) ? 1000 : 50000;
          const std::uint64_t base = rng.next_below(1 << 20);
          for (std::uint64_t k = 0; k < len && i < sh.tp_entries; ++k, ++i) {
            switch (kind) {
              case 0: blob[i] = lo + i + offset; break;
              case 1: blob[i] = base + k; break;
              case 2: blob[i] = base + 2 * k + rng.next_below(sh.bound + 1);
                      break;
              case 3: blob[i] = rng.next_below(1 << 20); break;
              default: blob[i] = kInvalidPpn;
            }
            if (rng.next_bool(0.03)) blob[i] = kInvalidPpn;
          }
        }
        li.train(tpn, blob);
        for (Lpn lpn = lo; lpn < std::min(lo + sh.tp_entries, sh.logical);
             ++lpn)
          ref[lpn] = blob[lpn - lo];
      } else {
        const Lpn lpn = rng.next_below(sh.logical);
        li.invalidate(lpn);
        ref[lpn] = kInvalidPpn;
      }

      for (Lpn lpn = 0; lpn < sh.logical; ++lpn) {
        std::int64_t pred = 0;
        std::uint32_t radius = 0;
        const bool covered = li.predict(lpn, &pred, &radius);
        if (ref[lpn] == kInvalidPpn) {
          ASSERT_FALSE(covered) << "op " << op << ": hole at lpn " << lpn;
          continue;
        }
        if (!covered) continue;
        ++covered_checks;
        ASSERT_LE(radius, sh.bound) << "op " << op << " lpn " << lpn;
        const std::int64_t err = pred - static_cast<std::int64_t>(ref[lpn]);
        ASSERT_LE(err < 0 ? -err : err, static_cast<std::int64_t>(radius))
            << "op " << op << " lpn " << lpn;
      }
      ASSERT_GE(li.ram_bytes(), ram) << "op " << op << ": RAM shrank";
      ram = li.ram_bytes();
      ASSERT_GE(ram, li.segment_count() * sizeof(LearnedIndex::Segment));
      max_segments = std::max<std::uint64_t>(max_segments,
                                             li.segment_count());
    }
    EXPECT_GT(covered_checks, 100'000u);
    EXPECT_GT(max_segments, LearnedIndex::kMaxSegmentsPerTrain);
  }
}

// A scripted sequence whose segment counts and charged RAM were recorded
// from the sorted-vector implementation this container replaced: splits
// (by invalidate and by retraining a page inside one segment), edge trims,
// erases, multi-piece inserts (one fitting the spare capacity, one growing
// it by n, one by size), the piece cap, both boundary merges, clear() and a
// partial last translation page. RAM is in segments of sizeof(Segment)
// bytes and follows the array growth rule.
TEST(LearnedIndexUnit, ScriptedSequenceKeepsRecordedCountsAndRam) {
  LearnedIndex li;
  li.reset(/*logical=*/2000, /*tp_entries=*/128, /*error_bound=*/0);
  std::vector<std::uint64_t> blob(128);
  auto line = [&](std::uint64_t first_ppn) {
    for (std::uint64_t i = 0; i < 128; ++i) blob[i] = first_ppn + i;
  };
  auto scrambled = [&](std::uint64_t seed) {  // 64 two-point pieces
    for (std::uint64_t i = 0; i < 128; ++i)
      blob[i] = (i * i * 7919 + i * 104729 + seed) % 65536;
  };
  using Counts = std::pair<std::uint64_t, std::uint64_t>;
  std::vector<Counts> got;
  auto record = [&] {
    got.emplace_back(li.segment_count(),
                     li.ram_bytes() / sizeof(LearnedIndex::Segment));
  };

  for (std::uint64_t tpn = 8; tpn <= 10; ++tpn) {
    line(100 + tpn * 128);
    li.train(tpn, blob);  // one segment over [1024,1408)
    record();
  }
  std::fill(blob.begin(), blob.end(), kInvalidPpn);
  li.train(9, blob);  // splits it, adds nothing
  record();
  line(7000);
  li.train(9, blob);
  record();
  line(100);
  li.train(0, blob);  // [0,128)
  record();
  li.invalidate(10);  // interior splits
  record();
  li.invalidate(20);
  record();
  for (Lpn lpn = 0; lpn < 10; ++lpn) li.invalidate(lpn);  // trims, erase
  record();
  for (std::uint64_t i = 0; i < 128; ++i) blob[i] = (i < 64 ? 2000 : 7000) + i;
  li.train(1, blob);  // two pieces into spare capacity
  record();
  for (std::uint64_t i = 0; i < 128; ++i)
    blob[i] = (i < 40 ? 9000 : i < 80 ? 12000 : 15000) + i;
  li.train(3, blob);  // three pieces: grows by size
  record();
  scrambled(3);
  li.train(5, blob);  // capped at 32 pieces: grows by n
  record();
  line(228);
  li.train(1, blob);  // replaces two pieces, extends the left neighbour
  record();
  line(9000 - 128);
  li.train(2, blob);  // extends TP 3's first piece leftwards (re-key)
  record();
  li.invalidate(300);  // split
  record();
  li.invalidate(301);  // start trim (re-key)
  record();
  line(100);
  li.train(0, blob);  // erase, head trim, then a right merge
  record();
  li.clear();  // keeps the RAM high-water mark
  record();
  line(100);
  li.train(0, blob);
  record();
  scrambled(11);
  li.train(1, blob);
  record();
  scrambled(17);
  li.train(2, blob);  // grows by size
  record();
  std::fill(blob.begin(), blob.end(), kInvalidPpn);
  li.train(2, blob);  // an unmapped page drops its cover
  record();
  line(50000);
  li.train(15, blob);  // [1920,2000): the last page is partial
  record();

  const std::vector<Counts> recorded = {
      {1, 1},   {1, 1},   {1, 1},   {2, 2},   {3, 4},   {4, 4},
      {5, 8},   {6, 8},   {5, 8},   {7, 8},   {10, 14}, {42, 42},
      {40, 42}, {40, 42}, {41, 42}, {41, 42}, {40, 42}, {0, 42},
      {1, 42},  {33, 42}, {65, 66}, {33, 66}, {34, 66}};
  EXPECT_EQ(got, recorded);
}

// Pins the model's exact output, where the reference test above only
// checks the bound: after every train, invalidate and clear(), each LPN's
// (covered, pred, radius), segment_count() and ram_bytes() fold into an
// FNV-1a hash, recorded per shape from the ordered-map container. Beside
// random pages the ops sweep 8 to 12 consecutive translation pages with
// one slope-1 or slope-2 line. An in-order sweep merges leftwards into one
// long segment; a reverse sweep merges rightwards, moving the segment's
// start left of its anchor x0 so later predictions take dx < 0. Interior
// holes near each end of the swept run then split it with the left half
// shorter, then the right. Scrambled pages hit kMaxSegmentsPerTrain.
TEST(LearnedIndexUnit, RandomOpsMatchRecordedPredictions) {
  struct Shape {
    std::uint64_t logical, tp_entries;
    std::uint32_t bound;
    std::uint64_t recorded;
  };
  for (const Shape sh : {Shape{1500, 128, 0, 11290168832101359678ull},
                         Shape{1030, 100, 3, 10313207471225887527ull},
                         Shape{778, 7, 1, 14930803141910847285ull}}) {
    SCOPED_TRACE("tp_entries " + std::to_string(sh.tp_entries));
    LearnedIndex li;
    li.reset(sh.logical, sh.tp_entries, sh.bound);
    std::vector<std::uint64_t> blob(sh.tp_entries);
    const std::uint64_t num_tps =
        (sh.logical + sh.tp_entries - 1) / sh.tp_entries;
    Xoshiro256 rng(0xF1A7 + sh.tp_entries);
    std::uint64_t h = 14695981039346656037ull;
    auto mix = [&h](std::uint64_t v) {
      for (int k = 0; k < 8; ++k) {
        h ^= (v >> (8 * k)) & 0xFFu;
        h *= 1099511628211ull;
      }
    };
    auto fold = [&] {
      for (Lpn lpn = 0; lpn < sh.logical; ++lpn) {
        std::int64_t pred = 0;
        std::uint32_t radius = 0;
        const bool covered = li.predict(lpn, &pred, &radius);
        mix(covered);
        if (covered) {
          mix(static_cast<std::uint64_t>(pred));
          mix(radius);
        }
      }
      mix(li.segment_count());
      mix(li.ram_bytes());
    };
    for (int op = 0; op < 600; ++op) {
      const std::uint64_t dice = rng.next_below(1000);
      if (dice < 4) {
        li.clear();
        fold();
      } else if (dice < 60) {
        const std::uint64_t span =
            std::min<std::uint64_t>(8 + rng.next_below(5), num_tps);
        const std::uint64_t first_tp = rng.next_below(num_tps - span + 1);
        const Lpn lo = first_tp * sh.tp_entries;
        const Lpn hi =
            std::min((first_tp + span) * sh.tp_entries, sh.logical);
        const std::uint64_t slope = 1 + rng.next_below(2);
        const std::uint64_t base = rng.next_below(1 << 20);
        const bool jitter = rng.next_bool(0.5);
        const bool holes = rng.next_bool(0.3);
        const bool reverse = rng.next_bool(0.5);
        for (std::uint64_t k = 0; k < span; ++k) {
          const std::uint64_t tpn = first_tp + (reverse ? span - 1 - k : k);
          for (std::uint64_t i = 0; i < sh.tp_entries; ++i) {
            const Lpn lpn = tpn * sh.tp_entries + i;
            blob[i] = base + slope * (lpn - lo) +
                      (jitter ? rng.next_below(sh.bound + 1) : 0);
            if (holes && rng.next_bool(0.05)) blob[i] = kInvalidPpn;
          }
          li.train(tpn, blob);
          fold();
        }
        li.invalidate(lo + 1 + rng.next_below(3));
        fold();
        li.invalidate(hi - 2 - rng.next_below(3));
        fold();
      } else if (dice < 400) {
        const std::uint64_t tpn = rng.next_below(num_tps);
        const bool scrambled = rng.next_bool(0.2);
        for (std::uint64_t i = 0; i < sh.tp_entries;) {
          const std::uint64_t len =
              scrambled ? sh.tp_entries : 1 + rng.next_below(sh.tp_entries);
          const std::uint64_t kind = scrambled ? 2 : rng.next_below(4);
          const std::uint64_t base = rng.next_below(1 << 20);
          for (std::uint64_t k = 0; k < len && i < sh.tp_entries; ++k, ++i) {
            switch (kind) {
              case 0: blob[i] = base + k; break;
              case 1: blob[i] = base + 2 * k + rng.next_below(sh.bound + 1);
                      break;
              case 2: blob[i] = rng.next_below(1 << 20); break;
              default: blob[i] = kInvalidPpn;
            }
            if (rng.next_bool(0.03)) blob[i] = kInvalidPpn;
          }
        }
        li.train(tpn, blob);
        fold();
      } else {
        li.invalidate(rng.next_below(sh.logical));
        fold();
      }
    }
    EXPECT_EQ(h, sh.recorded);
  }
}

// Learned-on 1M-op differential vs the flat oracle across all four
// schemes: byte-identical reads, identical host-visible state, real
// learned traffic, and — because every mapping update invalidates its
// prediction before the next write-back retrains it — zero mispredicts.
// (Every learned hit also PHFTL_CHECKs against the l2p_ shadow, so a
// wrong served PPN aborts the test outright.)
class LearnedSchemeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(LearnedSchemeTest, MillionOpDifferentialAgainstFlatL2p) {
  const FtlConfig on_cfg = learned_config();
  FtlConfig off_cfg = on_cfg;
  off_cfg.mapping_tier = false;
  off_cfg.learned_index = false;
  auto learned = make_scheme(GetParam(), scheme_config(on_cfg));
  auto flat = make_scheme(GetParam(), scheme_config(off_cfg));
  ASSERT_NE(learned, nullptr);
  const std::uint64_t logical = learned->logical_pages();
  const std::uint64_t hot = std::max<std::uint64_t>(logical / 16, 1);

  Xoshiro256 rng(0x1EA2D1FF + GetParam().size());
  WriteContext ctx;
  constexpr std::uint64_t kOps = 1'000'000;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const std::uint64_t dice = rng.next_below(100);
    const Lpn lpn = rng.next_bool(0.5) ? rng.next_below(hot)
                                       : rng.next_below(logical);
    if (dice < 55) {
      write_ok(*learned, lpn, ctx);
      write_ok(*flat, lpn, ctx);
    } else if (dice < 90) {
      ASSERT_EQ(learned->read_page(lpn), flat->read_page(lpn))
          << GetParam() << " op " << i << " lpn " << lpn;
    } else {
      ASSERT_EQ(learned->trim_page(lpn), flat->trim_page(lpn))
          << GetParam() << " op " << i << " lpn " << lpn;
    }
  }
  learned->drain();
  flat->drain();
  for (Lpn lpn = 0; lpn < logical; ++lpn) {
    ASSERT_EQ(learned->is_mapped(lpn), flat->is_mapped(lpn)) << "lpn " << lpn;
    ASSERT_EQ(learned->read_page(lpn), flat->read_page(lpn)) << "lpn " << lpn;
  }

  const FtlStats& s = learned->stats();
  EXPECT_EQ(s.user_writes, flat->stats().user_writes) << GetParam();
  EXPECT_GT(s.learned_hits, 0u) << GetParam();
  EXPECT_EQ(s.learned_mispredicts, 0u)
      << GetParam() << ": a consulted segment diverged from flash truth";
  EXPECT_GT(learned->learned_segments(), 0u);
  // The model is charged into the RAM methodology.
  EXPECT_GE(learned->mapping_ram_bytes(), learned->learned_index_bytes());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, LearnedSchemeTest,
                         ::testing::ValuesIn(kSchemeNames));

// Regression (satellite): a stale segment must never serve a wrong PPN —
// the OOB verify probe has to reject it, fall back to the CMT path, and
// count a mispredict. Staleness is injected directly (the data path keeps
// models fresh by construction: MappingTier::update invalidates, write-back
// retrains — including when data-GC patches owning TPs).
TEST(LearnedIndexTest, StaleSegmentNeverServesWrongPpn) {
  auto ftl = make_scheme("Base", scheme_config(learned_config()));
  const std::uint64_t tp = ftl->mapping_tier()->tp_entries();
  WriteContext ctx;
  // A sequential region over translation pages 0..15, flushed and trained.
  for (Lpn lpn = 0; lpn < tp * 16; ++lpn) write_ok(*ftl, lpn, ctx);
  ftl->drain();
  ASSERT_GT(ftl->learned_segments(), 0u);

  // Evict translation page 0 (writes to 25 distinct other TPs churn the
  // 8-entry CMT), then flush so its blob is flash truth again.
  for (std::uint64_t k = 0; k < 25; ++k)
    write_ok(*ftl, (16 + k) * tp, ctx);
  ftl->drain();

  const Lpn victim_lpn = 5;
  ASSERT_TRUE(
      ftl->mapping_tier()->learned_index_for_test().corrupt_segment_for_test(
          victim_lpn, /*delta=*/3));
  const FtlStats& s = ftl->stats();
  const std::uint64_t mis_before = s.learned_mispredicts;
  const std::uint64_t probes_before = s.learned_probe_reads;
  // The corrupted prediction points at a live page of a DIFFERENT lpn:
  // the probe must reject it on the OOB check and the fallback must still
  // serve the right data (the internal PHFTL_CHECK against the shadow
  // oracle would abort on any wrong answer).
  EXPECT_EQ(ftl->read_page(victim_lpn), FtlBase::payload_of(victim_lpn));
  EXPECT_EQ(s.learned_mispredicts, mis_before + 1)
      << "the stale segment was not consulted or not caught";
  EXPECT_GT(s.learned_probe_reads, probes_before);

  // Rewriting the LPN invalidates the corrupt cover; after the next
  // eviction + flush the retrained segment serves verified hits again.
  write_ok(*ftl, victim_lpn, ctx);
  for (std::uint64_t k = 0; k < 25; ++k)
    write_ok(*ftl, (16 + k) * tp, ctx);
  ftl->drain();
  const std::uint64_t hits_before = s.learned_hits;
  EXPECT_EQ(ftl->read_page(victim_lpn), FtlBase::payload_of(victim_lpn));
  EXPECT_EQ(s.learned_hits, hits_before + 1);
  EXPECT_EQ(s.learned_mispredicts, mis_before + 1) << "no new mispredicts";
}

// GC-churn property (satellite): data GC constantly patches owning TPs
// through the batched CMT path; each patch must invalidate its prediction
// (stale serves would abort on the shadow check, and any consulted-but-
// stale model would surface as a mispredict).
TEST(LearnedIndexTest, GcPatchedSegmentsNeverGoStale) {
  auto ftl = make_scheme("Base", scheme_config(learned_config()));
  const std::uint64_t logical = ftl->logical_pages();
  Xoshiro256 rng(0x6C6C);
  WriteContext ctx;
  for (std::uint64_t w = 0; w < logical * 8; ++w) {
    write_ok(*ftl, rng.next_below(logical), ctx);
    if (w % 7 == 0) ftl->read_page(rng.next_below(logical));
  }
  ftl->drain();
  ASSERT_GT(ftl->stats().gc_invocations, 0u);
  ASSERT_GT(ftl->stats().gc_writes, 0u);
  for (Lpn lpn = 0; lpn < logical; ++lpn)
    ASSERT_EQ(ftl->mapping_tier()->lookup(lpn, /*host_read=*/false),
              ftl->lookup(lpn))
        << "lpn " << lpn;
  EXPECT_GT(ftl->stats().learned_hits, 0u);
  EXPECT_EQ(ftl->stats().learned_mispredicts, 0u)
      << "a GC patch left a consulted segment stale";
}

}  // namespace
}  // namespace phftl::test
