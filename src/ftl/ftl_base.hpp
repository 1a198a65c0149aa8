// FTL framework: mapping, stream-based allocation, and the GC engine.
//
// FtlBase owns everything every FTL variant shares — the page-granularity
// L2P/P2L tables, per-superblock validity accounting, multi-stream open-
// superblock allocation, the free pool, and the GC loop. The paper's
// schemes differ in two decisions (§V-A): which stream a page joins and
// which superblock GC collects. A scheme states what is fixed about its
// streams as a StreamLayout (stream count, meta pages per data superblock,
// the streams translation pages join) and answers eight hooks:
//
//   * classify_user_write() — which stream a host-written page goes to,
//     filling in the new copy's OOB (Base: single stream; 2R: user stream;
//     SepBIT: class 1/2 by inferred lifetime; PHFTL: short-/long-living by
//     the Page Classifier, whose new hidden state goes into the OOB),
//   * classify_gc_write()  — stream for a page migrated by GC or by a
//     wear-leveling round, from its OOB copy,
//   * pick_victim()        — victim-selection policy,
//   * on_request(), on_page_invalidated(), on_data_programmed(),
//     on_superblock_erased(), on_recovery() — notifications.
//
// FtlBase programs a data superblock's meta-page tail itself as the
// superblock fills (PHFTL's ML metadata, paper Fig. 4).
//
// The flash-resident mapping tier (ftl/mapping_tier.hpp, held only when
// FtlConfig::mapping_tier is on), the trim journal (ftl/trim_journal.hpp)
// and the wear table (ftl/wear_table.hpp) are classes of their own.
//
// The virtual clock counts host-written logical pages; the paper defines
// page lifetime in this clock (§III-B) and Eq. 1's "elapsed time" C in it.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "flash/flash_array.hpp"
#include "flash/geometry.hpp"
#include "ftl/mapping_tier.hpp"
#include "ftl/request.hpp"
#include "ftl/stats.hpp"
#include "ftl/trim_journal.hpp"
#include "ftl/victim_index.hpp"
#include "ftl/wear_table.hpp"
#include "obs/observability.hpp"

namespace phftl {

class FaultInjector;

struct FtlConfig {
  Geometry geom;
  double op_ratio = 0.07;               ///< over-provisioning (paper: 7 %)
  /// Valid-page relocation budget of one GC step (docs/QOS.md). 0 (default)
  /// is unbounded, stop-the-world: once triggered, GC relocates whole
  /// victims until the free pool is back at the trigger, and the host write
  /// that tripped it pays for every moved page. N > 0 is time-sliced GC
  /// (Nagel et al.'s partial GC): each host write above the urgent floor
  /// advances the in-flight round by at most N relocations, the per-write
  /// tail-latency bound, and the victim stays parked between steps.
  std::uint64_t gc_step_pages = 0;
  /// Optional NAND fault injector (not owned; must outlive the FTL). When
  /// set, programs/erases may fail and the FTL exercises its degradation
  /// paths — see docs/RECOVERY.md §"Fault model".
  FaultInjector* fault_injector = nullptr;
  /// P/E-cycle retirement budget per superblock (docs/ENDURANCE.md): a
  /// block's final budgeted erase retires it at end-of-life (kBad), which
  /// shrinks the capacity watermark until the drive goes read-only with a
  /// clean ENOSPC. 0 = unlimited (default; bit-identical to pre-endurance
  /// behavior).
  std::uint64_t max_pe_cycles = 0;
  /// Static wear-leveling trigger (docs/ENDURANCE.md): start a leveling
  /// round — cold-data migration into the most-worn free superblock — when
  /// max(erase count) - mean(erase count) over in-service superblocks
  /// exceeds this. Rounds ride the GC machinery, so they respect the
  /// per-write gc_step_pages bound (docs/QOS.md). 0 disables
  /// (default; bit-identical to pre-endurance behavior).
  std::uint64_t wear_level_threshold = 0;
  /// Demand-paged flash-resident mapping tier (docs/MAPPING.md):
  /// translation pages on flash, a RAM Global Translation Directory, and a
  /// FlatMetaCache-backed cached mapping table with dirty-entry write-back
  /// batching. false (default) = pure in-RAM L2P, bit-identical to the
  /// pre-tier FTL (CI-enforced against BENCH_fig5_6dw.json).
  bool mapping_tier = false;
  /// CMT capacity in resident translation pages (mapping_tier only).
  std::uint64_t cmt_pages = 64;
  /// L2P entries per translation page. 0 (default) derives the physical
  /// maximum, page_size / 8 — one 8-byte PPN slot per element of the page's
  /// data-area blob. Smaller values emulate the translation-page count of a
  /// production-scale drive on the simulator's small geometries
  /// (docs/MAPPING.md "RAM-budget methodology"); must not exceed the
  /// physical maximum.
  std::uint64_t tp_entries = 0;
  /// Dirty write-back batching: evicted-dirty translation pages buffer in
  /// RAM and flush to flash once this many are pending (and always at
  /// drain()). 1 = write through on every dirty eviction.
  std::uint64_t cmt_wb_batch = 8;
  /// Learned index over the mapping tier (docs/MAPPING.md "Learned
  /// index"): piecewise-linear LPN->PPN segments trained at translation-
  /// page write-back serve CMT misses with one OOB-verified probe instead
  /// of a translation-page fetch — the DFTL double read becomes a single
  /// flash read when the prediction verifies. Requires mapping_tier.
  /// false (default) = model never consulted, lookup path bit-identical to
  /// the plain tier (CI-enforced).
  bool learned_index = false;
  /// PLR fit tolerance: a trained segment's predictions are within
  /// ±learned_error_bound of the true PPN, and the verify probe scans at
  /// most that far around the prediction (the stored per-segment radius,
  /// usually 0, bounds it tighter). Widening the bound shrinks the model
  /// (fewer, longer segments) but every extra unit of radius costs wasted
  /// verify probes on the host read path — on stream-interleaved layouts
  /// (PHFTL) a wide bound can cost more reads than the translation fetch
  /// it avoids, so the default stays tight. Max 250.
  std::uint32_t learned_error_bound = 1;
};

/// What a mount-time recover() call observed and rebuilt. Returned to the
/// caller and passed to the on_recovery() scheme hook.
struct RecoveryReport {
  std::uint64_t oob_scans = 0;        ///< OOB areas inspected by the rebuild
  std::uint64_t mapped_lpns = 0;      ///< LPNs with a live mapping afterwards
  std::uint64_t open_sbs_closed = 0;  ///< superblocks left open by the cut
  std::uint64_t recovered_vclock = 0; ///< virtual clock after recovery
  std::uint64_t rebuild_ns = 0;       ///< wall-clock time of the whole mount
  /// Trim-journal range records replayed against the rebuilt mapping.
  std::uint64_t trim_records_replayed = 0;
  /// LPNs the replay tombstoned (resurrected stale copies unmapped again).
  std::uint64_t trim_tombstones = 0;
  /// Mapping tier: GTD entries recovered from translation-page OOB stamps.
  std::uint64_t trans_gtd_rebuilt = 0;
  /// Mapping tier: translation pages rewritten by mount-time
  /// reconciliation because their flash content diverged from the
  /// OOB-rebuilt truth (dirty CMT entries lost to the cut, trim-journal
  /// replay, or a cut mid-write-back). docs/MAPPING.md "Crash semantics".
  std::uint64_t trans_reconciled = 0;
};

/// What a scheme fixes about its write streams when it is built.
struct StreamLayout {
  /// Write streams, each with its own open superblock per kind.
  std::uint32_t num_streams = 1;
  /// Meta pages FtlBase programs into the tail of each data superblock as
  /// it fills (PHFTL's ML metadata, paper Fig. 4); 0 = data fills it all.
  std::uint32_t meta_pages = 0;
  /// Stream a translation page joins (docs/MAPPING.md): a dirty write-back
  /// churns with the host working set, a GC-migrated copy outlived its
  /// block. Translation pages never share a superblock with user data.
  std::uint32_t translation_writeback = 0;
  std::uint32_t translation_gc = 0;
};

class FtlBase {
 public:
  /// "No superblock" sentinel (pick_victim abort, idle gc_inflight_victim).
  static constexpr std::uint64_t kNoVictim = ~0ULL;
  /// GC trigger (paper §III-D): collect when under 5 % of superblocks are free.
  static constexpr double kGcFreeThreshold = 0.05;

  FtlBase(const FtlConfig& cfg, const StreamLayout& layout);
  virtual ~FtlBase() = default;

  FtlBase(const FtlBase&) = delete;
  FtlBase& operator=(const FtlBase&) = delete;

  /// Number of logical pages exported to the host.
  std::uint64_t logical_pages() const { return logical_pages_; }

  /// The payload a host write of `lpn` stores, and so what read_page(lpn)
  /// returns while `lpn` is mapped (the simulator's stand-in for data).
  static constexpr std::uint64_t payload_of(Lpn lpn) {
    return lpn ^ 0x5bd1e995ULL;
  }

  /// Submit a block-layer request; pages are processed in order. Write
  /// pages past the capacity watermark are rejected with
  /// WriteResult::kEnospc; see SubmitResult for partial-completion
  /// semantics.
  SubmitResult submit_checked(const HostRequest& req);

  /// Single-page write. Returns kEnospc — with no state modified — when
  /// accepting the page would push the mapped-page count past
  /// capacity_watermark_pages(); kOk otherwise.
  WriteResult try_write_page(Lpn lpn, const WriteContext& ctx);
  /// Returns the stored payload, or 0 if the page was never written.
  std::uint64_t read_page(Lpn lpn);
  /// Discard a logical page (TRIM). Returns true if the page was mapped
  /// (an effective trim, journaled for crash durability).
  bool trim_page(Lpn lpn);

  /// Complete a GC round parked by the step budget and flush the mapping
  /// tier's translation write-back buffer, leaving the drive quiescent.
  /// Harnesses call this after the last request and before reading final
  /// statistics.
  void drain();

  bool is_mapped(Lpn lpn) const { return l2p_[lpn] != kInvalidPpn; }
  Ppn lookup(Lpn lpn) const { return l2p_[lpn]; }

  const FtlStats& stats() const { return stats_; }
  const FlashArray& flash() const { return flash_; }
  const FtlConfig& config() const { return cfg_; }
  std::uint64_t virtual_clock() const { return virtual_clock_; }
  std::uint64_t free_superblock_count() const { return free_pool_.size(); }
  const StreamLayout& layout() const { return layout_; }

  /// Logical pages currently mapped (tracked incrementally).
  std::uint64_t mapped_page_count() const { return mapped_count_; }
  /// Superblock a GC round preempted by the step budget is mid-way through
  /// relocating, or kNoVictim when no round is in flight. The in-flight
  /// victim is closed but deliberately absent from the victim index; it
  /// re-enters either when the round finishes (erase) or at mount-time
  /// recovery (docs/QOS.md, docs/RECOVERY.md).
  std::uint64_t gc_inflight_victim() const { return round_.victim; }
  /// Valid pages the in-flight round has relocated so far (0 when idle).
  std::uint64_t gc_inflight_valid_moved() const { return round_.moved; }
  /// Host-visible capacity in pages under the current physical reserve:
  /// superblocks minus bad blocks, the GC free-pool target, and the
  /// trim-journal reserve, times the data capacity of a superblock. Writes
  /// that would map more pages than this are rejected with kEnospc. Shrinks
  /// as blocks go bad or are retired; 0 means the drive is read-only.
  std::uint64_t capacity_watermark_pages() const;
  /// True if open or closed `sb` holds trim-journal record pages (excluded
  /// from the victim index and from the data capacity).
  bool is_journal_sb(std::uint64_t sb) const {
    return sb_meta_[sb].kind == SbKind::kJournal;
  }
  /// Superblocks holding trim-journal record pages.
  std::uint64_t trim_journal_superblocks() const {
    return journal_.superblocks();
  }
  /// Trimmed-and-not-rewritten LPNs the journal currently guarantees stay
  /// unmapped across an unclean shutdown.
  std::uint64_t live_tombstones() const { return journal_.live_tombstones(); }

  // --- demand-paged mapping tier (docs/MAPPING.md) ---
  /// The tier, or null when FtlConfig::mapping_tier is off and the flat
  /// l2p_ table serves every lookup.
  MappingTier* mapping_tier() { return tier_.get(); }
  const MappingTier* mapping_tier() const { return tier_.get(); }
  bool mapping_tier_enabled() const { return tier_ != nullptr; }
  /// MappingTier::ram_bytes(), the figure BENCH_mapping.json compares
  /// against the logical_pages() * 8 flat table; 0 when the tier is off.
  std::uint64_t mapping_ram_bytes() const {
    return tier_ ? tier_->ram_bytes() : 0;
  }
  /// Learned-index segments and model RAM (0 when the index is off).
  std::uint64_t learned_segments() const {
    return tier_ ? tier_->learned_segments() : 0;
  }
  std::uint64_t learned_index_bytes() const {
    return tier_ ? tier_->learned_index_bytes() : 0;
  }

  // --- endurance introspection (docs/ENDURANCE.md) ---
  /// The FTL's RAM wear table: erase count of `sb` as this FTL knows it.
  /// Matches flash().erase_count(sb) exactly during normal operation; after
  /// an unclean-shutdown mount it is re-derived from the per-page OOB
  /// erase-count stamps — exact for open/closed superblocks, a lower bound
  /// (0) for free ones, mirroring the close_time contract in RECOVERY.md.
  std::uint64_t wear_count(std::uint64_t sb) const { return wear_.count(sb); }
  /// max(wear) - mean(wear) over in-service superblocks — the static
  /// wear-leveling trigger quantity. Leveling fires when this exceeds
  /// FtlConfig::wear_level_threshold.
  double wear_spread() const { return wear_.spread(flash_); }

  /// Test hook: jump the virtual clock forward (e.g. near 2^32 to exercise
  /// timestamp-width regressions). Must not move the clock backwards.
  void seed_virtual_clock(std::uint64_t v);

  /// Human-readable scheme name for benchmark tables.
  virtual std::string name() const = 0;

  /// This instance's observability surface (metrics registry + trace
  /// recorder + snapshot series; docs/METRICS.md documents every metric).
  /// Counters and trace events update as the FTL runs; gauges (WA, hit
  /// rates, threshold, ...) read the FTL's state whenever they are read.
  obs::Observability& observability() { return obs_; }
  const obs::Observability& observability() const { return obs_; }

  /// The mount's one walk over programmed pages, rebuilding the RAM state
  /// their OOB areas record (it is lost on power failure): the newest copy
  /// (highest program sequence) of each LPN gives the L2P table, validity
  /// and per-superblock counts, and the victim index; translation pages
  /// give the GTD, journal pages the trim journal's extent, erase-count
  /// stamps the wear table, and the newest user write times the close
  /// times and the virtual clock. Bad superblocks are skipped (retired only
  /// after GC drained them). Returns the number of OOB areas inspected.
  /// Policy-side state (classifier, heuristic tables) is *not*
  /// reconstructed — schemes relearn it, as real devices do after an
  /// unclean shutdown.
  std::uint64_t rebuild_mapping_from_flash();

  /// Full unclean-shutdown mount (docs/RECOVERY.md). Simulates losing all
  /// RAM state at an arbitrary point — including mid-request and mid-GC —
  /// and reconstructs everything re-derivable from flash:
  ///   1. superblocks left open by the cut are closed (their unwritten tail
  ///      pages stay unused; no meta pages are programmed),
  ///   2. one walk over flash rebuilds the rest (rebuild_mapping_from_flash);
  ///      the virtual clock restarts at max(write_time of any user page)+1,
  ///      a lower bound on the pre-crash clock (documented in RECOVERY.md),
  ///   3. the trim journal is replayed *after* the OOB rebuild: any LPN
  ///      whose newest flash copy predates its journaled trim is unmapped
  ///      again (trimmed pages stay trimmed — docs/RECOVERY.md),
  ///   4. the free pool is rebuilt from free superblocks,
  ///   5. the scheme's on_recovery() hook re-derives or resets policy state
  ///      (PHFTL: meta cache cold start, trainer/threshold safe defaults),
  ///   6. the journal is compacted so it occupies at most one superblock.
  /// Cumulative FtlStats are process-lifetime diagnostics and survive.
  RecoveryReport recover();

  // --- Introspection used by victim policies and tests ---
  std::uint64_t valid_count(std::uint64_t sb) const {
    return sb_meta_[sb].valid_count;
  }
  std::uint64_t close_time(std::uint64_t sb) const {
    return sb_meta_[sb].close_time;
  }
  std::uint32_t stream_of(std::uint64_t sb) const {
    return sb_meta_[sb].stream;
  }
  /// A page is valid exactly while the reverse map names its owner.
  bool page_valid(Ppn ppn) const { return p2l_[ppn] != kInvalidLpn; }
  Lpn page_lpn(Ppn ppn) const { return p2l_[ppn]; }
  /// GC count of a valid user page, from its OOB copy (the only copy).
  std::uint8_t page_gc_count(Ppn ppn) const {
    return flash_.read_oob(ppn).gc_count;
  }

  /// Iterate closed superblocks (victim candidates). Backed by the
  /// incremental victim index, so this visits exactly the closed set
  /// without scanning flash state; the visitor is a template (no
  /// std::function indirection on the GC path). Order is unspecified.
  template <typename Fn>
  void for_each_closed(Fn&& fn) const {
    victim_index_.visit_ascending(
        [&](std::uint64_t /*valid*/, const std::vector<std::uint64_t>& sbs) {
          for (const std::uint64_t sb : sbs) fn(sb);
          return true;
        });
  }

  /// Visit closed superblocks grouped by valid count, ascending (i.e. by
  /// descending invalid fraction). `fn(valid_count, candidates)` returns
  /// false to stop the walk — policies whose score is bounded by the
  /// invalid fraction use this to prune whole buckets.
  template <typename Fn>
  bool visit_closed_by_valid(Fn&& fn) const {
    return victim_index_.visit_ascending(std::forward<Fn>(fn));
  }

  /// Number of closed superblocks (victim candidates).
  std::uint64_t closed_count() const { return victim_index_.size(); }

  /// Greedy victim: a closed superblock with the fewest valid pages, via
  /// an O(1) index pop instead of the historical O(superblocks) scan.
  /// Tie-breaking is unspecified but deterministic. Returns ~0ULL when no
  /// superblock is closed.
  std::uint64_t greedy_victim() const { return victim_index_.min_valid_sb(); }

 protected:
  // --- Policy hooks ---
  /// Stream for a host write of `lpn`. `oob` is the new copy's OOB area,
  /// with its LPN and write time (ctx.now) already stamped; the scheme may
  /// add fields (PHFTL stores the page's new hidden state, §III-C).
  virtual std::uint32_t classify_user_write(Lpn lpn, const WriteContext& ctx,
                                            OobData& oob) = 0;
  /// Stream for a migrated page: GC survivors and wear-leveling
  /// migrations alike (a leveled page is cold data that survived, which is
  /// what every scheme's GC answer already encodes; docs/ENDURANCE.md).
  /// `oob` is the page's OOB copy, its GC count already incremented.
  virtual std::uint32_t classify_gc_write(const OobData& oob) = 0;
  /// Pick a victim among closed superblocks; kNoVictim aborts this GC round.
  virtual std::uint64_t pick_victim() = 0;

  /// Notification hooks.
  /// Called once per submitted request, before its pages are processed
  /// (PHFTL's feature tracker consumes request-level statistics here).
  virtual void on_request(const HostRequest& /*req*/) {}
  virtual void on_page_invalidated(Lpn /*lpn*/, Ppn /*ppn*/,
                                   std::uint64_t /*now*/) {}
  /// Called once a data page — a host write or a GC migration — has been
  /// programmed at `ppn` with `oob`.
  virtual void on_data_programmed(Ppn /*ppn*/, const OobData& /*oob*/) {}
  virtual void on_superblock_erased(std::uint64_t /*sb*/) {}
  /// Called at the end of recover(), after the base mapping/index rebuild,
  /// so the scheme can re-derive (from flash) or reset (to safe defaults)
  /// its policy state. Base/2R need nothing; SepBIT and PHFTL override.
  virtual void on_recovery(const RecoveryReport& /*report*/) {}

  // --- Services for subclasses ---
  const Geometry& geom() const { return cfg_.geom; }

  /// Account a meta-page read (metadata cache miss).
  void note_meta_read() { ++stats_.meta_reads; }

  /// True while the GC engine is migrating pages (lets hooks distinguish
  /// user-triggered invalidations from GC ones).
  bool in_gc() const { return in_gc_; }

 private:
  friend class MappingTier;
  friend class TrimJournal;

  static constexpr std::uint64_t kNoSb = ~0ULL;
  /// What a superblock holds, set when it opens. Data, translation pages
  /// and journal records never share a superblock; each kind has its own
  /// open superblock per stream (the journal uses stream 0 only).
  enum class SbKind : std::uint8_t { kData, kTranslation, kJournal };
  static constexpr std::size_t kNumSbKinds = 3;
  struct SbMeta {
    std::uint64_t valid_count = 0;
    std::uint64_t close_time = 0;  ///< virtual clock when closed
    std::uint32_t stream = 0;
    SbKind kind = SbKind::kData;
  };

  /// The one program path for data, translation and journal pages: pick
  /// (or open, or borrow) the open superblock of `kind` for `stream`,
  /// program `payload` (or `blob`, when non-empty) with `oob`, retry on a
  /// fresh superblock across program failures, run `on_programmed(ppn,
  /// stream)` for the kind's own bookkeeping, and close the superblock
  /// once full. A journal page's `oob` gets its tombstone cutoff stamped
  /// here. The rules that differ by kind are in ftl_base.cpp's
  /// "Superblock kinds" block. Returns kInvalidPpn only to a GC data
  /// migration left with no destination at fault-driven end of life (no
  /// open superblock, empty free pool); any other caller aborts there.
  template <typename OnProgrammed>
  Ppn program_page(SbKind kind, std::uint32_t stream, OobData& oob,
                   std::uint64_t payload, std::span<const std::uint64_t> blob,
                   OnProgrammed&& on_programmed);
  static bool gc_collects(SbKind kind);
  static bool reclaims_before_borrowing(SbKind kind);
  std::uint64_t fill_limit(SbKind kind) const;
  /// Pages of a data superblock that hold data; the layout's meta pages
  /// take the rest.
  std::uint64_t data_capacity() const {
    return geom().pages_per_superblock() - layout_.meta_pages;
  }
  /// Data pages the drive can still program: the free pool's superblocks
  /// plus what the open data superblocks have left.
  std::uint64_t data_room() const;
  /// Program one meta page into data superblock `sb`'s tail (counts as a
  /// meta write).
  void program_meta_page(std::uint64_t sb, std::uint64_t payload);
  /// Program one data page (host write or GC survivor) into `stream`.
  Ppn append(std::uint32_t stream, std::uint64_t payload, OobData& oob);
  std::uint64_t& open_slot(SbKind kind, std::uint32_t stream) {
    return open_[static_cast<std::size_t>(kind) * layout_.num_streams +
                 stream];
  }
  void invalidate(Lpn lpn);
  /// Count `ppn` as a valid page of superblock `sb`, owned by `owner` (an
  /// LPN, or a TPN for a translation page).
  void mark_valid(Ppn ppn, std::uint64_t sb, std::uint64_t owner);
  /// Clear the valid page at `ppn`: reverse map, its superblock's valid
  /// count and victim-index bucket.
  void drop_page(Ppn ppn);

  // --- superblock lifecycle, shared by every kind and by meta pages ---
  /// Take a superblock from the free pool, open it as `kind` for `stream`,
  /// and record the open event.
  std::uint64_t allocate_superblock(SbKind kind, std::uint32_t stream);
  /// Close `sb`, stamp its close time, index it as a GC candidate unless
  /// it is a journal superblock, and record the close.
  void close_superblock(std::uint64_t sb);
  /// Count and record a program failure in `sb` and mark the block for
  /// retirement. The caller decides whether the block closes.
  void note_program_failure(std::uint64_t sb);
  /// The one GC scheduler, for space reclaim and wear leveling alike
  /// (docs/QOS.md): whole rounds below the urgent floor, then one step of
  /// at most the step budget.
  void maybe_gc();
  /// Pick a GC victim and claim it. Returns false — with nothing claimed —
  /// when pick_victim backs off, the best victim is fully valid, or its
  /// live pages have nowhere to go.
  bool gc_begin_round();
  /// Start a static wear-leveling round (docs/ENDURANCE.md) when the wear
  /// spread exceeds wear_level_threshold: claim the coldest victim, an
  /// indexed closed superblock with wear strictly below the mean, oldest
  /// close time first. Returns false — with nothing claimed — when
  /// leveling is off, the spread is within the threshold, or no block is
  /// colder than the mean.
  bool wl_begin_round();
  /// Start the in-flight round on `victim` (cursor at offset 0, nothing
  /// moved): take it out of the victim index and record the round begin.
  /// Shared by GC and wear-leveling rounds.
  void claim_victim(std::uint64_t victim, bool wear_level);
  /// Advance the in-flight round: relocate up to `budget` valid pages from
  /// the victim, starting at the saved cursor. Pages host writes or trims
  /// invalidated since the last step are skipped for free. Returns true
  /// when the victim is fully drained — then also retires/erases it and
  /// clears the in-flight state. Returns false with the round still in
  /// flight on preemption (budget hit with valid pages left; counted in
  /// gc_preemptions), or with the round ended when a migration found no
  /// destination at fault-driven end of life (the victim goes back into the
  /// victim index, its remaining pages valid in place; counted in
  /// gc_aborted_rounds).
  bool gc_step(std::uint64_t budget);

  /// Shared end-of-round disposal of a drained victim: retire it if it is
  /// pending-retire, otherwise erase it — handling erase failures and
  /// P/E-budget exhaustion.
  void dispose_drained_superblock(std::uint64_t sb);

  /// Trim [start, start+n): unmap every mapped page and journal the
  /// effective runs. Returns the number of effective trims.
  std::uint64_t trim_range(Lpn start, std::uint64_t n);
  /// Program one trim-journal record page holding `chunk`'s range records.
  void append_journal_page(std::span<const std::uint64_t> chunk);
  /// Unmap without policy hooks (journal replay): clears validity, P2L,
  /// L2P, and fixes the victim index if the superblock is closed.
  void raw_unmap(Lpn lpn);

  /// Program one translation page for the tier and drop the copy it
  /// supersedes. Returns the new copy's PPN.
  Ppn append_translation_page(std::uint64_t tpn,
                              std::span<const std::uint64_t> blob,
                              bool gc_migration);

  /// Register the FTL-layer metrics and cache their handles (cold path;
  /// run once from the constructor).
  void register_ftl_metrics();

  FtlConfig cfg_;
  FlashArray flash_;
  std::uint64_t logical_pages_;
  StreamLayout layout_;
  std::uint64_t gc_trigger_count_;

  std::vector<Ppn> l2p_;
  /// Owner (LPN, or TPN for a translation page) of each valid physical
  /// page; kInvalidLpn marks an invalid one.
  std::vector<Lpn> p2l_;
  std::vector<SbMeta> sb_meta_;
  /// Open superblock per (kind, stream), kNoSb when none (open_slot()).
  std::vector<std::uint64_t> open_;
  /// RAM-only flag per superblock: a program failure happened there and the
  /// block must be retired (not erased) once GC drains it. Wiped by
  /// recover() — a real FTL would journal its bad-block table; here the
  /// flash array's kBad states persist and un-retired blocks simply rejoin
  /// the closed set until they fail again (docs/RECOVERY.md).
  std::vector<std::uint8_t> pending_retire_;
  std::deque<std::uint64_t> free_pool_;
  /// Closed superblocks bucketed by valid count. Invariant apart from the
  /// in-flight victim: indexed(sb) ⇔ flash state(sb) == kClosed, at sb's
  /// current valid count.
  VictimIndex victim_index_;

  FtlStats stats_;
  std::uint64_t virtual_clock_ = 0;
  std::uint64_t prev_req_end_ = kInvalidLpn;
  bool in_gc_ = false;

  /// In-flight GC round (first-class state under a step budget).
  struct GcRound {
    /// Victim the round is relocating; kNoVictim when idle. Closed, and
    /// out of the victim index for the round's whole lifetime.
    std::uint64_t victim = kNoVictim;
    /// Next page offset gc_step() will examine inside the victim.
    std::uint64_t cursor = 0;
    /// Valid pages moved by the round so far.
    std::uint64_t moved = 0;
    /// A wear-leveling round: migrations land in the most-worn free
    /// superblock and count as wl_migrations.
    bool wear_level = false;
  };
  GcRound round_;
  /// Urgent floor: below this many free superblocks, maybe_gc completes
  /// whole rounds synchronously instead of yielding, so the free pool can
  /// never run dry between steps. The GC trigger under stop-the-world;
  /// lower under a step budget.
  std::uint64_t gc_urgent_count_ = 2;
  /// Relocations one maybe_gc step may make: FtlConfig::gc_step_pages, or
  /// unbounded (~0) under stop-the-world.
  std::uint64_t gc_step_budget_ = ~0ULL;

  /// Erase count per superblock (docs/ENDURANCE.md).
  WearTable wear_;
  TrimJournal journal_;
  /// Logical pages currently mapped (admission-checked against the
  /// capacity watermark).
  std::uint64_t mapped_count_ = 0;

  /// The mapping tier (FtlConfig::mapping_tier), null when off.
  std::unique_ptr<MappingTier> tier_;

  // --- observability (handles are stable; no allocation after setup) ---
  obs::Observability obs_;
  obs::Counter* recovery_mounts_ctr_ = nullptr;
  obs::Counter* recovery_oob_scans_ctr_ = nullptr;
  obs::Counter* recovery_rebuild_ns_ctr_ = nullptr;
  obs::Histogram* victim_valid_hist_ = nullptr;
};

}  // namespace phftl
