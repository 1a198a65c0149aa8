// Demand-paged flash-resident mapping tier (docs/MAPPING.md): DFTL-style
// translation pages on flash, each holding the PPNs of tp_entries()
// consecutive LPNs, behind a RAM Global Translation Directory, an exact-LRU
// Cached Mapping Table with per-page dirty flags, a batched write-back
// buffer, and an optional learned index that serves CMT misses with one
// OOB-verified probe instead of the translation-page read.
//
// FtlBase holds a MappingTier only when FtlConfig::mapping_tier is on and
// calls it at its read, write, trim, GC-migration, drain and mount points.
// FtlBase keeps the l2p_ truth and does every flash program: the tier asks
// FtlBase::append_translation_page for each translation-page write and
// hears where it landed through note_programmed(). As FtlBase's friend the
// tier reads l2p_, the reverse map p2l_ and the flash array, and charges
// the FtlStats ledger.
//
// Core invariant: for any translation page neither CMT-resident nor in the
// write-back buffer, the flash blob at the GTD entry equals the l2p_
// segment exactly (or the GTD entry is empty and the segment is unmapped).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/meta_cache.hpp"
#include "flash/geometry.hpp"
#include "ftl/learned_index.hpp"
#include "ftl/stats.hpp"
#include "obs/observability.hpp"

namespace phftl {

class FtlBase;
struct FtlConfig;
struct OobData;
struct RecoveryReport;

class MappingTier {
 public:
  MappingTier(FtlBase& ftl, const FtlConfig& cfg);

  // --- FtlBase call points ---
  /// Read path: serve `lpn` from translation-page content (or a verified
  /// learned probe) and check it against the l2p_ shadow. Demand-fetches
  /// the owning page into the CMT; `host_read` charges the fetch to the
  /// read-amplification ledger. Also the tests' ground-truth check.
  Ppn lookup(Lpn lpn, bool host_read);
  /// Write path: patch `lpn`'s slot in the owning translation page
  /// (demand-fetched, marked dirty). `new_ppn == kInvalidPpn` records a
  /// trim. FtlBase has already updated l2p_[lpn].
  void update(Lpn lpn, Ppn new_ppn);
  /// GC migration of the valid translation page at `ppn`: the freshest
  /// content (resident, buffered, in flight, else the flash copy) is
  /// programmed anew, absorbing any pending write-back.
  void migrate(Ppn ppn);
  /// A copy of `tpn` holding `blob` landed at `ppn`: point the GTD at it
  /// and retrain the learned index. Returns the superseded copy, or
  /// kInvalidPpn, for FtlBase to drop.
  Ppn note_programmed(std::uint64_t tpn, Ppn ppn,
                      std::span<const std::uint64_t> blob);
  /// Program every buffered evicted-dirty translation page. No-op while a
  /// flush or a GC step is running (the step's budget is the QoS contract).
  void flush();
  /// Mount: every RAM structure is lost; the GTD is rebuilt from the
  /// translation-page copies note_flash_copy() reports (newest wins).
  void forget();
  void note_flash_copy(Ppn ppn, const OobData& oob);
  /// Visit each GTD entry's live flash copy as (tpn, ppn).
  template <typename Fn>
  void for_each_live_copy(Fn&& fn) const {
    for (std::uint64_t tpn = 0; tpn < num_tps_; ++tpn)
      if (gtd_[tpn] != kInvalidPpn) fn(tpn, gtd_[tpn]);
  }
  /// Mount-time reconciliation (docs/MAPPING.md "Crash semantics"): after
  /// the OOB rebuild and trim replay, rewrite every translation page whose
  /// flash content diverged from the rebuilt l2p_, and drop the copies of
  /// segments that became fully unmapped.
  void reconcile(RecoveryReport& rep);
  /// Superblocks the capacity watermark sets aside: one flash page per
  /// translation page, plus one superblock of write-new-before-
  /// invalidate-old slack.
  std::uint64_t reserve_superblocks(std::uint64_t pages_per_sb) const {
    return (num_tps_ + pages_per_sb - 1) / pages_per_sb + 1;
  }

  /// Register the tier's counters and gauges at FtlBase's two fixed points
  /// of the export order. Tier-off FTLs register them too, so they export
  /// as zero; `tier` is then null. A live tier keeps its two counter
  /// handles, and the gauges read it.
  static void register_counters(obs::MetricsRegistry& m, const FtlStats& s,
                                MappingTier* tier);
  static void register_gauges(obs::MetricsRegistry& m,
                              const MappingTier* tier);

  // --- introspection ---
  /// Translation pages covering the logical space (GTD size).
  std::uint64_t num_translation_pages() const { return num_tps_; }
  /// L2P entries per translation page (resolved from FtlConfig::tp_entries).
  std::uint64_t tp_entries() const { return tp_entries_; }
  std::uint64_t cmt_resident() const { return cmt_.size(); }
  /// Evicted-dirty translation pages buffered for write-back.
  std::uint64_t wb_pending() const { return wb_buffer_.size(); }
  /// RAM footprint in bytes: GTD + CMT entry slab + cache index + dirty
  /// flags + write-back buffer at its batch capacity + learned segments.
  /// The quantity BENCH_mapping.json compares against the logical_pages()
  /// * 8 flat table (docs/MAPPING.md "RAM-budget methodology").
  std::uint64_t ram_bytes() const;
  /// Learned-index segments and model RAM (0 with the index off).
  std::uint64_t learned_segments() const { return learned_.segment_count(); }
  std::uint64_t learned_index_bytes() const { return learned_.ram_bytes(); }
  /// Direct model access for tests (corrupt_segment_for_test, segment
  /// inspection). Not a data path.
  LearnedIndex& learned_index_for_test() { return learned_; }

 private:
  using WbBuffer = std::vector<std::pair<std::uint64_t, std::vector<Ppn>>>;

  /// Ensure `tpn` is CMT-resident and return its slab node: hit, adopt
  /// from the write-back buffer or the in-flight write-back, fetch the
  /// flash copy, or materialize a never-written segment empty. Every
  /// loaded slot but `exempt_idx` (the one an in-flight update is about to
  /// patch) is checked against l2p_.
  std::uint32_t cmt_fetch(std::uint64_t tpn, std::uint64_t exempt_idx,
                          bool host_read);
  /// Flush once the buffer holds a full batch.
  void maybe_flush();
  /// Learned fast path: predict `lpn`'s PPN and probe outward (±radius),
  /// verifying each candidate's OOB LPN and its validity. A
  /// verified probe IS the data read; otherwise kInvalidPpn (counted as a
  /// mispredict) and the caller falls back to the GTD/CMT path. Only
  /// called while the flash blob the model was trained on is the truth.
  Ppn learned_lookup(Lpn lpn, bool host_read);
  WbBuffer::iterator wb_find(std::uint64_t tpn);
  std::span<Ppn> slab(std::uint32_t node) {
    return {cmt_entries_.data() + node * tp_entries_, tp_entries_};
  }
  void trace(obs::TraceEventType type, std::uint64_t a, std::uint64_t b = 0);

  FtlBase& ftl_;
  std::uint64_t tp_entries_;
  std::uint64_t num_tps_;
  std::uint64_t wb_batch_;
  bool learned_on_;
  /// Global Translation Directory: TPN -> newest flash copy, kInvalidPpn
  /// when the segment has never been written back (then every LPN in it is
  /// unmapped — an invariant trims and reconciliation preserve).
  std::vector<Ppn> gtd_;
  /// CMT residency (exact LRU); the slab node indexes the arrays below.
  core::FlatMetaCache cmt_;
  /// cmt_pages x tp_entries_ PPN slots (node-major): resident contents.
  std::vector<Ppn> cmt_entries_;
  /// Per node: the resident content has updates its flash copy lacks.
  std::vector<std::uint8_t> cmt_dirty_;
  /// Evicted-dirty pages awaiting batched write-back (tpn, content). The
  /// GTD keeps pointing at the superseded flash copy until the flush.
  WbBuffer wb_buffer_;
  bool in_flush_ = false;
  /// The one write-back flush() is programming. Its program can trigger
  /// GC, and any fetch or migration of this segment during that window
  /// must see this (newest) content, not the stale flash copy.
  std::uint64_t wb_inflight_tpn_ = kInvalidLpn;
  std::vector<Ppn> wb_inflight_blob_;
  /// Trained at every translation-page program, hole-punched on every
  /// update, cleared and retrained from truth at mount.
  LearnedIndex learned_;

  obs::Counter* wb_flushes_ = nullptr;
  obs::Counter* reconciled_ = nullptr;
};

}  // namespace phftl
