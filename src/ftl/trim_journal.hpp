// Trim journal (docs/RECOVERY.md "Trim semantics"): the durable half of
// TRIM. The mount-time OOB rebuild maps every LPN to its newest flash copy,
// trimmed or not, so each effective trim is journaled as (start, len)
// range records before it is acknowledged, and the mount replays them.
//
// TrimJournal owns the tombstone set, the journal extent, the record
// format, compaction and the replay. FtlBase calls it at trim, host write,
// journal-superblock open, the capacity watermark and mount, and programs
// each record page through FtlBase::append_journal_page, which reports the
// landed page back through note_programmed(). As FtlBase's friend the
// journal reads l2p_, unmaps replayed LPNs and reclaims its superblocks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "flash/geometry.hpp"
#include "ftl/stats.hpp"
#include "obs/observability.hpp"

namespace phftl {

class FtlBase;
struct RecoveryReport;

class TrimJournal {
 public:
  /// Range records (start, len), flattened.
  using Runs = std::vector<std::uint64_t>;

  TrimJournal(FtlBase& ftl, std::uint64_t logical_pages, const Geometry& geom);
  // The registered gauges hold this journal's address.
  TrimJournal(const TrimJournal&) = delete;
  TrimJournal& operator=(const TrimJournal&) = delete;

  // --- FtlBase call points ---
  /// Host write: a rewrite supersedes any journaled trim of `lpn`. Inline,
  /// as it runs on every host write.
  void note_rewrite(Lpn lpn) {
    if (!tombstone_[lpn]) return;
    tombstone_[lpn] = 0;
    --live_;
  }
  /// Effective trim of `lpn`, already unmapped: tombstone it and add it to
  /// the request's runs.
  void note_trim(Lpn lpn, Runs& runs);
  /// Persist a request's runs, then compact once the record pages since
  /// the last compaction reach the threshold.
  void append(const Runs& runs);
  /// A journal superblock opened; it joins the extent.
  void note_opened(std::uint64_t sb) { sbs_.push_back(sb); }
  /// A record page holding `records` records landed at `ppn`.
  void note_programmed(Ppn ppn, std::uint64_t records);
  /// Superblocks the capacity watermark sets aside: never fewer than one,
  /// so compaction always has somewhere to rewrite records.
  std::uint64_t reserve_superblocks() const {
    return std::max<std::uint64_t>(sbs_.size(), 1);
  }
  /// Mount: the RAM state is lost; the rebuild walk reports each record
  /// page it finds, and replay() applies them to the rebuilt mapping.
  void forget();
  void note_flash_page(std::uint64_t sb, Ppn ppn, std::uint64_t cutoff);
  void replay(RecoveryReport& rep);
  /// Rewrite the live tombstone set densely into a fresh superblock, then
  /// reclaim the old extent.
  void compact();

  /// Register the journal's metrics at FtlBase's two fixed points of the
  /// export order.
  void register_counters(obs::MetricsRegistry& m, const FtlStats& s);
  void register_gauges(obs::MetricsRegistry& m) const;

  std::uint64_t superblocks() const { return sbs_.size(); }
  std::uint64_t live_tombstones() const { return live_; }

 private:
  /// Program `runs` as record pages of what one page data area holds.
  /// Compaction's rewrite calls this directly: it never re-checks the
  /// threshold, so compaction cannot recurse.
  void write(const Runs& runs);
  void tombstone(Lpn lpn);

  FtlBase& ftl_;
  std::uint64_t page_u64s_;  ///< per record page, 16 bytes per record
  std::uint64_t half_sb_;    ///< compaction threshold floor, in pages
  /// tombstone_[lpn] = trimmed and not rewritten since: the set the
  /// journal must preserve across power cuts. live_ counts the 1-bits.
  std::vector<std::uint8_t> tombstone_;
  std::uint64_t live_ = 0;
  /// Superblocks holding record pages (open + closed), oldest first.
  std::vector<std::uint64_t> sbs_;
  /// Record pages programmed since the last compaction.
  std::uint64_t pages_ = 0;
  /// Compact when pages_ reaches this; re-derived after each compaction
  /// so a large live tombstone set doesn't thrash.
  std::uint64_t compact_threshold_;
  /// Mount: record pages found by the walk, as (ppn, tombstone cutoff).
  std::vector<std::pair<Ppn, std::uint64_t>> found_;

  obs::Counter* records_ctr_ = nullptr;
  obs::Counter* replayed_ctr_ = nullptr;
};

}  // namespace phftl
