#include "ftl/trim_journal.hpp"

#include "ftl/ftl_base.hpp"

namespace phftl {

namespace {

/// Add `lpn` to `runs`, extending the last run when `lpn` continues it.
void add_run(TrimJournal::Runs& runs, Lpn lpn) {
  if (!runs.empty() && runs[runs.size() - 2] + runs.back() == lpn)
    ++runs.back();
  else
    runs.insert(runs.end(), {lpn, 1});
}

}  // namespace

TrimJournal::TrimJournal(FtlBase& ftl, std::uint64_t logical_pages,
                         const Geometry& geom)
    : ftl_(ftl),
      page_u64s_(std::max<std::uint64_t>(geom.page_size / 16, 1) * 2),
      half_sb_(geom.pages_per_superblock() / 2),
      tombstone_(logical_pages, 0),
      compact_threshold_(std::max<std::uint64_t>(half_sb_, 2)) {}

void TrimJournal::register_counters(obs::MetricsRegistry& m,
                                    const FtlStats& s) {
  m.counter_view("ftl.trim_journal.appends", &s.journal_writes, "pages",
                 "trim-journal record pages programmed (host trims + "
                 "compaction rewrites)");
  records_ctr_ = &m.counter("ftl.trim_journal.records", "records",
                            "trim range records written to the journal");
  m.counter_view("ftl.trim_journal.compactions", &s.trim_journal_compactions,
                 "compactions",
                 "journal compactions (tombstones rewritten densely, old "
                 "record superblocks reclaimed)");
  replayed_ctr_ =
      &m.counter("ftl.trim_journal.replayed_tombstones", "pages",
                 "resurrected mappings unmapped again by mount-time journal "
                 "replay");
}

void TrimJournal::register_gauges(obs::MetricsRegistry& m) const {
  m.gauge("ftl.trim_journal.pages", [this] { return pages_; }, "pages",
          "record pages live in the trim journal");
  m.gauge("ftl.trim_journal.superblocks", [this] { return sbs_.size(); },
          "superblocks", "superblocks currently held by the trim journal");
}

void TrimJournal::tombstone(Lpn lpn) {
  if (tombstone_[lpn]) return;
  tombstone_[lpn] = 1;
  ++live_;
}

void TrimJournal::note_trim(Lpn lpn, Runs& runs) {
  tombstone(lpn);
  add_run(runs, lpn);
}

void TrimJournal::append(const Runs& runs) {
  if (runs.empty()) return;
  write(runs);
  if (pages_ >= compact_threshold_) compact();
}

void TrimJournal::write(const Runs& runs) {
  for (std::size_t i = 0; i < runs.size(); i += page_u64s_)
    ftl_.append_journal_page(std::span(runs).subspan(
        i, std::min<std::size_t>(runs.size() - i, page_u64s_)));
}

void TrimJournal::note_programmed(Ppn ppn, std::uint64_t records) {
  ++ftl_.stats_.journal_writes;
  ++pages_;
  records_ctr_->add(records);
  ftl_.obs_.trace().record(obs::TraceEventType::kTrimJournalAppend,
                           ftl_.virtual_clock_, ppn, records);
}

void TrimJournal::compact() {
  // Snapshot and detach the current extent. New record pages below go into
  // a fresh superblock — write-new-before-erase-old, so a power cut
  // anywhere in here leaves at least one durable copy of every tombstone
  // (replay is idempotent, duplicates are harmless).
  std::vector<std::uint64_t> old_sbs;
  old_sbs.swap(sbs_);
  if (std::uint64_t& open = ftl_.open_slot(FtlBase::SbKind::kJournal, 0);
      open != FtlBase::kNoSb) {
    ftl_.close_superblock(open);
    open = FtlBase::kNoSb;
  }
  pages_ = 0;

  // Rewrite the live tombstone set densely (coalesced runs, full pages).
  if (live_ > 0) {
    Runs runs;
    for (Lpn lpn = 0; lpn < tombstone_.size(); ++lpn)
      if (tombstone_[lpn]) add_run(runs, lpn);
    write(runs);
  }

  // Reclaim the superseded journal superblocks.
  for (const std::uint64_t sb : old_sbs) ftl_.dispose_drained_superblock(sb);

  ++ftl_.stats_.trim_journal_compactions;
  // Re-derive the threshold from the surviving footprint so a large live
  // tombstone set doesn't trigger back-to-back compactions.
  compact_threshold_ = std::max(half_sb_, 2 * pages_);
  ftl_.obs_.trace().record(obs::TraceEventType::kTrimJournalCompact,
                           ftl_.virtual_clock_, pages_, live_);
}

void TrimJournal::forget() {
  std::fill(tombstone_.begin(), tombstone_.end(), 0);
  live_ = 0;
  sbs_.clear();
  pages_ = 0;
  found_.clear();
}

void TrimJournal::note_flash_page(std::uint64_t sb, Ppn ppn,
                                  std::uint64_t cutoff) {
  // The walk visits each superblock's pages together, in superblock order.
  if (sbs_.empty() || sbs_.back() != sb) sbs_.push_back(sb);
  ++pages_;
  found_.emplace_back(ppn, cutoff);
}

void TrimJournal::replay(RecoveryReport& rep) {
  // Replay every record against the rebuilt mapping. A trimmed LPN is
  // tombstoned iff its newest flash copy predates the trim (program_seq <=
  // the record page's cutoff); a rewrite after the trim has a higher
  // sequence and survives. The check makes replay order-independent and
  // idempotent, so duplicate records (compaction overlap) are harmless.
  const FlashArray& flash = ftl_.flash_;
  const std::uint64_t logical = tombstone_.size();
  for (const auto& [ppn, cutoff] : found_) {
    const std::vector<std::uint64_t>& blob = flash.read_blob(ppn);
    for (std::size_t i = 0; i + 1 < blob.size(); i += 2) {
      const Lpn start = blob[i];
      const std::uint64_t len = blob[i + 1];
      // Overflow-safe: records are written by trim requests, but a corrupt
      // blob must not wrap the sum past the check.
      PHFTL_CHECK(start < logical && len <= logical - start);
      ++rep.trim_records_replayed;
      for (Lpn lpn = start; lpn < start + len; ++lpn) {
        const Ppn cur = ftl_.l2p_[lpn];
        if (cur != kInvalidPpn && flash.read_oob(cur).program_seq > cutoff)
          continue;  // rewritten after this trim — mapping stands
        if (cur != kInvalidPpn) {
          ftl_.raw_unmap(lpn);  // stale copy resurrected by the OOB rebuild
          ++rep.trim_tombstones;
        }
        tombstone(lpn);
      }
    }
  }
  found_.clear();
  replayed_ctr_->add(rep.trim_tombstones);
}

}  // namespace phftl
