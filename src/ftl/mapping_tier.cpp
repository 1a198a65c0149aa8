#include "ftl/mapping_tier.hpp"

#include <algorithm>

#include "ftl/ftl_base.hpp"

namespace phftl {

MappingTier::MappingTier(FtlBase& ftl, const FtlConfig& cfg)
    : ftl_(ftl),
      wb_batch_(std::max<std::uint64_t>(cfg.cmt_wb_batch, 1)),
      learned_on_(cfg.learned_index) {
  // One translation page maps tp_entries_ consecutive LPNs; the physical
  // ceiling is what the page data area holds at 8 B per PPN. Smaller
  // values emulate production segment counts on the simulator's small
  // logical space (docs/MAPPING.md "RAM-budget methodology").
  const std::uint64_t max_entries =
      std::max<std::uint64_t>(cfg.geom.page_size / 8, 1);
  tp_entries_ = cfg.tp_entries == 0 ? max_entries : cfg.tp_entries;
  PHFTL_CHECK_MSG(tp_entries_ <= max_entries,
                  "tp_entries exceeds the page data area (page_size/8)");
  num_tps_ = (ftl.logical_pages() + tp_entries_ - 1) / tp_entries_;
  gtd_.assign(num_tps_, kInvalidPpn);
  const std::uint64_t cmt_cap = std::max<std::uint64_t>(cfg.cmt_pages, 1);
  cmt_.reset(cmt_cap);
  cmt_entries_.assign(cmt_cap * tp_entries_, kInvalidPpn);
  cmt_dirty_.assign(cmt_cap, 0);
  if (learned_on_)
    learned_.reset(ftl.logical_pages(), tp_entries_, cfg.learned_error_bound);
}

void MappingTier::register_counters(obs::MetricsRegistry& m,
                                    const FtlStats& s, MappingTier* tier) {
  m.counter_view("ftl.map.cmt_hits", &s.cmt_hits, "lookups",
                 "mapping-tier lookups served by a resident translation "
                 "page");
  m.counter_view("ftl.map.cmt_misses", &s.cmt_misses, "lookups",
                 "mapping-tier lookups that missed the CMT (segment fetched "
                 "from flash, adopted from the write-back buffer, or "
                 "materialized empty)");
  m.counter_view("ftl.map.translation_reads", &s.trans_reads, "pages",
                 "translation pages fetched from flash (CMT demand misses + "
                 "GC reads of non-resident valid translation pages)");
  m.counter_view("ftl.map.translation_writes", &s.trans_writes, "pages",
                 "translation pages programmed (dirty write-backs + GC "
                 "migrations + mount-time reconciliation); part of "
                 "flash_writes(), so WA charges the tier");
  m.counter_view("ftl.map.translation_gc_writes", &s.trans_gc_writes, "pages",
                 "GC migrations of valid translation pages (a subset of "
                 "ftl.map.translation_writes)");
  obs::Counter* flushes =
      &m.counter("ftl.map.wb_flushes", "flushes",
                 "batched write-back flushes of evicted dirty translation "
                 "pages");
  obs::Counter* reconciled =
      &m.counter("ftl.map.reconciled", "pages",
                 "translation pages rewritten at mount because their flash "
                 "copy trailed the OOB-rebuilt truth (dirty CMT state lost "
                 "to the cut, or trims replayed past them)");
  m.counter_view("ftl.map.learned_hits", &s.learned_hits, "lookups",
                 "CMT misses served by an OOB-verified learned-index "
                 "prediction instead of a translation-page fetch");
  m.counter_view("ftl.map.learned_mispredicts", &s.learned_mispredicts,
                 "lookups",
                 "learned predictions whose probe window failed OOB "
                 "verification (fell back to the GTD/CMT path)");
  m.counter_view("ftl.map.learned_probe_reads", &s.learned_probe_reads,
                 "pages",
                 "wasted learned-probe page reads (failed OOB verifications; "
                 "a hit's successful probe is the data read itself)");
  if (tier == nullptr) return;
  tier->wb_flushes_ = flushes;
  tier->reconciled_ = reconciled;
}

void MappingTier::register_gauges(obs::MetricsRegistry& m,
                                  const MappingTier* tier) {
  // Each gauge reads the live tier; a tier-off FTL exports them as 0.
  const auto view = [tier](auto read) {
    return [tier, read] {
      return tier ? static_cast<double>(read(*tier)) : 0.0;
    };
  };
  m.gauge("ftl.map.cmt_hit_rate",
          view([](const MappingTier& t) {
            return t.ftl_.stats_.cmt_hit_rate();
          }),
          "ratio", "CMT hits / (hits + misses) over the run so far");
  m.gauge("ftl.map.ram_bytes",
          view([](const MappingTier& t) { return t.ram_bytes(); }), "bytes",
          "mapping-tier RAM footprint (GTD + CMT slab + cache index + "
          "write-back buffer capacity; docs/MAPPING.md methodology)");
  m.gauge("ftl.map.read_amplification",
          view([](const MappingTier& t) {
            return t.ftl_.stats_.host_read_amplification();
          }),
          "ratio",
          "(host flash reads + host-path translation fetches + wasted "
          "learned probes) / host reads including unmapped zero-fills — "
          "the demand-paging double-read penalty");
  m.gauge("ftl.map.translation_wa",
          view([](const MappingTier& t) {
            const FtlStats& s = t.ftl_.stats_;
            return s.user_writes == 0
                       ? 0.0
                       : static_cast<double>(s.trans_writes) /
                             static_cast<double>(s.user_writes);
          }),
          "ratio",
          "translation pages programmed per user page written (the tier's "
          "own WA contribution)");
  m.gauge("ftl.map.learned_segments",
          view([](const MappingTier& t) { return t.learned_segments(); }),
          "segments",
          "piecewise-linear segments the learned index currently holds "
          "(tracks sequential runs, not translation pages)");
  m.gauge("ftl.map.learned_index_bytes",
          view([](const MappingTier& t) { return t.learned_index_bytes(); }),
          "bytes",
          "learned-index model RAM (charged into ftl.map.ram_bytes; "
          "docs/MAPPING.md methodology)");
}

std::uint64_t MappingTier::ram_bytes() const {
  const std::uint64_t cap = cmt_.capacity();
  // Honest footprint (docs/MAPPING.md methodology): the cache index is its
  // slab nodes (8 B key + 2x4 B links) and a slot table of 4 B per slot at
  // <=50% load, power-of-two.
  std::uint64_t slots = 16;
  while (slots < cap * 2) slots <<= 1;
  return num_tps_ * sizeof(Ppn)                            // GTD
         + cap * tp_entries_ * sizeof(Ppn)                 // CMT entries
         + cap * 16 + slots * 4                            // cache index
         + cap                                             // dirty flags
         + wb_batch_ * (tp_entries_ * sizeof(Ppn) + 8)     // write-back buffer
         + learned_index_bytes();                          // learned segments
}

void MappingTier::trace(obs::TraceEventType type, std::uint64_t a,
                        std::uint64_t b) {
  ftl_.obs_.trace().record(type, ftl_.virtual_clock_, a, b);
}

MappingTier::WbBuffer::iterator MappingTier::wb_find(std::uint64_t tpn) {
  return std::find_if(wb_buffer_.begin(), wb_buffer_.end(),
                      [tpn](const auto& e) { return e.first == tpn; });
}

Ppn MappingTier::lookup(Lpn lpn, bool host_read) {
  PHFTL_CHECK(lpn < ftl_.logical_pages());
  const std::uint64_t tpn = lpn / tp_entries_;
  // A segment neither resident, buffered nor mid-flush is served by its
  // flash copy alone. With no copy it has never mapped anything: answer
  // from the GTD, without polluting the CMT or charging a fetch. With one,
  // the copy is what the learned model was trained on, so a verified
  // prediction serves the lookup with no CMT traffic.
  if (cmt_.node_of(tpn) == core::FlatMetaCache::kNoNode &&
      tpn != wb_inflight_tpn_ && wb_find(tpn) == wb_buffer_.end()) {
    if (gtd_[tpn] == kInvalidPpn) {
      PHFTL_CHECK(ftl_.l2p_[lpn] == kInvalidPpn);
      return kInvalidPpn;
    }
    if (learned_on_) {
      const Ppn predicted = learned_lookup(lpn, host_read);
      if (predicted != kInvalidPpn) return predicted;
    }
  }
  const std::uint32_t node = cmt_fetch(tpn, /*exempt_idx=*/~0ULL, host_read);
  const Ppn ppn = slab(node)[lpn % tp_entries_];
  PHFTL_CHECK_MSG(ppn == ftl_.l2p_[lpn],
                  "mapping tier diverged from the L2P shadow");
  maybe_flush();
  return ppn;
}

Ppn MappingTier::learned_lookup(Lpn lpn, bool host_read) {
  std::int64_t pred = 0;
  std::uint32_t radius = 0;
  if (!learned_.predict(lpn, &pred, &radius)) return kInvalidPpn;
  const FlashArray& flash = ftl_.flash_;
  const auto total = static_cast<std::int64_t>(flash.geometry().total_pages());
  std::uint64_t wasted = 0;
  Ppn found = kInvalidPpn;
  // Probe outward from the prediction: 0, +1, -1, ... ±radius. Each probe
  // is one flash page read (data + OOB); it verifies iff the page is a
  // valid user copy of exactly this LPN — translation/meta/journal pages
  // carry lpn = kInvalidLpn in their OOB and can never false-match, and a
  // stale user copy is no longer valid. The probe that verifies IS
  // the data read; every earlier probe is wasted and charged below.
  const auto probe = [&](std::int64_t cand) {
    if (cand < 0 || cand >= total) return false;
    const auto p = static_cast<Ppn>(cand);
    // Unprogrammed pages need no read: an append-only controller knows
    // each block's write frontier.
    if (!flash.is_programmed(p)) return false;
    if (ftl_.page_valid(p) && flash.read_oob(p).lpn == lpn) {
      found = p;
      return true;
    }
    ++wasted;
    return false;
  };
  if (!probe(pred)) {
    for (std::int64_t d = 1; d <= static_cast<std::int64_t>(radius); ++d) {
      if (probe(pred + d) || probe(pred - d)) break;
    }
  }
  FtlStats& s = ftl_.stats_;
  s.learned_probe_reads += wasted;
  if (host_read) s.learned_probe_reads_host += wasted;
  if (found != kInvalidPpn) {
    // A valid page whose OOB names lpn is owned by lpn (p2l_[found] ==
    // lpn), so this check can only fire if the reverse map itself diverged
    // from the shadow.
    PHFTL_CHECK_MSG(found == ftl_.l2p_[lpn],
                    "verified learned probe diverged from the L2P shadow");
    ++s.learned_hits;
    trace(obs::TraceEventType::kLearnedHit, found, lpn);
    return found;
  }
  ++s.learned_mispredicts;
  trace(obs::TraceEventType::kLearnedMispredict,
        static_cast<std::uint64_t>(pred < 0 ? 0 : pred), lpn);
  return kInvalidPpn;
}

void MappingTier::update(Lpn lpn, Ppn new_ppn) {
  const std::uint64_t idx = lpn % tp_entries_;
  // Any mapping change — host write, trim, or a data-GC patch riding this
  // same batched CMT path — makes the trained prediction for this LPN
  // stale. Punch it out of the model now; the slot is re-covered when the
  // dirty page's write-back retrains the range from its new content.
  if (learned_on_) learned_.invalidate(lpn);
  // l2p_[lpn] already holds new_ppn; the fetch's integrity check must skip
  // exactly this slot (its flash copy legitimately predates the update).
  const std::uint32_t node = cmt_fetch(lpn / tp_entries_, idx, false);
  slab(node)[idx] = new_ppn;
  cmt_dirty_[node] = 1;
  maybe_flush();
}

std::uint32_t MappingTier::cmt_fetch(std::uint64_t tpn,
                                     std::uint64_t exempt_idx,
                                     bool host_read) {
  PHFTL_CHECK(tpn < num_tps_);
  FtlStats& s = ftl_.stats_;
  if (const std::uint32_t node = cmt_.node_of(tpn);
      node != core::FlatMetaCache::kNoNode) {
    ++s.cmt_hits;
    const core::CacheAccess acc = cmt_.access(tpn);  // LRU touch
    PHFTL_CHECK(acc.hit && acc.node == node);
    trace(obs::TraceEventType::kTransCacheHit, tpn);
    return node;
  }
  ++s.cmt_misses;

  // A dirty victim must be buffered before access() recycles its slab node
  // for the incoming key.
  if (cmt_.size() == cmt_.capacity()) {
    const std::uint64_t vkey = cmt_.lru_key();
    const std::uint32_t vnode = cmt_.node_of(vkey);
    PHFTL_CHECK(vnode != core::FlatMetaCache::kNoNode);
    if (cmt_dirty_[vnode]) {
      const std::span<const Ppn> victim = slab(vnode);
      wb_buffer_.emplace_back(vkey,
                              std::vector<Ppn>(victim.begin(), victim.end()));
      cmt_dirty_[vnode] = 0;
    }
  }
  const core::CacheAccess acc = cmt_.access(tpn);
  PHFTL_CHECK(!acc.hit);
  const std::span<Ppn> entries = slab(acc.node);

  // Content source, newest first: the write-back buffer still owns the
  // freshest copy of a page evicted dirty (adopting it re-dirties the
  // entry — its flash copy is stale); then the write-back being programmed
  // right now (this fetch came from GC that very program triggered; dirty
  // is conservative — the landing flash copy will match); then the flash
  // copy; else the segment has never been written back and is empty.
  bool dirty = true;
  std::span<const Ppn> src;
  const auto buffered = wb_find(tpn);
  if (buffered != wb_buffer_.end()) {
    src = buffered->second;
  } else if (tpn == wb_inflight_tpn_) {
    src = wb_inflight_blob_;
  } else {
    dirty = false;
    if (gtd_[tpn] != kInvalidPpn) {
      src = ftl_.flash_.read_blob(gtd_[tpn]);
      ++s.trans_reads;
      if (host_read) ++s.trans_reads_host;
      trace(obs::TraceEventType::kTransFetch, gtd_[tpn], tpn);
    }
  }
  PHFTL_CHECK(src.size() <= tp_entries_);
  std::fill(std::copy(src.begin(), src.end(), entries.begin()), entries.end(),
            kInvalidPpn);
  if (buffered != wb_buffer_.end()) wb_buffer_.erase(buffered);
  cmt_dirty_[acc.node] = dirty ? 1 : 0;

  // Integrity net: whatever the source, the loaded segment must equal the
  // l2p_ shadow — except the one slot an in-flight update is about to
  // patch (update() names it via exempt_idx).
  const Lpn base = tpn * tp_entries_;
  for (std::uint64_t i = 0; i < tp_entries_; ++i) {
    if (i == exempt_idx) continue;
    if (base + i >= ftl_.logical_pages()) break;
    PHFTL_CHECK_MSG(entries[i] == ftl_.l2p_[base + i],
                    "fetched translation page diverged from the L2P shadow");
  }
  return acc.node;
}

void MappingTier::maybe_flush() {
  if (wb_buffer_.size() >= wb_batch_) flush();
}

void MappingTier::flush() {
  if (wb_buffer_.empty() || in_flush_ || ftl_.in_gc_) return;
  in_flush_ = true;
  std::uint64_t spins = 0;
  while (!wb_buffer_.empty()) {
    PHFTL_CHECK_MSG(spins++ < num_tps_ * 64 + 64,
                    "write-back flush not converging");
    wb_inflight_tpn_ = wb_buffer_.front().first;
    wb_inflight_blob_ = std::move(wb_buffer_.front().second);
    wb_buffer_.erase(wb_buffer_.begin());
    ftl_.append_translation_page(wb_inflight_tpn_, wb_inflight_blob_,
                                 /*gc_migration=*/false);
    wb_inflight_tpn_ = kInvalidLpn;
    wb_inflight_blob_.clear();
  }
  wb_flushes_->inc();
  in_flush_ = false;
}

Ppn MappingTier::note_programmed(std::uint64_t tpn, Ppn ppn,
                                 std::span<const std::uint64_t> blob) {
  PHFTL_CHECK(blob.size() == tp_entries_);
  const Ppn old = gtd_[tpn];
  gtd_[tpn] = ppn;
  // Every translation-page program funnels through here — write-back
  // flush, GC migration, mount-time reconciliation — so retraining at this
  // single point keeps the model exactly in sync with the flash blob the
  // GTD now points at.
  if (learned_on_) learned_.train(tpn, blob);
  return old;
}

void MappingTier::migrate(Ppn ppn) {
  const std::uint64_t tpn = ftl_.flash_.read_oob(ppn).tpn;
  PHFTL_CHECK(tpn < num_tps_);
  PHFTL_CHECK(gtd_[tpn] == ppn && ftl_.p2l_[ppn] == tpn);
  // Freshest content wins, so the migration absorbs pending updates for
  // free (the dirty state rides the new flash copy): CMT-resident first,
  // then the write-back buffer — the victim may hold the stale flash copy
  // of a page evicted dirty — then the in-flight write-back, then the
  // flash copy itself (charged as a translation read).
  const std::uint32_t node = cmt_.node_of(tpn);
  auto buffered = wb_buffer_.end();
  std::span<const Ppn> blob;
  if (node != core::FlatMetaCache::kNoNode) {
    blob = slab(node);
  } else if (buffered = wb_find(tpn); buffered != wb_buffer_.end()) {
    blob = buffered->second;
  } else if (tpn == wb_inflight_tpn_) {
    blob = wb_inflight_blob_;
  } else {
    blob = ftl_.flash_.read_blob(ppn);
    ++ftl_.stats_.trans_reads;
  }
  ftl_.append_translation_page(tpn, blob, /*gc_migration=*/true);
  // The buffered write-back rode the migration instead of a later flush,
  // and a resident page's new flash copy now matches it exactly.
  if (buffered != wb_buffer_.end()) wb_buffer_.erase(buffered);
  if (node != core::FlatMetaCache::kNoNode) cmt_dirty_[node] = 0;
}

void MappingTier::forget() {
  std::fill(gtd_.begin(), gtd_.end(), kInvalidPpn);
  cmt_.clear();
  std::fill(cmt_dirty_.begin(), cmt_dirty_.end(), 0);
  wb_buffer_.clear();
  in_flush_ = false;
  wb_inflight_tpn_ = kInvalidLpn;
  wb_inflight_blob_.clear();
  // Reconciliation retrains every still-mapped page from the rebuilt truth.
  learned_.clear();
}

void MappingTier::note_flash_copy(Ppn ppn, const OobData& oob) {
  PHFTL_CHECK(oob.tpn < num_tps_);
  // Program sequence numbers start at 1, so an empty entry always loses.
  const Ppn cur = gtd_[oob.tpn];
  if (cur == kInvalidPpn ||
      oob.program_seq > ftl_.flash_.read_oob(cur).program_seq)
    gtd_[oob.tpn] = ppn;
}

void MappingTier::reconcile(RecoveryReport& rep) {
  for_each_live_copy([&](std::uint64_t, Ppn) { ++rep.trans_gtd_rebuilt; });
  std::vector<Ppn> truth(tp_entries_);
  for (std::uint64_t tpn = 0; tpn < num_tps_; ++tpn) {
    const Lpn base = tpn * tp_entries_;
    std::fill(truth.begin(), truth.end(), kInvalidPpn);
    bool any_mapped = false;
    for (std::uint64_t i = 0; i < tp_entries_; ++i) {
      if (base + i >= ftl_.logical_pages()) break;
      truth[i] = ftl_.l2p_[base + i];
      any_mapped = any_mapped || truth[i] != kInvalidPpn;
    }
    const Ppn cur = gtd_[tpn];
    if (!any_mapped) {
      // Fully unmapped segment: drop the stale flash copy (restoring the
      // empty-GTD invariant) instead of writing an all-invalid page.
      if (cur != kInvalidPpn) {
        PHFTL_CHECK(ftl_.p2l_[cur] == tpn);
        ftl_.drop_page(cur);
        gtd_[tpn] = kInvalidPpn;
      }
      continue;
    }
    if (cur != kInvalidPpn && ftl_.flash_.read_blob(cur) == truth) {
      // Flash copy already agrees with the rebuilt truth — no rewrite, but
      // the learned model (wiped with the rest of the RAM state) still
      // needs its segments back. Training from `truth` costs zero extra
      // flash reads: the blob comparison above already paid the read.
      if (learned_on_) learned_.train(tpn, truth);
      continue;
    }
    ftl_.append_translation_page(tpn, truth, /*gc_migration=*/false);
    ++rep.trans_reconciled;
    reconciled_->inc();
  }
}

}  // namespace phftl
