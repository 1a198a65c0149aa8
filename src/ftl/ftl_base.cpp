#include "ftl/ftl_base.hpp"

#include <algorithm>
#include <chrono>

#include "flash/fault_injector.hpp"
#include "util/log.hpp"

namespace phftl {

FtlBase::FtlBase(const FtlConfig& cfg, std::uint32_t num_streams)
    : cfg_(cfg),
      flash_(cfg.geom),
      logical_pages_(static_cast<std::uint64_t>(
          static_cast<double>(cfg.geom.total_pages()) *
          (1.0 - cfg.op_ratio))),
      num_streams_(num_streams),
      l2p_(logical_pages_, kInvalidPpn),
      p2l_(cfg.geom.total_pages(), kInvalidLpn),
      valid_bit_(cfg.geom.total_pages(), 0),
      gc_count_(cfg.geom.total_pages(), 0),
      sb_meta_(cfg.geom.num_superblocks()),
      open_(num_streams),
      pending_retire_(cfg.geom.num_superblocks(), 0),
      wear_(cfg.geom.num_superblocks(), 0),
      is_journal_sb_(cfg.geom.num_superblocks(), 0),
      tombstone_(logical_pages_, 0) {
  PHFTL_CHECK_MSG(num_streams_ >= 1, "at least one stream required");
  // Attach the injector before building the free pool: factory bad blocks
  // are marked at attach time and must never enter circulation.
  flash_.attach_fault_injector(cfg.fault_injector);
  // P/E budget enforcement lives in the flash array (physical, survives
  // RAM loss); the FTL only mirrors the counts for leveling decisions.
  flash_.set_max_pe_cycles(cfg.max_pe_cycles);
  // GC trigger (paper §III-D): collect when the free-superblock proportion
  // drops below the threshold. The trigger must be *satisfiable*: the
  // over-provisioned space, expressed in superblocks, has to exceed it —
  // even after factory bad blocks are deducted — or GC could never push
  // the free count back above the line.
  const auto ratio_count = static_cast<std::uint64_t>(
      static_cast<double>(cfg.geom.num_superblocks()) *
          cfg.gc_free_threshold +
      0.999);
  gc_trigger_count_ = std::max<std::uint64_t>(ratio_count, 2);
  // Time-sliced urgent floor: half the trigger, never below the two
  // superblocks a write + concurrent GC appends can consume before the
  // next maybe_gc(). Between the floor and the trigger GC yields to the
  // host after each bounded step; below it, rounds complete synchronously
  // (docs/QOS.md "Safety argument"). With a 2-superblock trigger the floor
  // equals the trigger and time-sliced mode degenerates to stop-the-world.
  gc_urgent_count_ =
      std::max<std::uint64_t>(gc_trigger_count_ / 2, 2);
  const auto op_superblocks = static_cast<std::uint64_t>(
      static_cast<double>(cfg.geom.num_superblocks()) * cfg.op_ratio);
  PHFTL_CHECK_MSG(
      op_superblocks >= gc_trigger_count_ + flash_.bad_block_count(),
      "GC trigger exceeds over-provisioning headroom; use more "
      "(or smaller) superblocks, or fewer factory bad blocks");
  PHFTL_CHECK_MSG(cfg.geom.num_superblocks() >
                      gc_trigger_count_ + num_streams_ +
                          flash_.bad_block_count(),
                  "geometry too small for stream count");
  for (std::uint64_t sb = 0; sb < cfg.geom.num_superblocks(); ++sb)
    if (!flash_.is_bad(sb)) free_pool_.push_back(sb);
  victim_index_.reset(cfg.geom.num_superblocks(),
                      cfg.geom.pages_per_superblock());
  journal_compact_threshold_ =
      std::max<std::uint64_t>(cfg.geom.pages_per_superblock() / 2, 2);
  // Sized unconditionally so is_translation_sb() is always answerable;
  // with the tier off no bit ever gets set.
  is_translation_sb_.assign(cfg.geom.num_superblocks(), 0);
  if (cfg_.mapping_tier) {
    // One translation page maps tp_entries_ consecutive LPNs; the physical
    // ceiling is what the page data area holds at 8 B per PPN. Smaller
    // values emulate production segment counts on the simulator's small
    // logical space (docs/MAPPING.md "RAM-budget methodology").
    const std::uint64_t max_entries =
        std::max<std::uint64_t>(cfg.geom.page_size / 8, 1);
    tp_entries_ = cfg_.tp_entries == 0 ? max_entries : cfg_.tp_entries;
    PHFTL_CHECK_MSG(tp_entries_ <= max_entries,
                    "tp_entries exceeds the page data area (page_size/8)");
    num_tps_ = (logical_pages_ + tp_entries_ - 1) / tp_entries_;
    gtd_.assign(num_tps_, kInvalidPpn);
    const std::uint64_t cmt_cap = std::max<std::uint64_t>(cfg_.cmt_pages, 1);
    cmt_.reset(cmt_cap);
    cmt_entries_.assign(cmt_cap * tp_entries_, kInvalidPpn);
    cmt_dirty_.assign(cmt_cap, 0);
    trans_open_.assign(num_streams_, OpenStream::kNoSb);
    if (cfg_.learned_index) {
      learned_.reset(logical_pages_, tp_entries_, cfg_.learned_error_bound);
    }
  }
  PHFTL_CHECK_MSG(!cfg_.learned_index || cfg_.mapping_tier,
                  "learned_index requires mapping_tier");
  register_ftl_metrics();
}

void FtlBase::register_ftl_metrics() {
  obs::MetricsRegistry& m = obs_.metrics();
  stream_host_writes_.reserve(num_streams_);
  stream_flash_writes_.reserve(num_streams_);
  for (std::uint32_t s = 0; s < num_streams_; ++s) {
    const std::string id = std::to_string(s);
    stream_host_writes_.push_back(
        &m.counter("ftl.stream" + id + ".host_writes", "pages",
                   "host pages the write classifier sent to stream " + id));
    stream_flash_writes_.push_back(
        &m.counter("ftl.stream" + id + ".flash_writes", "pages",
                   "pages programmed into stream " + id +
                       " (user + GC migrations + meta pages)"));
  }
  gc_rounds_ctr_ = &m.counter("ftl.gc.rounds", "rounds",
                              "completed GC victim collections");
  gc_aborted_ctr_ =
      &m.counter("ftl.gc.aborted_rounds", "rounds",
                 "GC rounds abandoned because the best victim was fully "
                 "valid (back-off)");
  gc_moved_ctr_ = &m.counter("ftl.gc.moved_valid_pages", "pages",
                             "valid pages migrated out of GC victims (the "
                             "numerator of write amplification)");
  // Counters over an FtlStats field are views of it: FtlStats is the one
  // event ledger, and the export reads it in this registration order.
  m.counter_view("ftl.gc.steps", &stats_.gc_steps, "steps",
                 "bounded GC relocation slices (one per round under "
                 "stop-the-world; many under time-sliced GC)");
  m.counter_view("ftl.gc.preemptions", &stats_.gc_preemptions, "yields",
                 "time-sliced GC steps that hit their page budget and "
                 "yielded back to the host with the round unfinished");
  m.counter_view("ftl.erases", &stats_.erases, "superblocks",
                 "superblock erases");
  m.counter_view("ftl.meta_writes", &stats_.meta_writes, "pages",
                 "ML meta pages programmed (PHFTL only)");
  m.counter_view("ftl.stream_borrows", &stats_.stream_borrows, "pages",
                 "GC appends redirected to another stream's open superblock "
                 "under free-pool pressure");
  m.counter_view("ftl.host_reads", &stats_.host_reads, "pages",
                 "mapped host pages read");
  m.counter_view("ftl.trims", &stats_.trims, "pages",
                 "mapped logical pages discarded (effective trims; trims "
                 "of unmapped pages are no-ops)");
  m.counter_view("ftl.trim_journal.appends", &stats_.journal_writes, "pages",
                 "trim-journal record pages programmed (host trims + "
                 "compaction rewrites)");
  journal_records_ctr_ = &m.counter("ftl.trim_journal.records", "records",
                                    "trim range records written to the "
                                    "journal");
  m.counter_view("ftl.trim_journal.compactions",
                 &stats_.trim_journal_compactions, "compactions",
                 "journal compactions (tombstones rewritten densely, old "
                 "record superblocks reclaimed)");
  journal_replayed_ctr_ =
      &m.counter("ftl.trim_journal.replayed_tombstones", "pages",
                 "resurrected mappings unmapped again by mount-time journal "
                 "replay");
  m.counter_view("ftl.enospc_rejections", &stats_.enospc_rejections,
                 "pages",
                 "host writes rejected at the capacity watermark (ENOSPC)");
  m.counter_view("ftl.wl.rounds", &stats_.wl_rounds, "rounds",
                 "completed static wear-leveling rounds (cold victim drained "
                 "into worn blocks; a subset of ftl.gc.rounds)");
  m.counter_view("ftl.wl.migrations", &stats_.wl_migrations, "pages",
                 "pages migrated by wear-leveling rounds (a subset of GC "
                 "moved pages, so WA already charges them)");
  m.counter_view("flash.wear_retired", &stats_.wear_retired, "superblocks",
                 "superblocks retired at the P/E-cycle budget (end-of-life)");
  m.counter_view("flash.program_failures", &stats_.program_failures, "pages",
                 "program operations that aborted (page consumed, data "
                 "retried on a fresh page)");
  m.counter_view("flash.erase_failures", &stats_.erase_failures,
                 "superblocks",
                 "erase operations that failed (block went bad in place)");
  m.counter_view("flash.blocks_retired", &stats_.blocks_retired,
                 "superblocks",
                 "superblocks retired after a program failure (drained by "
                 "GC, no erase)");
  m.counter_view("ftl.host_reads_unmapped", &stats_.host_reads_unmapped,
                 "pages",
                 "host reads of unmapped LPNs (never written, or trimmed), "
                 "served as zero-fill without touching flash");
  m.counter_view("ftl.map.cmt_hits", &stats_.cmt_hits, "lookups",
                 "mapping-tier lookups served by a resident translation "
                 "page");
  m.counter_view("ftl.map.cmt_misses", &stats_.cmt_misses, "lookups",
                 "mapping-tier lookups that missed the CMT (segment fetched "
                 "from flash, adopted from the write-back buffer, or "
                 "materialized empty)");
  m.counter_view("ftl.map.translation_reads", &stats_.trans_reads, "pages",
                 "translation pages fetched from flash (CMT demand misses + "
                 "GC reads of non-resident valid translation pages)");
  m.counter_view("ftl.map.translation_writes", &stats_.trans_writes, "pages",
                 "translation pages programmed (dirty write-backs + GC "
                 "migrations + mount-time reconciliation); part of "
                 "flash_writes(), so WA charges the tier");
  m.counter_view("ftl.map.translation_gc_writes", &stats_.trans_gc_writes,
                 "pages",
                 "GC migrations of valid translation pages (a subset of "
                 "ftl.map.translation_writes)");
  wb_flushes_ctr_ =
      &m.counter("ftl.map.wb_flushes", "flushes",
                 "batched write-back flushes of evicted dirty translation "
                 "pages");
  trans_reconciled_ctr_ =
      &m.counter("ftl.map.reconciled", "pages",
                 "translation pages rewritten at mount because their flash "
                 "copy trailed the OOB-rebuilt truth (dirty CMT state lost "
                 "to the cut, or trims replayed past them)");
  m.counter_view("ftl.map.learned_hits", &stats_.learned_hits, "lookups",
                 "CMT misses served by an OOB-verified learned-index "
                 "prediction instead of a translation-page fetch");
  m.counter_view("ftl.map.learned_mispredicts", &stats_.learned_mispredicts,
                 "lookups",
                 "learned predictions whose probe window failed OOB "
                 "verification (fell back to the GTD/CMT path)");
  m.counter_view("ftl.map.learned_probe_reads", &stats_.learned_probe_reads,
                 "pages",
                 "wasted learned-probe page reads (failed OOB verifications; "
                 "a hit's successful probe is the data read itself)");
  recovery_mounts_ctr_ = &m.counter("recovery.mounts", "mounts",
                                    "recover() calls (unclean-shutdown "
                                    "mounts serviced)");
  recovery_oob_scans_ctr_ =
      &m.counter("recovery.oob_scans", "pages",
                 "OOB areas inspected across all mount-time rebuilds");
  recovery_rebuild_ns_ctr_ =
      &m.counter("recovery.rebuild_ns", "ns",
                 "cumulative wall-clock time spent in recover()");
  // Victim quality: the paper's separation claim is precisely that victims
  // land in the low buckets of this histogram.
  const std::uint64_t ppsb = geom().pages_per_superblock();
  std::vector<double> edges;
  for (std::uint64_t i = 0; i <= 8; ++i) {
    const double e = static_cast<double>(i * ppsb) / 8.0;
    if (edges.empty() || e > edges.back()) edges.push_back(e);
  }
  victim_valid_hist_ =
      &m.histogram("ftl.gc.victim_valid_pages", std::move(edges), "pages",
                   "valid-page count of each collected GC victim");
  // Wear distribution: one observation per erase, at the block's new count.
  // With a P/E budget the buckets are linear up to it (the last bucket is
  // end-of-life); without one, exponential — counts are open-ended.
  std::vector<double> wear_edges;
  if (cfg_.max_pe_cycles > 0) {
    for (std::uint64_t i = 1; i <= 8; ++i) {
      const double e =
          static_cast<double>(i * cfg_.max_pe_cycles) / 8.0;
      if (wear_edges.empty() || e > wear_edges.back()) wear_edges.push_back(e);
    }
  } else {
    for (double e = 1.0; e <= 256.0; e *= 2.0) wear_edges.push_back(e);
  }
  erase_count_hist_ =
      &m.histogram("flash.erase_count", std::move(wear_edges), "erases",
                   "per-superblock erase count, observed at each erase");
  bad_blocks_gauge_ = &m.gauge("flash.bad_blocks", "superblocks",
                               "superblocks out of service (factory bad + "
                               "retired + erase failures)");
  wa_gauge_ = &m.gauge("ftl.write_amplification", "ratio",
                       "(flash writes - user writes) / user writes");
  free_sb_gauge_ =
      &m.gauge("ftl.free_superblocks", "superblocks", "free-pool size");
  closed_sb_gauge_ = &m.gauge("ftl.closed_superblocks", "superblocks",
                              "closed superblocks (GC candidates)");
  pending_retire_gauge_ =
      &m.gauge("ftl.pending_retire_superblocks", "superblocks",
               "closed superblocks awaiting retirement after a program "
               "failure (drained by GC, then taken out of service)");
  vclock_gauge_ = &m.gauge("ftl.virtual_clock", "pages",
                           "host pages written (the paper's lifetime clock)");
  journal_pages_gauge_ = &m.gauge("ftl.trim_journal.pages", "pages",
                                  "record pages live in the trim journal");
  journal_sbs_gauge_ =
      &m.gauge("ftl.trim_journal.superblocks", "superblocks",
               "superblocks currently held by the trim journal");
  watermark_gauge_ =
      &m.gauge("ftl.capacity_watermark_pages", "pages",
               "host-visible capacity under the current physical reserve "
               "(writes past it are rejected with ENOSPC)");
  mapped_gauge_ =
      &m.gauge("ftl.mapped_pages", "pages", "logical pages currently mapped");
  gc_inflight_moved_gauge_ =
      &m.gauge("ftl.gc.inflight_valid_moved", "pages",
               "valid pages the preempted in-flight GC round has relocated "
               "so far (0 when no round is in flight)");
  wear_spread_gauge_ =
      &m.gauge("flash.wear_spread", "erases",
               "max - mean erase count over in-service superblocks (the "
               "static wear-leveling trigger quantity)");
  wear_max_gauge_ = &m.gauge("flash.wear_max", "erases",
                             "highest erase count among in-service "
                             "superblocks");
  cmt_hit_rate_gauge_ =
      &m.gauge("ftl.map.cmt_hit_rate", "ratio",
               "CMT hits / (hits + misses) over the run so far");
  map_ram_gauge_ = &m.gauge("ftl.map.ram_bytes", "bytes",
                            "mapping-tier RAM footprint (GTD + CMT slab + "
                            "cache index + write-back buffer capacity; "
                            "docs/MAPPING.md methodology)");
  read_amp_gauge_ =
      &m.gauge("ftl.map.read_amplification", "ratio",
               "(host flash reads + host-path translation fetches + wasted "
               "learned probes) / host reads including unmapped zero-fills "
               "— the demand-paging double-read penalty");
  trans_wa_gauge_ = &m.gauge("ftl.map.translation_wa", "ratio",
                             "translation pages programmed per user page "
                             "written (the tier's own WA contribution)");
  learned_segments_gauge_ =
      &m.gauge("ftl.map.learned_segments", "segments",
               "piecewise-linear segments the learned index currently "
               "holds (tracks sequential runs, not translation pages)");
  learned_bytes_gauge_ =
      &m.gauge("ftl.map.learned_index_bytes", "bytes",
               "learned-index model RAM (charged into ftl.map.ram_bytes; "
               "docs/MAPPING.md methodology)");
}

void FtlBase::refresh_observability() {
  bad_blocks_gauge_->set(static_cast<double>(flash_.bad_block_count()));
  wa_gauge_->set(stats_.write_amplification());
  free_sb_gauge_->set(static_cast<double>(free_pool_.size()));
  closed_sb_gauge_->set(static_cast<double>(victim_index_.size()));
  pending_retire_gauge_->set(static_cast<double>(pending_retire_count_));
  vclock_gauge_->set(static_cast<double>(virtual_clock_));
  journal_pages_gauge_->set(static_cast<double>(journal_pages_used_));
  journal_sbs_gauge_->set(static_cast<double>(journal_sbs_.size()));
  watermark_gauge_->set(static_cast<double>(capacity_watermark_pages()));
  mapped_gauge_->set(static_cast<double>(mapped_count_));
  gc_inflight_moved_gauge_->set(static_cast<double>(round_.moved));
  wear_spread_gauge_->set(wear_spread());
  wear_max_gauge_->set(static_cast<double>(wear_max_));
  if (cfg_.mapping_tier) {
    const std::uint64_t lookups = stats_.cmt_hits + stats_.cmt_misses;
    cmt_hit_rate_gauge_->set(
        lookups == 0 ? 0.0
                     : static_cast<double>(stats_.cmt_hits) /
                           static_cast<double>(lookups));
    map_ram_gauge_->set(static_cast<double>(mapping_ram_bytes()));
    const std::uint64_t host_reads_total =
        stats_.host_reads + stats_.host_reads_unmapped;
    read_amp_gauge_->set(
        host_reads_total == 0
            ? 0.0
            : static_cast<double>(stats_.host_reads +
                                  stats_.trans_reads_host +
                                  stats_.learned_probe_reads_host) /
                  static_cast<double>(host_reads_total));
    trans_wa_gauge_->set(
        stats_.user_writes == 0
            ? 0.0
            : static_cast<double>(stats_.trans_writes) /
                  static_cast<double>(stats_.user_writes));
    learned_segments_gauge_->set(static_cast<double>(learned_segments()));
    learned_bytes_gauge_->set(static_cast<double>(learned_index_bytes()));
  }
}

double FtlBase::wear_mean() const {
  const std::uint64_t total = geom().num_superblocks();
  const std::uint64_t bad = flash_.bad_block_count();
  if (bad >= total) return 0.0;
  return static_cast<double>(wear_sum_) / static_cast<double>(total - bad);
}

double FtlBase::wear_spread() const {
  const double mean = wear_mean();
  const double mx = static_cast<double>(wear_max_);
  return mx > mean ? mx - mean : 0.0;
}

void FtlBase::note_erase(std::uint64_t sb) {
  ++stats_.erases;
  ++wear_[sb];
  ++wear_sum_;
  wear_max_ = std::max(wear_max_, wear_[sb]);
  erase_count_hist_->observe(static_cast<double>(wear_[sb]));
}

void FtlBase::note_block_lost(std::uint64_t sb) {
  PHFTL_CHECK(wear_sum_ >= wear_[sb]);
  wear_sum_ -= wear_[sb];
  if (wear_[sb] == wear_max_) {
    // The max holder left service; rescan the survivors. Rare (a block is
    // lost at most once), so O(superblocks) is fine.
    wear_max_ = 0;
    for (std::uint64_t s = 0; s < geom().num_superblocks(); ++s)
      if (!flash_.is_bad(s)) wear_max_ = std::max(wear_max_, wear_[s]);
  }
}

void FtlBase::dispose_drained_superblock(std::uint64_t sb) {
  if (pending_retire_[sb]) {
    // The block failed a program earlier; now that it is drained, take it
    // out of service for good. It never returns to the free pool.
    pending_retire_[sb] = 0;
    PHFTL_CHECK(pending_retire_count_ > 0);
    --pending_retire_count_;
    flash_.retire_superblock(sb);
    ++stats_.blocks_retired;
    obs_.trace().record(obs::TraceEventType::kBlockRetired, virtual_clock_,
                        sb);
    note_block_lost(sb);
    return;
  }
  if (!flash_.erase_superblock(sb)) {
    if (flash_.wear_exhausted(sb)) {
      // The erase itself worked but consumed the block's last budgeted P/E
      // cycle: end-of-life retirement. The erase is real and is counted;
      // the block just never re-enters the free pool.
      note_erase(sb);
      ++stats_.wear_retired;
      obs_.trace().record(obs::TraceEventType::kWearRetired, virtual_clock_,
                          sb, wear_[sb]);
    } else {
      // Erase failure: the block went bad in place without erasing. The
      // caller's round still made progress (the drained pages moved).
      ++stats_.erase_failures;
      obs_.trace().record(obs::TraceEventType::kEraseFail, virtual_clock_,
                          sb);
    }
    note_block_lost(sb);
    return;
  }
  note_erase(sb);
  free_pool_.push_back(sb);
  obs_.trace().record(obs::TraceEventType::kFlashErase, virtual_clock_, sb);
}

std::uint64_t FtlBase::capacity_watermark_pages() const {
  // Physical reserve, in superblocks: blocks out of service, the GC
  // free-pool target, and the trim journal (one superblock is always
  // reserved for it — compaction needs somewhere to rewrite records even
  // before the first trim).
  std::uint64_t reserve = gc_trigger_count_ + flash_.bad_block_count() +
                          std::max<std::uint64_t>(journal_sbs_.size(), 1);
  if (cfg_.mapping_tier) {
    // The translation-page working set needs room of its own: every live
    // TP holds one flash page, plus one superblock of slack for the
    // write-new-before-invalidate-old churn.
    const std::uint64_t ppsb = geom().pages_per_superblock();
    reserve += (num_tps_ + ppsb - 1) / ppsb + 1;
  }
  const std::uint64_t total = geom().num_superblocks();
  if (reserve >= total) return 0;
  return (total - reserve) * data_capacity(0);
}

void FtlBase::seed_virtual_clock(std::uint64_t v) {
  PHFTL_CHECK_MSG(v >= virtual_clock_,
                  "seed_virtual_clock cannot move the clock backwards");
  virtual_clock_ = v;
}

void FtlBase::submit(const HostRequest& req) {
  const SubmitResult res = submit_checked(req);
  PHFTL_CHECK_MSG(res.status == WriteResult::kOk,
                  "host write rejected at the capacity watermark (ENOSPC); "
                  "use submit_checked() to handle it");
}

SubmitResult FtlBase::submit_checked(const HostRequest& req) {
  PHFTL_CHECK(req.num_pages > 0);
  // Overflow-safe form: `start + n <= logical_pages_` wraps for adversarial
  // near-UINT64_MAX starts and would admit an out-of-range request.
  PHFTL_CHECK_MSG(req.start_lpn < logical_pages_ &&
                      req.num_pages <= logical_pages_ - req.start_lpn,
                  "request beyond logical capacity");
  on_request(req);
  SubmitResult res;
  if (req.op == OpType::kRead) {
    for (std::uint32_t i = 0; i < req.num_pages; ++i)
      read_page(req.start_lpn + i);
    res.pages_completed = req.num_pages;
    return res;
  }
  if (req.op == OpType::kTrim) {
    // One coalesced journal flush per request (not per page).
    trim_range(req.start_lpn, req.num_pages);
    res.pages_completed = req.num_pages;
    return res;
  }
  WriteContext ctx;
  ctx.timestamp_us = req.timestamp_us;
  ctx.io_len_pages = req.num_pages;
  ctx.is_sequential = (req.start_lpn == prev_req_end_);
  for (std::uint32_t i = 0; i < req.num_pages; ++i) {
    ctx.now = virtual_clock_;
    if (write_page_impl(req.start_lpn + i, ctx, /*checked=*/true) ==
        WriteResult::kEnospc) {
      res.status = WriteResult::kEnospc;
      res.pages_completed = i;
      prev_req_end_ = kInvalidLpn;  // the request did not complete
      return res;
    }
  }
  prev_req_end_ = req.start_lpn + req.num_pages;
  res.pages_completed = req.num_pages;
  return res;
}

void FtlBase::write_page(Lpn lpn, const WriteContext& ctx) {
  write_page_impl(lpn, ctx, /*checked=*/false);
}

WriteResult FtlBase::try_write_page(Lpn lpn, const WriteContext& ctx) {
  return write_page_impl(lpn, ctx, /*checked=*/true);
}

WriteResult FtlBase::write_page_impl(Lpn lpn, const WriteContext& ctx_in,
                                     bool checked) {
  PHFTL_CHECK(lpn < logical_pages_);

  // Admission control, before any state changes or policy hooks: accepting
  // a page that maps a *new* LPN past the watermark could leave GC unable
  // to reach its free-superblock target. Overwrites of already-mapped LPNs
  // don't grow the mapped set and stay allowed until the watermark itself
  // sinks below the mapped count (lost blocks) — then the drive is
  // effectively read-only until the host trims.
  //
  // End-of-life admission (docs/ENDURANCE.md, docs/RECOVERY.md): when wear
  // retirement or program failures have drained the free pool and no open
  // superblock can take another page, the write has physically nowhere to
  // land — reject it rather than abort deep inside the append path. A
  // healthy drive never gets past the empty() test (GC keeps the pool at
  // its floor).
  const bool new_mapping = l2p_[lpn] == kInvalidPpn;
  const auto has_room = [&](const OpenStream& os) {
    return os.sb != OpenStream::kNoSb &&
           flash_.write_pointer(os.sb) < data_capacity(os.sb);
  };
  if (mapped_count_ + (new_mapping ? 1 : 0) > capacity_watermark_pages() ||
      (free_pool_.empty() &&
       std::none_of(open_.begin(), open_.end(), has_room))) {
    PHFTL_CHECK_MSG(checked,
                    "host write rejected (ENOSPC: capacity watermark or end "
                    "of life); use try_write_page()/submit_checked() to "
                    "handle it");
    ++stats_.enospc_rejections;
    obs_.trace().record(obs::TraceEventType::kEnospc, virtual_clock_, lpn,
                        mapped_count_);
    return WriteResult::kEnospc;
  }

  WriteContext ctx = ctx_in;
  ctx.now = virtual_clock_;

  // Invalidate the old version first: the invalidation hook must observe
  // the page's state *before* the classifier updates its bookkeeping
  // (lifetime of the dying version = now - its write time).
  invalidate(lpn);

  const std::uint32_t stream = classify_user_write(lpn, ctx);
  PHFTL_CHECK(stream < num_streams_);

  OobData oob;
  oob.lpn = lpn;
  oob.write_time = virtual_clock_;
  fill_user_oob(lpn, oob);
  const Ppn ppn = append(stream, lpn, /*payload=*/lpn ^ 0x5bd1e995ULL, oob);
  l2p_[lpn] = ppn;
  gc_count_[ppn] = 0;
  if (cfg_.mapping_tier) map_update(lpn, ppn);
  if (new_mapping) ++mapped_count_;
  if (tombstone_[lpn]) {  // rewrite supersedes any journaled trim
    tombstone_[lpn] = 0;
    PHFTL_CHECK(live_tombstones_ > 0);
    --live_tombstones_;
  }

  ++stats_.user_writes;
  stream_host_writes_[stream]->inc();
  ++virtual_clock_;
  on_host_write_complete(lpn, ppn, ctx);
  maybe_gc();
  obs_.tick(virtual_clock_);
  return WriteResult::kOk;
}

std::uint64_t FtlBase::read_page(Lpn lpn) {
  PHFTL_CHECK(lpn < logical_pages_);
  const Ppn ppn =
      cfg_.mapping_tier ? map_lookup(lpn, /*host_read=*/true) : l2p_[lpn];
  if (ppn == kInvalidPpn) {
    // Zero-fill, no flash touched — but it is real host traffic, and the
    // mapping tier's read-amplification denominator needs an honest read
    // ledger (a demand fetch may already have been charged above).
    ++stats_.host_reads_unmapped;
    return 0;
  }
  ++stats_.host_reads;
  return flash_.read(ppn);
}

bool FtlBase::trim_page(Lpn lpn) {
  PHFTL_CHECK_MSG(lpn < logical_pages_, "trim beyond logical capacity");
  return trim_range(lpn, 1) > 0;
}

std::uint64_t FtlBase::trim_range(Lpn start, std::uint64_t n) {
  // Overflow-safe (see submit_checked): the naive sum wraps for
  // near-UINT64_MAX starts.
  PHFTL_CHECK_MSG(start < logical_pages_ && n <= logical_pages_ - start,
                  "trim beyond logical capacity");
  // Unmap in RAM first, collecting the *effective* runs (pages that were
  // actually mapped); already-unmapped pages are no-ops and neither counted
  // nor journaled. The loop is sequential, so each run is contiguous.
  std::vector<std::uint64_t> pairs;  // (start, len) range records
  Lpn run_start = 0;
  std::uint64_t run_len = 0;
  std::uint64_t effective = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const Lpn lpn = start + i;
    if (l2p_[lpn] == kInvalidPpn) {
      if (run_len > 0) {
        pairs.push_back(run_start);
        pairs.push_back(run_len);
        run_len = 0;
      }
      continue;
    }
    invalidate(lpn);
    l2p_[lpn] = kInvalidPpn;
    if (cfg_.mapping_tier) map_update(lpn, kInvalidPpn);
    PHFTL_CHECK(mapped_count_ > 0);
    --mapped_count_;
    if (!tombstone_[lpn]) {
      tombstone_[lpn] = 1;
      ++live_tombstones_;
    }
    ++stats_.trims;
    ++effective;
    if (run_len == 0) run_start = lpn;
    ++run_len;
  }
  if (run_len > 0) {
    pairs.push_back(run_start);
    pairs.push_back(run_len);
  }
  // Persist the trim before acknowledging it: recovery replays these
  // records after the OOB rebuild so stale copies cannot resurrect.
  if (!pairs.empty()) append_journal_records(pairs);
  maybe_gc();
  obs_.tick(virtual_clock_);
  return effective;
}

void FtlBase::append_journal_records(const std::vector<std::uint64_t>& pairs) {
  // 16 bytes per (start, len) record; chunk to what one page data area holds.
  const std::uint64_t max_u64s =
      std::max<std::uint64_t>(geom().page_size / 16, 1) * 2;
  for (std::size_t i = 0; i < pairs.size(); i += max_u64s) {
    const std::size_t end = std::min<std::size_t>(pairs.size(), i + max_u64s);
    append_journal_page(std::vector<std::uint64_t>(
        pairs.begin() + static_cast<std::ptrdiff_t>(i),
        pairs.begin() + static_cast<std::ptrdiff_t>(end)));
  }
  if (journal_pages_used_ >= journal_compact_threshold_ && !in_compaction_)
    compact_trim_journal();
}

void FtlBase::append_journal_page(std::vector<std::uint64_t> chunk) {
  PHFTL_CHECK(!chunk.empty());
  const std::uint64_t records = chunk.size() / 2;
  // Program failures restart the loop like append(): the failing journal
  // superblock is closed and marked pending-retire (compaction, not GC,
  // reclaims journal blocks) and the record retries on a fresh superblock.
  for (std::uint32_t attempt = 0;; ++attempt) {
    PHFTL_CHECK_MSG(attempt < 64, "journal program retry limit exceeded");
    if (journal_sb_ == OpenStream::kNoSb) {
      if (free_pool_.empty()) maybe_gc();
      journal_sb_ = allocate_superblock(/*stream=*/0);
      is_journal_sb_[journal_sb_] = 1;
      journal_sbs_.push_back(journal_sb_);
    }
    OobData oob;  // journal pages carry no logical mapping (lpn stays ~0)
    oob.kind = PageKind::kTrimJournal;
    oob.write_time = virtual_clock_;
    // Tombstone cutoff: every data copy of a trimmed LPN existing at this
    // moment has program_seq <= this value; any rewrite lands above it.
    oob.trim_seq = flash_.program_seq();
    const Ppn ppn = flash_.program_blob(journal_sb_, oob, chunk);
    if (ppn == kInvalidPpn) {
      note_program_failure(journal_sb_);
      close_superblock(journal_sb_, /*indexed=*/false);
      journal_sb_ = OpenStream::kNoSb;
      continue;
    }
    ++stats_.journal_writes;
    ++journal_pages_used_;
    journal_records_ctr_->add(records);
    obs_.trace().record(obs::TraceEventType::kTrimJournalAppend,
                        virtual_clock_, ppn, records);
    obs_.trace().record(obs::TraceEventType::kFlashProgram, virtual_clock_,
                        ppn, 0, 0);
    if (flash_.write_pointer(journal_sb_) >= geom().pages_per_superblock()) {
      // Journal superblocks never enter the victim index: GC must not erase
      // records that are still the only durable copy of a trim.
      close_superblock(journal_sb_, /*indexed=*/false);
      journal_sb_ = OpenStream::kNoSb;
    }
    return;
  }
}

void FtlBase::compact_trim_journal() {
  PHFTL_CHECK(!in_compaction_);
  in_compaction_ = true;
  // Snapshot and detach the current journal extent. New record pages below
  // go into a fresh superblock — write-new-before-erase-old, so a power cut
  // anywhere in here leaves at least one durable copy of every tombstone
  // (replay is idempotent, duplicates are harmless).
  std::vector<std::uint64_t> old_sbs;
  old_sbs.swap(journal_sbs_);
  if (journal_sb_ != OpenStream::kNoSb) {
    close_superblock(journal_sb_, /*indexed=*/false);
    journal_sb_ = OpenStream::kNoSb;
  }
  journal_pages_used_ = 0;

  // Rewrite the live tombstone set densely (coalesced runs, full pages).
  if (live_tombstones_ > 0) {
    std::vector<std::uint64_t> pairs;
    Lpn run_start = 0;
    std::uint64_t run_len = 0;
    for (Lpn lpn = 0; lpn < logical_pages_; ++lpn) {
      if (!tombstone_[lpn]) {
        if (run_len > 0) {
          pairs.push_back(run_start);
          pairs.push_back(run_len);
          run_len = 0;
        }
        continue;
      }
      if (run_len == 0) run_start = lpn;
      ++run_len;
    }
    if (run_len > 0) {
      pairs.push_back(run_start);
      pairs.push_back(run_len);
    }
    append_journal_records(pairs);  // in_compaction_ blocks recursion
  }

  // Reclaim the superseded journal superblocks.
  for (const std::uint64_t sb : old_sbs) {
    is_journal_sb_[sb] = 0;
    dispose_drained_superblock(sb);
  }

  ++stats_.trim_journal_compactions;
  // Re-derive the threshold from the surviving footprint so a large live
  // tombstone set doesn't trigger back-to-back compactions.
  journal_compact_threshold_ = std::max<std::uint64_t>(
      geom().pages_per_superblock() / 2, 2 * journal_pages_used_);
  obs_.trace().record(obs::TraceEventType::kTrimJournalCompact,
                      virtual_clock_, journal_pages_used_, live_tombstones_);
  in_compaction_ = false;
}

void FtlBase::drop_page(Ppn ppn) {
  PHFTL_CHECK_MSG(valid_bit_[ppn], "dropping a page that is not valid");
  valid_bit_[ppn] = 0;
  p2l_[ppn] = kInvalidLpn;
  const std::uint64_t sb = geom().superblock_of(ppn);
  PHFTL_CHECK(sb_meta_[sb].valid_count > 0);
  --sb_meta_[sb].valid_count;
  if (victim_index_.contains(sb))  // closed blocks migrate buckets
    victim_index_.update(sb, sb_meta_[sb].valid_count);
}

void FtlBase::raw_unmap(Lpn lpn) {
  const Ppn old = l2p_[lpn];
  if (old == kInvalidPpn) return;
  drop_page(old);
  l2p_[lpn] = kInvalidPpn;
  PHFTL_CHECK(mapped_count_ > 0);
  --mapped_count_;
}

void FtlBase::invalidate(Lpn lpn) {
  const Ppn old = l2p_[lpn];
  if (old == kInvalidPpn) return;
  drop_page(old);
  on_page_invalidated(lpn, old, virtual_clock_);
}

std::uint64_t FtlBase::allocate_superblock(std::uint32_t stream) {
  PHFTL_CHECK_MSG(!free_pool_.empty(),
                  "free pool exhausted: GC cannot make progress");
  std::size_t pick = 0;
  if (in_gc_ && round_.wear_level) {
    // Wear-leveling appends steer into the most-worn free superblock: the
    // cold data parks there and stops that block's wear from advancing
    // (docs/ENDURANCE.md). Host and journal allocations keep FIFO order —
    // in_gc_ is false between steps — so leveling-off stays bit-identical.
    for (std::size_t i = 1; i < free_pool_.size(); ++i)
      if (wear_[free_pool_[i]] > wear_[free_pool_[pick]]) pick = i;
  }
  const std::uint64_t sb = free_pool_[pick];
  free_pool_.erase(free_pool_.begin() + static_cast<std::ptrdiff_t>(pick));
  flash_.open_superblock(sb);
  sb_meta_[sb].stream = stream;
  sb_meta_[sb].close_time = 0;
  obs_.trace().record(obs::TraceEventType::kSuperblockOpen, virtual_clock_,
                      sb, 0, stream);
  return sb;
}

void FtlBase::close_superblock(std::uint64_t sb, bool indexed) {
  flash_.close_superblock(sb);
  sb_meta_[sb].close_time = virtual_clock_;
  if (indexed) victim_index_.insert(sb, sb_meta_[sb].valid_count);
  obs_.trace().record(obs::TraceEventType::kSuperblockClose, virtual_clock_,
                      sb, sb_meta_[sb].valid_count, sb_meta_[sb].stream);
}

void FtlBase::note_program_failure(std::uint64_t sb) {
  ++stats_.program_failures;
  obs_.trace().record(obs::TraceEventType::kProgramFail, virtual_clock_, sb,
                      0, sb_meta_[sb].stream);
  if (!pending_retire_[sb]) {
    pending_retire_[sb] = 1;
    ++pending_retire_count_;
  }
}

Ppn FtlBase::append(std::uint32_t stream, Lpn lpn, std::uint64_t payload,
                    const OobData& oob) {
  // Program failures restart the loop: the failing superblock is closed and
  // marked for retirement, and the page retries on a fresh superblock. The
  // attempt bound only trips under absurd fault rates (each attempt consumes
  // a whole superblock).
  for (std::uint32_t attempt = 0;; ++attempt) {
    PHFTL_CHECK_MSG(attempt < 64, "program retry limit exceeded");
    std::uint32_t target = stream;
    if (open_[stream].sb == OpenStream::kNoSb && free_pool_.empty()) {
      // Memory-pressure fallback: GC migration may transiently need a fresh
      // superblock when none is free. Borrow space from any stream that
      // still has an open superblock (real firmware mixes streams under
      // pressure) rather than deadlocking; separation quality degrades for
      // those few pages only. Host writes reach here only at device
      // end-of-life (wear retirement drained the pool): the admission
      // check guarantees an open superblock with room exists, so the
      // drive's last pages mix streams instead of crashing.
      bool found = false;
      for (std::uint32_t s = 0; s < num_streams_; ++s) {
        if (open_[s].sb != OpenStream::kNoSb) {
          target = s;
          found = true;
          break;
        }
      }
      if (!found) {
        // Fault-driven end of life: a program failure closed the last open
        // superblock and the pool is empty. GC ends its round (gc_step);
        // the host then sees ENOSPC at admission (docs/RECOVERY.md).
        PHFTL_CHECK_MSG(in_gc_, "capacity exhausted: no open superblock left");
        return kInvalidPpn;
      }
      ++stats_.stream_borrows;
    }
    OpenStream& os = open_[target];
    if (os.sb == OpenStream::kNoSb) os.sb = allocate_superblock(target);

    const Ppn ppn = flash_.program(os.sb, payload, oob);
    if (ppn == kInvalidPpn) {
      // Program abort: the targeted page is consumed and empty. A block
      // that failed a program is untrustworthy — close it immediately
      // (skipping finalize_superblock: no meta pages go into a failing
      // block; their content is recoverable from the per-page OOB copies)
      // and mark it for retirement. Its valid pages stay readable; GC will
      // drain them and retire the block instead of erasing it.
      note_program_failure(os.sb);
      close_superblock(os.sb, /*indexed=*/true);
      os.sb = OpenStream::kNoSb;
      continue;
    }
    p2l_[ppn] = lpn;
    valid_bit_[ppn] = 1;
    ++sb_meta_[os.sb].valid_count;
    stream_flash_writes_[target]->inc();
    obs_.trace().record(obs::TraceEventType::kFlashProgram, virtual_clock_,
                        ppn, 0, target);

    // Close the superblock when its data region fills. finalize_superblock()
    // may program meta pages into the tail first (PHFTL, Fig. 4).
    if (flash_.write_pointer(os.sb) >= data_capacity(os.sb)) {
      finalize_superblock(os.sb);
      // Any tail pages finalize did not use are skipped (left unprogrammed);
      // real firmware pads them. They are simply not mapped.
      close_superblock(os.sb, /*indexed=*/true);
      os.sb = OpenStream::kNoSb;
    }
    return ppn;
  }
}

Ppn FtlBase::program_meta_page(std::uint64_t sb, std::uint64_t payload) {
  PHFTL_CHECK_MSG(flash_.state(sb) == SuperblockState::kOpen,
                  "meta pages go into the still-open superblock");
  OobData oob;  // meta pages carry no logical mapping
  oob.kind = PageKind::kMeta;
  const Ppn ppn = flash_.program(sb, payload, oob);
  if (ppn == kInvalidPpn) {
    // A failed meta page is tolerable — the per-page OOB copies remain
    // authoritative for recovery (§III-C) — but the block is untrustworthy:
    // mark it for retirement. The caller keeps programming its remaining
    // meta pages; each tail slot is attempted exactly once either way.
    note_program_failure(sb);
    return kInvalidPpn;
  }
  ++stats_.meta_writes;
  stream_flash_writes_[sb_meta_[sb].stream]->inc();
  obs_.trace().record(obs::TraceEventType::kFlashProgram, virtual_clock_, ppn,
                      0, sb_meta_[sb].stream);
  return ppn;
}

std::uint64_t FtlBase::rebuild_mapping_from_flash() {
  // Wipe the volatile structures.
  std::fill(l2p_.begin(), l2p_.end(), kInvalidPpn);
  std::fill(p2l_.begin(), p2l_.end(), kInvalidLpn);
  std::fill(valid_bit_.begin(), valid_bit_.end(), 0);
  std::fill(gc_count_.begin(), gc_count_.end(), 0);
  for (auto& meta : sb_meta_) meta.valid_count = 0;
  std::fill(is_journal_sb_.begin(), is_journal_sb_.end(), 0);
  std::fill(tombstone_.begin(), tombstone_.end(), 0);
  journal_sbs_.clear();
  journal_sb_ = OpenStream::kNoSb;
  journal_pages_used_ = 0;
  live_tombstones_ = 0;
  mapped_count_ = 0;
  std::fill(is_translation_sb_.begin(), is_translation_sb_.end(), 0);
  std::vector<std::uint64_t> trans_best_seq;
  if (cfg_.mapping_tier) {
    // Resident and buffered translation state is volatile; flash copies
    // are re-discovered below and reconciled by recover().
    std::fill(gtd_.begin(), gtd_.end(), kInvalidPpn);
    cmt_.clear();
    std::fill(cmt_dirty_.begin(), cmt_dirty_.end(), 0);
    wb_buffer_.clear();
    wb_inflight_tpn_ = kInvalidLpn;
    wb_inflight_blob_.clear();
    // The learned model died with RAM too; reconciliation retrains every
    // still-mapped translation page from the rebuilt truth.
    if (cfg_.learned_index) learned_.clear();
    trans_best_seq.assign(num_tps_, 0);
  }

  // Pass 1: the newest copy (highest program sequence) of each LPN wins.
  // Free blocks hold nothing; bad blocks are excluded because their
  // contents are undefined (erase failure) or fully drained by GC before
  // retirement — the newest copy of an LPN never lives there. Journal
  // superblocks are detected here (any page with kind == kTrimJournal) so
  // later passes and the replay step can treat them specially.
  std::uint64_t oob_scans = 0;
  std::vector<std::uint64_t> best_seq(logical_pages_, 0);
  for (std::uint64_t sb = 0; sb < geom().num_superblocks(); ++sb) {
    if (flash_.state(sb) == SuperblockState::kFree ||
        flash_.state(sb) == SuperblockState::kBad)
      continue;
    const std::uint64_t limit = flash_.write_pointer(sb);
    for (std::uint64_t off = 0; off < limit; ++off) {
      const Ppn ppn = geom().make_ppn(sb, off);
      if (!flash_.is_programmed(ppn)) continue;
      ++oob_scans;
      const OobData& oob = flash_.read_oob(ppn);
      if (oob.kind == PageKind::kTrimJournal) {
        if (!is_journal_sb_[sb]) {
          is_journal_sb_[sb] = 1;
          journal_sbs_.push_back(sb);
        }
        ++journal_pages_used_;
        continue;
      }
      if (oob.kind == PageKind::kTranslation) {
        // Keyed by tpn, not lpn: the newest flash copy of each translation
        // page rebuilds the GTD. A tier-off mount over tier-on flash state
        // is a config error, caught here rather than silently dropped.
        PHFTL_CHECK_MSG(cfg_.mapping_tier,
                        "translation pages on flash but mapping_tier off");
        is_translation_sb_[sb] = 1;
        PHFTL_CHECK(oob.tpn < num_tps_);
        if (oob.program_seq > trans_best_seq[oob.tpn]) {
          trans_best_seq[oob.tpn] = oob.program_seq;
          gtd_[oob.tpn] = ppn;
        }
        continue;
      }
      if (oob.lpn == kInvalidLpn) continue;  // meta page, not user data
      PHFTL_CHECK(oob.lpn < logical_pages_);
      if (oob.program_seq > best_seq[oob.lpn]) {
        best_seq[oob.lpn] = oob.program_seq;
        l2p_[oob.lpn] = ppn;
      }
    }
  }

  // Pass 2: derive the reverse map, validity, and per-superblock counts.
  for (Lpn lpn = 0; lpn < logical_pages_; ++lpn) {
    const Ppn ppn = l2p_[lpn];
    if (ppn == kInvalidPpn) continue;
    p2l_[ppn] = lpn;
    valid_bit_[ppn] = 1;
    gc_count_[ppn] = flash_.read_oob(ppn).gc_count;
    ++sb_meta_[geom().superblock_of(ppn)].valid_count;
    ++mapped_count_;
  }
  // Pass 2b: live translation pages are valid flash pages too (p2l_ holds
  // their tpn), but they map no LPN and stay out of mapped_count_. With
  // the tier off there are no translation pages (num_tps_ == 0).
  for (std::uint64_t tpn = 0; tpn < num_tps_; ++tpn) {
    const Ppn ppn = gtd_[tpn];
    if (ppn == kInvalidPpn) continue;
    p2l_[ppn] = tpn;
    valid_bit_[ppn] = 1;
    ++sb_meta_[geom().superblock_of(ppn)].valid_count;
  }

  // Pass 3: rebuild the victim index from the recovered counts. Journal
  // superblocks stay out — only compaction may reclaim them.
  victim_index_.reset(geom().num_superblocks(), geom().pages_per_superblock());
  for (std::uint64_t sb = 0; sb < geom().num_superblocks(); ++sb)
    if (flash_.state(sb) == SuperblockState::kClosed && !is_journal_sb_[sb])
      victim_index_.insert(sb, sb_meta_[sb].valid_count);
  return oob_scans;
}

void FtlBase::rederive_wear_from_flash() {
  std::fill(wear_.begin(), wear_.end(), 0);
  for (std::uint64_t sb = 0; sb < geom().num_superblocks(); ++sb) {
    const SuperblockState st = flash_.state(sb);
    if (st == SuperblockState::kFree || st == SuperblockState::kBad) continue;
    const std::uint64_t limit = flash_.write_pointer(sb);
    for (std::uint64_t off = 0; off < limit; ++off) {
      const Ppn ppn = geom().make_ppn(sb, off);
      if (!flash_.is_programmed(ppn)) continue;
      // Every programmed page in the block carries the same stamp (the
      // block's erase count at program time, unchanged while open/closed).
      wear_[sb] = flash_.read_oob(ppn).erase_count;
      break;
    }
  }
  wear_sum_ = 0;
  wear_max_ = 0;
  for (std::uint64_t sb = 0; sb < geom().num_superblocks(); ++sb) {
    if (flash_.is_bad(sb)) continue;
    wear_sum_ += wear_[sb];
    wear_max_ = std::max(wear_max_, wear_[sb]);
  }
}

void FtlBase::replay_trim_journal(RecoveryReport& rep) {
  // Replay every record against the rebuilt mapping. A trimmed LPN is
  // tombstoned iff its newest flash copy predates the trim (program_seq <=
  // the record page's cutoff); a rewrite after the trim has a higher
  // sequence and survives. The check makes replay order-independent and
  // idempotent, so duplicate records (compaction overlap) are harmless.
  for (const std::uint64_t sb : journal_sbs_) {
    const std::uint64_t limit = flash_.write_pointer(sb);
    for (std::uint64_t off = 0; off < limit; ++off) {
      const Ppn ppn = geom().make_ppn(sb, off);
      if (!flash_.is_programmed(ppn)) continue;
      const OobData& oob = flash_.read_oob(ppn);
      if (oob.kind != PageKind::kTrimJournal) continue;
      const std::uint64_t cutoff = oob.trim_seq;
      const std::vector<std::uint64_t>& blob = flash_.read_blob(ppn);
      for (std::size_t i = 0; i + 1 < blob.size(); i += 2) {
        const Lpn start = blob[i];
        const std::uint64_t len = blob[i + 1];
        // Overflow-safe: journal records are written by trim_range, but a
        // corrupt blob must not wrap the sum past the check.
        PHFTL_CHECK(start < logical_pages_ && len <= logical_pages_ - start);
        ++rep.trim_records_replayed;
        for (std::uint64_t k = 0; k < len; ++k) {
          const Lpn lpn = start + k;
          const Ppn cur = l2p_[lpn];
          if (cur != kInvalidPpn &&
              flash_.read_oob(cur).program_seq > cutoff)
            continue;  // rewritten after this trim — mapping stands
          if (cur != kInvalidPpn) {
            raw_unmap(lpn);  // stale copy resurrected by the OOB rebuild
            ++rep.trim_tombstones;
          }
          if (!tombstone_[lpn]) {
            tombstone_[lpn] = 1;
            ++live_tombstones_;
          }
        }
      }
    }
  }
  journal_replayed_ctr_->add(rep.trim_tombstones);
}

RecoveryReport FtlBase::recover() {
  const auto t0 = std::chrono::steady_clock::now();
  RecoveryReport rep;

  // Step 1: a power cut leaves superblocks open with the write pointer
  // mid-block. Close them read-only — their unwritten tail pages are
  // abandoned (no meta pages are programmed; PHFTL's entries survive in
  // the per-page OOB copies). They join the closed set in pass 3 below.
  for (std::uint64_t sb = 0; sb < geom().num_superblocks(); ++sb) {
    if (flash_.state(sb) == SuperblockState::kOpen) {
      flash_.close_superblock(sb);
      ++rep.open_sbs_closed;
    }
  }

  // Step 2: everything RAM-only is gone. (Journal extent, tombstone set,
  // and mapped count are re-derived from flash by the rebuild + replay.)
  for (auto& os : open_) os.sb = OpenStream::kNoSb;
  std::fill(trans_open_.begin(), trans_open_.end(), OpenStream::kNoSb);
  in_wb_flush_ = false;
  std::fill(pending_retire_.begin(), pending_retire_.end(), 0);
  pending_retire_count_ = 0;
  prev_req_end_ = kInvalidLpn;
  in_gc_ = false;
  in_compaction_ = false;
  // A cut mid-GC-step (or between steps of a preempted time-sliced round)
  // leaves a half-relocated victim. No special handling is needed beyond
  // forgetting the round: pages already moved win the OOB rebuild by
  // program_seq (GC copies carry fresh sequence numbers), pages not yet
  // moved are still valid in the victim, and the victim is kClosed so the
  // rebuild's pass 3 re-inserts it into the victim index at its remaining
  // valid count — a future round simply collects it again (docs/QOS.md).
  round_ = GcRound{};

  // Step 3: base mapping / validity / victim-index rebuild from OOB. This
  // also detects the journal superblocks (pages with kind == kTrimJournal).
  rep.oob_scans = rebuild_mapping_from_flash();

  // Step 3.25: re-derive the wear table from the per-page OOB erase-count
  // stamps — documented *lower bounds* (docs/ENDURANCE.md): exact for
  // open/closed blocks (their stamps are the block's current count), 0 for
  // free/bad blocks whose history left no readable pages. The P/E budget
  // itself is enforced physically in the flash array and loses nothing.
  rederive_wear_from_flash();

  // Step 3.5: replay the trim journal *after* the rebuild — pass 1 maps
  // every LPN to its newest flash copy, including copies the host had
  // already discarded; the replay tombstones those again so trimmed pages
  // stay trimmed across the cut.
  replay_trim_journal(rep);

  // Step 4: re-derive the virtual clock and per-superblock close times.
  // Every programmed user page (valid or stale — GC copies preserve the
  // original write_time) was written strictly before the cut, so
  // max(write_time) + 1 is a lower bound on the pre-crash clock; lifetimes
  // measured after resume are compressed by at most the gap (RECOVERY.md).
  std::uint64_t vclock = 0;
  for (std::uint64_t sb = 0; sb < geom().num_superblocks(); ++sb) {
    const SuperblockState st = flash_.state(sb);
    if (st == SuperblockState::kFree || st == SuperblockState::kBad) continue;
    std::uint64_t sb_newest = 0;
    const std::uint64_t limit = flash_.write_pointer(sb);
    for (std::uint64_t off = 0; off < limit; ++off) {
      const Ppn ppn = geom().make_ppn(sb, off);
      if (!flash_.is_programmed(ppn)) continue;
      const OobData& oob = flash_.read_oob(ppn);
      if (oob.lpn == kInvalidLpn) continue;  // meta pages carry no timestamp
      sb_newest = std::max<std::uint64_t>(sb_newest, oob.write_time + 1ULL);
    }
    sb_meta_[sb].close_time = sb_newest;  // newest page ~ when it closed
    vclock = std::max(vclock, sb_newest);
  }
  virtual_clock_ = vclock;
  rep.recovered_vclock = vclock;

  // Step 5: rebuild the free pool (bad blocks stay out of circulation).
  free_pool_.clear();
  for (std::uint64_t sb = 0; sb < geom().num_superblocks(); ++sb)
    if (flash_.state(sb) == SuperblockState::kFree) free_pool_.push_back(sb);

  for (Lpn lpn = 0; lpn < logical_pages_; ++lpn)
    if (l2p_[lpn] != kInvalidPpn) ++rep.mapped_lpns;
  PHFTL_CHECK(mapped_count_ == rep.mapped_lpns);

  // Step 6: scheme-side re-derivation (meta cache, trainer, stream state).
  on_recovery(rep);

  // Step 6.5: the OOB rebuild is the mapping authority; on-flash
  // translation pages may trail it (dirty CMT entries and buffered
  // write-backs died with RAM, and the trim replay unmapped LPNs some
  // flash copies still carry). Rewrite exactly the diverged pages so the
  // tier's invariant holds from the first post-mount lookup. Runs after
  // on_recovery: the rewrites can trigger GC, whose classify hooks need
  // the scheme state already re-derived. A no-op with the tier off.
  for (std::uint64_t tpn = 0; tpn < num_tps_; ++tpn)
    if (gtd_[tpn] != kInvalidPpn) ++rep.trans_gtd_rebuilt;
  reconcile_translation_pages(rep);

  // Step 7: compact the journal down to (at most) one fresh superblock.
  // Detected journal superblocks are all closed, so without this every
  // post-mount trim would open an additional one and the watermark reserve
  // would creep upward mount over mount.
  if (!journal_sbs_.empty()) compact_trim_journal();

  rep.rebuild_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  recovery_mounts_ctr_->inc();
  recovery_oob_scans_ctr_->add(rep.oob_scans);
  recovery_rebuild_ns_ctr_->add(rep.rebuild_ns);
  obs_.trace().record(obs::TraceEventType::kRecovery, virtual_clock_,
                      rep.oob_scans, rep.rebuild_ns);
  return rep;
}

void FtlBase::maybe_gc() {
  if (in_gc_) return;
  // Urgent phase (both modes): complete whole rounds — finishing a
  // preempted one first — until the free pool is back above the floor.
  // Under kStopTheWorld the floor *is* the trigger, reproducing the classic
  // collect-until-satisfied loop; under kTimeSliced it is the lower
  // gc_urgent_count_, guaranteeing progress even when every reclaim stalls
  // on program failures (and that the empty-pool synchronous reclaim in
  // append_journal_page still works).
  const std::uint64_t floor = cfg_.gc_mode == GcMode::kStopTheWorld
                                  ? gc_trigger_count_
                                  : gc_urgent_count_;
  std::uint64_t rounds = 0;
  while (free_pool_.size() < floor) {
    PHFTL_CHECK_MSG(rounds++ < geom().num_superblocks() * 8,
                    "GC not converging");
    if (!gc_once()) break;  // nothing reclaimable right now
  }
  if (cfg_.gc_mode == GcMode::kStopTheWorld) {
    maybe_wear_level();  // space pressure handled; leveling may run
    return;
  }

  // Time-sliced phase: between the floor and the trigger, advance the
  // in-flight round by one bounded step and hand control back to the host.
  // The caller's request is charged at most gc_step_pages relocations —
  // the per-request tail-latency bound (docs/QOS.md).
  if (free_pool_.size() >= gc_trigger_count_) {
    maybe_wear_level();  // same per-request step budget applies
    return;
  }
  if (round_.victim == kNoVictim && !gc_begin_round()) return;
  advance_round(std::max<std::uint64_t>(cfg_.gc_step_pages, 1));
}

void FtlBase::maybe_wear_level() {
  if (cfg_.wear_level_threshold == 0) return;  // leveling disabled (default)
  // Leveling rides the existing round machinery under the same QoS budget:
  // time-sliced mode advances one bounded step per host request,
  // stop-the-world completes the round synchronously (docs/ENDURANCE.md).
  const std::uint64_t budget =
      cfg_.gc_mode == GcMode::kTimeSliced
          ? std::max<std::uint64_t>(cfg_.gc_step_pages, 1)
          : ~0ULL;
  if (round_.victim != kNoVictim) {
    // A parked round is in flight. Advance it only if it is a leveling
    // round; a preempted *space* round is the reclaim path's business.
    if (round_.wear_level) advance_round(budget);
    return;
  }
  // Space reclaim always outranks leveling — never start a leveling round
  // while the free pool is below the GC trigger.
  if (free_pool_.size() < gc_trigger_count_) return;
  if (wear_spread() <= static_cast<double>(cfg_.wear_level_threshold)) return;
  const std::uint64_t victim = pick_wl_victim();
  if (victim == kNoVictim) return;  // nothing colder than the mean
  // No fully-valid back-off here — a fully valid, long-closed block is
  // precisely the cold data leveling must move — and the victim-quality
  // histogram is not observed: WL victims are intentionally high-valid and
  // would skew the separation diagnostic.
  claim_victim(victim, /*wear_level=*/true);
  advance_round(budget);
}

void FtlBase::advance_round(std::uint64_t budget) {
  if (!gc_step(budget) && round_.victim != kNoVictim) {
    ++stats_.gc_preemptions;
    obs_.trace().record(obs::TraceEventType::kGcPreempt, virtual_clock_,
                        round_.victim, sb_meta_[round_.victim].valid_count);
  }
}

std::uint64_t FtlBase::pick_wl_victim() const {
  // Cold victim: an indexed closed superblock whose wear sits strictly
  // below the mean, oldest close time first — long-closed, under-erased
  // blocks hold exactly the cold data that pins wear down. Valid count is
  // deliberately ignored (a fully valid block is the ideal WL victim).
  const double mean = wear_mean();
  std::uint64_t best = kNoVictim;
  std::uint64_t best_close = 0;
  victim_index_.visit_ascending(
      [&](std::uint64_t, const std::vector<std::uint64_t>& sbs) {
        for (const std::uint64_t sb : sbs) {
          if (static_cast<double>(wear_[sb]) >= mean) continue;
          if (best == kNoVictim || sb_meta_[sb].close_time < best_close) {
            best = sb;
            best_close = sb_meta_[sb].close_time;
          }
        }
        return true;  // full walk: coldness decides, not valid count
      });
  return best;
}

bool FtlBase::gc_once() {
  if (round_.victim == kNoVictim && !gc_begin_round()) return false;
  // An unbounded step either drains the victim or ends the round at
  // fault-driven end of life; only a drained victim reclaimed space.
  return gc_step(~0ULL);
}

void FtlBase::drain() {
  // Leave the drive quiescent: a preempted round would otherwise hold its
  // victim out of the victim index while harnesses compare final state.
  // An unbounded step always ends the round (drained or, at end of life,
  // abandoned).
  if (round_.victim != kNoVictim) gc_step(~0ULL);
  // Flush the write-back buffer so every buffered translation write is on
  // flash and charged to WA before harnesses read the counters. Flushing
  // can trigger GC (which may evict more dirty pages into a fresh buffer),
  // so iterate to quiescence. Dirty *resident* CMT entries intentionally
  // stay put — like a real cache, only eviction writes them back. With the
  // tier off the buffer is always empty.
  std::uint64_t spins = 0;
  while (!wb_buffer_.empty() || round_.victim != kNoVictim) {
    PHFTL_CHECK_MSG(spins++ < num_tps_ * 64 + 64, "drain not converging");
    flush_wb_buffer();
    if (round_.victim != kNoVictim) gc_step(~0ULL);
  }
}

bool FtlBase::gc_begin_round() {
  PHFTL_CHECK(round_.victim == kNoVictim);
  // Back off — claiming nothing — unless the victim can be collected
  // usefully right now. It cannot when:
  //   * pick_victim found none (faults retired blocks faster than writes
  //     close new ones; allocate_superblock() reports genuine capacity
  //     exhaustion),
  //   * it is fully valid (collecting it would only churn pages;
  //     transiently possible when the free target is momentarily
  //     unreachable — future invalidations create headroom),
  //   * its live pages have nowhere to go (end of life: wear retirement
  //     shrank the free pool below what the migration needs, so the
  //     admission path surfaces ENOSPC to the host instead of GC aborting
  //     mid-append). Healthy drives always pass: the pool floor alone
  //     covers a victim.
  const auto room = [&] {
    std::uint64_t pages = 0;
    for (const std::uint64_t sb : free_pool_) pages += data_capacity(sb);
    for (const auto& os : open_) {
      if (os.sb == OpenStream::kNoSb) continue;
      const std::uint64_t wp = flash_.write_pointer(os.sb);
      const std::uint64_t cap = data_capacity(os.sb);
      pages += cap > wp ? cap - wp : 0;
    }
    return pages;
  };
  const std::uint64_t victim = pick_victim();
  if (victim == kNoVictim ||
      sb_meta_[victim].valid_count >= data_capacity(victim) ||
      room() < sb_meta_[victim].valid_count) {
    gc_aborted_ctr_->inc();
    return false;
  }
  victim_valid_hist_->observe(
      static_cast<double>(sb_meta_[victim].valid_count));
  claim_victim(victim, /*wear_level=*/false);
  return true;
}

void FtlBase::claim_victim(std::uint64_t victim, bool wear_level) {
  PHFTL_CHECK(round_.victim == kNoVictim);
  PHFTL_CHECK(flash_.state(victim) == SuperblockState::kClosed);
  // Drop the victim from the index for the round's whole lifetime (which
  // under time-slicing spans host writes): the migration steps decrement
  // its valid count without re-bucketing, host invalidations of its pages
  // land while it is unindexed, and the block leaves the closed set at the
  // erase anyway. Recovery re-inserts it if a cut strikes mid-round.
  victim_index_.remove(victim);
  ++stats_.gc_invocations;
  round_ = GcRound{victim, 0, 0, wear_level};
  obs_.trace().record(obs::TraceEventType::kGcRoundBegin, virtual_clock_,
                      victim, sb_meta_[victim].valid_count);
}

bool FtlBase::gc_step(std::uint64_t budget) {
  PHFTL_CHECK(round_.victim != kNoVictim);
  PHFTL_CHECK(!in_gc_);
  // in_gc_ is true only *during* a step: between steps, host invalidations
  // of victim pages must look like ordinary host activity to the scheme
  // hooks (SepBIT's lifetime tracking depends on the distinction).
  in_gc_ = true;
  const std::uint64_t victim = round_.victim;
  const std::uint64_t pages = geom().pages_per_superblock();
  std::uint64_t moved = 0;
  std::uint64_t off = round_.cursor;
  bool stranded = false;  // a migration found no destination (end of life)
  for (; off < pages && moved < budget; ++off) {
    const Ppn ppn = geom().make_ppn(victim, off);
    // Skips cover both never-valid pages and pages a host write or trim
    // invalidated since the round began — those relocations are saved,
    // which is why time-sliced WA is bounded by stop-the-world's, not
    // identical to it (docs/QOS.md).
    if (!valid_bit_[ppn]) continue;
    // The OOB metadata copy travels with the page (§III-C: it spares GC
    // from reading meta pages). Translation pages are first-class GC
    // citizens (Dayan & Bonnet): the per-page kind check (not
    // is_translation_sb_) keeps the round correct even when pool-pressure
    // borrowing mixed page kinds into one block.
    const OobData& src = flash_.read_oob(ppn);
    if (src.kind == PageKind::kTranslation) {
      gc_migrate_translation_page(victim, ppn);
      ++moved;
      continue;
    }
    OobData oob = src;
    const Lpn lpn = p2l_[ppn];
    PHFTL_CHECK(lpn != kInvalidLpn && l2p_[lpn] == ppn);
    const std::uint64_t payload = flash_.read(ppn);
    ++stats_.gc_reads;

    const std::uint8_t new_count = static_cast<std::uint8_t>(
        std::min<std::uint32_t>(gc_count_[ppn] + 1, cfg_.max_gc_streams));
    oob.gc_count = new_count;  // keep the OOB copy recovery-accurate
    const std::uint32_t stream = classify_gc_write(lpn, new_count, oob);
    PHFTL_CHECK(stream < num_streams_);

    // Append first, then clear the old copy: at fault-driven end of life
    // the append can find no destination, and the page must stay valid in
    // place.
    const Ppn new_ppn = append(stream, lpn, payload, oob);
    if (new_ppn == kInvalidPpn) {
      stranded = true;
      break;
    }
    // The victim is known and unindexed: decrement inline (drop_page's
    // superblock lookup and index probe would cost every migrated page).
    valid_bit_[ppn] = 0;
    p2l_[ppn] = kInvalidLpn;
    PHFTL_CHECK(sb_meta_[victim].valid_count > 0);
    --sb_meta_[victim].valid_count;
    l2p_[lpn] = new_ppn;
    gc_count_[new_ppn] = new_count;
    // Patch the owning translation page. CMT residency batches the patches
    // per victim (Dayan & Bonnet): the victim's LPNs are segment-clustered,
    // so one demand fetch serves a run of migrations and the dirty page
    // writes back once.
    if (cfg_.mapping_tier) map_update(lpn, new_ppn);
    ++stats_.gc_writes;
    if (round_.wear_level) ++stats_.wl_migrations;
    ++moved;
    on_gc_write_complete(lpn, new_ppn, oob);
  }
  // A budget-limited step that drained the last valid page should not cost
  // an extra no-op step next time: skim the invalid tail now.
  while (!stranded && off < pages &&
         !valid_bit_[geom().make_ppn(victim, off)])
    ++off;
  round_.cursor = off;
  round_.moved += moved;
  ++stats_.gc_steps;
  obs_.trace().record(obs::TraceEventType::kGcStep, virtual_clock_, victim,
                      moved);
  if (stranded) {
    // End the round where it stands: the victim rejoins the victim index
    // at its remaining valid count, with those pages valid in place. The
    // pages it did move are real migrations (WA charges them).
    in_gc_ = false;
    victim_index_.insert(victim, sb_meta_[victim].valid_count);
    gc_aborted_ctr_->inc();
    gc_moved_ctr_->add(round_.moved);
    round_ = GcRound{};
    return false;
  }
  if (off < pages) {
    in_gc_ = false;
    return false;  // preempted: valid pages remain beyond the cursor
  }

  PHFTL_CHECK(sb_meta_[victim].valid_count == 0);
  on_superblock_erased(victim);
  dispose_drained_superblock(victim);
  in_gc_ = false;
  // gc_rounds includes wear-leveling rounds (they are real collections);
  // ftl.wl.rounds counts the leveling subset separately.
  gc_rounds_ctr_->inc();
  gc_moved_ctr_->add(round_.moved);
  obs_.trace().record(obs::TraceEventType::kGcRoundEnd, virtual_clock_,
                      victim, round_.moved);
  if (round_.wear_level) {
    ++stats_.wl_rounds;
    obs_.trace().record(obs::TraceEventType::kWearLevel, virtual_clock_,
                        victim, round_.moved);
  }
  round_ = GcRound{};
  return true;
}

// --- Demand-paged mapping tier (docs/MAPPING.md) ---
//
// The in-RAM l2p_ stays fully maintained as the ground-truth oracle; with
// the tier on, every lookup is served from GTD/CMT/flash translation pages
// and PHFTL_CHECKed against it. The tier's core invariant: for any
// translation page neither CMT-resident nor in the write-back buffer, the
// flash blob at gtd_[tpn] equals the l2p_ segment exactly (or the GTD slot
// is empty and the segment is fully unmapped).

std::uint64_t FtlBase::mapping_ram_bytes() const {
  if (!cfg_.mapping_tier) return 0;
  const std::uint64_t cap = cmt_.capacity();
  // Honest footprint (docs/MAPPING.md methodology): GTD + CMT entry slab +
  // cache index (slab nodes: 8 B key + 2x4 B links; slot table: 4 B per
  // slot at <=50% load, power-of-two) + dirty flags + write-back buffer at
  // its batch capacity.
  std::uint64_t slots = 16;
  while (slots < cap * 2) slots <<= 1;
  return num_tps_ * sizeof(Ppn)                       // GTD
         + cap * tp_entries_ * sizeof(Ppn)            // CMT entries
         + cap * 16 + slots * 4                       // FlatMetaCache index
         + cap                                        // dirty flags
         + std::max<std::uint64_t>(cfg_.cmt_wb_batch, 1) *
               (tp_entries_ * sizeof(Ppn) + 8)        // write-back buffer
         + learned_index_bytes();                     // learned segments
}

Ppn FtlBase::tier_lookup(Lpn lpn) {
  PHFTL_CHECK_MSG(cfg_.mapping_tier, "tier_lookup requires mapping_tier");
  PHFTL_CHECK(lpn < logical_pages_);
  return map_lookup(lpn, /*host_read=*/false);
}

bool FtlBase::wb_contains(std::uint64_t tpn) const {
  for (const auto& entry : wb_buffer_)
    if (entry.first == tpn) return true;
  return false;
}

bool FtlBase::wb_take(std::uint64_t tpn, std::vector<std::uint64_t>& out) {
  for (std::size_t i = 0; i < wb_buffer_.size(); ++i) {
    if (wb_buffer_[i].first == tpn) {
      out = std::move(wb_buffer_[i].second);
      wb_buffer_.erase(wb_buffer_.begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    }
  }
  return false;
}

Ppn FtlBase::map_lookup(Lpn lpn, bool host_read) {
  const std::uint64_t tpn = lpn / tp_entries_;
  const std::uint64_t idx = lpn % tp_entries_;
  // Empty-GTD short circuit: a segment with no flash copy, no residency,
  // and no buffered write-back has never mapped anything — answer from the
  // GTD alone, without polluting the CMT or charging a fetch.
  if (gtd_[tpn] == kInvalidPpn &&
      cmt_.node_of(tpn) == core::FlatMetaCache::kNoNode &&
      tpn != wb_inflight_tpn_ && !wb_contains(tpn)) {
    PHFTL_CHECK(l2p_[lpn] == kInvalidPpn);
    return kInvalidPpn;
  }
  // Learned fast path: only when the owning TP's flash blob is the truth —
  // non-resident, unbuffered, not mid-flush, GTD-valid (the tier invariant
  // in docs/MAPPING.md). A verified prediction serves the lookup with zero
  // CMT traffic; kInvalidPpn means uncovered or mispredicted — fall back.
  if (cfg_.learned_index && gtd_[tpn] != kInvalidPpn &&
      cmt_.node_of(tpn) == core::FlatMetaCache::kNoNode &&
      tpn != wb_inflight_tpn_ && !wb_contains(tpn)) {
    const Ppn predicted = learned_lookup(lpn, host_read);
    if (predicted != kInvalidPpn) return predicted;
  }
  const std::uint32_t node = cmt_fetch(tpn, /*exempt_idx=*/~0ULL, host_read);
  const Ppn ppn = cmt_entries_[node * tp_entries_ + idx];
  PHFTL_CHECK_MSG(ppn == l2p_[lpn],
                  "mapping tier diverged from the L2P shadow");
  maybe_flush_wb();
  return ppn;
}

Ppn FtlBase::learned_lookup(Lpn lpn, bool host_read) {
  std::int64_t pred = 0;
  std::uint32_t radius = 0;
  if (!learned_.predict(lpn, &pred, &radius)) return kInvalidPpn;
  const std::int64_t total =
      static_cast<std::int64_t>(geom().total_pages());
  std::uint64_t wasted = 0;
  Ppn found = kInvalidPpn;
  // Probe outward from the prediction: 0, +1, -1, ... ±radius. Each probe
  // is one flash page read (data + OOB); it verifies iff the page is a
  // valid user copy of exactly this LPN — translation/meta/journal pages
  // carry lpn = kInvalidLpn in their OOB and can never false-match, and a
  // stale user copy fails the validity bitmap. The probe that verifies IS
  // the data read; every earlier probe is wasted and charged below.
  const auto probe = [&](std::int64_t cand) {
    if (cand < 0 || cand >= total) return false;
    const Ppn p = static_cast<Ppn>(cand);
    // Unprogrammed pages need no read: an append-only controller knows
    // each block's write frontier.
    if (!flash_.is_programmed(p)) return false;
    if (valid_bit_[p] && flash_.read_oob(p).lpn == lpn) {
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
  stats_.learned_probe_reads += wasted;
  if (host_read) stats_.learned_probe_reads_host += wasted;
  if (found != kInvalidPpn) {
    // valid_bit_ + OOB match imply p2l_[found] == lpn, so this check can
    // only fire if the validity state itself diverged from the shadow.
    PHFTL_CHECK_MSG(found == l2p_[lpn],
                    "verified learned probe diverged from the L2P shadow");
    ++stats_.learned_hits;
    obs_.trace().record(obs::TraceEventType::kLearnedHit, virtual_clock_,
                        found, lpn);
    return found;
  }
  ++stats_.learned_mispredicts;
  obs_.trace().record(obs::TraceEventType::kLearnedMispredict, virtual_clock_,
                      static_cast<std::uint64_t>(pred < 0 ? 0 : pred), lpn);
  return kInvalidPpn;
}

void FtlBase::map_update(Lpn lpn, Ppn new_ppn) {
  const std::uint64_t tpn = lpn / tp_entries_;
  const std::uint64_t idx = lpn % tp_entries_;
  // Any mapping change — host write, trim, or a data-GC patch riding this
  // same batched CMT path — makes the trained prediction for this LPN
  // stale. Punch it out of the model now; the slot is re-covered when the
  // dirty TP's write-back retrains the range from its new content.
  if (cfg_.learned_index) learned_.invalidate(lpn);
  // l2p_[lpn] already holds new_ppn; the fetch's integrity check must skip
  // exactly this slot (its flash copy legitimately predates the update).
  const std::uint32_t node = cmt_fetch(tpn, idx, /*host_read=*/false);
  cmt_entries_[node * tp_entries_ + idx] = new_ppn;
  cmt_dirty_[node] = 1;
  maybe_flush_wb();
}

std::uint32_t FtlBase::cmt_fetch(std::uint64_t tpn, std::uint64_t exempt_idx,
                                 bool host_read) {
  PHFTL_CHECK(tpn < num_tps_);
  {
    const std::uint32_t node = cmt_.node_of(tpn);
    if (node != core::FlatMetaCache::kNoNode) {
      ++stats_.cmt_hits;
      const core::CacheAccess acc = cmt_.access(tpn);  // LRU touch
      PHFTL_CHECK(acc.hit && acc.node == node);
      obs_.trace().record(obs::TraceEventType::kTransCacheHit, virtual_clock_,
                          tpn);
      return node;
    }
  }
  ++stats_.cmt_misses;

  // Content source, newest first: the write-back buffer still owns the
  // freshest copy of a page evicted dirty (adopting it re-dirties the
  // entry — its flash copy is stale); otherwise the flash copy; otherwise
  // the segment has never been written back and materializes empty.
  std::vector<std::uint64_t> content;
  bool dirty = false;
  if (wb_take(tpn, content)) {
    dirty = true;
  } else if (tpn == wb_inflight_tpn_) {
    // The segment's write-back is being programmed right now (this fetch
    // came from GC triggered by that very program). Adopt the in-flight
    // content; dirty is conservative — the landing flash copy will match.
    content = wb_inflight_blob_;
    dirty = true;
  } else if (gtd_[tpn] != kInvalidPpn) {
    content = flash_.read_blob(gtd_[tpn]);
    ++stats_.trans_reads;
    if (host_read) ++stats_.trans_reads_host;
    obs_.trace().record(obs::TraceEventType::kTransFetch, virtual_clock_,
                        gtd_[tpn], tpn);
  }
  content.resize(tp_entries_, kInvalidPpn);

  // A dirty victim must be buffered BEFORE access() recycles its slab slot
  // for the incoming key (the slot's payload is the victim's content).
  if (cmt_.size() == cmt_.capacity()) {
    const std::uint64_t vkey = cmt_.lru_key();
    const std::uint32_t vnode = cmt_.node_of(vkey);
    PHFTL_CHECK(vnode != core::FlatMetaCache::kNoNode);
    if (cmt_dirty_[vnode]) {
      wb_buffer_.emplace_back(
          vkey, std::vector<std::uint64_t>(
                    cmt_entries_.begin() +
                        static_cast<std::ptrdiff_t>(vnode * tp_entries_),
                    cmt_entries_.begin() +
                        static_cast<std::ptrdiff_t>((vnode + 1) *
                                                    tp_entries_)));
      cmt_dirty_[vnode] = 0;
    }
  }
  const core::CacheAccess acc = cmt_.access(tpn);
  PHFTL_CHECK(!acc.hit);
  std::copy(content.begin(), content.end(),
            cmt_entries_.begin() +
                static_cast<std::ptrdiff_t>(acc.node * tp_entries_));
  cmt_dirty_[acc.node] = dirty ? 1 : 0;

  // Integrity net: whatever the source, the fetched segment must equal the
  // l2p_ shadow — except the one slot an in-flight update is about to
  // patch (map_update names it via exempt_idx).
  const std::uint64_t base = tpn * tp_entries_;
  for (std::uint64_t i = 0; i < tp_entries_; ++i) {
    if (i == exempt_idx) continue;
    const Lpn lpn = base + i;
    if (lpn >= logical_pages_) break;
    PHFTL_CHECK_MSG(
        cmt_entries_[acc.node * tp_entries_ + i] == l2p_[lpn],
        "fetched translation page diverged from the L2P shadow");
  }
  return acc.node;
}

void FtlBase::maybe_flush_wb() {
  // Never flush mid-GC-step (the round's budget is the QoS contract) or
  // reentrantly; drain() and the next host-path trigger pick it up.
  if (in_wb_flush_ || in_gc_) return;
  if (wb_buffer_.size() < std::max<std::uint64_t>(cfg_.cmt_wb_batch, 1))
    return;
  flush_wb_buffer();
}

void FtlBase::flush_wb_buffer() {
  if (wb_buffer_.empty() || in_wb_flush_ || in_gc_) return;
  in_wb_flush_ = true;
  std::uint64_t spins = 0;
  while (!wb_buffer_.empty()) {
    PHFTL_CHECK_MSG(spins++ < num_tps_ * 64 + 64,
                    "write-back flush not converging");
    // Park the entry in the in-flight holder while its program runs: the
    // program can trigger GC, whose fetches of this very segment must see
    // this (newest) content, not the stale flash copy.
    wb_inflight_tpn_ = wb_buffer_.front().first;
    wb_inflight_blob_ = std::move(wb_buffer_.front().second);
    wb_buffer_.erase(wb_buffer_.begin());
    append_translation_page(wb_inflight_tpn_, wb_inflight_blob_,
                            /*gc_migration=*/false);
    wb_inflight_tpn_ = kInvalidLpn;
    wb_inflight_blob_.clear();
  }
  wb_flushes_ctr_->inc();
  in_wb_flush_ = false;
}

Ppn FtlBase::append_translation_page(std::uint64_t tpn,
                                     std::vector<std::uint64_t> blob,
                                     bool gc_migration) {
  const std::uint32_t stream = classify_translation_write(tpn, gc_migration);
  PHFTL_CHECK(stream < num_streams_);
  for (std::uint32_t attempt = 0;; ++attempt) {
    PHFTL_CHECK_MSG(attempt < 64, "translation program retry limit exceeded");
    std::uint32_t target = stream;
    if (trans_open_[target] == OpenStream::kNoSb && free_pool_.empty()) {
      if (!in_gc_ && !in_compaction_) maybe_gc();
      if (free_pool_.empty()) {
        // Mid-GC (or still empty after reclaim): borrow any open
        // translation superblock rather than deadlock; separation quality
        // degrades for those pages only, mirroring append()'s fallback.
        bool found = false;
        for (std::uint32_t s = 0; s < num_streams_; ++s) {
          if (trans_open_[s] != OpenStream::kNoSb) {
            target = s;
            found = true;
            break;
          }
        }
        PHFTL_CHECK_MSG(found,
                        "capacity exhausted: no open translation superblock");
        ++stats_.stream_borrows;
      }
    }
    if (trans_open_[target] == OpenStream::kNoSb) {
      trans_open_[target] = allocate_superblock(target);
      is_translation_sb_[trans_open_[target]] = 1;
    }
    const std::uint64_t sb = trans_open_[target];
    OobData oob;  // translation pages carry no LPN; keyed by tpn
    oob.kind = PageKind::kTranslation;
    oob.tpn = tpn;
    oob.write_time = virtual_clock_;
    const Ppn ppn = flash_.program_blob(sb, oob, blob);
    if (ppn == kInvalidPpn) {
      // Unlike journal blocks, translation blocks are ordinary GC
      // citizens: index the failing block so GC drains and retires it.
      note_program_failure(sb);
      close_superblock(sb, /*indexed=*/true);
      trans_open_[target] = OpenStream::kNoSb;
      continue;
    }
    // New copy durable first, then supersede the old one (write-new-
    // before-invalidate-old; recovery orders the two by program_seq).
    p2l_[ppn] = tpn;
    valid_bit_[ppn] = 1;
    ++sb_meta_[sb].valid_count;
    const Ppn old = gtd_[tpn];
    if (old != kInvalidPpn) {
      PHFTL_CHECK(p2l_[old] == tpn);
      drop_page(old);
    }
    gtd_[tpn] = ppn;
    // Every translation-page append funnels through here — write-back
    // flush, GC migration, mount-time reconciliation — so retraining at
    // this single point keeps the learned model exactly in sync with the
    // flash blob the GTD now points at.
    if (cfg_.learned_index) learned_.train(tpn, blob);
    ++stats_.trans_writes;
    if (gc_migration) ++stats_.trans_gc_writes;
    stream_flash_writes_[target]->inc();
    obs_.trace().record(obs::TraceEventType::kTransProgram, virtual_clock_,
                        ppn, tpn, target);
    obs_.trace().record(obs::TraceEventType::kFlashProgram, virtual_clock_,
                        ppn, 0, target);
    // Translation blocks have no meta-page tail: close at the raw
    // superblock boundary and enter the victim index like any data block.
    if (flash_.write_pointer(sb) >= geom().pages_per_superblock()) {
      close_superblock(sb, /*indexed=*/true);
      trans_open_[target] = OpenStream::kNoSb;
    }
    return ppn;
  }
}

void FtlBase::gc_migrate_translation_page(std::uint64_t victim, Ppn ppn) {
  const OobData& oob = flash_.read_oob(ppn);
  const std::uint64_t tpn = oob.tpn;
  PHFTL_CHECK(tpn < num_tps_);
  PHFTL_CHECK(cfg_.geom.superblock_of(ppn) == victim);
  PHFTL_CHECK(gtd_[tpn] == ppn && p2l_[ppn] == tpn);
  // Freshest content wins, and residency/buffering make the migration
  // absorb pending updates for free (the dirty state rides the new flash
  // copy): CMT-resident first, then the write-back buffer — the victim may
  // hold the stale flash copy of a page evicted dirty — then the flash
  // copy itself (charged as a translation read).
  std::vector<std::uint64_t> blob;
  const std::uint32_t node = cmt_.node_of(tpn);
  if (node != core::FlatMetaCache::kNoNode) {
    blob.assign(cmt_entries_.begin() +
                    static_cast<std::ptrdiff_t>(node * tp_entries_),
                cmt_entries_.begin() +
                    static_cast<std::ptrdiff_t>((node + 1) * tp_entries_));
  } else if (wb_take(tpn, blob)) {
    // The buffered write-back rides the migration instead of a later flush.
  } else if (tpn == wb_inflight_tpn_) {
    // The victim holds the stale flash copy of the write-back being
    // programmed right now; migrate the in-flight (newest) content.
    blob = wb_inflight_blob_;
  } else {
    blob = flash_.read_blob(ppn);
    ++stats_.trans_reads;
  }
  blob.resize(tp_entries_, kInvalidPpn);
  append_translation_page(tpn, std::move(blob), /*gc_migration=*/true);
  // The new flash copy now matches the resident content exactly.
  if (node != core::FlatMetaCache::kNoNode) cmt_dirty_[node] = 0;
  if (round_.wear_level) ++stats_.wl_migrations;
}

void FtlBase::reconcile_translation_pages(RecoveryReport& rep) {
  std::vector<std::uint64_t> truth(tp_entries_, kInvalidPpn);
  for (std::uint64_t tpn = 0; tpn < num_tps_; ++tpn) {
    const std::uint64_t base = tpn * tp_entries_;
    std::fill(truth.begin(), truth.end(), kInvalidPpn);
    bool any_mapped = false;
    for (std::uint64_t i = 0; i < tp_entries_; ++i) {
      const Lpn lpn = base + i;
      if (lpn >= logical_pages_) break;
      truth[i] = l2p_[lpn];
      any_mapped = any_mapped || truth[i] != kInvalidPpn;
    }
    const Ppn cur = gtd_[tpn];
    if (!any_mapped) {
      // Fully unmapped segment: drop the stale flash copy (restoring the
      // empty-GTD invariant) instead of writing an all-invalid page.
      if (cur != kInvalidPpn) {
        PHFTL_CHECK(p2l_[cur] == tpn);
        drop_page(cur);
        gtd_[tpn] = kInvalidPpn;
      }
      continue;
    }
    if (cur != kInvalidPpn && flash_.read_blob(cur) == truth) {
      // Flash copy already agrees with the rebuilt truth — no rewrite, but
      // the learned model (wiped with the rest of the RAM state) still
      // needs its segments back. Training from `truth` costs zero extra
      // flash reads: the blob equality check above already paid the read.
      if (cfg_.learned_index) learned_.train(tpn, truth);
      continue;
    }
    append_translation_page(tpn, truth, /*gc_migration=*/false);
    ++rep.trans_reconciled;
    trans_reconciled_ctr_->inc();
  }
}

}  // namespace phftl
