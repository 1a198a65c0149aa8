#include "ftl/ftl_base.hpp"

#include <algorithm>
#include <chrono>

#include "flash/fault_injector.hpp"
#include "util/log.hpp"

namespace phftl {

FtlBase::FtlBase(const FtlConfig& cfg, const StreamLayout& layout)
    : cfg_(cfg),
      flash_(cfg.geom),
      logical_pages_(static_cast<std::uint64_t>(
          static_cast<double>(cfg.geom.total_pages()) *
          (1.0 - cfg.op_ratio))),
      layout_(layout),
      l2p_(logical_pages_, kInvalidPpn),
      p2l_(cfg.geom.total_pages(), kInvalidLpn),
      sb_meta_(cfg.geom.num_superblocks()),
      open_(kNumSbKinds * layout.num_streams, kNoSb),
      pending_retire_(cfg.geom.num_superblocks(), 0),
      wear_(cfg.geom.num_superblocks()),
      journal_(*this, logical_pages_, cfg.geom) {
  PHFTL_CHECK_MSG(
      layout_.num_streams >= 1 && layout_.num_streams <= kMaxStreams,
      "stream count must be in [1, kMaxStreams]");
  // Attach the injector before building the free pool: factory bad blocks
  // are marked at attach time and must never enter circulation.
  flash_.attach_fault_injector(cfg.fault_injector);
  // P/E budget enforcement lives in the flash array (physical, survives
  // RAM loss); the FTL only mirrors the counts for leveling decisions.
  flash_.set_max_pe_cycles(cfg.max_pe_cycles);
  // GC trigger (paper §III-D): collect when the free-superblock proportion
  // drops below kGcFreeThreshold. The trigger must be *satisfiable*: the
  // over-provisioned space, expressed in superblocks, has to exceed it —
  // even after factory bad blocks are deducted — or GC could never push
  // the free count back above the line.
  const auto ratio_count = static_cast<std::uint64_t>(
      static_cast<double>(cfg.geom.num_superblocks()) * kGcFreeThreshold +
      0.999);
  gc_trigger_count_ = std::max<std::uint64_t>(ratio_count, 2);
  // Stop-the-world (no step budget) collects whole rounds up to the
  // trigger. Under a budget the urgent floor is half the trigger, never
  // below the two superblocks a write + concurrent GC appends can consume
  // before the next maybe_gc(). Between the floor and the trigger GC yields
  // to the host after each bounded step; below it, rounds complete
  // synchronously (docs/QOS.md "Safety argument"). With a 2-superblock
  // trigger the floor equals the trigger.
  if (cfg.gc_step_pages == 0) {
    gc_urgent_count_ = gc_trigger_count_;
  } else {
    gc_urgent_count_ = std::max<std::uint64_t>(gc_trigger_count_ / 2, 2);
    gc_step_budget_ = cfg.gc_step_pages;
  }
  const auto op_superblocks = static_cast<std::uint64_t>(
      static_cast<double>(cfg.geom.num_superblocks()) * cfg.op_ratio);
  PHFTL_CHECK_MSG(
      op_superblocks >= gc_trigger_count_ + flash_.bad_block_count(),
      "GC trigger exceeds over-provisioning headroom; use more "
      "(or smaller) superblocks, or fewer factory bad blocks");
  PHFTL_CHECK_MSG(cfg.geom.num_superblocks() >
                      gc_trigger_count_ + layout_.num_streams +
                          flash_.bad_block_count(),
                  "geometry too small for stream count");
  for (std::uint64_t sb = 0; sb < cfg.geom.num_superblocks(); ++sb)
    if (!flash_.is_bad(sb)) free_pool_.push_back(sb);
  victim_index_.reset(cfg.geom.num_superblocks(),
                      cfg.geom.pages_per_superblock());
  PHFTL_CHECK_MSG(!cfg_.learned_index || cfg_.mapping_tier,
                  "learned_index requires mapping_tier");
  if (cfg_.mapping_tier) tier_ = std::make_unique<MappingTier>(*this, cfg_);
  register_ftl_metrics();
}

void FtlBase::register_ftl_metrics() {
  obs::MetricsRegistry& m = obs_.metrics();
  // Counters over an FtlStats field are views of it: FtlStats is the one
  // event ledger, and the export reads it in this registration order.
  for (std::uint32_t s = 0; s < layout_.num_streams; ++s) {
    const std::string id = std::to_string(s);
    m.counter_view("ftl.stream" + id + ".host_writes",
                   &stats_.stream_host_writes[s], "pages",
                   "host pages the write classifier sent to stream " + id);
    m.counter_view("ftl.stream" + id + ".flash_writes",
                   &stats_.stream_flash_writes[s], "pages",
                   "pages programmed into stream " + id +
                       " (user + GC migrations + meta and translation "
                       "pages)");
  }
  m.counter_view("ftl.gc.rounds", &stats_.gc_rounds, "rounds",
                 "completed GC victim collections");
  m.counter_view("ftl.gc.aborted_rounds", &stats_.gc_aborted_rounds,
                 "rounds",
                 "GC rounds not started or not finished: no victim, a "
                 "fully valid best victim, live pages with nowhere to go, "
                 "or fault-driven end of life");
  m.counter_view("ftl.gc.moved_valid_pages", &stats_.gc_moved_valid_pages,
                 "pages",
                 "valid pages migrated out of GC victims (the numerator of "
                 "write amplification)");
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
  journal_.register_counters(m, stats_);
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
  MappingTier::register_counters(m, stats_, tier_.get());
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
  wear_.register_histogram(m, cfg_.max_pe_cycles);
  // Gauges are views: each reads the state it reports when it is read.
  m.gauge("flash.bad_blocks", [this] { return flash_.bad_block_count(); },
          "superblocks",
          "superblocks out of service (factory bad + retired + erase "
          "failures)");
  m.gauge("ftl.write_amplification",
          [this] { return stats_.write_amplification(); }, "ratio",
          "(flash writes - user writes) / user writes");
  m.gauge("ftl.free_superblocks", [this] { return free_pool_.size(); },
          "superblocks", "free-pool size");
  m.gauge("ftl.closed_superblocks", [this] { return victim_index_.size(); },
          "superblocks", "closed superblocks (GC candidates)");
  m.gauge("ftl.pending_retire_superblocks",
          [this] {
            return std::count(pending_retire_.begin(), pending_retire_.end(),
                              std::uint8_t{1});
          },
          "superblocks",
          "closed superblocks awaiting retirement after a program failure "
          "(drained by GC, then taken out of service)");
  m.gauge("ftl.virtual_clock", [this] { return virtual_clock_; }, "pages",
          "host pages written (the paper's lifetime clock)");
  journal_.register_gauges(m);
  m.gauge("ftl.capacity_watermark_pages",
          [this] { return capacity_watermark_pages(); }, "pages",
          "host-visible capacity under the current physical reserve "
          "(writes past it are rejected with ENOSPC)");
  m.gauge("ftl.mapped_pages", [this] { return mapped_count_; }, "pages",
          "logical pages currently mapped");
  m.gauge("ftl.gc.inflight_valid_moved", [this] { return round_.moved; },
          "pages",
          "valid pages the preempted in-flight GC round has relocated so "
          "far (0 when no round is in flight)");
  wear_.register_gauges(m, flash_);
  MappingTier::register_gauges(m, tier_.get());
}

void FtlBase::dispose_drained_superblock(std::uint64_t sb) {
  if (pending_retire_[sb]) {
    // The block failed a program earlier; now that it is drained, take it
    // out of service for good. It never returns to the free pool.
    pending_retire_[sb] = 0;
    flash_.retire_superblock(sb);
    ++stats_.blocks_retired;
    obs_.trace().record(obs::TraceEventType::kBlockRetired, virtual_clock_,
                        sb);
    wear_.note_lost(sb, flash_);
    return;
  }
  if (!flash_.erase_superblock(sb)) {
    if (flash_.wear_exhausted(sb)) {
      // The erase itself worked but consumed the block's last budgeted P/E
      // cycle: end-of-life retirement. The erase is real and is counted;
      // the block just never re-enters the free pool.
      ++stats_.erases;
      wear_.note_erase(sb);
      ++stats_.wear_retired;
      obs_.trace().record(obs::TraceEventType::kWearRetired, virtual_clock_,
                          sb, wear_.count(sb));
    } else {
      // Erase failure: the block went bad in place without erasing. The
      // caller's round still made progress (the drained pages moved).
      ++stats_.erase_failures;
      obs_.trace().record(obs::TraceEventType::kEraseFail, virtual_clock_,
                          sb);
    }
    wear_.note_lost(sb, flash_);
    return;
  }
  ++stats_.erases;
  wear_.note_erase(sb);
  free_pool_.push_back(sb);
  obs_.trace().record(obs::TraceEventType::kFlashErase, virtual_clock_, sb);
}

std::uint64_t FtlBase::capacity_watermark_pages() const {
  // Physical reserve, in superblocks: blocks out of service, the GC
  // free-pool target, and the trim journal (one superblock is always
  // reserved for it — compaction needs somewhere to rewrite records even
  // before the first trim).
  std::uint64_t reserve = gc_trigger_count_ + flash_.bad_block_count() +
                          journal_.reserve_superblocks();
  // The translation-page working set needs room of its own.
  if (tier_)
    reserve += tier_->reserve_superblocks(geom().pages_per_superblock());
  const std::uint64_t total = geom().num_superblocks();
  if (reserve >= total) return 0;
  return (total - reserve) * data_capacity();
}

std::uint64_t FtlBase::data_room() const {
  std::uint64_t pages = free_pool_.size() * data_capacity();
  // The data kind's open slots come first in open_ (open_slot()).
  for (const std::uint64_t sb : std::span(open_).first(layout_.num_streams)) {
    if (sb == kNoSb) continue;
    const std::uint64_t wp = flash_.write_pointer(sb);
    pages += data_capacity() > wp ? data_capacity() - wp : 0;
  }
  return pages;
}

void FtlBase::seed_virtual_clock(std::uint64_t v) {
  PHFTL_CHECK_MSG(v >= virtual_clock_,
                  "seed_virtual_clock cannot move the clock backwards");
  virtual_clock_ = v;
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
  ctx.io_len_pages = req.num_pages;
  ctx.is_sequential = (req.start_lpn == prev_req_end_);
  for (std::uint32_t i = 0; i < req.num_pages; ++i) {
    ctx.now = virtual_clock_;
    if (try_write_page(req.start_lpn + i, ctx) == WriteResult::kEnospc) {
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

WriteResult FtlBase::try_write_page(Lpn lpn, const WriteContext& ctx_in) {
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
  if (mapped_count_ + (new_mapping ? 1 : 0) > capacity_watermark_pages() ||
      (free_pool_.empty() && data_room() == 0)) {
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

  OobData oob;
  oob.lpn = lpn;
  oob.write_time = virtual_clock_;
  const std::uint32_t stream = classify_user_write(lpn, ctx, oob);
  const Ppn ppn = append(stream, payload_of(lpn), oob);
  l2p_[lpn] = ppn;
  if (tier_) tier_->update(lpn, ppn);
  if (new_mapping) ++mapped_count_;
  journal_.note_rewrite(lpn);

  ++stats_.user_writes;
  ++stats_.stream_host_writes[stream];
  ++virtual_clock_;
  on_data_programmed(ppn, oob);
  maybe_gc();
  obs_.tick(virtual_clock_);
  return WriteResult::kOk;
}

std::uint64_t FtlBase::read_page(Lpn lpn) {
  PHFTL_CHECK(lpn < logical_pages_);
  const Ppn ppn = tier_ ? tier_->lookup(lpn, /*host_read=*/true) : l2p_[lpn];
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
  // nor journaled.
  TrimJournal::Runs runs;
  std::uint64_t effective = 0;
  for (Lpn lpn = start; lpn < start + n; ++lpn) {
    if (l2p_[lpn] == kInvalidPpn) continue;
    invalidate(lpn);
    l2p_[lpn] = kInvalidPpn;
    if (tier_) tier_->update(lpn, kInvalidPpn);
    PHFTL_CHECK(mapped_count_ > 0);
    --mapped_count_;
    journal_.note_trim(lpn, runs);
    ++stats_.trims;
    ++effective;
  }
  // Persist the trim before acknowledging it: recovery replays these
  // records after the OOB rebuild so stale copies cannot resurrect.
  journal_.append(runs);
  maybe_gc();
  obs_.tick(virtual_clock_);
  return effective;
}

// --- Superblock kinds ---
//
// Data, translation and journal pages share one program path
// (program_page); the rules that differ by kind are these.

/// GC collects data and translation superblocks alike (translation pages
/// are first-class GC citizens, after Dayan & Bonnet): their pages are
/// valid pages charged to a stream, and a closed block is a victim
/// candidate. Journal records belong to no stream and no GC round: they
/// are the only durable copy of a trim until compaction, not GC, rewrites
/// them, so a journal block never enters the victim index.
bool FtlBase::gc_collects(SbKind kind) { return kind != SbKind::kJournal; }

/// Translation and journal appends may run GC for a fresh superblock
/// before they borrow (maybe_gc() is a no-op inside a GC step). Data
/// appends borrow at once: they come from GC itself, or from a host write
/// that maybe_gc() follows.
bool FtlBase::reclaims_before_borrowing(SbKind kind) {
  return kind != SbKind::kData;
}

/// A data superblock's data region ends at data_capacity(), before the
/// layout's meta-page tail; translation and journal superblocks have no
/// tail and fill to the raw superblock boundary.
std::uint64_t FtlBase::fill_limit(SbKind kind) const {
  return kind == SbKind::kData ? data_capacity()
                               : geom().pages_per_superblock();
}

void FtlBase::mark_valid(Ppn ppn, std::uint64_t sb, std::uint64_t owner) {
  p2l_[ppn] = owner;
  ++sb_meta_[sb].valid_count;
}

void FtlBase::drop_page(Ppn ppn) {
  PHFTL_CHECK_MSG(page_valid(ppn), "dropping a page that is not valid");
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

std::uint64_t FtlBase::allocate_superblock(SbKind kind,
                                           std::uint32_t stream) {
  PHFTL_CHECK_MSG(!free_pool_.empty(),
                  "free pool exhausted: GC cannot make progress");
  std::size_t pick = 0;
  if (in_gc_ && round_.wear_level) {
    // Wear-leveling appends steer into the most-worn free superblock: the
    // cold data parks there and stops that block's wear from advancing
    // (docs/ENDURANCE.md). Host and journal allocations keep FIFO order —
    // in_gc_ is false between steps — so leveling-off stays bit-identical.
    for (std::size_t i = 1; i < free_pool_.size(); ++i)
      if (wear_.count(free_pool_[i]) > wear_.count(free_pool_[pick]))
        pick = i;
  }
  const std::uint64_t sb = free_pool_[pick];
  free_pool_.erase(free_pool_.begin() + static_cast<std::ptrdiff_t>(pick));
  flash_.open_superblock(sb);
  sb_meta_[sb].stream = stream;
  sb_meta_[sb].close_time = 0;
  sb_meta_[sb].kind = kind;
  if (kind == SbKind::kJournal) journal_.note_opened(sb);
  obs_.trace().record(obs::TraceEventType::kSuperblockOpen, virtual_clock_,
                      sb, 0, stream);
  return sb;
}

void FtlBase::close_superblock(std::uint64_t sb) {
  flash_.close_superblock(sb);
  sb_meta_[sb].close_time = virtual_clock_;
  if (gc_collects(sb_meta_[sb].kind))
    victim_index_.insert(sb, sb_meta_[sb].valid_count);
  obs_.trace().record(obs::TraceEventType::kSuperblockClose, virtual_clock_,
                      sb, sb_meta_[sb].valid_count, sb_meta_[sb].stream);
}

void FtlBase::note_program_failure(std::uint64_t sb) {
  ++stats_.program_failures;
  obs_.trace().record(obs::TraceEventType::kProgramFail, virtual_clock_, sb,
                      0, sb_meta_[sb].stream);
  pending_retire_[sb] = 1;
}

template <typename OnProgrammed>
Ppn FtlBase::program_page(SbKind kind, std::uint32_t stream, OobData& oob,
                          std::uint64_t payload,
                          std::span<const std::uint64_t> blob,
                          OnProgrammed&& on_programmed) {
  // Program failures restart the loop: the failing superblock is closed and
  // marked for retirement, and the page retries on a fresh superblock. The
  // attempt bound only trips under absurd fault rates (each attempt consumes
  // a whole superblock).
  PHFTL_CHECK(stream < layout_.num_streams);
  for (std::uint32_t attempt = 0;; ++attempt) {
    PHFTL_CHECK_MSG(attempt < 64, "program retry limit exceeded");
    std::uint32_t target = stream;
    if (open_slot(kind, stream) == kNoSb && free_pool_.empty()) {
      if (reclaims_before_borrowing(kind)) maybe_gc();
      if (free_pool_.empty()) {
        // Memory-pressure fallback: borrow any open superblock of the same
        // kind (real firmware mixes streams under pressure) rather than
        // deadlock; separation quality degrades for those few pages only.
        // Host writes reach here only at device end of life (wear
        // retirement drained the pool): the admission check guarantees an
        // open superblock with room exists, so the drive's last pages mix
        // streams instead of crashing.
        target = 0;
        while (target < layout_.num_streams &&
               open_slot(kind, target) == kNoSb)
          ++target;
        if (target == layout_.num_streams) {
          // Fault-driven end of life: a program failure closed the last
          // open superblock and the pool is empty. A GC data migration ends
          // its round (gc_step); the host then sees ENOSPC at admission
          // (docs/RECOVERY.md).
          PHFTL_CHECK_MSG(in_gc_ && kind == SbKind::kData,
                          "capacity exhausted: no open superblock left");
          return kInvalidPpn;
        }
        ++stats_.stream_borrows;
      }
    }
    std::uint64_t& sb = open_slot(kind, target);
    if (sb == kNoSb) sb = allocate_superblock(kind, target);
    // Tombstone cutoff: every data copy of a trimmed LPN existing at this
    // moment has program_seq <= this value; any rewrite lands above it.
    if (kind == SbKind::kJournal) oob.trim_seq = flash_.program_seq();
    const Ppn ppn = blob.empty() ? flash_.program(sb, payload, oob)
                                 : flash_.program_blob(sb, oob, blob);
    if (ppn == kInvalidPpn) {
      // Program abort: the targeted page is consumed and empty. A block
      // that failed a program is untrustworthy — close it immediately
      // (skipping the meta-page tail: no meta pages go into a failing
      // block; their content is recoverable from the per-page OOB copies)
      // and mark it for retirement. Its valid pages stay readable; GC will
      // drain them and retire the block instead of erasing it.
      note_program_failure(sb);
      close_superblock(sb);
      sb = kNoSb;
      continue;
    }
    if (gc_collects(kind)) {
      mark_valid(ppn, sb, kind == SbKind::kTranslation ? oob.tpn : oob.lpn);
      ++stats_.stream_flash_writes[target];
    }
    on_programmed(ppn, target);
    obs_.trace().record(obs::TraceEventType::kFlashProgram, virtual_clock_,
                        ppn, 0, target);
    if (flash_.write_pointer(sb) >= fill_limit(kind)) {
      // A full data region closes behind the layout's meta-page tail
      // (PHFTL, Fig. 4): the entries are already staged in the scheme's
      // RAM buffer, and programming the tail makes them flash-resident.
      if (kind == SbKind::kData)
        for (std::uint32_t i = 0; i < layout_.meta_pages; ++i)
          program_meta_page(sb, /*payload=*/sb * 1000 + i);
      close_superblock(sb);
      sb = kNoSb;
    }
    return ppn;
  }
}

Ppn FtlBase::append(std::uint32_t stream, std::uint64_t payload,
                    OobData& oob) {
  return program_page(SbKind::kData, stream, oob, payload, {},
                      [](Ppn, std::uint32_t) {});
}

void FtlBase::append_journal_page(std::span<const std::uint64_t> chunk) {
  PHFTL_CHECK(!chunk.empty());
  OobData oob;  // journal pages carry no logical mapping (lpn stays ~0)
  oob.kind = PageKind::kTrimJournal;
  oob.write_time = virtual_clock_;
  program_page(SbKind::kJournal, /*stream=*/0, oob, /*payload=*/0, chunk,
               [&](Ppn ppn, std::uint32_t) {
                 journal_.note_programmed(ppn, chunk.size() / 2);
               });
}

void FtlBase::program_meta_page(std::uint64_t sb, std::uint64_t payload) {
  OobData oob;  // meta pages carry no logical mapping
  oob.kind = PageKind::kMeta;
  const Ppn ppn = flash_.program(sb, payload, oob);
  if (ppn == kInvalidPpn) {
    // A failed meta page is tolerable — the per-page OOB copies remain
    // authoritative for recovery (§III-C) — but the block is untrustworthy:
    // mark it for retirement. The remaining meta pages are still
    // programmed; each tail slot is attempted exactly once either way.
    note_program_failure(sb);
    return;
  }
  ++stats_.meta_writes;
  ++stats_.stream_flash_writes[sb_meta_[sb].stream];
  obs_.trace().record(obs::TraceEventType::kFlashProgram, virtual_clock_, ppn,
                      0, sb_meta_[sb].stream);
}

std::uint64_t FtlBase::rebuild_mapping_from_flash() {
  // Wipe the volatile structures.
  std::fill(l2p_.begin(), l2p_.end(), kInvalidPpn);
  std::fill(p2l_.begin(), p2l_.end(), kInvalidLpn);
  for (auto& meta : sb_meta_) {
    meta.valid_count = 0;
    meta.kind = SbKind::kData;
  }
  mapped_count_ = 0;
  journal_.forget();
  wear_.forget();
  // Resident and buffered translation state is volatile; flash copies are
  // re-discovered below and reconciled by recover().
  if (tier_) tier_->forget();

  // Pass 1, the mount's one walk over programmed pages: every RAM
  // structure that an OOB area records is re-derived from the one read of
  // it. Free blocks hold nothing; bad blocks are excluded because their
  // contents are undefined (erase failure) or fully drained by GC before
  // retirement — the newest copy of an LPN never lives there.
  //   * User pages: the newest copy (highest program sequence) of each LPN
  //     wins. Their write times give each superblock's close time (newest
  //     page ~ when it closed) and the virtual clock. Every programmed
  //     user page (valid or stale — GC copies preserve the original
  //     write_time) was written strictly before the cut, so max(write_time)
  //     + 1 is a lower bound on the pre-crash clock; lifetimes measured
  //     after resume are compressed by at most the gap (RECOVERY.md).
  //   * Journal and translation pages mark their superblock's kind; journal
  //     pages go to the trim journal for replay, translation pages rebuild
  //     the GTD.
  //   * Every page carries its block's erase count at program time,
  //     unchanged while the block is open or closed: the wear table's
  //     lower bounds (docs/ENDURANCE.md).
  std::uint64_t oob_scans = 0;
  std::uint64_t vclock = 0;
  std::vector<std::uint64_t> best_seq(logical_pages_, 0);
  for (std::uint64_t sb = 0; sb < geom().num_superblocks(); ++sb) {
    if (flash_.state(sb) == SuperblockState::kFree ||
        flash_.state(sb) == SuperblockState::kBad)
      continue;
    std::uint64_t sb_newest = 0;
    const std::uint64_t limit = flash_.write_pointer(sb);
    for (std::uint64_t off = 0; off < limit; ++off) {
      const Ppn ppn = geom().make_ppn(sb, off);
      if (!flash_.is_programmed(ppn)) continue;
      ++oob_scans;
      const OobData& oob = flash_.read_oob(ppn);
      wear_.note_stamp(sb, oob.erase_count);
      if (oob.kind == PageKind::kTrimJournal) {
        sb_meta_[sb].kind = SbKind::kJournal;
        journal_.note_flash_page(sb, ppn, oob.trim_seq);
        continue;
      }
      if (oob.kind == PageKind::kTranslation) {
        // Keyed by tpn, not lpn: the newest flash copy of each translation
        // page rebuilds the GTD. A tier-off mount over tier-on flash state
        // is a config error, caught here rather than silently dropped.
        PHFTL_CHECK_MSG(tier_ != nullptr,
                        "translation pages on flash but mapping_tier off");
        sb_meta_[sb].kind = SbKind::kTranslation;
        tier_->note_flash_copy(ppn, oob);
        continue;
      }
      if (oob.lpn == kInvalidLpn) continue;  // meta page, not user data
      PHFTL_CHECK(oob.lpn < logical_pages_);
      sb_newest = std::max<std::uint64_t>(sb_newest, oob.write_time + 1ULL);
      if (oob.program_seq > best_seq[oob.lpn]) {
        best_seq[oob.lpn] = oob.program_seq;
        l2p_[oob.lpn] = ppn;
      }
    }
    sb_meta_[sb].close_time = sb_newest;
    vclock = std::max(vclock, sb_newest);
  }
  virtual_clock_ = vclock;
  wear_.recount(flash_);

  // Pass 2: derive the reverse map, validity, and per-superblock counts.
  for (Lpn lpn = 0; lpn < logical_pages_; ++lpn) {
    const Ppn ppn = l2p_[lpn];
    if (ppn == kInvalidPpn) continue;
    mark_valid(ppn, geom().superblock_of(ppn), lpn);
    ++mapped_count_;
  }
  // Pass 2b: live translation pages are valid flash pages too (p2l_ holds
  // their tpn), but they map no LPN and stay out of mapped_count_.
  if (tier_)
    tier_->for_each_live_copy([&](std::uint64_t tpn, Ppn ppn) {
      mark_valid(ppn, geom().superblock_of(ppn), tpn);
    });

  // Pass 3: rebuild the victim index from the recovered counts. Journal
  // superblocks stay out — only compaction may reclaim them.
  victim_index_.reset(geom().num_superblocks(), geom().pages_per_superblock());
  for (std::uint64_t sb = 0; sb < geom().num_superblocks(); ++sb)
    if (flash_.state(sb) == SuperblockState::kClosed &&
        gc_collects(sb_meta_[sb].kind))
      victim_index_.insert(sb, sb_meta_[sb].valid_count);
  return oob_scans;
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
  // wear table and mapped count are re-derived from flash by the rebuild +
  // replay.)
  std::fill(open_.begin(), open_.end(), kNoSb);
  std::fill(pending_retire_.begin(), pending_retire_.end(), 0);
  prev_req_end_ = kInvalidLpn;
  in_gc_ = false;
  // A cut mid-GC-step (or between steps of a preempted time-sliced round)
  // leaves a half-relocated victim. No special handling is needed beyond
  // forgetting the round: pages already moved win the OOB rebuild by
  // program_seq (GC copies carry fresh sequence numbers), pages not yet
  // moved are still valid in the victim, and the victim is kClosed so the
  // rebuild's pass 3 re-inserts it into the victim index at its remaining
  // valid count — a future round simply collects it again (docs/QOS.md).
  round_ = GcRound{};

  // Step 3: the one walk over flash — mapping, validity, victim index,
  // GTD, journal extent, wear table, close times and the virtual clock.
  rep.oob_scans = rebuild_mapping_from_flash();
  rep.recovered_vclock = virtual_clock_;

  // Step 4: replay the trim journal *after* the rebuild — pass 1 maps
  // every LPN to its newest flash copy, including copies the host had
  // already discarded; the replay tombstones those again so trimmed pages
  // stay trimmed across the cut.
  journal_.replay(rep);

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
  // the scheme state already re-derived.
  if (tier_) tier_->reconcile(rep);

  // Step 7: compact the journal down to (at most) one fresh superblock.
  // Detected journal superblocks are all closed, so without this every
  // post-mount trim would open an additional one and the watermark reserve
  // would creep upward mount over mount.
  if (journal_.superblocks() > 0) journal_.compact();

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
  // Urgent pass: complete whole rounds — finishing an in-flight one first —
  // until the free pool is back at the urgent floor. Under stop-the-world
  // the floor *is* the trigger, the classic collect-until-satisfied loop;
  // under a step budget it is lower, guaranteeing progress even when every
  // reclaim stalls on program failures (and that the empty-pool
  // synchronous reclaim in program_page still works for translation and
  // journal pages).
  std::uint64_t rounds = 0;
  while (free_pool_.size() < gc_urgent_count_) {
    PHFTL_CHECK_MSG(rounds++ < geom().num_superblocks() * 8,
                    "GC not converging");
    if (round_.victim == kNoVictim && !gc_begin_round()) break;
    // An unbounded step either drains the victim or ends the round at
    // fault-driven end of life; only a drained victim reclaimed space.
    if (!gc_step(~0ULL)) break;
  }

  // Then one step of at most the budget — the per-request tail-latency
  // bound (docs/QOS.md) — on the in-flight round, else on a new space
  // round below the trigger, else on a leveling round at or above it
  // (space reclaim always outranks leveling). A parked space round waits
  // while the pool is at or above the trigger. Stop-the-world starts no
  // space round here: its urgent pass already collected all it could.
  const bool below_trigger = free_pool_.size() < gc_trigger_count_;
  if (round_.victim != kNoVictim) {
    if (!round_.wear_level && !below_trigger) return;
  } else if (below_trigger) {
    if (gc_step_budget_ == ~0ULL || !gc_begin_round()) return;
  } else if (!wl_begin_round()) {
    return;
  }
  gc_step(gc_step_budget_);
}

void FtlBase::drain() {
  // Leave the drive quiescent: a preempted round would otherwise hold its
  // victim out of the victim index while harnesses compare final state.
  // An unbounded step always ends the round (drained or, at end of life,
  // abandoned).
  //
  // Then flush the tier's write-back buffer so every buffered translation
  // write is on flash and charged to WA before harnesses read the
  // counters. Flushing can trigger GC (which may evict more dirty pages
  // into a fresh buffer), so iterate to quiescence. Dirty *resident* CMT
  // entries intentionally stay put — like a real cache, only eviction
  // writes them back.
  for (std::uint64_t spins = 0;; ++spins) {
    if (round_.victim != kNoVictim) gc_step(~0ULL);
    if (!tier_ || tier_->wb_pending() == 0) return;
    PHFTL_CHECK_MSG(spins < tier_->num_translation_pages() * 64 + 64,
                    "drain not converging");
    tier_->flush();
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
  const std::uint64_t victim = pick_victim();
  if (victim == kNoVictim ||
      sb_meta_[victim].valid_count >= data_capacity() ||
      data_room() < sb_meta_[victim].valid_count) {
    ++stats_.gc_aborted_rounds;
    return false;
  }
  victim_valid_hist_->observe(
      static_cast<double>(sb_meta_[victim].valid_count));
  claim_victim(victim, /*wear_level=*/false);
  return true;
}

bool FtlBase::wl_begin_round() {
  if (cfg_.wear_level_threshold == 0) return false;  // leveling off (default)
  if (wear_spread() <= static_cast<double>(cfg_.wear_level_threshold))
    return false;
  // Cold victim: an indexed closed superblock whose wear sits strictly
  // below the mean, oldest close time first — long-closed, under-erased
  // blocks hold exactly the cold data that pins wear down. Valid count is
  // deliberately ignored: there is no fully-valid back-off, since a fully
  // valid, long-closed block is precisely the cold data leveling must move.
  const double mean = wear_.mean(flash_);
  std::uint64_t victim = kNoVictim;
  std::uint64_t victim_close = 0;
  victim_index_.visit_ascending(
      [&](std::uint64_t, const std::vector<std::uint64_t>& sbs) {
        for (const std::uint64_t sb : sbs) {
          if (static_cast<double>(wear_.count(sb)) >= mean) continue;
          if (victim == kNoVictim || sb_meta_[sb].close_time < victim_close) {
            victim = sb;
            victim_close = sb_meta_[sb].close_time;
          }
        }
        return true;  // full walk: coldness decides, not valid count
      });
  if (victim == kNoVictim) return false;  // nothing colder than the mean
  // The victim-quality histogram is not observed: leveling victims are
  // intentionally high-valid and would skew the separation diagnostic.
  claim_victim(victim, /*wear_level=*/true);
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
    if (!page_valid(ppn)) continue;
    // The OOB metadata copy travels with the page (§III-C: it spares GC
    // from reading meta pages). Translation pages are first-class GC
    // citizens (Dayan & Bonnet); the tier picks their freshest content and
    // programs it through append_translation_page, which drops this copy.
    const OobData& src = flash_.read_oob(ppn);
    if (src.kind == PageKind::kTranslation) {
      tier_->migrate(ppn);
      if (round_.wear_level) ++stats_.wl_migrations;
      ++moved;
      continue;
    }
    OobData oob = src;
    const Lpn lpn = p2l_[ppn];
    PHFTL_CHECK(l2p_[lpn] == ppn);
    const std::uint64_t payload = flash_.read(ppn);
    ++stats_.gc_reads;

    // The GC count saturates at five collections (the paper's "5+").
    constexpr std::uint32_t kMaxGcCount = 5;
    const std::uint8_t new_count = static_cast<std::uint8_t>(
        std::min<std::uint32_t>(src.gc_count + 1, kMaxGcCount));
    oob.gc_count = new_count;  // the OOB copy is the count's one home
    const std::uint32_t stream = classify_gc_write(oob);

    // Append first, then clear the old copy: at fault-driven end of life
    // the append can find no destination, and the page must stay valid in
    // place.
    const Ppn new_ppn = append(stream, payload, oob);
    if (new_ppn == kInvalidPpn) {
      stranded = true;
      break;
    }
    // The victim is known and unindexed: decrement inline (drop_page's
    // superblock lookup and index probe would cost every migrated page).
    p2l_[ppn] = kInvalidLpn;
    PHFTL_CHECK(sb_meta_[victim].valid_count > 0);
    --sb_meta_[victim].valid_count;
    l2p_[lpn] = new_ppn;
    // Patch the owning translation page. CMT residency batches the patches
    // per victim (Dayan & Bonnet): the victim's LPNs are segment-clustered,
    // so one demand fetch serves a run of migrations and the dirty page
    // writes back once.
    if (tier_) tier_->update(lpn, new_ppn);
    ++stats_.gc_writes;
    if (round_.wear_level) ++stats_.wl_migrations;
    ++moved;
    on_data_programmed(new_ppn, oob);
  }
  // A budget-limited step that drained the last valid page should not cost
  // an extra no-op step next time: skim the invalid tail now.
  while (!stranded && off < pages &&
         !page_valid(geom().make_ppn(victim, off)))
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
    ++stats_.gc_aborted_rounds;
    stats_.gc_moved_valid_pages += round_.moved;
    round_ = GcRound{};
    return false;
  }
  if (off < pages) {
    // Preempted: the budget ran out with valid pages beyond the cursor, and
    // the round stays parked until the next step.
    in_gc_ = false;
    ++stats_.gc_preemptions;
    obs_.trace().record(obs::TraceEventType::kGcPreempt, virtual_clock_,
                        victim, sb_meta_[victim].valid_count);
    return false;
  }

  PHFTL_CHECK(sb_meta_[victim].valid_count == 0);
  on_superblock_erased(victim);
  dispose_drained_superblock(victim);
  in_gc_ = false;
  // gc_rounds includes wear-leveling rounds (they are real collections);
  // wl_rounds counts the leveling subset separately.
  ++stats_.gc_rounds;
  stats_.gc_moved_valid_pages += round_.moved;
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

Ppn FtlBase::append_translation_page(std::uint64_t tpn,
                                     std::span<const std::uint64_t> blob,
                                     bool gc_migration) {
  OobData oob;  // translation pages carry no LPN; keyed by tpn
  oob.kind = PageKind::kTranslation;
  oob.tpn = tpn;
  oob.write_time = virtual_clock_;
  return program_page(
      SbKind::kTranslation,
      gc_migration ? layout_.translation_gc : layout_.translation_writeback,
      oob, /*payload=*/0, blob, [&](Ppn ppn, std::uint32_t stream) {
        // New copy durable first, then supersede the old one (write-new-
        // before-invalidate-old; recovery orders the two by program_seq).
        const Ppn old = tier_->note_programmed(tpn, ppn, blob);
        if (old != kInvalidPpn) {
          PHFTL_CHECK(p2l_[old] == tpn);
          drop_page(old);
        }
        ++stats_.trans_writes;
        if (gc_migration) ++stats_.trans_gc_writes;
        obs_.trace().record(obs::TraceEventType::kTransProgram,
                            virtual_clock_, ppn, tpn, stream);
      });
}

}  // namespace phftl
