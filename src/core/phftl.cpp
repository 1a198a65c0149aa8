#include "core/phftl.hpp"

#include <algorithm>
#include <chrono>

#include "util/assert.hpp"

namespace phftl::core {

PhftlConfig default_phftl_config(const FtlConfig& ftl_cfg,
                                 std::uint64_t seed) {
  PhftlConfig cfg;
  cfg.ftl = ftl_cfg;
  cfg.trainer.seed = seed;
  cfg.trainer.threshold.seed = seed ^ 0x7f4a7c15;
  return cfg;
}

namespace {

ModelTrainer::Config fill_trainer_config(const PhftlConfig& cfg,
                                         std::uint64_t logical_pages) {
  ModelTrainer::Config tc = cfg.trainer;
  tc.logical_pages = logical_pages;
  if (tc.window_pages == 0) {
    // Paper §III-B: a window is 5 % of the SSD's total size.
    tc.window_pages = std::max<std::uint64_t>(
        1, cfg.ftl.geom.total_pages() / 20);
  }
  return tc;
}

MetaStore::Config fill_meta_config(const PhftlConfig& cfg) {
  MetaStore::Config mc = cfg.meta;
  mc.geom = cfg.ftl.geom;
  return mc;
}

FeatureTracker::Config fill_tracker_config(const PhftlConfig& cfg,
                                           std::uint64_t logical_pages) {
  FeatureTracker::Config fc = cfg.features;
  fc.logical_pages = logical_pages;
  return fc;
}

}  // namespace

PhftlFtl::PhftlFtl(const PhftlConfig& cfg)
    : FtlBase(cfg.ftl, {.num_streams = kNumStreams,
                        .meta_pages = MetaStore::meta_pages_for(cfg.ftl.geom),
                        .translation_writeback = kStreamShort,
                        .translation_gc = kStreamLong}),
      cfg_(cfg),
      tracker_(fill_tracker_config(cfg, logical_pages())),
      meta_(fill_meta_config(cfg)),
      trainer_(fill_trainer_config(cfg, logical_pages())),
      pending_(logical_pages()) {
  obs::MetricsRegistry& m = observability().metrics();
  m.counter_view("ml.predictions", &predictions_, "predictions",
                 "incremental Page Classifier invocations");
  m.counter_view("ml.predictions_short", &short_predictions_, "predictions",
                 "predictions that classified the page short-living");
  predict_latency_hist_ = &m.histogram(
      "ml.predict_latency_ns",
      {50, 100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600}, "ns",
      "wall-clock latency of one incremental GRU prediction (paper: ~9 us "
      "on the Cortex-A9; here the fused int8 host kernels)");
  // MetaStore counts every retrieval fetch_metadata makes; every miss is
  // also one meta-page read in FtlStats.
  m.counter_view("meta.cache_hits", &meta_.cache_hits(), "lookups",
                 "meta-page retrievals served by the RAM cache");
  m.counter_view("meta.cache_misses", &stats().meta_reads, "lookups",
                 "meta-page retrievals that read flash (cache miss)");
  m.counter_view("meta.buffer_hits", &meta_.buffer_hits(), "lookups",
                 "retrievals served by an open superblock's RAM write "
                 "buffer (no meta page exists yet)");
  m.gauge("meta.cache_hit_rate", [this] { return meta_.cache_hit_rate(); },
          "ratio",
          "cache hits / (hits + misses), the paper's 98-99.9% figure (SV-B)");
  m.gauge("trainer.threshold_pages", [this] { return trainer_.threshold(); },
          "pages", "current adaptive labeling threshold (Alg. 1)");
  m.gauge("trainer.windows_completed",
          [this] { return trainer_.windows_completed(); }, "windows",
          "training windows completed");
  m.gauge("trainer.trainings_run", [this] { return trainer_.trainings_run(); },
          "trainings", "GRU training epochs run (one per window)");
  m.gauge("classifier.accuracy", [this] { return cm_.accuracy(); }, "ratio",
          "online confusion-matrix accuracy (Table I)");
  m.gauge("classifier.precision", [this] { return cm_.precision(); }, "ratio",
          "online precision (Table I)");
  m.gauge("classifier.recall", [this] { return cm_.recall(); }, "ratio",
          "online recall (Table I)");
  m.gauge("classifier.f1", [this] { return cm_.f1(); }, "ratio",
          "online F1 (Table I)");

  PHFTL_CHECK_MSG(cfg.trainer.gru_hidden <= 32,
                  "hidden state exceeds the 32-byte metadata slot");
}

MetaEntry PhftlFtl::fetch_metadata(Lpn lpn) {
  if (!is_mapped(lpn)) return MetaEntry{};
  const Ppn ppn = lookup(lpn);
  const std::uint64_t sb = geom().superblock_of(ppn);
  const bool open = flash().state(sb) == SuperblockState::kOpen;
  bool missed = false;
  const MetaEntry entry = meta_.get(ppn, open, &missed);
  if (missed) {
    note_meta_read();
    observability().trace().record(obs::TraceEventType::kMetaCacheMiss,
                                   virtual_clock(), meta_.mppn_of(ppn));
  } else if (!open) {
    observability().trace().record(obs::TraceEventType::kMetaCacheHit,
                                   virtual_clock(), meta_.mppn_of(ppn));
  }
  return entry;
}

std::uint32_t PhftlFtl::classify_user_write(Lpn lpn, const WriteContext& ctx,
                                            OobData& oob) {
  // 1. Retrieve ML metadata (cached hidden state + last write time).
  const MetaEntry entry = fetch_metadata(lpn);
  const std::uint64_t prev_lifetime64 =
      entry.write_time == kNeverWritten
          ? ~0ULL  // never written: "infinite" previous lifetime
          : ctx.now - entry.write_time;
  // The feature encoding saturates at 32 bits (log-scaled afterwards, so
  // the clamp loses nothing the model could use).
  const std::uint32_t prev_lifetime = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(prev_lifetime64, 0xFFFFFFFFu));

  // 2. Build features; feed the trainer's profiling tap.
  const RawFeatures raw = tracker_.make_features(lpn, prev_lifetime, ctx);
  trainer_.observe_page_write(lpn, raw, ctx.now);

  // 3. Resolve the previous prediction for this page (Table I): its true
  //    lifetime is now known.
  Pending& pend = pending_[lpn];
  if (pend.predicted != 2) {
    const bool actually_short = prev_lifetime <= pend.threshold;
    cm_.add(pend.predicted == 1, actually_short);
    pend.predicted = 2;
  }

  // 4. Predict with one incremental GRU step from the cached hidden state,
  //    straight into the new copy's OOB. Before the first deployment all
  //    user writes share the long stream and keep their hidden state.
  oob.hidden = entry.hidden;
  std::uint32_t stream = kStreamLong;
  if (trainer_.model_deployed()) {
    std::array<float, kInputDim> x;
    encode_features(raw, x);
    int cls;
    if (obs::kEnabled && cfg_.time_predictions) {
      // Time the device-side inference step (the paper's ~9 us budget,
      // SIII-C). The clock reads sit outside the kernel, so bench_kernels'
      // fused-predict numbers are unaffected.
      const auto t0 = std::chrono::steady_clock::now();
      cls = trainer_.deployed_model().predict_incremental(x, oob.hidden);
      const auto dt = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      predict_latency_hist_->observe(static_cast<double>(dt));
      observability().trace().record(obs::TraceEventType::kMlPredict,
                                     ctx.now, static_cast<std::uint64_t>(dt),
                                     static_cast<std::uint64_t>(cls));
    } else {
      cls = trainer_.deployed_model().predict_incremental(x, oob.hidden);
    }
    const bool short_living = cls == 1;
    ++predictions_;
    if (short_living) ++short_predictions_;

    pend.predicted = short_living ? 1 : 0;
    pend.threshold = static_cast<std::uint32_t>(
        std::max<std::int64_t>(trainer_.threshold(), 0));
    stream = short_living ? kStreamShort : kStreamLong;
  }
  trainer_.maybe_train();
  return stream;
}

std::uint32_t PhftlFtl::classify_gc_write(const OobData& oob) {
  // Streams 2..6 for pages GC'd 1..5+ times (paper §III-A item 3).
  PHFTL_CHECK(oob.gc_count >= 1);
  const std::uint32_t idx = std::min<std::uint32_t>(oob.gc_count, 5);
  return kFirstGcStream + idx - 1;
}

std::uint64_t PhftlFtl::pick_victim() {
  switch (cfg_.gc_policy) {
    case PhftlConfig::GcPolicy::kGreedy:
      return greedy_victim();  // O(1) index pop
    case PhftlConfig::GcPolicy::kCostBenefit:
      return cost_benefit_victim(*this);  // age is unbounded: a full scan
    case PhftlConfig::GcPolicy::kAdjustedGreedy:
    default: {
      // Eq. 1's score is capped by the invalid fraction, so the bounded
      // scan walks valid-count buckets in ascending order and prunes the
      // rest once the cap drops below the best score found.
      const std::uint64_t now = virtual_clock();
      const double inv_pages = sb_fraction_scale(*this);
      const double threshold = static_cast<double>(
          std::max<std::int64_t>(trainer_.threshold(), 1));
      return select_victim_bounded(*this, [&](std::uint64_t sb) {
        const bool short_living = stream_of(sb) == kStreamShort;
        const double elapsed = static_cast<double>(now - close_time(sb));
        return adjusted_greedy_score(
            invalid_fraction(valid_count(sb), inv_pages),
            valid_fraction(valid_count(sb), inv_pages), short_living,
            threshold, elapsed);
      });
    }
  }
}

void PhftlFtl::on_superblock_erased(std::uint64_t sb) {
  meta_.on_superblock_erased(sb);
}

void PhftlFtl::on_request(const HostRequest& req) {
  tracker_.observe_request(req);
}

void PhftlFtl::on_data_programmed(Ppn ppn, const OobData& oob) {
  // Stage the entry in the open superblock's buffer; it reaches flash
  // with the superblock's meta-page tail.
  meta_.put(ppn, MetaEntry{oob.write_time, oob.hidden});
}

void PhftlFtl::on_recovery(const RecoveryReport& /*report*/) {
  // Meta store: RAM cache and open-superblock write buffers are gone.
  // The flash-resident truth is the per-page OOB copy (§III-C) — meta
  // pages of blocks closed before the cut also survive, but the OOB copy
  // covers every valid page including those of blocks the cut left open,
  // so it alone reconstitutes the store.
  meta_.reset_cold();
  const std::uint64_t total = geom().total_pages();
  for (Ppn ppn = 0; ppn < total; ++ppn) {
    if (!page_valid(ppn)) continue;
    const OobData& oob = flash().read_oob(ppn);
    // Valid flash pages now include translation pages (docs/MAPPING.md);
    // the meta store tracks user data only.
    if (oob.kind != PageKind::kUser) continue;
    MetaEntry entry;
    entry.write_time = oob.write_time;
    entry.hidden = oob.hidden;
    meta_.put(ppn, entry);
  }

  // Host-side learning state has no flash footprint: reset to the
  // safe defaults. The model is undeployed (user writes share the long
  // stream, as before the first deployment) until the first post-mount
  // window retrains; the threshold restarts at its pre-first-window
  // sentinel, so Adjusted Greedy falls back to its threshold-free form.
  trainer_.reset();
  tracker_.reset();

  // Outstanding predictions lost their ground truth; never score them.
  std::fill(pending_.begin(), pending_.end(), Pending{});
}

void PhftlFtl::finalize_evaluation() {
  drain();
  for (auto& pend : pending_) {
    if (pend.predicted != 2) {
      cm_.add(pend.predicted == 1, /*actually_positive=*/false);
      pend.predicted = 2;
    }
  }
}

}  // namespace phftl::core
