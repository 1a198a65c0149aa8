// PHFTL — Prediction-based High-performance FTL (the paper's contribution).
//
// Wiring (paper Fig. 1):
//   * every host page write is classified short-/long-living by the int8
//     Page Classifier using a single incremental GRU step from the page's
//     cached hidden state (O(1) prediction, §III-C);
//   * user writes go to stream 0 (short-living) or 1 (long-living); GC
//     writes are separated by victim count into streams 2..6 (GC'd once,
//     twice, ..., five-plus times — read-only data converges to dedicated
//     superblocks, §III-A);
//   * ML metadata (40 B/page) lives in meta pages at superblock tails with
//     a 1 % RAM cache (§III-C); each page's OOB carries a copy for GC;
//   * translation pages (docs/MAPPING.md) carry no GRU-predictable access
//     pattern: dirty write-backs rewrite at eviction cadence (short-lived,
//     stream 0), and a copy GC had to migrate stayed live through a whole
//     collection (long-lived, stream 1);
//   * the host-side Model Trainer re-picks the labeling threshold
//     (Algorithm 1) and retrains/deploys the model every write window;
//   * GC victims are chosen by the Adjusted Greedy policy (Eq. 1).
//
// The class additionally keeps the online classifier evaluation the paper
// reports in Table I: each prediction is scored when the page's true
// lifetime becomes known (at its next write, or as long-living at
// end-of-run).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/features.hpp"
#include "core/meta.hpp"
#include "core/trainer.hpp"
#include "ftl/ftl_base.hpp"
#include "ftl/victim_policy.hpp"
#include "util/stats.hpp"

namespace phftl::core {

struct PhftlConfig {
  FtlConfig ftl;
  ModelTrainer::Config trainer;  ///< window_pages filled from geometry if 0
  MetaStore::Config meta;        ///< geom filled from ftl.geom
  FeatureTracker::Config features;  ///< logical_pages filled automatically
  /// GC policy: Adjusted Greedy (paper) or plain Greedy / Cost-Benefit for
  /// the ablation benchmark.
  enum class GcPolicy { kAdjustedGreedy, kGreedy, kCostBenefit };
  GcPolicy gc_policy = GcPolicy::kAdjustedGreedy;
  /// Record wall-clock prediction latency into ml.predict_latency_ns.
  /// The parallel experiment runner turns this off: it is the one
  /// non-simulated (and therefore non-reproducible) quantity in the metric
  /// set, and the runner guarantees byte-identical merged artifacts across
  /// serial and --jobs N execution (docs/METRICS.md).
  bool time_predictions = true;

  /// Vestige: the Page Classifier always runs inline, one incremental GRU
  /// step per host write (docs/ARCHITECTURE.md "Prediction pipeline").
  /// perfbench/replay_bench.cpp still assigns kSync, so the one-value enum
  /// and the field stay until that benchmark is next revised.
  enum class PredictMode { kSync };
  PredictMode predict_mode = PredictMode::kSync;
};

class PhftlFtl : public FtlBase {
 public:
  /// Stream map.
  static constexpr std::uint32_t kStreamShort = 0;
  static constexpr std::uint32_t kStreamLong = 1;
  static constexpr std::uint32_t kFirstGcStream = 2;  // GC'd once
  static constexpr std::uint32_t kNumStreams = 7;     // 2 user + 5 GC

  explicit PhftlFtl(const PhftlConfig& cfg);

  std::string name() const override { return "PHFTL"; }

  // --- paper-facing metrics ---
  /// Online Page Classifier confusion matrix (Table I). Call
  /// finalize_evaluation() first to resolve never-rewritten predictions.
  const ConfusionMatrix& classifier_metrics() const { return cm_; }
  /// Resolve outstanding predictions as long-living (end of trace).
  void finalize_evaluation();

  const MetaStore& meta_store() const { return meta_; }
  const ModelTrainer& trainer() const { return trainer_; }
  std::int64_t threshold() const { return trainer_.threshold(); }
  std::uint64_t predictions_made() const { return predictions_; }
  std::uint64_t short_predictions() const { return short_predictions_; }

 protected:
  /// Predicts into `oob.hidden`, then runs the trainer's window boundary
  /// when due.
  std::uint32_t classify_user_write(Lpn lpn, const WriteContext& ctx,
                                    OobData& oob) override;
  /// Also places wear-leveled pages: their survival count already encodes
  /// coldness, so leveling cannot perturb the learned separation of
  /// streams 0/1.
  std::uint32_t classify_gc_write(const OobData& oob) override;
  std::uint64_t pick_victim() override;
  void on_superblock_erased(std::uint64_t sb) override;
  void on_request(const HostRequest& req) override;
  /// Stages the page's meta entry from its OOB copy (host writes and GC
  /// migrations alike; GC reads no meta page).
  void on_data_programmed(Ppn ppn, const OobData& oob) override;
  /// Unclean-shutdown re-derivation (docs/RECOVERY.md): meta entries come
  /// back from the per-page OOB copies; the trainer, threshold, feature
  /// tracker, and outstanding Table-I predictions reset to safe defaults.
  void on_recovery(const RecoveryReport& report) override;

 private:
  /// Fetch the page's ML metadata (through the cache, charging a meta read
  /// on miss). Returns an all-defaults entry for never-written pages.
  MetaEntry fetch_metadata(Lpn lpn);

  PhftlConfig cfg_;
  FeatureTracker tracker_;
  MetaStore meta_;
  ModelTrainer trainer_;

  /// Pending per-page prediction awaiting ground truth (Table I).
  struct Pending {
    std::uint8_t predicted = 2;  ///< 0 long, 1 short, 2 = none
    std::uint32_t threshold = 0;
  };
  std::vector<Pending> pending_;
  ConfusionMatrix cm_;

  std::uint64_t predictions_ = 0;
  std::uint64_t short_predictions_ = 0;

  // --- observability handles (registered once in the constructor) ---
  obs::Histogram* predict_latency_hist_ = nullptr;
};

/// Convenience: a PHFTL with paper-default parameters for a geometry
/// (window = 5 % of physical size, 1 % metadata cache, Adjusted Greedy).
PhftlConfig default_phftl_config(const FtlConfig& ftl_cfg,
                                 std::uint64_t seed = 1234);

}  // namespace phftl::core
