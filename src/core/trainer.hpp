// The Model Trainer — host-side training pipeline (paper §III-A item 2).
//
// The trainer profiles user I/O from the device driver, collecting for each
// window (host writes totalling 5 % of the SSD's size):
//   * lifetime samples: every write to a page already written in the same
//     window yields (lifetime, feature history of the dying version),
//     reservoir-sampled to a bounded set held in one fixed store of
//     max_window_samples × history_len entries;
//   * per-page feature histories (a ring of the last history_len write
//     events, 16 + 12·history_len bytes per logical page), used as the
//     GRU's input time series.
// At each window boundary it (1) re-picks the classification threshold via
// Algorithm 1, (2) labels and balance-resamples the window's sequences,
// (3) trains the persistent GRU for one epoch with cross-entropy + Adam,
// and (4) deploys the parameters to the device as an int8-quantized model.
#pragma once

#include <cstdint>
#include <vector>

#include "core/features.hpp"
#include "core/meta.hpp"
#include "core/threshold.hpp"
#include "ml/gru.hpp"
#include "ml/qgru.hpp"
#include "util/rng.hpp"

namespace phftl::core {

class ModelTrainer {
 public:
  /// Strength of the deployment-time decision-prior correction in [0, 1]:
  /// 0 = plain balanced argmax (short-eager), 1 = fully recalibrated to the
  /// window's natural positive rate. Intermediate values trade Table-I
  /// precision against separation aggressiveness (an eager short stream is
  /// cheap to be wrong about — Adjusted Greedy remediates — while a starved
  /// one forfeits separation).
  static constexpr float kPriorBiasStrength = 0.25f;

  struct Config {
    std::uint64_t logical_pages = 0;
    /// Window length in host-written pages (5 % of the SSD's physical size).
    std::uint64_t window_pages = 0;
    /// Feature-sequence history cap per page (time-series length). Set to 1
    /// for the paper's §V-C truncation ablation.
    std::uint32_t history_len = 8;
    /// Reservoir cap on lifetime samples per window.
    std::size_t max_window_samples = 4096;
    /// Balanced-resample cap per class for GRU training.
    std::size_t train_per_class = 256;
    std::size_t batch_size = 32;
    std::size_t gru_hidden = 32;
    float gru_lr = 3e-3f;  ///< Adam learning rate for the GRU
    ThresholdController::Config threshold;
    ml::AdamConfig adam;
    std::uint64_t seed = 1234;
    /// Disable training entirely (model never deploys; PHFTL degrades to
    /// one-stream user writes + GC-count separation).
    bool enabled = true;
  };

  explicit ModelTrainer(const Config& cfg);

  /// Profile one host page write. `raw` is the feature vector of this
  /// write; `now` is the virtual clock (pages written so far).
  void observe_page_write(Lpn lpn, const RawFeatures& raw, std::uint64_t now);

  /// Call after each page write; runs the window-boundary pipeline when due.
  /// Returns true when a new model was trained and deployed.
  bool maybe_train();

  /// Power-cut reset to safe defaults (docs/RECOVERY.md): the trainer is
  /// host-RAM state with no flash footprint, so nothing is recoverable.
  /// Drops the model (undeployed — user writes share the long stream until
  /// the first post-mount window trains), the threshold (back to the
  /// pre-first-window sentinel), histories, and window samples. The RNG
  /// restarts from the configured seed, keeping post-mount runs
  /// deterministic.
  void reset();

  // --- deployment state (what the device sees) ---
  bool model_deployed() const { return deployed_.deployed(); }
  const ml::QuantizedGru& deployed_model() const { return deployed_; }
  std::int64_t threshold() const { return controller_.threshold(); }

  // --- diagnostics ---
  std::uint64_t windows_completed() const { return windows_; }
  std::uint64_t trainings_run() const { return trainings_; }
  const ThresholdController& controller() const { return controller_; }
  std::size_t last_window_sample_count() const { return last_sample_count_; }
  /// Host-side RAM the trainer uses for per-page histories, in bytes
  /// (diagnostic): each page's History plus its history_len ring entries.
  std::size_t history_ram_bytes() const {
    return history_.size() * sizeof(History) +
           ring_.size() * sizeof(RawFeatures);
  }

  /// The float (pre-quantization) model, for ablations and tests.
  const ml::GruClassifier& float_model() const { return model_; }

 private:
  /// A page's ring state; its history_len entries live in ring_.
  struct History {
    std::uint64_t last_write_time = kNeverWritten;
    std::uint8_t count = 0;  ///< valid entries in the ring
    std::uint8_t head = 0;   ///< next slot to overwrite
  };
  static_assert(sizeof(History) == 16,
                "history_ram_bytes() and the header assume 16-byte records");

  /// Copy page `lpn`'s history, oldest → newest, into window sample slot
  /// `slot`.
  void store_sample(std::size_t slot, Lpn lpn);
  /// The window-boundary pipeline: threshold → label → balanced draw →
  /// train → quantize + bias.
  void train_window();

  Config cfg_;
  Xoshiro256 rng_;
  ml::GruClassifier model_;
  ml::QuantizedGru deployed_;
  ThresholdController controller_;

  std::vector<History> history_;
  std::vector<RawFeatures> ring_;  ///< logical_pages × history_len
  /// Window samples: slot s holds sample_len_[s] steps, oldest → newest,
  /// at sample_steps_[s · history_len]; sample_lifetime_.size() is the
  /// sample count.
  std::vector<std::uint64_t> sample_lifetime_;
  std::vector<std::uint8_t> sample_len_;
  std::vector<RawFeatures> sample_steps_;
  std::vector<float> compact_;  ///< window matrix for Algorithm 1
  /// The window's GRU training set, encoded in place and kept across
  /// windows with the class index lists that draw it; the epoch trains on
  /// its first 2 · per-class slots.
  std::vector<ml::Sequence> train_set_;
  std::vector<std::size_t> pos_idx_, neg_idx_;
  /// Step vectors a slot gave up when its sequence got shorter, reused
  /// when one grows, so a warm trainer allocates none per window.
  std::vector<std::vector<float>> spare_steps_;
  std::uint64_t samples_seen_ = 0;  ///< total this window (for reservoir)
  std::uint64_t window_start_ = 0;
  std::uint64_t pages_in_window_ = 0;
  std::uint64_t now_ = 0;

  std::uint64_t windows_ = 0;
  std::uint64_t trainings_ = 0;
  std::size_t last_sample_count_ = 0;
};

}  // namespace phftl::core
