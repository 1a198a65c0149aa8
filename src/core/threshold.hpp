// Adaptive classification-threshold controller — paper Algorithm 1 and
// Fig. 2.
//
// The Page Classifier's binary label is "lifetime below threshold T".
// T is re-picked after every write window (5 % of the SSD's size written):
//   * first window: T = the inflection point of the sorted lifetime-sample
//     array — the point of maximum distance from the chord joining the
//     first and last sorted samples, i.e. where the empirical CDF enters
//     its long tail (Fig. 2a);
//   * later windows: locate the percentile p of the previous T among the
//     new samples, evaluate candidate thresholds at percentiles p − step,
//     p, p + step by training a lightweight logistic-regression model on a
//     balanced resample labelled with each candidate, and keep the
//     candidate with the highest held-out accuracy (Fig. 2b);
//   * the step length then self-tunes: it grows when the threshold is
//     stable (escape local optima) or moving consistently (converge
//     faster), and shrinks when the direction just flipped (fluctuation)
//     or an adjustment streak just ended (refine), capped at 10.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/logreg.hpp"
#include "ml/tensor.hpp"
#include "util/rng.hpp"

namespace phftl::core {

class ThresholdController {
 public:
  static constexpr int kInitialStep = 5;  ///< percentile points (paper: 5)
  static constexpr int kMaxStep = 10;     ///< paper: min(|step|, 10)
  static_assert(kInitialStep >= 1 && kMaxStep >= kInitialStep);
  /// Held-out fraction when scoring a candidate threshold.
  static constexpr double kTestFraction = 0.25;

  struct Config {
    /// Balanced-resample cap per class for the lightweight model.
    std::size_t resample_per_class = 512;
    /// Freeze the threshold after the first window (ablation only).
    bool freeze_after_first_window = false;
    std::uint64_t seed = 99;
  };

  explicit ThresholdController(const Config& cfg);

  /// Run one window's adjustment. `lifetimes[i]` pairs with row i of the
  /// window matrix `features` (the compact encoding of the write that
  /// *created* the sampled version). Returns the new threshold; with no
  /// samples the previous threshold is retained.
  std::uint64_t pick_threshold(std::span<const std::uint64_t> lifetimes,
                               ml::ConstMatView features);

  /// Current threshold; -1 before the first window.
  std::int64_t threshold() const { return threshold_; }
  int step() const { return step_; }
  /// Accuracy achieved by the winning candidate in the last window.
  double last_accuracy() const { return last_accuracy_; }
  /// Direction chosen in the last window: -1, 0, +1.
  int last_direction() const { return last_dir_; }

  /// Maximum-chord-distance inflection point of a lifetime sample set
  /// (paper Fig. 2a). Exposed for testing; `samples` need not be sorted.
  static std::uint64_t inflection_point(std::vector<std::uint64_t> samples);

 private:
  /// inflection_point of `samples` already in ascending order, read in
  /// place (pick_threshold's window path sorts once for all its uses).
  static std::uint64_t sorted_inflection_point(
      std::span<const std::uint64_t> samples);
  /// Value at percentile q (0–100) of sorted samples (nearest rank).
  static std::uint64_t value_at_percentile(
      const std::vector<std::uint64_t>& sorted, double q);
  /// Percentile (0–100) of `value` within sorted samples.
  static double percentile_of_value(const std::vector<std::uint64_t>& sorted,
                                    std::uint64_t value);

  /// Label the window with candidate `c`'s threshold and stage its fits:
  /// every random draw Algorithm 1's TrainEvalLightModel makes for it, in
  /// the controller's RNG order.
  void stage_candidate(std::size_t c, std::uint64_t threshold,
                       std::span<const std::uint64_t> lifetimes);

  Config cfg_;
  Xoshiro256 rng_;
  std::int64_t threshold_ = -1;
  int step_;
  int last_dir_ = 0;
  int prev_dir_ = 0;
  double last_accuracy_ = 0.0;
  /// The window matrix's nonzeros, shared by the window's fits; kept so
  /// its buffers are reused across windows.
  ml::SparseRows window_;

  /// Candidates per window: the inflection point and the walk's three.
  static constexpr std::size_t kCandidates = 4;
  /// Resample/split rounds averaged per candidate.
  static constexpr std::size_t kRounds = 2;
  /// One staged (candidate, round) fit: its shuffled train/test split of
  /// a balanced resample and, once fitted, its held-out accuracy.
  struct Fit {
    std::size_t candidate = 0;
    std::vector<std::uint32_t> split;
    std::size_t n_train = 0;
    float accuracy = 0.0f;
  };
  /// Staging kept across windows: each candidate's labels, the resample
  /// being split, and the window's first `fit_count_` fits.
  std::vector<int> labels_[kCandidates];
  std::vector<std::uint32_t> balanced_;
  Fit fits_[kCandidates * kRounds];
  std::size_t fit_count_ = 0;
};

}  // namespace phftl::core
