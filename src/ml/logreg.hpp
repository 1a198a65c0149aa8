// Logistic regression — the "lightweight model" of Algorithm 1.
//
// The classification-threshold adjustment procedure (paper §III-B) labels a
// window's samples with three candidate thresholds, trains a logistic
// regression per candidate on a balanced resample, and keeps the threshold
// whose model scores the highest accuracy. This model exists purely to rank
// thresholds cheaply; the deployed Page Classifier is the GRU.
//
// Algorithm 1's inputs are one window matrix: a row per lifetime sample.
// Resamples and train/test splits are lists of row indices into it, so no
// fit copies a row. Its compact rows are mostly zeros (at most 7 nonzeros
// of 38), and fits walk only the nonzero inputs of each row (SparseRows).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace phftl::ml {

/// A row-major matrix's nonzero entries, row by row in column order
/// (compressed sparse rows). Built once per window and shared by all of
/// the window's fits.
struct SparseRows {
  std::size_t cols = 0;
  /// Row i's entries are [row_start[i], row_start[i + 1]).
  std::vector<std::uint32_t> row_start{0};
  std::vector<std::uint32_t> col;
  std::vector<float> val;

  /// Rebuild from `rows` × `cols` row-major floats, keeping capacity.
  /// An entry is stored when it compares unequal to zero (so NaN is kept
  /// and -0.0 is dropped).
  void assign(const float* dense, std::size_t rows, std::size_t cols);
  std::size_t rows() const { return row_start.size() - 1; }
};

class LogisticRegression {
 public:
  struct Config {
    std::size_t input_dim = 20;
    float lr = 0.05f;
    std::size_t epochs = 5;
    std::size_t batch_size = 32;
    float l2 = 1e-4f;
    std::uint64_t seed = 7;
  };

  explicit LogisticRegression(const Config& cfg);

  /// Probability of the positive (short-living) class.
  float predict_proba(std::span<const float> x) const;
  int predict(std::span<const float> x) const {
    return predict_proba(x) >= 0.5f ? 1 : 0;
  }

  /// Mini-batch SGD on rows `rows` of `x` (the sample order), where row i
  /// has label `labels[i]`. A row's score is the bias plus w[c]·x[c] over
  /// its nonzero inputs in column order — with finite weights the same
  /// float as the dense sum, since a zero input adds ±0 (see DESIGN.md
  /// §8.3); the fit checks that its weights end finite. Config::batch_size
  /// must be positive and x.cols must equal Config::input_dim.
  void fit(const SparseRows& x, std::span<const int> labels,
           std::span<const std::uint32_t> rows);

  /// Dense form: trains on every row of `features` in order.
  void fit(const std::vector<std::vector<float>>& features,
           const std::vector<int>& labels);

  /// Accuracy over rows `rows` of `x`, labelled as in fit().
  float evaluate(const SparseRows& x, std::span<const int> labels,
                 std::span<const std::uint32_t> rows) const;

  /// Accuracy over a dense labelled set.
  float evaluate(const std::vector<std::vector<float>>& features,
                 const std::vector<int>& labels) const;

  std::span<const float> weights() const { return w_; }
  float bias() const { return b_; }

 private:
  /// b + w·x over row `row`'s nonzero inputs, in column order.
  float score(const SparseRows& x, std::uint32_t row) const;

  Config cfg_;
  std::vector<float> w_;
  float b_ = 0.0f;
};

/// Algorithm 1's `TrainEvalLightModel` is split_rows, then fit_and_score:
/// the threshold controller draws every split first, so that the fits can
/// run side by side.
///
/// The split's draw: with at least 4 rows, shuffles `rows` with `rng`
/// into `split` and returns how many lead it as the training part, the
/// rest (test_fraction of the rows, at least one) being held out. With
/// fewer it draws nothing, leaves `split` empty and returns 0.
std::size_t split_rows(std::span<const std::uint32_t> rows,
                       double test_fraction, Xoshiro256& rng,
                       std::vector<std::uint32_t>& split);

/// Fit a fresh model on split[0, n_train) and return its accuracy on the
/// rest of `split`; 0 when either part is empty. Draws no random number
/// outside the model's own seeded RNG, so fits may run in any order.
float fit_and_score(const SparseRows& x, std::span<const int> labels,
                    std::span<const std::uint32_t> split, std::size_t n_train,
                    LogisticRegression::Config cfg = {});

/// Resample (without replacement) to a balanced set of at most
/// `max_per_class` rows per class — "label and resample to a small,
/// balanced training set" in Algorithm 1. Writes the drawn row indices,
/// positives first, to `out_rows`.
void balanced_resample(std::span<const int> labels, std::size_t max_per_class,
                       Xoshiro256& rng, std::vector<std::uint32_t>& out_rows);

}  // namespace phftl::ml
