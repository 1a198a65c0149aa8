// Logistic regression — the "lightweight model" of Algorithm 1.
//
// The classification-threshold adjustment procedure (paper §III-B) labels a
// window's samples with three candidate thresholds, trains a logistic
// regression per candidate on a balanced resample, and keeps the threshold
// whose model scores the highest accuracy. This model exists purely to rank
// thresholds cheaply; the deployed Page Classifier is the GRU.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace phftl::ml {

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

  /// Mini-batch SGD training on (features, labels). Config::batch_size
  /// must be positive.
  void fit(const std::vector<std::vector<float>>& features,
           const std::vector<int>& labels);

  /// Accuracy over a labelled set.
  float evaluate(const std::vector<std::vector<float>>& features,
                 const std::vector<int>& labels) const;

  std::span<const float> weights() const { return w_; }
  float bias() const { return b_; }

 private:
  Config cfg_;
  std::vector<float> w_;
  float b_ = 0.0f;
};

/// Train-test split + fit + held-out accuracy in one call, the exact
/// operation `TrainEvalLightModel` performs in Algorithm 1.
/// `test_fraction` of the data (after shuffling) is held out.
float train_eval_light_model(const std::vector<std::vector<float>>& features,
                             const std::vector<int>& labels,
                             double test_fraction, Xoshiro256& rng,
                             LogisticRegression::Config cfg = {});

/// Resample (with replacement if needed) to a balanced set of at most
/// `max_per_class` samples per class — "label and resample to a small,
/// balanced training set" in Algorithm 1.
void balanced_resample(const std::vector<std::vector<float>>& features,
                       const std::vector<int>& labels,
                       std::size_t max_per_class, Xoshiro256& rng,
                       std::vector<std::vector<float>>& out_features,
                       std::vector<int>& out_labels);

}  // namespace phftl::ml
