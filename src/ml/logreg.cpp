#include "ml/logreg.hpp"

#include <algorithm>
#include <numeric>

#include "ml/activations.hpp"
#include "ml/kernels.hpp"
#include "util/assert.hpp"

namespace phftl::ml {

LogisticRegression::LogisticRegression(const Config& cfg)
    : cfg_(cfg), w_(cfg.input_dim, 0.0f) {}

float LogisticRegression::predict_proba(std::span<const float> x) const {
  PHFTL_CHECK(x.size() == w_.size());
  float acc = b_;
  for (std::size_t i = 0; i < x.size(); ++i) acc += w_[i] * x[i];
  return act::sigmoid(acc);
}

void LogisticRegression::fit(const std::vector<std::vector<float>>& features,
                             const std::vector<int>& labels) {
  PHFTL_CHECK(features.size() == labels.size());
  PHFTL_CHECK_MSG(cfg_.batch_size > 0, "training batch_size must be positive");
  if (features.empty()) return;
  Xoshiro256 rng(cfg_.seed);
  std::vector<std::size_t> order(features.size());
  std::iota(order.begin(), order.end(), 0);

  // A minibatch's samples are all scored against the same weights, so they
  // run as SIMD lanes: lane l holds b + w·x_l summed left to right from b,
  // the predict_proba chain, and the scores are activated in one call. The
  // gradient is then accumulated sample by sample, so the result is
  // bit-identical to per-sample scoring.
  const std::size_t dim = w_.size();
  const std::size_t max_lanes =
      kernels::padded_lanes(std::min(cfg_.batch_size, features.size()));
  std::vector<float> xt(dim * max_lanes), acc(max_lanes);
  std::vector<float> gw(dim);
  for (std::size_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
    deterministic_shuffle(order, rng);
    std::size_t pos = 0;
    while (pos < order.size()) {
      const std::size_t end = std::min(pos + cfg_.batch_size, order.size());
      const std::size_t nb = end - pos, lanes = kernels::padded_lanes(nb);
      std::fill_n(xt.begin(), dim * lanes, 0.0f);
      for (std::size_t l = 0; l < nb; ++l) {
        const auto& x = features[order[pos + l]];
        PHFTL_CHECK(x.size() == dim);
        for (std::size_t j = 0; j < dim; ++j) xt[j * lanes + l] = x[j];
      }
      std::fill_n(acc.begin(), lanes, b_);
      kernels::lane_gemv(w_.data(), 1, dim, xt.data(), lanes, acc.data());
      act::sigmoid_inplace(acc.data(), nb);

      std::fill(gw.begin(), gw.end(), 0.0f);
      float gb = 0.0f;
      for (std::size_t l = 0; l < nb; ++l) {
        const auto& x = features[order[pos + l]];
        const float err = acc[l] - static_cast<float>(labels[order[pos + l]]);
        for (std::size_t j = 0; j < dim; ++j) gw[j] += err * x[j];
        gb += err;
      }
      const float inv = 1.0f / static_cast<float>(nb);
      for (std::size_t j = 0; j < dim; ++j)
        w_[j] -= cfg_.lr * (gw[j] * inv + cfg_.l2 * w_[j]);
      b_ -= cfg_.lr * gb * inv;
      pos = end;
    }
  }
}

float LogisticRegression::evaluate(
    const std::vector<std::vector<float>>& features,
    const std::vector<int>& labels) const {
  PHFTL_CHECK(features.size() == labels.size());
  if (features.empty()) return 0.0f;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < features.size(); ++i)
    if (predict(features[i]) == labels[i]) ++correct;
  return static_cast<float>(correct) / static_cast<float>(features.size());
}

void balanced_resample(const std::vector<std::vector<float>>& features,
                       const std::vector<int>& labels,
                       std::size_t max_per_class, Xoshiro256& rng,
                       std::vector<std::vector<float>>& out_features,
                       std::vector<int>& out_labels) {
  PHFTL_CHECK(features.size() == labels.size());
  out_features.clear();
  out_labels.clear();
  std::vector<std::size_t> pos_idx, neg_idx;
  for (std::size_t i = 0; i < labels.size(); ++i)
    (labels[i] ? pos_idx : neg_idx).push_back(i);
  if (pos_idx.empty() || neg_idx.empty()) {
    // Degenerate window: nothing to balance; return as-is (capped).
    const std::size_t n = std::min(features.size(), 2 * max_per_class);
    for (std::size_t i = 0; i < n; ++i) {
      out_features.push_back(features[i]);
      out_labels.push_back(labels[i]);
    }
    return;
  }
  const std::size_t per_class =
      std::min({max_per_class, pos_idx.size(), neg_idx.size()});
  auto draw = [&](const std::vector<std::size_t>& idx) {
    // Sample without replacement when possible (partial Fisher-Yates).
    std::vector<std::size_t> pool = idx;
    for (std::size_t k = 0; k < per_class; ++k) {
      const std::size_t j = k + rng.next_below(pool.size() - k);
      std::swap(pool[k], pool[j]);
      out_features.push_back(features[pool[k]]);
      out_labels.push_back(labels[pool[k]]);
    }
  };
  draw(pos_idx);
  draw(neg_idx);
}

float train_eval_light_model(const std::vector<std::vector<float>>& features,
                             const std::vector<int>& labels,
                             double test_fraction, Xoshiro256& rng,
                             LogisticRegression::Config cfg) {
  PHFTL_CHECK(features.size() == labels.size());
  if (features.size() < 4) return 0.0f;
  std::vector<std::size_t> order(features.size());
  std::iota(order.begin(), order.end(), 0);
  deterministic_shuffle(order, rng);

  const auto n_test = static_cast<std::size_t>(
      static_cast<double>(features.size()) * test_fraction);
  const std::size_t n_train = features.size() - std::max<std::size_t>(n_test, 1);

  std::vector<std::vector<float>> train_x, test_x;
  std::vector<int> train_y, test_y;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i < n_train) {
      train_x.push_back(features[order[i]]);
      train_y.push_back(labels[order[i]]);
    } else {
      test_x.push_back(features[order[i]]);
      test_y.push_back(labels[order[i]]);
    }
  }
  if (train_x.empty() || test_x.empty()) return 0.0f;
  cfg.input_dim = features.front().size();
  LogisticRegression model(cfg);
  model.fit(train_x, train_y);
  return model.evaluate(test_x, test_y);
}

}  // namespace phftl::ml
