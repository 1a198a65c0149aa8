#include "ml/logreg.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ml/activations.hpp"
#include "util/assert.hpp"

namespace phftl::ml {

void SparseRows::assign(const float* dense, std::size_t n_rows,
                        std::size_t n_cols) {
  cols = n_cols;
  row_start.assign(1, 0);
  col.clear();
  val.clear();
  for (std::size_t r = 0; r < n_rows; ++r) {
    const float* x = dense + r * n_cols;
    for (std::size_t c = 0; c < n_cols; ++c)
      if (x[c] != 0.0f) {
        col.push_back(static_cast<std::uint32_t>(c));
        val.push_back(x[c]);
      }
    row_start.push_back(static_cast<std::uint32_t>(col.size()));
  }
}

LogisticRegression::LogisticRegression(const Config& cfg)
    : cfg_(cfg), w_(cfg.input_dim, 0.0f) {}

float LogisticRegression::predict_proba(std::span<const float> x) const {
  PHFTL_CHECK(x.size() == w_.size());
  float acc = b_;
  for (std::size_t i = 0; i < x.size(); ++i) acc += w_[i] * x[i];
  return act::sigmoid(acc);
}

float LogisticRegression::score(const SparseRows& x,
                                std::uint32_t row) const {
  float acc = b_;
  for (std::uint32_t e = x.row_start[row]; e < x.row_start[row + 1]; ++e)
    acc += w_[x.col[e]] * x.val[e];
  return acc;
}

void LogisticRegression::fit(const SparseRows& x, std::span<const int> labels,
                             std::span<const std::uint32_t> rows) {
  PHFTL_CHECK(labels.size() == x.rows() && x.cols == w_.size());
  PHFTL_CHECK_MSG(cfg_.batch_size > 0, "training batch_size must be positive");
  if (rows.empty()) return;
  Xoshiro256 rng(cfg_.seed);
  std::vector<std::size_t> order(rows.size());
  std::iota(order.begin(), order.end(), 0);

  // Scores run sample by sample (predict_proba's left-to-right chain from
  // the bias, zero inputs skipped) and a minibatch's scores are activated
  // in one call; the gradient is then accumulated sample by sample. Each
  // gw[c] starts at +0 and a sum never yields -0 from +0, so a skipped
  // err·0 term changes nothing there either.
  const std::size_t dim = w_.size();
  std::vector<float> p(std::min(cfg_.batch_size, rows.size()));
  std::vector<float> gw(dim);
  for (std::size_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
    deterministic_shuffle(order, rng);
    std::size_t pos = 0;
    while (pos < order.size()) {
      const std::size_t end = std::min(pos + cfg_.batch_size, order.size());
      const std::size_t nb = end - pos;
      for (std::size_t l = 0; l < nb; ++l)
        p[l] = score(x, rows[order[pos + l]]);
      act::sigmoid_inplace(p.data(), nb);

      std::fill(gw.begin(), gw.end(), 0.0f);
      float gb = 0.0f;
      for (std::size_t l = 0; l < nb; ++l) {
        const std::uint32_t row = rows[order[pos + l]];
        const float err = p[l] - static_cast<float>(labels[row]);
        for (std::uint32_t e = x.row_start[row]; e < x.row_start[row + 1];
             ++e)
          gw[x.col[e]] += err * x.val[e];
        gb += err;
      }
      const float inv = 1.0f / static_cast<float>(nb);
      for (std::size_t j = 0; j < dim; ++j)
        w_[j] -= cfg_.lr * (gw[j] * inv + cfg_.l2 * w_[j]);
      b_ -= cfg_.lr * gb * inv;
      pos = end;
    }
  }
  // The skip is exact only while the weights are finite; a weight that
  // went non-finite stays so through every later update, so checking the
  // end state covers the whole fit.
  PHFTL_CHECK_MSG(std::isfinite(b_) &&
                      std::all_of(w_.begin(), w_.end(),
                                  [](float w) { return std::isfinite(w); }),
                  "logistic regression diverged to a non-finite weight");
}

void LogisticRegression::fit(const std::vector<std::vector<float>>& features,
                             const std::vector<int>& labels) {
  PHFTL_CHECK(features.size() == labels.size());
  std::vector<float> dense;
  dense.reserve(features.size() * w_.size());
  for (const auto& x : features) {
    PHFTL_CHECK(x.size() == w_.size());
    dense.insert(dense.end(), x.begin(), x.end());
  }
  SparseRows sparse;
  sparse.assign(dense.data(), features.size(), w_.size());
  std::vector<std::uint32_t> rows(features.size());
  std::iota(rows.begin(), rows.end(), 0u);
  fit(sparse, labels, rows);
}

float LogisticRegression::evaluate(const SparseRows& x,
                                   std::span<const int> labels,
                                   std::span<const std::uint32_t> rows) const {
  PHFTL_CHECK(labels.size() == x.rows() && x.cols == w_.size());
  if (rows.empty()) return 0.0f;
  std::size_t correct = 0;
  for (const std::uint32_t row : rows)
    if ((act::sigmoid(score(x, row)) >= 0.5f ? 1 : 0) == labels[row])
      ++correct;
  return static_cast<float>(correct) / static_cast<float>(rows.size());
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

void balanced_resample(std::span<const int> labels, std::size_t max_per_class,
                       Xoshiro256& rng, std::vector<std::uint32_t>& out_rows) {
  out_rows.clear();
  std::vector<std::uint32_t> pos_idx, neg_idx;
  pos_idx.reserve(labels.size());
  neg_idx.reserve(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i)
    (labels[i] ? pos_idx : neg_idx).push_back(static_cast<std::uint32_t>(i));
  if (pos_idx.empty() || neg_idx.empty()) {
    // Degenerate window: nothing to balance; return as-is (capped).
    out_rows.resize(std::min(labels.size(), 2 * max_per_class));
    std::iota(out_rows.begin(), out_rows.end(), 0u);
    return;
  }
  const std::size_t per_class =
      std::min({max_per_class, pos_idx.size(), neg_idx.size()});
  auto draw = [&](std::vector<std::uint32_t>& pool) {
    // Sample without replacement (partial Fisher-Yates).
    for (std::size_t k = 0; k < per_class; ++k) {
      const std::size_t j = k + rng.next_below(pool.size() - k);
      std::swap(pool[k], pool[j]);
      out_rows.push_back(pool[k]);
    }
  };
  draw(pos_idx);
  draw(neg_idx);
}

std::size_t split_rows(std::span<const std::uint32_t> rows,
                       double test_fraction, Xoshiro256& rng,
                       std::vector<std::uint32_t>& split) {
  split.clear();
  if (rows.size() < 4) return 0;
  std::vector<std::size_t> order(rows.size());
  std::iota(order.begin(), order.end(), 0);
  deterministic_shuffle(order, rng);

  const auto n_test = static_cast<std::size_t>(
      static_cast<double>(rows.size()) * test_fraction);
  split.resize(rows.size());
  for (std::size_t i = 0; i < order.size(); ++i) split[i] = rows[order[i]];
  return rows.size() - std::max<std::size_t>(n_test, 1);
}

float fit_and_score(const SparseRows& x, std::span<const int> labels,
                    std::span<const std::uint32_t> split, std::size_t n_train,
                    LogisticRegression::Config cfg) {
  const std::span<const std::uint32_t> train = split.first(n_train);
  const std::span<const std::uint32_t> test = split.subspan(n_train);
  if (train.empty() || test.empty()) return 0.0f;
  cfg.input_dim = x.cols;
  LogisticRegression model(cfg);
  model.fit(x, labels, train);
  return model.evaluate(x, labels, test);
}

}  // namespace phftl::ml
