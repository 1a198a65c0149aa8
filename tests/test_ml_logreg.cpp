#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "ml/activations.hpp"
#include "ml/logreg.hpp"
#include "util/rng.hpp"

namespace phftl::ml {
namespace {

/// LogisticRegression::fit scoring one sample at a time over every input
/// (the dense predict_proba chain per sample) — the form the zero-skipping
/// fit must reproduce exactly.
void per_sample_fit(const LogisticRegression::Config& cfg,
                    const std::vector<std::vector<float>>& features,
                    const std::vector<int>& labels, std::vector<float>& w,
                    float& b) {
  w.assign(cfg.input_dim, 0.0f);
  b = 0.0f;
  Xoshiro256 rng(cfg.seed);
  std::vector<std::size_t> order(features.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<float> gw(w.size());
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    deterministic_shuffle(order, rng);
    std::size_t pos = 0;
    while (pos < order.size()) {
      const std::size_t end = std::min(pos + cfg.batch_size, order.size());
      std::fill(gw.begin(), gw.end(), 0.0f);
      float gb = 0.0f;
      for (std::size_t i = pos; i < end; ++i) {
        const auto& x = features[order[i]];
        float acc = b;
        for (std::size_t j = 0; j < x.size(); ++j) acc += w[j] * x[j];
        const float err =
            act::sigmoid(acc) - static_cast<float>(labels[order[i]]);
        for (std::size_t j = 0; j < w.size(); ++j) gw[j] += err * x[j];
        gb += err;
      }
      const float inv = 1.0f / static_cast<float>(end - pos);
      for (std::size_t j = 0; j < w.size(); ++j)
        w[j] -= cfg.lr * (gw[j] * inv + cfg.l2 * w[j]);
      b -= cfg.lr * gb * inv;
      pos = end;
    }
  }
}

std::uint32_t bits_of(float x) {
  std::uint32_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// The three row shapes the fit must reproduce: dense random rows; compact
/// rows (6 scalars, one of 32 one-hot bins) whose labels push most bin
/// weights negative, so the dense sums add -0 terms; and the same with
/// about a third of the rows all zeros.
enum class Rows { kDense, kCompact, kCompactWithZeroRows };

void make_rows(Rows shape, std::size_t dim, Xoshiro256& rng,
               std::vector<std::vector<float>>& x, std::vector<int>& y) {
  x.assign(301, std::vector<float>(dim, 0.0f));
  y.assign(x.size(), 0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (shape == Rows::kDense) {
      for (auto& v : x[i]) v = static_cast<float>(rng.next_double());
      y[i] = (x[i][0] > 0.4f) != rng.next_bool(0.1) ? 1 : 0;
      continue;
    }
    if (shape == Rows::kCompactWithZeroRows && rng.next_below(3) == 0) {
      y[i] = rng.next_bool(0.5) ? 1 : 0;
      continue;
    }
    const std::size_t scalars = std::min<std::size_t>(6, dim);
    for (std::size_t j = 0; j < scalars; ++j)
      if (rng.next_bool(0.7)) x[i][j] = static_cast<float>(rng.next_double());
    std::size_t bin = 0;
    if (dim > scalars) {
      bin = rng.next_below(dim - scalars);
      x[i][scalars + bin] = 1.0f;
    }
    y[i] = bin < 3 ? 1 : 0;
  }
}

TEST(LogisticRegression, ZeroSkippingFitMatchesPerSampleFitBitForBit) {
  // Algorithm 1 picks thresholds from these models' accuracies, so walking
  // only nonzero inputs must not move a single weight bit. A zero input can
  // only flip the sign of an exact-zero score, which sigmoid ignores.
  EXPECT_EQ(bits_of(act::sigmoid(0.0f)), bits_of(act::sigmoid(-0.0f)));
  for (const Rows shape :
       {Rows::kDense, Rows::kCompact, Rows::kCompactWithZeroRows})
    for (std::size_t dim : {1u, 7u, 38u})
      for (std::size_t batch : {1u, 5u, 32u, 33u, 100u}) {
        SCOPED_TRACE("shape " + std::to_string(static_cast<int>(shape)) +
                     " dim " + std::to_string(dim) + " batch " +
                     std::to_string(batch));
        LogisticRegression::Config cfg;
        cfg.input_dim = dim;
        cfg.batch_size = batch;
        cfg.epochs = 12;
        cfg.lr = 0.2f;
        Xoshiro256 rng(dim * 31 + batch);
        std::vector<std::vector<float>> x;
        std::vector<int> y;
        make_rows(shape, dim, rng, x, y);
        LogisticRegression model(cfg);
        model.fit(x, y);
        std::vector<float> w;
        float b = 0.0f;
        per_sample_fit(cfg, x, y, w, b);
        ASSERT_EQ(model.weights().size(), w.size());
        EXPECT_EQ(std::memcmp(model.weights().data(), w.data(),
                              w.size() * sizeof(float)),
                  0);
        const float mb = model.bias();
        EXPECT_EQ(std::memcmp(&mb, &b, sizeof(float)), 0);
        if (shape != Rows::kDense && dim == 38) {
          std::size_t negative = 0;
          for (float v : w) negative += v < 0.0f ? 1 : 0;
          EXPECT_GT(negative, dim / 2);
        }
      }
}

TEST(LogisticRegressionDeathTest, NonFiniteWeightsAreRejected) {
  // The zero skip is exact only for finite weights, so a diverged fit must
  // stop rather than return weights the dense sum would not give.
  LogisticRegression::Config cfg;
  cfg.input_dim = 2;
  cfg.lr = 1e30f;
  LogisticRegression model(cfg);
  const std::vector<std::vector<float>> x{{3e38f, 0.0f}, {0.0f, 1.0f}};
  const std::vector<int> y{1, 0};
  EXPECT_DEATH(model.fit(x, y), "non-finite");
}

TEST(LogisticRegressionDeathTest, ZeroBatchSizeIsRejected) {
  LogisticRegression::Config cfg;
  cfg.input_dim = 1;
  cfg.batch_size = 0;
  LogisticRegression model(cfg);
  const std::vector<std::vector<float>> x{{0.0f}, {1.0f}};
  const std::vector<int> y{0, 1};
  EXPECT_DEATH(model.fit(x, y), "batch_size");
}

TEST(LogisticRegression, LearnsSeparableData) {
  LogisticRegression::Config cfg;
  cfg.input_dim = 2;
  cfg.epochs = 50;
  cfg.lr = 0.3f;
  LogisticRegression model(cfg);

  Xoshiro256 rng(5);
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (int i = 0; i < 400; ++i) {
    const float a = static_cast<float>(rng.next_double());
    const float b = static_cast<float>(rng.next_double());
    x.push_back({a, b});
    y.push_back(a + b > 1.0f ? 1 : 0);
  }
  model.fit(x, y);
  EXPECT_GT(model.evaluate(x, y), 0.9f);
}

TEST(LogisticRegression, ProbaIsMonotoneInSignal) {
  LogisticRegression::Config cfg;
  cfg.input_dim = 1;
  cfg.epochs = 60;
  cfg.lr = 0.5f;
  LogisticRegression model(cfg);
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (int i = 0; i < 200; ++i) {
    const float v = static_cast<float>(i) / 200.0f;
    x.push_back({v});
    y.push_back(v > 0.5f ? 1 : 0);
  }
  model.fit(x, y);
  EXPECT_LT(model.predict_proba(std::vector<float>{0.1f}),
            model.predict_proba(std::vector<float>{0.9f}));
}

TEST(LogisticRegression, UntrainedPredictsHalf) {
  LogisticRegression::Config cfg;
  cfg.input_dim = 3;
  LogisticRegression model(cfg);
  EXPECT_FLOAT_EQ(model.predict_proba(std::vector<float>{1, 2, 3}), 0.5f);
}

TEST(BalancedResample, ProducesEqualClassCounts) {
  Xoshiro256 rng(9);
  std::vector<int> y;
  for (int i = 0; i < 90; ++i) y.push_back(i < 80 ? 0 : 1);  // 80 neg, 10 pos
  std::vector<std::uint32_t> rows;
  balanced_resample(y, /*max_per_class=*/64, rng, rows);
  int pos = 0, neg = 0;
  for (std::uint32_t r : rows) (y[r] ? pos : neg)++;
  EXPECT_EQ(pos, 10);
  EXPECT_EQ(neg, 10);
}

TEST(BalancedResample, CapsPerClass) {
  Xoshiro256 rng(9);
  std::vector<int> y;
  for (int i = 0; i < 200; ++i) y.push_back(i % 2);
  std::vector<std::uint32_t> rows;
  balanced_resample(y, 16, rng, rows);
  EXPECT_EQ(rows.size(), 32u);
}

TEST(BalancedResample, SingleClassDegradesGracefully) {
  Xoshiro256 rng(9);
  const std::vector<int> y{0, 0};
  std::vector<std::uint32_t> rows;
  balanced_resample(y, 16, rng, rows);
  EXPECT_EQ(rows, (std::vector<std::uint32_t>{0, 1}));  // returned as-is
}

/// One-column window matrix over `values`, and the row list 0 … n-1.
SparseRows column(const std::vector<float>& values,
                  std::vector<std::uint32_t>& rows) {
  SparseRows x;
  x.assign(values.data(), values.size(), 1);
  rows.resize(values.size());
  std::iota(rows.begin(), rows.end(), 0u);
  return x;
}

TEST(SparseRows, KeepsNonzerosInColumnOrder) {
  const float dense[] = {0.0f, 2.0f, -0.0f, 3.0f,  //
                         0.0f, 0.0f, 0.0f,  0.0f,  //
                         1.0f, 0.0f, 0.0f,  4.0f};
  SparseRows x;
  x.assign(dense, 3, 4);
  EXPECT_EQ(x.rows(), 3u);
  EXPECT_EQ(x.row_start, (std::vector<std::uint32_t>{0, 2, 2, 4}));
  EXPECT_EQ(x.col, (std::vector<std::uint32_t>{1, 3, 0, 3}));
  EXPECT_EQ(x.val, (std::vector<float>{2.0f, 3.0f, 1.0f, 4.0f}));
}

TEST(TrainEvalLightModel, HighAccuracyOnSeparableData) {
  Xoshiro256 rng(31);
  std::vector<float> v;
  std::vector<int> y;
  for (int i = 0; i < 300; ++i) {
    v.push_back(static_cast<float>(rng.next_double()));
    y.push_back(v.back() > 0.5f ? 1 : 0);
  }
  std::vector<std::uint32_t> rows;
  const SparseRows x = column(v, rows);
  LogisticRegression::Config cfg;
  cfg.epochs = 40;
  cfg.lr = 0.5f;
  std::vector<std::uint32_t> split;
  const std::size_t n_train = split_rows(rows, 0.25, rng, split);
  const float acc = fit_and_score(x, y, split, n_train, cfg);
  EXPECT_GT(acc, 0.85f);
}

TEST(TrainEvalLightModel, RandomLabelsScoreNearChance) {
  Xoshiro256 rng(33);
  std::vector<float> v;
  std::vector<int> y;
  for (int i = 0; i < 400; ++i) {
    v.push_back(static_cast<float>(rng.next_double()));
    y.push_back(rng.next_bool(0.5) ? 1 : 0);
  }
  std::vector<std::uint32_t> rows;
  const SparseRows x = column(v, rows);
  std::vector<std::uint32_t> split;
  const std::size_t n_train = split_rows(rows, 0.25, rng, split);
  const float acc = fit_and_score(x, y, split, n_train);
  EXPECT_LT(acc, 0.65f);
  EXPECT_GT(acc, 0.35f);
}

TEST(TrainEvalLightModel, TinyInputReturnsZero) {
  Xoshiro256 rng(1);
  std::vector<std::uint32_t> rows;
  const SparseRows x = column({1.0f}, rows);
  const std::vector<int> y{1};
  std::vector<std::uint32_t> split;
  const std::size_t n_train = split_rows(rows, 0.25, rng, split);
  EXPECT_EQ(fit_and_score(x, y, split, n_train), 0.0f);
}

}  // namespace
}  // namespace phftl::ml
