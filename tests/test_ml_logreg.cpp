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

/// LogisticRegression::fit scoring one sample at a time (the predict_proba
/// chain per sample) — the form the lane-scored fit must reproduce exactly.
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

TEST(LogisticRegression, LaneFitMatchesPerSampleFitBitForBit) {
  // Algorithm 1 picks thresholds from these models' accuracies, so the
  // lane-scored fit must not move a single weight bit.
  for (std::size_t dim : {1u, 7u, 38u})
    for (std::size_t batch : {1u, 5u, 32u, 33u, 100u}) {
      SCOPED_TRACE("dim " + std::to_string(dim) + " batch " +
                   std::to_string(batch));
      LogisticRegression::Config cfg;
      cfg.input_dim = dim;
      cfg.batch_size = batch;
      cfg.epochs = 12;
      cfg.lr = 0.2f;
      Xoshiro256 rng(dim * 31 + batch);
      std::vector<std::vector<float>> x(301, std::vector<float>(dim));
      std::vector<int> y(x.size());
      for (std::size_t i = 0; i < x.size(); ++i) {
        for (auto& v : x[i]) v = static_cast<float>(rng.next_double());
        y[i] = (x[i][0] > 0.4f) != rng.next_bool(0.1) ? 1 : 0;
      }
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
    }
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
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (int i = 0; i < 90; ++i) {
    x.push_back({static_cast<float>(i)});
    y.push_back(i < 80 ? 0 : 1);  // 80 negatives, 10 positives
  }
  std::vector<std::vector<float>> bx;
  std::vector<int> by;
  balanced_resample(x, y, /*max_per_class=*/64, rng, bx, by);
  int pos = 0, neg = 0;
  for (int label : by) (label ? pos : neg)++;
  EXPECT_EQ(pos, 10);
  EXPECT_EQ(neg, 10);
}

TEST(BalancedResample, CapsPerClass) {
  Xoshiro256 rng(9);
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (int i = 0; i < 200; ++i) {
    x.push_back({static_cast<float>(i)});
    y.push_back(i % 2);
  }
  std::vector<std::vector<float>> bx;
  std::vector<int> by;
  balanced_resample(x, y, 16, rng, bx, by);
  EXPECT_EQ(bx.size(), 32u);
}

TEST(BalancedResample, SingleClassDegradesGracefully) {
  Xoshiro256 rng(9);
  std::vector<std::vector<float>> x{{1.0f}, {2.0f}};
  std::vector<int> y{0, 0};
  std::vector<std::vector<float>> bx;
  std::vector<int> by;
  balanced_resample(x, y, 16, rng, bx, by);
  EXPECT_EQ(bx.size(), 2u);  // returned as-is
}

TEST(TrainEvalLightModel, HighAccuracyOnSeparableData) {
  Xoshiro256 rng(31);
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (int i = 0; i < 300; ++i) {
    const float v = static_cast<float>(rng.next_double());
    x.push_back({v});
    y.push_back(v > 0.5f ? 1 : 0);
  }
  LogisticRegression::Config cfg;
  cfg.epochs = 40;
  cfg.lr = 0.5f;
  const float acc = train_eval_light_model(x, y, 0.25, rng, cfg);
  EXPECT_GT(acc, 0.85f);
}

TEST(TrainEvalLightModel, RandomLabelsScoreNearChance) {
  Xoshiro256 rng(33);
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (int i = 0; i < 400; ++i) {
    x.push_back({static_cast<float>(rng.next_double())});
    y.push_back(rng.next_bool(0.5) ? 1 : 0);
  }
  const float acc = train_eval_light_model(x, y, 0.25, rng);
  EXPECT_LT(acc, 0.65f);
  EXPECT_GT(acc, 0.35f);
}

TEST(TrainEvalLightModel, TinyInputReturnsZero) {
  Xoshiro256 rng(1);
  std::vector<std::vector<float>> x{{1.0f}};
  std::vector<int> y{1};
  EXPECT_EQ(train_eval_light_model(x, y, 0.25, rng), 0.0f);
}

}  // namespace
}  // namespace phftl::ml
