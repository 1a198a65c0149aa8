#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ml/gru.hpp"
#include "ml/mlp.hpp"
#include "util/rng.hpp"

namespace phftl::ml {
namespace {

MlpClassifier::Config tiny_cfg() {
  MlpClassifier::Config cfg;
  cfg.input_dim = 4;
  cfg.hidden_dim = 8;
  cfg.seed = 3;
  return cfg;
}

std::vector<float> random_vec(std::size_t n, Xoshiro256& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.next_double());
  return v;
}

TEST(MlpClassifier, GradientMatchesFiniteDifferences) {
  MlpClassifier model(tiny_cfg());
  Xoshiro256 rng(7);
  const auto x = random_vec(4, rng);
  const int label = 1;

  model.store().zero_grads();
  model.backward(x, label);
  const std::vector<float> analytic(model.store().all_grads().begin(),
                                    model.store().all_grads().end());

  auto loss_at = [&](std::size_t i, float delta) {
    auto params = model.store().all_params();
    const float saved = params[i];
    params[i] = saved + delta;
    std::vector<float> out(2), probs(2);
    model.logits(x, out);
    const float loss = softmax_cross_entropy(out, label, probs);
    params[i] = saved;
    return loss;
  };

  const float eps = 1e-3f;
  auto params = model.store().all_params();
  for (std::size_t i = 0; i < params.size(); i += 5) {
    const float numeric = (loss_at(i, eps) - loss_at(i, -eps)) / (2 * eps);
    EXPECT_NEAR(analytic[i], numeric, 1e-2f + 0.05f * std::fabs(numeric))
        << "param " << i;
  }
}

TEST(MlpClassifier, LearnsNonlinearBoundary) {
  // XOR-like task: label = (x0 > 0.5) != (x1 > 0.5). Logistic regression
  // cannot solve this; the MLP must.
  MlpClassifier::Config cfg = tiny_cfg();
  cfg.hidden_dim = 16;
  cfg.adam.lr = 5e-3f;
  MlpClassifier model(cfg);
  Xoshiro256 rng(11);
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (int i = 0; i < 800; ++i) {
    auto v = random_vec(4, rng);
    x.push_back(v);
    y.push_back(((v[0] > 0.5f) != (v[1] > 0.5f)) ? 1 : 0);
  }
  Xoshiro256 train_rng(2);
  for (int e = 0; e < 120; ++e) model.train_epoch(x, y, 32, train_rng);
  EXPECT_GT(model.evaluate(x, y), 0.9f);
}

TEST(MlpClassifier, DeterministicForSeed) {
  MlpClassifier a(tiny_cfg()), b(tiny_cfg());
  Xoshiro256 rng(5);
  for (int i = 0; i < 20; ++i) {
    const auto x = random_vec(4, rng);
    EXPECT_EQ(a.predict(x), b.predict(x));
  }
}

TEST(MlpClassifier, EmptyTrainingIsNoop) {
  MlpClassifier model(tiny_cfg());
  Xoshiro256 rng(1);
  EXPECT_EQ(model.train_epoch({}, {}, 32, rng), 0.0f);
}

TEST(MlpClassifierDeathTest, ZeroBatchSizeIsRejected) {
  MlpClassifier model(tiny_cfg());
  Xoshiro256 rng(1);
  const std::vector<std::vector<float>> x{random_vec(4, rng)};
  EXPECT_DEATH(model.train_epoch(x, {1}, 0, rng), "batch_size");
}

}  // namespace
}  // namespace phftl::ml
