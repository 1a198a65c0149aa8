#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "ml/activations.hpp"
#include "ml/gru.hpp"
#include "util/rng.hpp"

namespace phftl::ml {
namespace {

// ---------------------------------------------------------------------------
// Scalar oracle. GruClassifier trains a minibatch as SIMD lanes; these are
// the per-sequence scalar BPTT and epoch loop it replaced, kept verbatim in
// arithmetic so the lane path can be checked against them bit for bit.
// ---------------------------------------------------------------------------

/// ParamStore segment ids, in GruClassifier's allocation order (checked by
/// OracleSegmentIdsMatchAccessors).
enum Seg : std::size_t {
  kWz, kWr, kWn, kUz, kUr, kUn, kBz, kBr, kBn, kBun, kWo, kBo
};

/// Adds one sequence's gradients to model.store()'s gradient buffer and
/// returns its cross-entropy loss.
float oracle_backward_sequence(GruClassifier& model, const Sequence& seq) {
  ParamStore& ps = model.store();
  const std::size_t hd = model.hidden_dim();
  const std::size_t steps = seq.steps.size();
  struct StepActs {
    std::vector<float> z, r, n, h, s;  // s = Un h_prev + bun
  };
  std::vector<StepActs> acts(steps);
  const std::vector<float> zero_h(hd, 0.0f);

  // ---- Forward pass, caching activations per step. ----
  std::span<const float> h_prev = zero_h;
  for (std::size_t t = 0; t < steps; ++t) {
    StepActs& a = acts[t];
    const auto& x = seq.steps[t];
    a.z.resize(hd);
    a.r.resize(hd);
    a.n.resize(hd);
    a.s.resize(hd);
    a.h.resize(hd);

    matvec(model.wz(), x, a.z);
    matvec_acc(model.uz(), h_prev, a.z);
    axpy(1.0f, model.bz(), a.z);
    for (auto& v : a.z) v = act::sigmoid(v);

    matvec(model.wr(), x, a.r);
    matvec_acc(model.ur(), h_prev, a.r);
    axpy(1.0f, model.br(), a.r);
    for (auto& v : a.r) v = act::sigmoid(v);

    matvec(model.un(), h_prev, a.s);
    axpy(1.0f, model.bun(), a.s);
    matvec(model.wn(), x, a.n);
    axpy(1.0f, model.bn(), a.n);
    for (std::size_t i = 0; i < hd; ++i)
      a.n[i] = act::tanh(a.n[i] + a.r[i] * a.s[i]);

    for (std::size_t i = 0; i < hd; ++i)
      a.h[i] = (1.0f - a.z[i]) * a.n[i] + a.z[i] * h_prev[i];
    h_prev = a.h;
  }

  // ---- Head + loss. ----
  std::vector<float> logits(2), probs(2);
  const StepActs& last = acts[steps - 1];
  model.head(last.h, logits);
  const float loss = softmax_cross_entropy(logits, seq.label, probs);

  std::vector<float> dlogits = probs;
  dlogits[static_cast<std::size_t>(seq.label)] -= 1.0f;
  outer_acc(dlogits, last.h, ps.grad_matrix(kWo));
  axpy(1.0f, dlogits, ps.grad_vector(kBo));

  std::vector<float> dh(hd, 0.0f);
  matvec_transpose_acc(model.wo(), dlogits, dh);

  // ---- BPTT. ----
  std::vector<float> dz(hd), dr(hd), dn(hd), ds(hd), daz(hd), dar(hd),
      dan(hd), dh_prev(hd);
  for (std::size_t ti = steps; ti-- > 0;) {
    const StepActs& a = acts[ti];
    const auto& x = seq.steps[ti];
    std::span<const float> h_before =
        ti == 0 ? std::span<const float>(zero_h)
                : std::span<const float>(acts[ti - 1].h);

    fill(dh_prev, 0.0f);
    for (std::size_t i = 0; i < hd; ++i) {
      dz[i] = dh[i] * (h_before[i] - a.n[i]);
      dn[i] = dh[i] * (1.0f - a.z[i]);
      dh_prev[i] = dh[i] * a.z[i];
    }
    for (std::size_t i = 0; i < hd; ++i) {
      dan[i] = dn[i] * (1.0f - a.n[i] * a.n[i]);
      dr[i] = dan[i] * a.s[i];
      ds[i] = dan[i] * a.r[i];
      daz[i] = dz[i] * a.z[i] * (1.0f - a.z[i]);
      dar[i] = dr[i] * a.r[i] * (1.0f - a.r[i]);
    }

    outer_acc(dan, x, ps.grad_matrix(kWn));
    axpy(1.0f, dan, ps.grad_vector(kBn));
    outer_acc(ds, h_before, ps.grad_matrix(kUn));
    axpy(1.0f, ds, ps.grad_vector(kBun));
    matvec_transpose_acc(model.un(), ds, dh_prev);

    outer_acc(daz, x, ps.grad_matrix(kWz));
    outer_acc(daz, h_before, ps.grad_matrix(kUz));
    axpy(1.0f, daz, ps.grad_vector(kBz));
    matvec_transpose_acc(model.uz(), daz, dh_prev);

    outer_acc(dar, x, ps.grad_matrix(kWr));
    outer_acc(dar, h_before, ps.grad_matrix(kUr));
    axpy(1.0f, dar, ps.grad_vector(kBr));
    matvec_transpose_acc(model.ur(), dar, dh_prev);

    std::swap(dh, dh_prev);
  }
  return loss;
}

/// One epoch of minibatch Adam over the oracle BPTT, with the statements
/// and RNG use of GruClassifier::train_epoch. `adam` must start in the
/// state of the model's own optimizer (fresh for a fresh model).
float oracle_train_epoch(GruClassifier& model, Adam& adam,
                         const std::vector<Sequence>& data,
                         std::size_t batch_size, Xoshiro256& rng) {
  ParamStore& ps = model.store();
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  deterministic_shuffle(order, rng);
  double total_loss = 0.0;
  std::size_t pos = 0;
  while (pos < order.size()) {
    const std::size_t end = std::min(pos + batch_size, order.size());
    ps.zero_grads();
    for (std::size_t i = pos; i < end; ++i)
      total_loss += oracle_backward_sequence(model, data[order[i]]);
    const float inv = 1.0f / static_cast<float>(end - pos);
    for (auto& g : ps.all_grads()) g *= inv;
    adam.step(ps.all_params(), ps.all_grads());
    pos = end;
  }
  return static_cast<float>(total_loss / static_cast<double>(data.size()));
}

/// Index of the first float whose bit pattern differs, or -1.
std::ptrdiff_t first_bit_mismatch(std::span<const float> a,
                                  std::span<const float> b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0)
      return static_cast<std::ptrdiff_t>(i);
  return -1;
}

GruClassifier::Config tiny_cfg(std::size_t input = 4, std::size_t hidden = 6) {
  GruClassifier::Config cfg;
  cfg.input_dim = input;
  cfg.hidden_dim = hidden;
  cfg.seed = 7;
  return cfg;
}

std::vector<float> random_vec(std::size_t n, Xoshiro256& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.next_double());
  return v;
}

TEST(SoftmaxCrossEntropy, MatchesHandComputation) {
  std::vector<float> logits{1.0f, 3.0f};
  std::vector<float> probs(2);
  const float loss = softmax_cross_entropy(logits, 1, probs);
  const float denom = std::exp(1.0f) + std::exp(3.0f);
  EXPECT_NEAR(probs[0], std::exp(1.0f) / denom, 1e-6);
  EXPECT_NEAR(probs[1], std::exp(3.0f) / denom, 1e-6);
  EXPECT_NEAR(loss, -std::log(probs[1]), 1e-6);
}

TEST(GruClassifier, HiddenStateStaysInUnitBall) {
  // h is a convex combination of tanh outputs starting from 0 — the basis
  // for the int8 hidden-state cache (paper §III-C).
  const auto cfg = tiny_cfg(3, 8);
  GruClassifier model(cfg);
  Xoshiro256 rng(3);
  std::vector<float> h(cfg.hidden_dim, 0.0f);
  for (int t = 0; t < 50; ++t) {
    const auto x = random_vec(3, rng);
    model.step(x, h, h);
    for (float v : h) {
      EXPECT_LT(v, 1.0f);
      EXPECT_GT(v, -1.0f);
    }
  }
}

TEST(GruClassifier, IncrementalEqualsFullSequence) {
  // The O(1) cached-hidden-state prediction must equal recomputing the
  // whole sequence (paper §III-C's equivalence).
  const auto cfg = tiny_cfg(5, 9);
  GruClassifier model(cfg);
  Xoshiro256 rng(11);
  std::vector<std::vector<float>> steps;
  std::vector<float> h(cfg.hidden_dim, 0.0f);
  int inc_pred = -1;
  for (int t = 0; t < 12; ++t) {
    steps.push_back(random_vec(5, rng));
    inc_pred = model.predict_incremental(steps.back(), h);
  }
  EXPECT_EQ(model.predict_sequence(steps), inc_pred);
}

TEST(GruClassifier, DeterministicGivenSeed) {
  GruClassifier a(tiny_cfg()), b(tiny_cfg());
  EXPECT_EQ(a.weights(), b.weights());
}

TEST(GruClassifier, WeightRoundTrip) {
  GruClassifier a(tiny_cfg());
  GruClassifier b([] {
    auto c = tiny_cfg();
    c.seed = 999;  // different init
    return c;
  }());
  EXPECT_NE(a.weights(), b.weights());
  b.load_weights(a.weights());
  EXPECT_EQ(a.weights(), b.weights());
  // And they now predict identically.
  Xoshiro256 rng(5);
  for (int i = 0; i < 10; ++i) {
    std::vector<std::vector<float>> seq{random_vec(4, rng), random_vec(4, rng)};
    EXPECT_EQ(a.predict_sequence(seq), b.predict_sequence(seq));
  }
}

TEST(GruClassifier, GradientMatchesFiniteDifferences) {
  // Full BPTT gradient check on a short sequence, through the lane path.
  const auto cfg = tiny_cfg(3, 4);
  GruClassifier model(cfg);
  Xoshiro256 rng(13);
  std::vector<Sequence> data(1);
  Sequence& seq = data[0];
  seq.label = 1;
  for (int t = 0; t < 3; ++t) seq.steps.push_back(random_vec(3, rng));

  model.store().zero_grads();
  const std::size_t idx = 0;
  float batch_loss = 0.0f;
  model.backward_batch(data, {&idx, 1}, {&batch_loss, 1});
  const std::vector<float> analytic(model.store().all_grads().begin(),
                                    model.store().all_grads().end());

  auto loss_at = [&](std::span<float> params, std::size_t i, float delta) {
    const float saved = params[i];
    params[i] = saved + delta;
    std::vector<float> probs(2), logits(2);
    std::vector<float> h(cfg.hidden_dim, 0.0f);
    for (const auto& x : seq.steps) model.step(x, h, h);
    model.head(h, logits);
    const float loss = softmax_cross_entropy(logits, seq.label, probs);
    params[i] = saved;
    return loss;
  };

  auto params = model.store().all_params();
  const float eps = 1e-3f;
  // Probe a deterministic spread of parameters (checking all ~200 is slow
  // and redundant).
  for (std::size_t i = 0; i < params.size(); i += 7) {
    const float up = loss_at(params, i, eps);
    const float down = loss_at(params, i, -eps);
    const float numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic[i], numeric, 2e-2f + 0.05f * std::fabs(numeric))
        << "param index " << i;
  }
}

TEST(GruClassifier, LearnsLinearlySeparableSequences) {
  // Label = 1 iff the last step's first input exceeds 0.5.
  auto cfg = tiny_cfg(4, 8);
  cfg.adam.lr = 5e-3f;
  GruClassifier model(cfg);
  Xoshiro256 rng(17);
  std::vector<Sequence> data;
  for (int i = 0; i < 400; ++i) {
    Sequence s;
    for (int t = 0; t < 4; ++t) s.steps.push_back(random_vec(4, rng));
    s.label = s.steps.back()[0] > 0.5f ? 1 : 0;
    data.push_back(std::move(s));
  }
  Xoshiro256 train_rng(1);
  float loss = 0;
  for (int epoch = 0; epoch < 30; ++epoch)
    loss = model.train_epoch(data, 32, train_rng);
  EXPECT_LT(loss, 0.4f);
  EXPECT_GT(model.evaluate(data), 0.9f);
}

TEST(GruClassifier, LearnsTemporalPattern) {
  // Label depends on an *early* step: requires the recurrence to carry
  // information (the paper's "prolonged historical patterns").
  const auto cfg = tiny_cfg(3, 12);
  GruClassifier model(cfg);
  Xoshiro256 rng(23);
  std::vector<Sequence> data;
  for (int i = 0; i < 600; ++i) {
    Sequence s;
    for (int t = 0; t < 6; ++t) s.steps.push_back(random_vec(3, rng));
    s.label = s.steps.front()[1] > 0.5f ? 1 : 0;
    data.push_back(std::move(s));
  }
  Xoshiro256 train_rng(2);
  for (int epoch = 0; epoch < 60; ++epoch)
    model.train_epoch(data, 32, train_rng);
  EXPECT_GT(model.evaluate(data), 0.85f);
}

TEST(GruClassifier, OracleSegmentIdsMatchAccessors) {
  GruClassifier model(tiny_cfg(3, 5));
  const ParamStore& ps = model.store();
  EXPECT_EQ(ps.param_matrix(kWz).data, model.wz().data);
  EXPECT_EQ(ps.param_matrix(kWr).data, model.wr().data);
  EXPECT_EQ(ps.param_matrix(kWn).data, model.wn().data);
  EXPECT_EQ(ps.param_matrix(kUz).data, model.uz().data);
  EXPECT_EQ(ps.param_matrix(kUr).data, model.ur().data);
  EXPECT_EQ(ps.param_matrix(kUn).data, model.un().data);
  EXPECT_EQ(ps.param_vector(kBz).data(), model.bz().data());
  EXPECT_EQ(ps.param_vector(kBr).data(), model.br().data());
  EXPECT_EQ(ps.param_vector(kBn).data(), model.bn().data());
  EXPECT_EQ(ps.param_vector(kBun).data(), model.bun().data());
  EXPECT_EQ(ps.param_matrix(kWo).data, model.wo().data);
  EXPECT_EQ(ps.param_vector(kBo).data(), model.bo().data());
  EXPECT_EQ(ps.param_vector(kBo).data() + ps.param_vector(kBo).size(),
            ps.all_params().data() + ps.size());
}

/// A training set whose histories are 1-8 steps mixed (`ragged`) or all
/// length 1, the two shapes the trainer produces.
std::vector<Sequence> parity_data(std::size_t n, std::size_t input,
                                  bool ragged, Xoshiro256& rng) {
  std::vector<Sequence> data(n);
  for (auto& s : data) {
    const std::size_t len = ragged ? 1 + rng.next_below(8) : 1;
    for (std::size_t t = 0; t < len; ++t) {
      auto x = random_vec(input, rng);
      for (auto& v : x) v = v * 3.0f - 1.0f;
      s.steps.push_back(std::move(x));
    }
    s.label = static_cast<int>(rng.next_below(2));
  }
  return data;
}

struct ParityCase {
  std::size_t input, hidden, batch;
  bool ragged;
};

std::vector<ParityCase> parity_cases() {
  std::vector<ParityCase> cases;
  for (std::size_t input : {3u, 20u})
    for (std::size_t hidden : {4u, 9u, 32u})
      for (std::size_t batch : {1u, 7u, 32u, 33u, 70u})
        for (bool ragged : {true, false})
          cases.push_back({input, hidden, batch, ragged});
  return cases;
}

std::string describe(const ParityCase& c) {
  return "input " + std::to_string(c.input) + " hidden " +
         std::to_string(c.hidden) + " batch " + std::to_string(c.batch) +
         (c.ragged ? " ragged 1-8" : " all length 1");
}

TEST(GruClassifier, LaneGradientsMatchScalarOracleBitForBit) {
  // One batch, in a shuffled order, from the same weights: the summed
  // gradients and every per-sequence loss must match the oracle's bits,
  // inline and with the batch split into lane and row shards.
  test::inline_then_team([] {
    for (const ParityCase& c : parity_cases()) {
      SCOPED_TRACE(describe(c));
      auto cfg = tiny_cfg(c.input, c.hidden);
      cfg.seed = 100 + c.hidden;
      GruClassifier lane(cfg), oracle(cfg);
      Xoshiro256 rng(c.input * 1000 + c.hidden * 100 + c.batch);
      const auto data = parity_data(c.batch + 5, c.input, c.ragged, rng);
      std::vector<std::size_t> batch(data.size());
      std::iota(batch.begin(), batch.end(), 0);
      deterministic_shuffle(batch, rng);
      batch.resize(c.batch);

      oracle.store().zero_grads();
      std::vector<float> oracle_losses;
      for (std::size_t i : batch)
        oracle_losses.push_back(oracle_backward_sequence(oracle, data[i]));
      lane.store().zero_grads();
      std::vector<float> lane_losses(batch.size());
      lane.backward_batch(data, batch, lane_losses);

      EXPECT_EQ(first_bit_mismatch(lane.store().all_grads(),
                                   oracle.store().all_grads()),
                -1);
      EXPECT_EQ(first_bit_mismatch(lane_losses, oracle_losses), -1);
    }
  });
}

TEST(GruClassifier, LaneTrainingMatchesScalarOracleAfterFiveEpochs) {
  test::inline_then_team([] {
    for (const ParityCase& c : parity_cases()) {
      SCOPED_TRACE(describe(c));
      auto cfg = tiny_cfg(c.input, c.hidden);
      cfg.seed = 200 + c.hidden;
      cfg.adam.lr = 5e-3f;
      GruClassifier lane(cfg), oracle(cfg);
      Adam oracle_adam(oracle.num_params(), cfg.adam);
      Xoshiro256 data_rng(c.input * 1000 + c.hidden * 100 + c.batch + 1);
      const auto data = parity_data(75, c.input, c.ragged, data_rng);
      Xoshiro256 lane_rng(9), oracle_rng(9);
      for (int epoch = 0; epoch < 5; ++epoch) {
        const float lane_loss = lane.train_epoch(data, c.batch, lane_rng);
        const float oracle_loss = oracle_train_epoch(oracle, oracle_adam, data,
                                                     c.batch, oracle_rng);
        EXPECT_EQ(std::memcmp(&lane_loss, &oracle_loss, sizeof(float)), 0)
            << "epoch " << epoch << ": " << lane_loss << " vs " << oracle_loss;
      }
      EXPECT_EQ(first_bit_mismatch(lane.weights(), oracle.weights()), -1);
    }
  });
}

TEST(GruClassifierDeathTest, ZeroBatchSizeIsRejected) {
  GruClassifier model(tiny_cfg());
  Xoshiro256 rng(1);
  const auto data = parity_data(4, 4, true, rng);
  EXPECT_DEATH(model.train_epoch(data, 0, rng), "batch_size");
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize f(w) = sum (w_i - target_i)^2 with Adam.
  const std::size_t n = 8;
  std::vector<float> params(n, 0.0f), grads(n), target(n);
  for (std::size_t i = 0; i < n; ++i)
    target[i] = static_cast<float>(i) * 0.3f - 1.0f;
  AdamConfig cfg;
  cfg.lr = 0.05f;
  Adam adam(n, cfg);
  for (int iter = 0; iter < 800; ++iter) {
    for (std::size_t i = 0; i < n; ++i)
      grads[i] = 2.0f * (params[i] - target[i]);
    adam.step(params, grads);
  }
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(params[i], target[i], 1e-2);
}

}  // namespace
}  // namespace phftl::ml
