#include "ml/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ml/gru.hpp"  // softmax_cross_entropy

namespace phftl::ml {

MlpClassifier::MlpClassifier(const Config& cfg)
    : cfg_(cfg),
      adam_(0, cfg.adam),
      w1_(store_.alloc_matrix(cfg.hidden_dim, cfg.input_dim)),
      b1_(store_.alloc_vector(cfg.hidden_dim)),
      w2_(store_.alloc_matrix(cfg.num_classes, cfg.hidden_dim)),
      b2_(store_.alloc_vector(cfg.num_classes)) {
  Xoshiro256 rng(cfg.seed);
  store_.init_glorot(w1_, rng);
  store_.init_glorot(w2_, rng);
  adam_ = Adam(store_.size(), cfg.adam);
}

void MlpClassifier::logits(std::span<const float> x,
                           std::span<float> out) const {
  PHFTL_CHECK(x.size() == cfg_.input_dim && out.size() == cfg_.num_classes);
  std::vector<float> h(cfg_.hidden_dim);
  matvec(store_.param_matrix(w1_), x, h);
  axpy(1.0f, store_.param_vector(b1_), h);
  for (auto& v : h) v = v > 0.0f ? v : 0.0f;  // ReLU
  matvec(store_.param_matrix(w2_), h, out);
  axpy(1.0f, store_.param_vector(b2_), out);
}

int MlpClassifier::predict(std::span<const float> x) const {
  std::vector<float> out(cfg_.num_classes);
  logits(x, out);
  return static_cast<int>(std::max_element(out.begin(), out.end()) -
                          out.begin());
}

float MlpClassifier::backward(std::span<const float> x, int label) {
  PHFTL_CHECK(x.size() == cfg_.input_dim);
  std::vector<float> a1(cfg_.hidden_dim), h(cfg_.hidden_dim);
  matvec(store_.param_matrix(w1_), x, a1);
  axpy(1.0f, store_.param_vector(b1_), a1);
  for (std::size_t i = 0; i < h.size(); ++i) h[i] = a1[i] > 0 ? a1[i] : 0;

  std::vector<float> out(cfg_.num_classes), probs(cfg_.num_classes);
  matvec(store_.param_matrix(w2_), h, out);
  axpy(1.0f, store_.param_vector(b2_), out);
  const float loss = softmax_cross_entropy(out, label, probs);

  std::vector<float> dlogits = probs;
  dlogits[static_cast<std::size_t>(label)] -= 1.0f;
  outer_acc(dlogits, h, store_.grad_matrix(w2_));
  axpy(1.0f, dlogits, store_.grad_vector(b2_));

  std::vector<float> dh(cfg_.hidden_dim, 0.0f);
  matvec_transpose_acc(store_.param_matrix(w2_), dlogits, dh);
  for (std::size_t i = 0; i < dh.size(); ++i)
    if (a1[i] <= 0.0f) dh[i] = 0.0f;  // ReLU gate
  outer_acc(dh, x, store_.grad_matrix(w1_));
  axpy(1.0f, dh, store_.grad_vector(b1_));
  return loss;
}

float MlpClassifier::train_epoch(
    const std::vector<std::vector<float>>& features,
    const std::vector<int>& labels, std::size_t batch_size, Xoshiro256& rng) {
  PHFTL_CHECK(features.size() == labels.size());
  PHFTL_CHECK_MSG(batch_size > 0, "training batch_size must be positive");
  if (features.empty()) return 0.0f;
  std::vector<std::size_t> order(features.size());
  std::iota(order.begin(), order.end(), 0);
  deterministic_shuffle(order, rng);

  double total = 0.0;
  std::size_t pos = 0;
  while (pos < order.size()) {
    const std::size_t end = std::min(pos + batch_size, order.size());
    store_.zero_grads();
    for (std::size_t i = pos; i < end; ++i)
      total += backward(features[order[i]], labels[order[i]]);
    const float inv = 1.0f / static_cast<float>(end - pos);
    for (auto& g : store_.all_grads()) g *= inv;
    adam_.step(store_.all_params(), store_.all_grads());
    pos = end;
  }
  return static_cast<float>(total / static_cast<double>(features.size()));
}

float MlpClassifier::evaluate(const std::vector<std::vector<float>>& features,
                              const std::vector<int>& labels) const {
  PHFTL_CHECK(features.size() == labels.size());
  if (features.empty()) return 0.0f;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < features.size(); ++i)
    if (predict(features[i]) == labels[i]) ++correct;
  return static_cast<float>(correct) / static_cast<float>(features.size());
}

}  // namespace phftl::ml
