#include "ml/gru.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ml/activations.hpp"
#include "ml/kernels.hpp"

namespace phftl::ml {

float softmax_cross_entropy(std::span<const float> logits, int label,
                            std::span<float> probs) {
  PHFTL_CHECK(logits.size() == probs.size());
  std::copy(logits.begin(), logits.end(), probs.begin());
  softmax(probs);
  const float p = probs[static_cast<std::size_t>(label)];
  return -std::log(p > 1e-12f ? p : 1e-12f);
}

GruClassifier::GruClassifier(const Config& cfg)
    : cfg_(cfg),
      adam_(0, cfg.adam),
      wz_(store_.alloc_matrix(cfg.hidden_dim, cfg.input_dim)),
      wr_(store_.alloc_matrix(cfg.hidden_dim, cfg.input_dim)),
      wn_(store_.alloc_matrix(cfg.hidden_dim, cfg.input_dim)),
      uz_(store_.alloc_matrix(cfg.hidden_dim, cfg.hidden_dim)),
      ur_(store_.alloc_matrix(cfg.hidden_dim, cfg.hidden_dim)),
      un_(store_.alloc_matrix(cfg.hidden_dim, cfg.hidden_dim)),
      bz_(store_.alloc_vector(cfg.hidden_dim)),
      br_(store_.alloc_vector(cfg.hidden_dim)),
      bn_(store_.alloc_vector(cfg.hidden_dim)),
      bun_(store_.alloc_vector(cfg.hidden_dim)),
      wo_(store_.alloc_matrix(cfg.num_classes, cfg.hidden_dim)),
      bo_(store_.alloc_vector(cfg.num_classes)) {
  Xoshiro256 rng(cfg.seed);
  for (std::size_t id : {wz_, wr_, wn_, uz_, ur_, un_, wo_})
    store_.init_glorot(id, rng);
  adam_ = Adam(store_.size(), cfg.adam);

  const std::size_t hd = cfg.hidden_dim;
  ws_.z.resize(hd);
  ws_.r.resize(hd);
  ws_.n.resize(hd);
  ws_.s.resize(hd);
  ws_.logits.resize(cfg.num_classes);
  ws_.probs.resize(cfg.num_classes);
  ws_.h_seq.resize(hd);
}

void GruClassifier::step(std::span<const float> x,
                         std::span<const float> h_prev,
                         std::span<float> h_next) const {
  const std::size_t h = cfg_.hidden_dim;
  std::vector<float>&z = ws_.z, &r = ws_.r, &n = ws_.n, &s = ws_.s;

  matvec(store_.param_matrix(wz_), x, z);
  matvec_acc(store_.param_matrix(uz_), h_prev, z);
  axpy(1.0f, store_.param_vector(bz_), z);
  for (auto& v : z) v = act::sigmoid(v);

  matvec(store_.param_matrix(wr_), x, r);
  matvec_acc(store_.param_matrix(ur_), h_prev, r);
  axpy(1.0f, store_.param_vector(br_), r);
  for (auto& v : r) v = act::sigmoid(v);

  matvec(store_.param_matrix(un_), h_prev, s);
  axpy(1.0f, store_.param_vector(bun_), s);
  matvec(store_.param_matrix(wn_), x, n);
  axpy(1.0f, store_.param_vector(bn_), n);
  for (std::size_t i = 0; i < h; ++i) n[i] = act::tanh(n[i] + r[i] * s[i]);

  for (std::size_t i = 0; i < h; ++i)
    h_next[i] = (1.0f - z[i]) * n[i] + z[i] * h_prev[i];
}

void GruClassifier::head(std::span<const float> h,
                         std::span<float> logits) const {
  matvec(store_.param_matrix(wo_), h, logits);
  axpy(1.0f, store_.param_vector(bo_), logits);
}

int GruClassifier::predict_sequence(
    const std::vector<std::vector<float>>& steps) const {
  std::vector<float>& h = ws_.h_seq;
  fill(h, 0.0f);
  for (const auto& x : steps) step(x, h, h);
  std::vector<float>& logits = ws_.logits;
  head(h, logits);
  return static_cast<int>(
      std::max_element(logits.begin(), logits.end()) - logits.begin());
}

int GruClassifier::predict_incremental(std::span<const float> x,
                                       std::span<float> h_inout) const {
  step(x, h_inout, h_inout);
  std::vector<float>& logits = ws_.logits;
  head(h_inout, logits);
  return static_cast<int>(
      std::max_element(logits.begin(), logits.end()) - logits.begin());
}

// ---- Lane-batched BPTT ----
//
// A minibatch runs as SIMD lanes, one sequence per lane, in lockstep over
// time steps. The vectorization is across sequences, never across a
// reduction, so each lane performs exactly the float operations of scalar
// per-sequence BPTT (the oracle in tests/test_ml_gru.cpp), in the same
// order:
//  * Sequences are right-aligned: with T the chunk's longest length, lane l
//    is active from step first[l] = T - len(l) to T - 1. Its hidden state is
//    held at +0.0 before first[l], which is the scalar zero initial state,
//    so every lane reaches the head at step T - 1.
//  * Matrix products use the lane kernels in ml/kernels.hpp, which keep the
//    scalar loops' summation order and zero-gradient skips. Gates activate
//    whole tiles through ml/activations.hpp, whose array path is
//    bit-identical to the scalar sigmoid/tanh, and multiply and add stay
//    separate.
//  * Weight gradients are accumulated only after the chunk's backward pass,
//    in the scalar order — sequence by sequence, steps descending — because
//    float addition into a shared gradient is order-sensitive.
// Lanes beyond the batch and steps before first[l] compute values nobody
// reads.

namespace {

/// Lanes per pass: the trainer's batch size. Larger batches run as
/// successive chunks; at hidden 32 and history 8 one chunk's tiles are
/// ~0.3 MB.
constexpr std::size_t kMaxLanes = 32;

void grow(std::vector<float>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
}

}  // namespace

void GruClassifier::backward_batch(const std::vector<Sequence>& data,
                                   std::span<const std::size_t> batch,
                                   std::span<float> losses) {
  PHFTL_CHECK(losses.size() == batch.size());
  for (std::size_t pos = 0; pos < batch.size(); pos += kMaxLanes) {
    const std::size_t n = std::min(kMaxLanes, batch.size() - pos);
    backward_lanes(data, batch.subspan(pos, n), losses.subspan(pos, n));
  }
}

void GruClassifier::backward_lanes(const std::vector<Sequence>& data,
                                   std::span<const std::size_t> batch,
                                   std::span<float> losses) {
  const std::size_t in = cfg_.input_dim, hd = cfg_.hidden_dim;
  const std::size_t nc = cfg_.num_classes, nb = batch.size();
  const std::size_t lanes = kernels::padded_lanes(nb);
  const std::size_t ht = hd * lanes;  // one step's [unit][lane] tile
  LaneTiles& t = ws_.lane;

  std::size_t steps = 0;
  for (std::size_t i : batch) {
    PHFTL_CHECK(i < data.size() && !data[i].steps.empty());
    PHFTL_CHECK(data[i].label >= 0 &&
                static_cast<std::size_t>(data[i].label) < nc);
    steps = std::max(steps, data[i].steps.size());
  }
  t.first.assign(lanes, steps);  // padding lanes are never active
  for (std::size_t l = 0; l < nb; ++l)
    t.first[l] = steps - data[batch[l]].steps.size();

  grow(t.x, steps * in * lanes);
  for (auto* v : {&t.z, &t.r, &t.n, &t.s, &t.h, &t.dan, &t.ds, &t.daz, &t.dar})
    grow(*v, steps * ht);
  grow(t.h_rows, nb * steps * hd);
  for (auto* v : {&t.u, &t.dh, &t.dh_prev, &t.zero}) grow(*v, ht);
  grow(t.logits, nc * lanes);
  grow(t.dlogits, nc * lanes);

  std::fill_n(t.x.begin(), steps * in * lanes, 0.0f);
  for (std::size_t l = 0; l < nb; ++l) {
    const auto& seq = data[batch[l]].steps;
    for (std::size_t j = 0; j < seq.size(); ++j) {
      PHFTL_CHECK(seq[j].size() == in);
      float* x = &t.x[(t.first[l] + j) * in * lanes + l];
      for (std::size_t c = 0; c < in; ++c) x[c * lanes] = seq[j][c];
    }
  }

  const float* wz = store_.param_matrix(wz_).data;
  const float* wr = store_.param_matrix(wr_).data;
  const float* wn = store_.param_matrix(wn_).data;
  const float* uz = store_.param_matrix(uz_).data;
  const float* ur = store_.param_matrix(ur_).data;
  const float* un = store_.param_matrix(un_).data;
  const float* wo = store_.param_matrix(wo_).data;
  const float* bz = store_.param_vector(bz_).data();
  const float* br = store_.param_vector(br_).data();
  const float* bn = store_.param_vector(bn_).data();
  const float* bun = store_.param_vector(bun_).data();
  const float* bo = store_.param_vector(bo_).data();

  // Lanes not yet active at step st hold zeros in every activation tile.
  // With z = n = 0 and a zero h_prev, the hidden-state update below leaves
  // them at +0.0, the scalar zero initial state.
  auto zero_inactive = [&](float* tile, std::size_t st) {
    for (std::size_t l = 0; l < lanes; ++l)
      if (st < t.first[l])
        for (std::size_t i = 0; i < hd; ++i) tile[i * lanes + l] = 0.0f;
  };

  // sigmoid((W x + U h_prev) + b), the z and r gates of step().
  auto gate = [&](const float* w, const float* u, const float* b,
                  const float* x, const float* hp, std::size_t st,
                  float* out) {
    std::fill_n(out, ht, 0.0f);
    kernels::lane_gemv(w, hd, in, x, lanes, out);
    std::fill_n(t.u.begin(), ht, 0.0f);
    kernels::lane_gemv(u, hd, hd, hp, lanes, t.u.data());
    for (std::size_t i = 0; i < hd; ++i)
      for (std::size_t l = 0; l < lanes; ++l) {
        float& v = out[i * lanes + l];
        v = (v + t.u[i * lanes + l]) + b[i];
      }
    act::sigmoid_inplace(out, ht);
    zero_inactive(out, st);
  };

  // ---- Forward pass, all lanes in lockstep. ----
  for (std::size_t st = 0; st < steps; ++st) {
    const float* x = &t.x[st * in * lanes];
    const float* hp = st ? &t.h[(st - 1) * ht] : t.zero.data();
    float* z = &t.z[st * ht];
    float* r = &t.r[st * ht];
    float* n = &t.n[st * ht];
    float* s = &t.s[st * ht];
    float* h = &t.h[st * ht];
    gate(wz, uz, bz, x, hp, st, z);
    gate(wr, ur, br, x, hp, st, r);
    std::fill_n(s, ht, 0.0f);
    kernels::lane_gemv(un, hd, hd, hp, lanes, s);
    std::fill_n(n, ht, 0.0f);
    kernels::lane_gemv(wn, hd, in, x, lanes, n);
    for (std::size_t i = 0; i < hd; ++i)
      for (std::size_t l = 0; l < lanes; ++l) {
        const std::size_t e = i * lanes + l;
        s[e] += bun[i];
        n[e] = (n[e] + bn[i]) + r[e] * s[e];
      }
    act::tanh_inplace(n, ht);
    zero_inactive(n, st);
    for (std::size_t e = 0; e < ht; ++e)
      h[e] = (1.0f - z[e]) * n[e] + z[e] * hp[e];
    for (std::size_t l = 0; l < nb; ++l)
      for (std::size_t i = 0; i < hd; ++i)
        t.h_rows[(l * steps + st) * hd + i] = h[i * lanes + l];
  }

  // ---- Head + loss, per lane. ----
  const float* h_last = &t.h[(steps - 1) * ht];
  std::fill_n(t.logits.begin(), nc * lanes, 0.0f);
  kernels::lane_gemv(wo, nc, hd, h_last, lanes, t.logits.data());
  std::fill_n(t.dlogits.begin(), nc * lanes, 0.0f);
  for (std::size_t l = 0; l < nb; ++l) {
    for (std::size_t c = 0; c < nc; ++c)
      ws_.logits[c] = t.logits[c * lanes + l] + bo[c];
    const int label = data[batch[l]].label;
    losses[l] = softmax_cross_entropy(ws_.logits, label, ws_.probs);
    // dlogits = probs - onehot(label)
    for (std::size_t c = 0; c < nc; ++c)
      t.dlogits[c * lanes + l] = ws_.probs[c];
    t.dlogits[static_cast<std::size_t>(label) * lanes + l] -= 1.0f;
  }
  std::fill_n(t.dh.begin(), ht, 0.0f);
  kernels::lane_gemv_t_masked(wo, nc, hd, t.dlogits.data(), lanes,
                              t.dh.data());

  // ---- BPTT, all lanes in lockstep. ----
  for (std::size_t st = steps; st-- > 0;) {
    const float* hb = st ? &t.h[(st - 1) * ht] : t.zero.data();
    const float* z = &t.z[st * ht];
    const float* r = &t.r[st * ht];
    const float* n = &t.n[st * ht];
    const float* s = &t.s[st * ht];
    float* dan = &t.dan[st * ht];
    float* ds = &t.ds[st * ht];
    float* daz = &t.daz[st * ht];
    float* dar = &t.dar[st * ht];
    const float* dh = t.dh.data();
    float* dh_prev = t.dh_prev.data();
    for (std::size_t e = 0; e < ht; ++e) {
      const float dz = dh[e] * (hb[e] - n[e]);
      const float dn = dh[e] * (1.0f - z[e]);
      dh_prev[e] = dh[e] * z[e];
      dan[e] = dn * (1.0f - n[e] * n[e]);
      const float dr = dan[e] * s[e];
      ds[e] = dan[e] * r[e];
      daz[e] = dz * z[e] * (1.0f - z[e]);
      dar[e] = dr * r[e] * (1.0f - r[e]);
    }
    kernels::lane_gemv_t_masked(un, hd, hd, ds, lanes, dh_prev);
    kernels::lane_gemv_t_masked(uz, hd, hd, daz, lanes, dh_prev);
    kernels::lane_gemv_t_masked(ur, hd, hd, dar, lanes, dh_prev);
    std::swap(t.dh, t.dh_prev);
  }

  // ---- Weight gradients in scalar order: lane by lane, steps descending.
  // Update k reads gate gradients at tile offset off[k] (rows `lanes`
  // apart) with input xs[k] and previous hidden state hs[k].
  t.off.clear();
  t.xs.clear();
  t.hs.clear();
  for (std::size_t l = 0; l < nb; ++l) {
    const auto& seq = data[batch[l]].steps;
    const std::size_t first = t.first[l];
    for (std::size_t st = steps; st-- > first;) {
      t.off.push_back(st * ht + l);
      t.xs.push_back(seq[st - first].data());
      t.hs.push_back(st > first ? &t.h_rows[(l * steps + st - 1) * hd]
                                : t.zero.data());
    }
  }
  const std::size_t count = t.off.size();
  auto weight_grad = [&](const std::vector<float>& g,
                         const std::vector<const float*>& in_vecs,
                         std::size_t cols, std::size_t seg) {
    kernels::outer_acc_batch(g.data(), t.off.data(), lanes, in_vecs.data(),
                             count, hd, cols, store_.grad_matrix(seg).data);
  };
  // axpy(1, g_k, bias) for each update k, in order.
  auto bias_grad = [&](const float* g, const std::size_t* off,
                       std::size_t updates, std::size_t rows,
                       std::size_t seg) {
    float* gb = store_.grad_vector(seg).data();
    for (std::size_t k = 0; k < updates; ++k)
      for (std::size_t i = 0; i < rows; ++i) gb[i] += g[off[k] + i * lanes];
  };

  // Head: one update per lane, dlogits against the last hidden state.
  t.head_off.resize(nb);
  t.head_h.resize(nb);
  for (std::size_t l = 0; l < nb; ++l) {
    t.head_off[l] = l;
    t.head_h[l] = &t.h_rows[(l * steps + steps - 1) * hd];
  }
  kernels::outer_acc_batch(t.dlogits.data(), t.head_off.data(), lanes,
                           t.head_h.data(), nb, nc, hd,
                           store_.grad_matrix(wo_).data);
  bias_grad(t.dlogits.data(), t.head_off.data(), nb, nc, bo_);

  weight_grad(t.dan, t.xs, in, wn_);
  bias_grad(t.dan.data(), t.off.data(), count, hd, bn_);
  weight_grad(t.ds, t.hs, hd, un_);
  bias_grad(t.ds.data(), t.off.data(), count, hd, bun_);
  weight_grad(t.daz, t.xs, in, wz_);
  weight_grad(t.daz, t.hs, hd, uz_);
  bias_grad(t.daz.data(), t.off.data(), count, hd, bz_);
  weight_grad(t.dar, t.xs, in, wr_);
  weight_grad(t.dar, t.hs, hd, ur_);
  bias_grad(t.dar.data(), t.off.data(), count, hd, br_);
}

float GruClassifier::train_epoch(const std::vector<Sequence>& data,
                                 std::size_t batch_size, Xoshiro256& rng) {
  PHFTL_CHECK_MSG(batch_size > 0, "training batch_size must be positive");
  if (data.empty()) return 0.0f;
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  deterministic_shuffle(order, rng);

  std::vector<float> losses(data.size());
  double total_loss = 0.0;
  std::size_t pos = 0;
  while (pos < order.size()) {
    const std::size_t end = std::min(pos + batch_size, order.size());
    store_.zero_grads();
    backward_batch(data, std::span(order).subspan(pos, end - pos),
                   std::span(losses).subspan(pos, end - pos));
    for (std::size_t i = pos; i < end; ++i) total_loss += losses[i];
    // Average the batch gradient.
    const float inv = 1.0f / static_cast<float>(end - pos);
    for (auto& g : store_.all_grads()) g *= inv;
    adam_.step(store_.all_params(), store_.all_grads());
    pos = end;
  }
  return static_cast<float>(total_loss / static_cast<double>(data.size()));
}

float GruClassifier::evaluate(const std::vector<Sequence>& data) const {
  if (data.empty()) return 0.0f;
  std::size_t correct = 0;
  for (const auto& s : data)
    if (predict_sequence(s.steps) == s.label) ++correct;
  return static_cast<float>(correct) / static_cast<float>(data.size());
}

}  // namespace phftl::ml
