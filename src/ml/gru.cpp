#include "ml/gru.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
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
//
// A chunk runs as two phases on the process-wide util::Team:
//  * Phase A, lane shards. Lanes are independent, so groups of 8 lanes can
//    go to different threads: each shard owns a cache-line-aligned block
//    of tiles in one arena and runs the forward pass, head, loss and BPTT
//    for its lanes. All shards share one tile width, so a gate gradient of
//    any lane sits at one offset from shard 0's tile, rows `lanes` apart.
//  * Serially, the ordered update list (lane by lane, steps descending).
//  * Phase B, row shards. A weight-gradient element depends only on its own
//    row, so blocks of 8 hidden-unit rows of every gate matrix and bias go
//    to different threads; shard 0 also owns the head. Each shard applies
//    the whole update list to its rows in order, then, when training,
//    scales them by 1/batch and takes Adam's step on exactly them.
// A phase uses min(team width, work units) shards. With one shard (no team,
// or running inline) this is the unsharded computation with 32-lane tiles;
// with more, every float is the same, since no add changes order.

namespace {

/// Lanes per pass: the trainer's batch size. Larger batches run as
/// successive chunks; at hidden 32 and history 8 one chunk's tiles are
/// ~0.3 MB.
constexpr std::size_t kMaxLanes = 32;
/// Hidden-unit rows per phase-B work unit.
constexpr std::size_t kRowUnit = 8;
/// Floats per cache line: the arena aligns every tile to one.
constexpr std::size_t kLineFloats = 64 / sizeof(float);

constexpr std::size_t round_to_line(std::size_t n) {
  return (n + kLineFloats - 1) / kLineFloats * kLineFloats;
}

}  // namespace

void GruClassifier::backward_batch(std::span<const Sequence> data,
                                   std::span<const std::size_t> batch,
                                   std::span<float> losses) {
  const util::Team::Lease lease;
  accumulate(data, batch, losses, lease, std::nullopt);
}

void GruClassifier::accumulate(std::span<const Sequence> data,
                               std::span<const std::size_t> batch,
                               std::span<float> losses,
                               const util::Team::Lease& lease,
                               std::optional<float> adam_scale) {
  PHFTL_CHECK(losses.size() == batch.size());
  const std::size_t row_units =
      (cfg_.hidden_dim + kRowUnit - 1) / kRowUnit;
  const std::size_t row_shards = std::min(lease.width(), row_units);
  for (std::size_t pos = 0; pos < batch.size(); pos += kMaxLanes) {
    const std::size_t n = std::min(kMaxLanes, batch.size() - pos);
    const auto chunk = batch.subspan(pos, n);
    const auto chunk_losses = losses.subspan(pos, n);
    lease.run(layout_chunk(data, chunk, lease.width()), [&](std::size_t s) {
      lane_shard(data, chunk, chunk_losses, s);
    });
    order_updates(data, chunk);
    const bool last = pos + n == batch.size();
    if (last && adam_scale) adam_.begin_step();
    lease.run(row_shards, [&](std::size_t s) {
      row_shard(s, row_shards, n, last ? adam_scale : std::nullopt);
    });
  }
}

std::size_t GruClassifier::layout_chunk(std::span<const Sequence> data,
                                        std::span<const std::size_t> chunk,
                                        std::size_t width) {
  const std::size_t in = cfg_.input_dim, hd = cfg_.hidden_dim;
  const std::size_t nc = cfg_.num_classes, nb = chunk.size();
  LaneTiles& t = ws_.lane;

  std::size_t steps = 0;
  for (std::size_t i : chunk) {
    PHFTL_CHECK(i < data.size() && !data[i].steps.empty());
    PHFTL_CHECK(data[i].label >= 0 &&
                static_cast<std::size_t>(data[i].label) < nc);
    for (const auto& x : data[i].steps) PHFTL_CHECK(x.size() == in);
    steps = std::max(steps, data[i].steps.size());
  }

  // Equal shards of whole 8-lane groups; the last may hold padding lanes.
  const std::size_t units = kernels::padded_lanes(nb) / kernels::kFloatLanes;
  const std::size_t per = (units + std::min(width, units) - 1) /
                          std::min(width, units);
  t.steps = steps;
  t.lanes = per * kernels::kFloatLanes;
  t.shards = (units + per - 1) / per;
  t.first.assign(t.shards * t.lanes, steps);  // padding lanes never active
  for (std::size_t l = 0; l < nb; ++l)
    t.first[l] = steps - data[chunk[l]].steps.size();

  const std::size_t ht = hd * t.lanes;
  std::array<std::size_t, kTiles> size{};
  size[kX] = steps * in * t.lanes;
  for (Tile k : {kZ, kR, kN, kS, kH, kDan, kDs, kDaz, kDar, kHRows})
    size[k] = steps * ht;
  for (Tile k : {kU, kDh, kDhPrev, kZero}) size[k] = ht;
  size[kLogits] = size[kDlogits] = nc * t.lanes;
  size[kLg] = size[kProbs] = nc;
  // A spare line after each tile keeps tiles from sharing an address
  // modulo 4 KiB, where one statement's loads and stores would alias.
  t.block = 0;
  for (std::size_t k = 0; k < kTiles; ++k) {
    t.at[k] = t.block;
    t.block += round_to_line(size[k]) + kLineFloats;
  }
  const std::size_t need = t.shards * t.block + kLineFloats;
  if (t.arena.size() < need) t.arena.resize(need);
  const auto addr = reinterpret_cast<std::uintptr_t>(t.arena.data());
  t.base = t.arena.data() + (64 - addr % 64) % 64 / sizeof(float);
  return t.shards;
}

void GruClassifier::lane_shard(std::span<const Sequence> data,
                               std::span<const std::size_t> chunk,
                               std::span<float> losses, std::size_t shard) {
  const std::size_t in = cfg_.input_dim, hd = cfg_.hidden_dim;
  const std::size_t nc = cfg_.num_classes;
  LaneTiles& t = ws_.lane;
  const std::size_t lanes = t.lanes, steps = t.steps;
  const std::size_t ht = hd * lanes;  // one step's [unit][lane] tile
  const std::size_t l0 = shard * lanes;
  const std::size_t nb = std::min(lanes, chunk.size() - l0);  // real lanes
  const std::size_t* first = t.first.data() + l0;
  float* const tx = t.tile(shard, kX);
  float* const tz = t.tile(shard, kZ);
  float* const tr = t.tile(shard, kR);
  float* const tn = t.tile(shard, kN);
  float* const ts = t.tile(shard, kS);
  float* const th = t.tile(shard, kH);
  float* const h_rows = t.tile(shard, kHRows);
  float* const u = t.tile(shard, kU);
  float* const zero = t.tile(shard, kZero);
  float* const logits = t.tile(shard, kLogits);
  float* const dlogits = t.tile(shard, kDlogits);
  float* const lg = t.tile(shard, kLg);
  float* const probs = t.tile(shard, kProbs);
  float* dh = t.tile(shard, kDh);
  float* dh_prev = t.tile(shard, kDhPrev);

  std::fill_n(zero, ht, 0.0f);
  std::fill_n(tx, steps * in * lanes, 0.0f);
  for (std::size_t l = 0; l < nb; ++l) {
    const auto& seq = data[chunk[l0 + l]].steps;
    for (std::size_t j = 0; j < seq.size(); ++j) {
      float* x = &tx[(first[l] + j) * in * lanes + l];
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
      if (st < first[l])
        for (std::size_t i = 0; i < hd; ++i) tile[i * lanes + l] = 0.0f;
  };

  // sigmoid((W x + U h_prev) + b), the z and r gates of step().
  auto gate = [&](const float* w, const float* uw, const float* b,
                  const float* x, const float* hp, std::size_t st,
                  float* out) {
    std::fill_n(out, ht, 0.0f);
    kernels::lane_gemv(w, hd, in, x, lanes, out);
    std::fill_n(u, ht, 0.0f);
    kernels::lane_gemv(uw, hd, hd, hp, lanes, u);
    for (std::size_t i = 0; i < hd; ++i)
      for (std::size_t l = 0; l < lanes; ++l) {
        float& v = out[i * lanes + l];
        v = (v + u[i * lanes + l]) + b[i];
      }
    act::sigmoid_inplace(out, ht);
    zero_inactive(out, st);
  };

  // ---- Forward pass, all lanes in lockstep. ----
  for (std::size_t st = 0; st < steps; ++st) {
    const float* x = &tx[st * in * lanes];
    const float* hp = st ? &th[(st - 1) * ht] : zero;
    float* z = &tz[st * ht];
    float* r = &tr[st * ht];
    float* n = &tn[st * ht];
    float* s = &ts[st * ht];
    float* h = &th[st * ht];
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
        h_rows[(l * steps + st) * hd + i] = h[i * lanes + l];
  }

  // ---- Head + loss, per lane. ----
  const float* h_last = &th[(steps - 1) * ht];
  std::fill_n(logits, nc * lanes, 0.0f);
  kernels::lane_gemv(wo, nc, hd, h_last, lanes, logits);
  std::fill_n(dlogits, nc * lanes, 0.0f);
  for (std::size_t l = 0; l < nb; ++l) {
    for (std::size_t c = 0; c < nc; ++c) lg[c] = logits[c * lanes + l] + bo[c];
    const int label = data[chunk[l0 + l]].label;
    losses[l0 + l] = softmax_cross_entropy(std::span<const float>(lg, nc),
                                           label, std::span<float>(probs, nc));
    // dlogits = probs - onehot(label)
    for (std::size_t c = 0; c < nc; ++c) dlogits[c * lanes + l] = probs[c];
    dlogits[static_cast<std::size_t>(label) * lanes + l] -= 1.0f;
  }
  std::fill_n(dh, ht, 0.0f);
  kernels::lane_gemv_t_masked(wo, nc, hd, dlogits, lanes, dh);

  // ---- BPTT, all lanes in lockstep. ----
  for (std::size_t st = steps; st-- > 0;) {
    const float* hb = st ? &th[(st - 1) * ht] : zero;
    const float* z = &tz[st * ht];
    const float* r = &tr[st * ht];
    const float* n = &tn[st * ht];
    const float* s = &ts[st * ht];
    float* dan = t.tile(shard, kDan) + st * ht;
    float* ds = t.tile(shard, kDs) + st * ht;
    float* daz = t.tile(shard, kDaz) + st * ht;
    float* dar = t.tile(shard, kDar) + st * ht;
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
    std::swap(dh, dh_prev);
  }
}

void GruClassifier::order_updates(std::span<const Sequence> data,
                                  std::span<const std::size_t> chunk) {
  // Update k reads gate gradients at offset off[k] from shard 0's tile
  // (rows `lanes` apart) with input xs[k] and previous hidden state hs[k];
  // the head's update for lane l reads dlogits at head_off[l].
  LaneTiles& t = ws_.lane;
  const std::size_t hd = cfg_.hidden_dim, lanes = t.lanes, steps = t.steps;
  const float* zero = t.tile(0, kZero);
  t.off.clear();
  t.xs.clear();
  t.hs.clear();
  t.head_off.clear();
  t.head_h.clear();
  for (std::size_t l = 0; l < chunk.size(); ++l) {
    const std::size_t shard = l / lanes, lane = l % lanes;
    const auto& seq = data[chunk[l]].steps;
    const std::size_t first = t.first[l];
    const float* rows = t.tile(shard, kHRows) + lane * steps * hd;
    for (std::size_t st = steps; st-- > first;) {
      t.off.push_back(shard * t.block + st * hd * lanes + lane);
      t.xs.push_back(seq[st - first].data());
      t.hs.push_back(st > first ? rows + (st - 1) * hd : zero);
    }
    t.head_off.push_back(shard * t.block + lane);
    t.head_h.push_back(rows + (steps - 1) * hd);
  }
}

void GruClassifier::row_shard(std::size_t shard, std::size_t shards,
                              std::size_t nb,
                              std::optional<float> adam_scale) {
  const std::size_t in = cfg_.input_dim, hd = cfg_.hidden_dim;
  const std::size_t nc = cfg_.num_classes;
  LaneTiles& t = ws_.lane;
  const std::size_t lanes = t.lanes, count = t.off.size();
  const std::size_t units = (hd + kRowUnit - 1) / kRowUnit;
  const std::size_t r0 = std::min(hd, shard * units / shards * kRowUnit);
  const std::size_t r1 = std::min(hd, (shard + 1) * units / shards * kRowUnit);
  const std::size_t rows = r1 - r0;

  auto weight_grad = [&](Tile g, const std::vector<const float*>& in_vecs,
                         std::size_t cols, std::size_t seg) {
    kernels::outer_acc_batch(t.tile(0, g) + r0 * lanes, t.off.data(), lanes,
                             in_vecs.data(), count, rows, cols,
                             store_.grad_matrix(seg).data + r0 * cols);
  };
  // axpy(1, g_k, bias) for each update k, in order, on rows [0, n).
  auto bias_grad = [&](const float* g, const std::size_t* off,
                       std::size_t updates, std::size_t n, float* gb) {
    for (std::size_t k = 0; k < updates; ++k)
      for (std::size_t i = 0; i < n; ++i) gb[i] += g[off[k] + i * lanes];
  };
  auto gate_bias = [&](Tile g, std::size_t seg) {
    bias_grad(t.tile(0, g) + r0 * lanes, t.off.data(), count, rows,
              store_.grad_vector(seg).data() + r0);
  };

  if (shard == 0) {
    // Head: one update per lane, dlogits against the last hidden state.
    kernels::outer_acc_batch(t.tile(0, kDlogits), t.head_off.data(), lanes,
                             t.head_h.data(), nb, nc, hd,
                             store_.grad_matrix(wo_).data);
    bias_grad(t.tile(0, kDlogits), t.head_off.data(), nb, nc,
              store_.grad_vector(bo_).data());
  }
  weight_grad(kDan, t.xs, in, wn_);
  gate_bias(kDan, bn_);
  weight_grad(kDs, t.hs, hd, un_);
  gate_bias(kDs, bun_);
  weight_grad(kDaz, t.xs, in, wz_);
  weight_grad(kDaz, t.hs, hd, uz_);
  gate_bias(kDaz, bz_);
  weight_grad(kDar, t.xs, in, wr_);
  weight_grad(kDar, t.hs, hd, ur_);
  gate_bias(kDar, br_);

  if (!adam_scale) return;
  // Average the batch gradient and step, on exactly this shard's elements.
  const std::span<float> params = store_.all_params();
  const std::span<float> grads = store_.all_grads();
  auto step = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) grads[i] *= *adam_scale;
    adam_.update(params, grads, begin, end);
  };
  for (std::size_t seg : {wz_, wr_, wn_})
    step(store_.offset(seg) + r0 * in, store_.offset(seg) + r1 * in);
  for (std::size_t seg : {uz_, ur_, un_})
    step(store_.offset(seg) + r0 * hd, store_.offset(seg) + r1 * hd);
  for (std::size_t seg : {bz_, br_, bn_, bun_})
    step(store_.offset(seg) + r0, store_.offset(seg) + r1);
  if (shard == 0)
    for (std::size_t seg : {wo_, bo_})
      step(store_.offset(seg),
           store_.offset(seg) + store_.param_matrix(seg).size());
}

float GruClassifier::train_epoch(std::span<const Sequence> data,
                                 std::size_t batch_size, Xoshiro256& rng) {
  PHFTL_CHECK_MSG(batch_size > 0, "training batch_size must be positive");
  if (data.empty()) return 0.0f;
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  deterministic_shuffle(order, rng);

  const util::Team::Lease lease;
  std::vector<float> losses(data.size());
  double total_loss = 0.0;
  std::size_t pos = 0;
  while (pos < order.size()) {
    const std::size_t end = std::min(pos + batch_size, order.size());
    store_.zero_grads();
    accumulate(data, std::span(order).subspan(pos, end - pos),
               std::span(losses).subspan(pos, end - pos), lease,
               1.0f / static_cast<float>(end - pos));
    for (std::size_t i = pos; i < end; ++i) total_loss += losses[i];
    pos = end;
  }
  return static_cast<float>(total_loss / static_cast<double>(data.size()));
}

float GruClassifier::evaluate(std::span<const Sequence> data) const {
  if (data.empty()) return 0.0f;
  std::size_t correct = 0;
  for (const auto& s : data)
    if (predict_sequence(s.steps) == s.label) ++correct;
  return static_cast<float>(correct) / static_cast<float>(data.size());
}

}  // namespace phftl::ml
