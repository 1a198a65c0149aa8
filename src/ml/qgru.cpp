#include "ml/qgru.hpp"

#include <algorithm>
#include <cmath>

#include "ml/activations.hpp"
#include "util/assert.hpp"

namespace phftl::ml {

QMat QMat::from(ConstMatView m) {
  QMat q;
  q.rows = m.rows;
  q.cols = m.cols;
  q.data.resize(m.size());
  float max_abs = 0.0f;
  for (std::size_t i = 0; i < m.size(); ++i)
    max_abs = std::max(max_abs, std::fabs(m.data[i]));
  q.scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
  const float inv = 1.0f / q.scale;
  for (std::size_t i = 0; i < m.size(); ++i) {
    float v = m.data[i] * inv;
    v = std::clamp(v, -127.0f, 127.0f);
    q.data[i] = static_cast<std::int8_t>(v >= 0 ? v + 0.5f : v - 0.5f);
  }
  return q;
}

QuantizedGru::QuantizedGru(const GruClassifier& model)
    : input_dim_(model.input_dim()),
      hidden_dim_(model.hidden_dim()),
      wz_(QMat::from(model.wz())),
      wr_(QMat::from(model.wr())),
      wn_(QMat::from(model.wn())),
      uz_(QMat::from(model.uz())),
      ur_(QMat::from(model.ur())),
      un_(QMat::from(model.un())),
      wo_(QMat::from(model.wo())) {
  auto copy = [](std::span<const float> s) {
    return std::vector<float>(s.begin(), s.end());
  };
  bz_ = copy(model.bz());
  br_ = copy(model.br());
  bn_ = copy(model.bn());
  bun_ = copy(model.bun());
  bo_ = copy(model.bo());

  // Pack the gate triples for the fused kernels and pre-dequantize the
  // output head (2 x H floats — cheaper than dequantizing per prediction).
  w_packed_ = kernels::pack_gates3(wz_.data.data(), wr_.data.data(),
                                   wn_.data.data(), hidden_dim_, input_dim_);
  u_packed_ = kernels::pack_gates3(uz_.data.data(), ur_.data.data(),
                                   un_.data.data(), hidden_dim_, hidden_dim_);
  wo_deq_.resize(wo_.rows * wo_.cols);
  for (std::size_t cls = 0; cls < wo_.rows; ++cls)
    for (std::size_t c = 0; c < wo_.cols; ++c)
      wo_deq_[cls * wo_.cols + c] = wo_.dequant(cls, c);

  // Size the scratch once; the padded tails of xq/hq stay zero forever, so
  // the stride-length kernel loops see zeros past the logical columns.
  scratch_.xq.assign(w_packed_.stride, 0);
  scratch_.hq.assign(u_packed_.stride, 0);
  scratch_.ax.resize(3 * hidden_dim_);
  scratch_.ah.resize(3 * hidden_dim_);
  scratch_.z.resize(hidden_dim_);
  scratch_.r.resize(hidden_dim_);
  scratch_.n.resize(hidden_dim_);
  scratch_.h_new.resize(hidden_dim_);
}

void QuantizedGru::gate_preact(const QMat& w, const QMat& u,
                               std::span<const std::int8_t> xq,
                               std::span<const std::int8_t> hq,
                               std::span<const float> bias,
                               std::span<float> out) const {
  // Input scale is fixed 1/127 (features are hex digits normalized to
  // [0, 1]); hidden scale is kHiddenScale.
  const float x_scale = 1.0f / 127.0f;
  for (std::size_t r = 0; r < hidden_dim_; ++r) {
    std::int32_t acc_x = 0;
    const std::int8_t* wr = w.data.data() + r * w.cols;
    for (std::size_t c = 0; c < w.cols; ++c)
      acc_x += static_cast<std::int32_t>(wr[c]) * xq[c];
    std::int32_t acc_h = 0;
    const std::int8_t* ur = u.data.data() + r * u.cols;
    for (std::size_t c = 0; c < u.cols; ++c)
      acc_h += static_cast<std::int32_t>(ur[c]) * hq[c];
    out[r] = static_cast<float>(acc_x) * w.scale * x_scale +
             static_cast<float>(acc_h) * u.scale * kHiddenScale + bias[r];
  }
}

int QuantizedGru::predict_incremental(std::span<const float> x,
                                      std::span<std::int8_t> h_inout) const {
  PHFTL_CHECK(deployed());
  PHFTL_CHECK(x.size() == input_dim_ && h_inout.size() == hidden_dim_);
  const float x_scale = 1.0f / 127.0f;
  Scratch& s = scratch_;

  for (std::size_t i = 0; i < input_dim_; ++i)
    s.xq[i] = quantize_input(x[i]);
  std::copy(h_inout.begin(), h_inout.end(), s.hq.begin());

  // Six GEMVs in two fused passes: one over the quantized input, one over
  // the quantized hidden state.
  const std::size_t h = hidden_dim_;
  std::int32_t* az = s.ax.data();
  std::int32_t* ar = az + h;
  std::int32_t* an = ar + h;
  std::int32_t* uz = s.ah.data();
  std::int32_t* ur = uz + h;
  std::int32_t* un = ur + h;
  kernels::fused_gemv3_i8(w_packed_, s.xq.data(), az, ar, an);
  kernels::fused_gemv3_i8(u_packed_, s.hq.data(), uz, ur, un);

  // Combine with exactly the reference path's float expressions (term
  // order preserved), activating each gate's array in one call, so the
  // result is bit-exact against it.
  for (std::size_t i = 0; i < h; ++i) {
    s.z[i] = static_cast<float>(az[i]) * wz_.scale * x_scale +
             static_cast<float>(uz[i]) * uz_.scale * kHiddenScale + bz_[i];
    s.r[i] = static_cast<float>(ar[i]) * wr_.scale * x_scale +
             static_cast<float>(ur[i]) * ur_.scale * kHiddenScale + br_[i];
  }
  act::sigmoid_inplace(s.z.data(), h);
  act::sigmoid_inplace(s.r.data(), h);
  // Candidate gate: n = tanh(Wn x + bn + r ⊙ (Un h + bun)).
  for (std::size_t i = 0; i < h; ++i) {
    const float sn =
        static_cast<float>(un[i]) * un_.scale * kHiddenScale + bun_[i];
    s.n[i] = static_cast<float>(an[i]) * wn_.scale * x_scale + bn_[i] +
             s.r[i] * sn;
  }
  act::tanh_inplace(s.n.data(), h);
  for (std::size_t i = 0; i < h; ++i) {
    const float h_prev = static_cast<float>(h_inout[i]) * kHiddenScale;
    s.h_new[i] = (1.0f - s.z[i]) * s.n[i] + s.z[i] * h_prev;
  }
  for (std::size_t i = 0; i < h; ++i) h_inout[i] = quantize_hidden(s.h_new[i]);

  // Classification head (pre-dequantized int8 weights, float hidden for
  // best fidelity). Class 1 (short-living) carries the decision-prior bias.
  float best = -1e30f;
  int best_cls = 0;
  for (std::size_t cls = 0; cls < wo_.rows; ++cls) {
    float acc = bo_[cls] + (cls == 1 ? decision_bias_ : 0.0f);
    const float* wrow = wo_deq_.data() + cls * wo_.cols;
    for (std::size_t c = 0; c < h; ++c) acc += wrow[c] * s.h_new[c];
    if (acc > best) {
      best = acc;
      best_cls = static_cast<int>(cls);
    }
  }
  return best_cls;
}

int QuantizedGru::predict_incremental_reference(
    std::span<const float> x, std::span<std::int8_t> h_inout) const {
  PHFTL_CHECK(deployed());
  PHFTL_CHECK(x.size() == input_dim_ && h_inout.size() == hidden_dim_);

  std::vector<std::int8_t> xq(input_dim_);
  for (std::size_t i = 0; i < input_dim_; ++i) xq[i] = quantize_input(x[i]);

  std::vector<float> z(hidden_dim_), r(hidden_dim_), n(hidden_dim_),
      s(hidden_dim_);
  gate_preact(wz_, uz_, xq, h_inout, bz_, z);
  for (auto& v : z) v = act::sigmoid(v);
  gate_preact(wr_, ur_, xq, h_inout, br_, r);
  for (auto& v : r) v = act::sigmoid(v);

  // Candidate gate: n = tanh(Wn x + bn + r ⊙ (Un h + bun)).
  const float x_scale = 1.0f / 127.0f;
  for (std::size_t row = 0; row < hidden_dim_; ++row) {
    std::int32_t acc_x = 0;
    const std::int8_t* wr = wn_.data.data() + row * wn_.cols;
    for (std::size_t c = 0; c < wn_.cols; ++c)
      acc_x += static_cast<std::int32_t>(wr[c]) * xq[c];
    std::int32_t acc_h = 0;
    const std::int8_t* ur = un_.data.data() + row * un_.cols;
    for (std::size_t c = 0; c < un_.cols; ++c)
      acc_h += static_cast<std::int32_t>(ur[c]) * h_inout[c];
    s[row] = static_cast<float>(acc_h) * un_.scale * kHiddenScale + bun_[row];
    n[row] = act::tanh(static_cast<float>(acc_x) * wn_.scale * x_scale +
                       bn_[row] + r[row] * s[row]);
  }

  std::vector<float> h_new(hidden_dim_);
  for (std::size_t i = 0; i < hidden_dim_; ++i) {
    const float h_prev = static_cast<float>(h_inout[i]) * kHiddenScale;
    h_new[i] = (1.0f - z[i]) * n[i] + z[i] * h_prev;
  }
  for (std::size_t i = 0; i < hidden_dim_; ++i)
    h_inout[i] = quantize_hidden(h_new[i]);

  // Classification head (int8 weights, float hidden for best fidelity).
  // Class 1 (short-living) carries the decision-prior bias.
  float best = -1e30f;
  int best_cls = 0;
  for (std::size_t cls = 0; cls < wo_.rows; ++cls) {
    float acc = bo_[cls] + (cls == 1 ? decision_bias_ : 0.0f);
    for (std::size_t c = 0; c < hidden_dim_; ++c)
      acc += wo_.dequant(cls, c) * h_new[c];
    if (acc > best) {
      best = acc;
      best_cls = static_cast<int>(cls);
    }
  }
  return best_cls;
}

int QuantizedGru::predict_sequence(
    const std::vector<std::vector<float>>& steps) const {
  std::vector<std::int8_t> h(hidden_dim_, 0);
  int cls = 0;
  for (const auto& x : steps) cls = predict_incremental(x, h);
  return cls;
}

}  // namespace phftl::ml
