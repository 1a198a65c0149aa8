#include "ml/qgru.hpp"

#include <algorithm>
#include <cmath>

#include "ml/activations.hpp"
#include "ml/avx2_target.hpp"
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

  // Size the scratch once: the kernels read whole column pairs, so an odd
  // dimension gets one padding element, which stays zero.
  scratch_.xq.assign(2 * w_packed_.pairs, 0);
  scratch_.hq.assign(2 * u_packed_.pairs, 0);
  scratch_.ax.resize(3 * hidden_dim_);
  scratch_.ah.resize(3 * hidden_dim_);
  scratch_.z.resize(hidden_dim_);
  scratch_.r.resize(hidden_dim_);
  scratch_.n.resize(hidden_dim_);
  scratch_.h_new.resize(hidden_dim_);
}

namespace {

/// Input-feature scale: features are hex digits normalized to [0, 1].
constexpr float kInputScale = 1.0f / 127.0f;

/// One step's float tail after the six GEMVs: the int32 gate sums, the
/// per-tensor weight scales, the biases, the gate and new-hidden arrays,
/// and the int8 hidden state (read as h_prev, overwritten quantized).
struct Tail {
  const std::int32_t *az, *ar, *an, *uz, *ur, *un;
  float wz, wr, wn, uz_scale, ur_scale, un_scale;
  const float *bz, *br, *bn, *bun;
  float *z, *r, *n, *h_new;
  std::int8_t* h;
};

#if PHFTL_ML_X86

// AVX2 twins of the three tail loops: each lane evaluates the scalar
// expression of its unit with the same operations in the same order (no
// FMA; phftl_ml builds with -ffp-contract=off), over whole vectors of 8
// units. They return how many units they did; the scalar loop finishes.

const bool g_tail_avx2 = __builtin_cpu_supports("avx2");

/// float(a[0..8)) · scale · unit, multiplied left to right.
PHFTL_TARGET_AVX2 inline __m256 dequant8(const std::int32_t* a, float scale,
                                         float unit) {
  const __m256 v = _mm256_cvtepi32_ps(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a)));
  return _mm256_mul_ps(_mm256_mul_ps(v, _mm256_set1_ps(scale)),
                       _mm256_set1_ps(unit));
}

PHFTL_TARGET_AVX2 std::size_t tail_zr_avx2(const Tail& t, std::size_t h) {
  std::size_t i = 0;
  for (; i + 8 <= h; i += 8) {
    _mm256_storeu_ps(
        t.z + i,
        _mm256_add_ps(_mm256_add_ps(dequant8(t.az + i, t.wz, kInputScale),
                                    dequant8(t.uz + i, t.uz_scale,
                                             kHiddenScale)),
                      _mm256_loadu_ps(t.bz + i)));
    _mm256_storeu_ps(
        t.r + i,
        _mm256_add_ps(_mm256_add_ps(dequant8(t.ar + i, t.wr, kInputScale),
                                    dequant8(t.ur + i, t.ur_scale,
                                             kHiddenScale)),
                      _mm256_loadu_ps(t.br + i)));
  }
  return i;
}

PHFTL_TARGET_AVX2 std::size_t tail_candidate_avx2(const Tail& t,
                                                  std::size_t h) {
  std::size_t i = 0;
  for (; i + 8 <= h; i += 8) {
    const __m256 sn =
        _mm256_add_ps(dequant8(t.un + i, t.un_scale, kHiddenScale),
                      _mm256_loadu_ps(t.bun + i));
    _mm256_storeu_ps(
        t.n + i,
        _mm256_add_ps(_mm256_add_ps(dequant8(t.an + i, t.wn, kInputScale),
                                    _mm256_loadu_ps(t.bn + i)),
                      _mm256_mul_ps(_mm256_loadu_ps(t.r + i), sn)));
  }
  return i;
}

PHFTL_TARGET_AVX2 std::size_t tail_update_avx2(const Tail& t, std::size_t h) {
  const __m256 one = _mm256_set1_ps(1.0f), half = _mm256_set1_ps(0.5f);
  const __m256 hi = _mm256_set1_ps(127.0f), lo = _mm256_set1_ps(-127.0f);
  // Byte 0 of each int32 lane, packed into the low 8 bytes.
  const __m256i low_bytes = _mm256_setr_epi8(
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,  //
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
  const __m256i gather = _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0);
  std::size_t i = 0;
  for (; i + 8 <= h; i += 8) {
    const __m256 h_prev = _mm256_mul_ps(
        _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(t.h + i)))),
        _mm256_set1_ps(kHiddenScale));
    const __m256 z = _mm256_loadu_ps(t.z + i);
    const __m256 h_new =
        _mm256_add_ps(_mm256_mul_ps(_mm256_sub_ps(one, z),
                                    _mm256_loadu_ps(t.n + i)),
                      _mm256_mul_ps(z, h_prev));
    _mm256_storeu_ps(t.h_new + i, h_new);
    // quantize_hidden: min/max take their second operand on a NaN, as the
    // scalar compares keep `scaled`; then ±0.5 and truncate.
    __m256 scaled = _mm256_mul_ps(h_new, hi);
    scaled = _mm256_max_ps(lo, _mm256_min_ps(hi, scaled));
    const __m256 rounded = _mm256_blendv_ps(
        _mm256_sub_ps(scaled, half), _mm256_add_ps(scaled, half),
        _mm256_cmp_ps(scaled, _mm256_setzero_ps(), _CMP_GE_OQ));
    const __m256i q = _mm256_permutevar8x32_epi32(
        _mm256_shuffle_epi8(_mm256_cvttps_epi32(rounded), low_bytes), gather);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(t.h + i),
                     _mm256_castsi256_si128(q));
  }
  return i;
}

#endif  // PHFTL_ML_X86

/// z and r pre-activations for units [0, h).
void tail_zr(const Tail& t, std::size_t h) {
  std::size_t i = 0;
#if PHFTL_ML_X86
  if (g_tail_avx2) i = tail_zr_avx2(t, h);
#endif
  for (; i < h; ++i) {
    t.z[i] = static_cast<float>(t.az[i]) * t.wz * kInputScale +
             static_cast<float>(t.uz[i]) * t.uz_scale * kHiddenScale + t.bz[i];
    t.r[i] = static_cast<float>(t.ar[i]) * t.wr * kInputScale +
             static_cast<float>(t.ur[i]) * t.ur_scale * kHiddenScale + t.br[i];
  }
}

/// Candidate gate pre-activation: Wn x + bn + r ⊙ (Un h + bun).
void tail_candidate(const Tail& t, std::size_t h) {
  std::size_t i = 0;
#if PHFTL_ML_X86
  if (g_tail_avx2) i = tail_candidate_avx2(t, h);
#endif
  for (; i < h; ++i) {
    const float sn =
        static_cast<float>(t.un[i]) * t.un_scale * kHiddenScale + t.bun[i];
    t.n[i] = static_cast<float>(t.an[i]) * t.wn * kInputScale + t.bn[i] +
             t.r[i] * sn;
  }
}

/// h_new = (1 − z) ⊙ n + z ⊙ h_prev, and the int8 hidden state from it.
void tail_update(const Tail& t, std::size_t h) {
  std::size_t i = 0;
#if PHFTL_ML_X86
  if (g_tail_avx2) i = tail_update_avx2(t, h);
#endif
  for (; i < h; ++i) {
    const float h_prev = static_cast<float>(t.h[i]) * kHiddenScale;
    t.h_new[i] = (1.0f - t.z[i]) * t.n[i] + t.z[i] * h_prev;
    t.h[i] = quantize_hidden(t.h_new[i]);
  }
}

}  // namespace

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
  const Tail t{az,       ar,       an,     uz,     ur,     un,
               wz_.scale, wr_.scale, wn_.scale, uz_.scale, ur_.scale, un_.scale,
               bz_.data(), br_.data(), bn_.data(), bun_.data(),
               s.z.data(), s.r.data(), s.n.data(), s.h_new.data(),
               h_inout.data()};
  tail_zr(t, h);
  act::sigmoid_inplace(s.z.data(), h);
  act::sigmoid_inplace(s.r.data(), h);
  tail_candidate(t, h);
  act::tanh_inplace(s.n.data(), h);
  tail_update(t, h);

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

  std::vector<float>& h_new = scratch_.h_new;  // read by last_hidden()
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
