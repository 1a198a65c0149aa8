// Int8-quantized GRU inference engine — the on-device Page Classifier.
//
// The paper deploys the host-trained model to the SSD with all parameters
// quantized to 8-bit integers (accuracy loss < 1%, §IV) and caches each
// page's hidden state as 32 bytes (§III-C). This engine mirrors that:
//
//  * per-tensor symmetric int8 weights (scale = max|w| / 127),
//  * int8 hidden state with fixed scale 1/127 (valid because a GRU hidden
//    state started from h0 = 0 is always a convex combination of tanh
//    outputs, hence in (-1, 1)),
//  * int32 accumulation, float gate nonlinearities — the same arithmetic a
//    NEON/SIMD int8 kernel performs on the Cosmos+ controller.
//
// The hot path (predict_incremental, one call per host write) runs the six
// gate GEMVs through the fused kernels in ml/kernels.hpp — the Wz/Wr/Wn and
// Uz/Ur/Un triples are packed at deployment time and all scratch buffers
// are preallocated, so a prediction performs no heap allocation. Its float
// tail (gate combine, h update, quantize) runs 8 units at a time on AVX2
// CPUs, each unit through the scalar expression's operations in order. The
// original scalar implementation is retained as
// predict_incremental_reference(); the fused path is bit-exact against it
// (integer accumulation is order-independent and the float combining
// expressions are identical), which tests assert.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/gru.hpp"
#include "ml/kernels.hpp"
#include "ml/tensor.hpp"

namespace phftl::ml {

/// Per-tensor symmetric int8 quantization of a float matrix.
struct QMat {
  std::vector<std::int8_t> data;
  float scale = 1.0f;  // real = q * scale
  std::size_t rows = 0;
  std::size_t cols = 0;

  static QMat from(ConstMatView m);
  float dequant(std::size_t r, std::size_t c) const {
    return static_cast<float>(data[r * cols + c]) * scale;
  }
};

/// Fixed-point hidden-state scale: h_real = h_q / 127.
inline constexpr float kHiddenScale = 1.0f / 127.0f;

/// Quantize a float in [-1, 1] to the hidden-state int8 representation.
inline std::int8_t quantize_hidden(float v) {
  float scaled = v * 127.0f;
  if (scaled > 127.0f) scaled = 127.0f;
  if (scaled < -127.0f) scaled = -127.0f;
  return static_cast<std::int8_t>(scaled >= 0 ? scaled + 0.5f : scaled - 0.5f);
}

/// Quantize an input feature in [0, 1] (hex-digit encoding) to int8.
inline std::int8_t quantize_input(float v) {
  float scaled = v * 127.0f;
  if (scaled > 127.0f) scaled = 127.0f;
  if (scaled < 0.0f) scaled = 0.0f;
  return static_cast<std::int8_t>(scaled + 0.5f);
}

class QuantizedGru {
 public:
  QuantizedGru() = default;

  /// Deployment: quantize a host-trained float model.
  explicit QuantizedGru(const GruClassifier& model);

  std::size_t input_dim() const { return input_dim_; }
  std::size_t hidden_dim() const { return hidden_dim_; }
  bool deployed() const { return hidden_dim_ != 0; }

  /// One incremental step + classification. `h_inout` is the cached int8
  /// hidden state (32 bytes for H=32); it is updated in place.
  /// Returns the predicted class (1 = short-living).
  ///
  /// Runs the fused allocation-free kernels. Uses an internal scratch
  /// buffer, so concurrent calls on one instance are not safe; the device
  /// controller model is single-threaded.
  int predict_incremental(std::span<const float> x,
                          std::span<std::int8_t> h_inout) const;

  /// Original scalar implementation, kept as the reference the fused path
  /// is verified against (bit-exact: same class, same updated hidden
  /// state). Allocates per call; use only in tests and benchmarks.
  int predict_incremental_reference(std::span<const float> x,
                                    std::span<std::int8_t> h_inout) const;

  /// The float hidden state the last prediction (either path) computed,
  /// before quantization: what the head scores. Parity tests compare it
  /// bit for bit, since int8 rounding hides most float differences.
  std::span<const float> last_hidden() const { return scratch_.h_new; }

  /// Full-sequence prediction from a zero hidden state (used in tests and
  /// the sequence-length ablation).
  int predict_sequence(const std::vector<std::vector<float>>& steps) const;

  /// Bytes of cached state per page (the "32B for 8-bit quantized model").
  std::size_t hidden_state_bytes() const { return hidden_dim_; }

  /// Decision-prior correction. The model trains on *balanced* resamples
  /// (paper §III-B), so its argmax boundary sits at a 50% posterior in
  /// balanced space — far too short-eager when true short-living pages are
  /// rare. The trainer sets this to log(π/(1−π)) of the window's natural
  /// positive rate π, recalibrating the boundary to the deployment
  /// distribution.
  void set_decision_bias(float bias) { decision_bias_ = bias; }
  float decision_bias() const { return decision_bias_; }

  /// Multiply-accumulate count of one incremental prediction (for the
  /// micro-benchmarks): 3 input matmuls + 3 hidden matmuls + head.
  std::size_t macs_per_step() const {
    return 3 * hidden_dim_ * input_dim_ + 3 * hidden_dim_ * hidden_dim_ +
           2 * hidden_dim_;
  }

 private:
  void gate_preact(const QMat& w, const QMat& u,
                   std::span<const std::int8_t> xq,
                   std::span<const std::int8_t> hq,
                   std::span<const float> bias, std::span<float> out) const;

  std::size_t input_dim_ = 0;
  std::size_t hidden_dim_ = 0;
  float decision_bias_ = 0.0f;
  QMat wz_, wr_, wn_, uz_, ur_, un_, wo_;
  std::vector<float> bz_, br_, bn_, bun_, bo_;

  // --- Fused-kernel deployment state ---
  kernels::PackedGates3 w_packed_;  ///< Wz/Wr/Wn packed by column pairs
  kernels::PackedGates3 u_packed_;  ///< Uz/Ur/Un packed by column pairs
  std::vector<float> wo_deq_;       ///< pre-dequantized head [classes x H]

  /// Per-instance scratch reused across predictions (no allocation on the
  /// predict path). Mutable: prediction is logically const.
  struct Scratch {
    std::vector<std::int8_t> xq, hq;        // pair-padded, pads stay 0
    std::vector<std::int32_t> ax, ah;       // 3 x H gate accumulators
    std::vector<float> z, r, n, h_new;
  };
  mutable Scratch scratch_;
};

}  // namespace phftl::ml
