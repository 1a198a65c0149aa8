// Flat parameter/gradient storage shared by all trainable models.
//
// Parameters live in one contiguous float buffer with named segments; the
// gradient buffer mirrors it. This makes the Adam optimizer a single loop
// over the flat arrays and makes weight (de)serialization for "model
// deployment" (host trainer -> device, paper Fig. 1) a trivial copy.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ml/tensor.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace phftl::ml {

class ParamStore {
 public:
  /// Reserve a [rows x cols] matrix segment. Call all allocations before
  /// using any views (the buffer must not reallocate afterwards).
  std::size_t alloc_matrix(std::size_t rows, std::size_t cols) {
    const std::size_t off = params_.size();
    params_.resize(off + rows * cols, 0.0f);
    grads_.resize(params_.size(), 0.0f);
    segs_.push_back({off, rows, cols});
    return segs_.size() - 1;
  }

  std::size_t alloc_vector(std::size_t n) { return alloc_matrix(1, n); }

  MatView param_matrix(std::size_t id) {
    const Seg& s = segs_[id];
    return {params_.data() + s.offset, s.rows, s.cols};
  }
  ConstMatView param_matrix(std::size_t id) const {
    const Seg& s = segs_[id];
    return {params_.data() + s.offset, s.rows, s.cols};
  }
  MatView grad_matrix(std::size_t id) {
    const Seg& s = segs_[id];
    return {grads_.data() + s.offset, s.rows, s.cols};
  }

  std::span<float> param_vector(std::size_t id) {
    const Seg& s = segs_[id];
    PHFTL_CHECK(s.rows == 1);
    return {params_.data() + s.offset, s.cols};
  }
  std::span<const float> param_vector(std::size_t id) const {
    const Seg& s = segs_[id];
    PHFTL_CHECK(s.rows == 1);
    return {params_.data() + s.offset, s.cols};
  }
  std::span<float> grad_vector(std::size_t id) {
    const Seg& s = segs_[id];
    PHFTL_CHECK(s.rows == 1);
    return {grads_.data() + s.offset, s.cols};
  }

  /// Position of segment `id`'s first element in the flat buffers.
  std::size_t offset(std::size_t id) const { return segs_[id].offset; }

  std::span<float> all_params() { return params_; }
  std::span<const float> all_params() const { return params_; }
  std::span<float> all_grads() { return grads_; }

  void zero_grads() { std::fill(grads_.begin(), grads_.end(), 0.0f); }

  std::size_t size() const { return params_.size(); }

  /// Glorot-uniform initialization of a matrix segment.
  void init_glorot(std::size_t id, Xoshiro256& rng) {
    MatView m = param_matrix(id);
    const double limit =
        std::sqrt(6.0 / static_cast<double>(m.rows + m.cols));
    for (std::size_t i = 0; i < m.size(); ++i)
      m.data[i] = static_cast<float>((rng.next_double() * 2.0 - 1.0) * limit);
  }

  /// Copy raw weights in/out (model deployment path).
  std::vector<float> snapshot() const { return params_; }
  void restore(std::span<const float> weights) {
    PHFTL_CHECK(weights.size() == params_.size());
    std::copy(weights.begin(), weights.end(), params_.begin());
  }

 private:
  struct Seg {
    std::size_t offset;
    std::size_t rows;
    std::size_t cols;
  };
  std::vector<float> params_;
  std::vector<float> grads_;
  std::vector<Seg> segs_;
};

/// Adam hyper-parameters (namespace scope so it can serve as a default
/// argument — nested classes with default member initializers cannot).
struct AdamConfig {
  float lr = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
};

/// Adam optimizer over a ParamStore's flat buffers.
class Adam {
 public:
  using Config = AdamConfig;

  explicit Adam(std::size_t n, Config cfg = Config())
      : cfg_(cfg), m_(n, 0.0f), v_(n, 0.0f) {}

  /// Apply one update using the accumulated gradients, then leaves the
  /// gradient buffer untouched (caller zeroes it).
  void step(std::span<float> params, std::span<const float> grads) {
    PHFTL_CHECK(params.size() == m_.size() && grads.size() == m_.size());
    begin_step();
    update(params, grads, 0, params.size());
  }

  /// step() in parts: begin_step() advances the step count and its bias
  /// corrections once, then update() applies that step to elements
  /// [begin, end) of the flat buffers. Each element must be updated once
  /// per step; disjoint ranges may be updated from different threads.
  void begin_step() {
    ++t_;
    b1t_ = 1.0f - std::pow(cfg_.beta1, static_cast<float>(t_));
    b2t_ = 1.0f - std::pow(cfg_.beta2, static_cast<float>(t_));
  }
  void update(std::span<float> params, std::span<const float> grads,
              std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const float g = grads[i];
      m_[i] = cfg_.beta1 * m_[i] + (1.0f - cfg_.beta1) * g;
      v_[i] = cfg_.beta2 * v_[i] + (1.0f - cfg_.beta2) * g * g;
      const float mhat = m_[i] / b1t_;
      const float vhat = v_[i] / b2t_;
      params[i] -= cfg_.lr * mhat / (std::sqrt(vhat) + cfg_.eps);
    }
  }

  void reset() {
    std::fill(m_.begin(), m_.end(), 0.0f);
    std::fill(v_.begin(), v_.end(), 0.0f);
    t_ = 0;
  }

 private:
  Config cfg_;
  std::vector<float> m_;
  std::vector<float> v_;
  std::uint64_t t_ = 0;
  float b1t_ = 0.0f, b2t_ = 0.0f;  ///< this step's bias corrections
};

}  // namespace phftl::ml
