// Minimal dense linear-algebra primitives for the Page Classifier.
//
// The models in this repository are tiny (GRU hidden size 32, input ~20),
// so we favour a small, obvious row-major matrix type over a BLAS
// dependency. All hot loops are simple enough for the compiler to vectorize.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "util/assert.hpp"

namespace phftl::ml {

/// Row-major matrix view over caller-owned storage.
/// Rows = output dimension, cols = input dimension for weight matrices.
struct MatView {
  float* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;

  float& at(std::size_t r, std::size_t c) { return data[r * cols + c]; }
  float at(std::size_t r, std::size_t c) const { return data[r * cols + c]; }
  std::span<float> row(std::size_t r) { return {data + r * cols, cols}; }
  std::span<const float> row(std::size_t r) const {
    return {data + r * cols, cols};
  }
  std::size_t size() const { return rows * cols; }
};

struct ConstMatView {
  const float* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;

  ConstMatView() = default;
  ConstMatView(const float* d, std::size_t r, std::size_t c)
      : data(d), rows(r), cols(c) {}
  // NOLINTNEXTLINE(google-explicit-constructor): view conversion is safe.
  ConstMatView(const MatView& m) : data(m.data), rows(m.rows), cols(m.cols) {}

  float at(std::size_t r, std::size_t c) const { return data[r * cols + c]; }
  std::span<const float> row(std::size_t r) const {
    return {data + r * cols, cols};
  }
  std::size_t size() const { return rows * cols; }
};

/// y = W * x  (W: [m x n], x: [n], y: [m])
inline void matvec(ConstMatView w, std::span<const float> x,
                   std::span<float> y) {
  PHFTL_CHECK(w.cols == x.size() && w.rows == y.size());
  for (std::size_t r = 0; r < w.rows; ++r) {
    const float* wr = w.data + r * w.cols;
    float acc = 0.0f;
    for (std::size_t c = 0; c < w.cols; ++c) acc += wr[c] * x[c];
    y[r] = acc;
  }
}

/// y += W * x
inline void matvec_acc(ConstMatView w, std::span<const float> x,
                       std::span<float> y) {
  PHFTL_CHECK(w.cols == x.size() && w.rows == y.size());
  for (std::size_t r = 0; r < w.rows; ++r) {
    const float* wr = w.data + r * w.cols;
    float acc = 0.0f;
    for (std::size_t c = 0; c < w.cols; ++c) acc += wr[c] * x[c];
    y[r] += acc;
  }
}

/// x_grad += W^T * y_grad  (backprop through y = W x)
inline void matvec_transpose_acc(ConstMatView w, std::span<const float> ygrad,
                                 std::span<float> xgrad) {
  PHFTL_CHECK(w.rows == ygrad.size() && w.cols == xgrad.size());
  for (std::size_t r = 0; r < w.rows; ++r) {
    const float g = ygrad[r];
    if (g == 0.0f) continue;
    const float* wr = w.data + r * w.cols;
    for (std::size_t c = 0; c < w.cols; ++c) xgrad[c] += wr[c] * g;
  }
}

/// dW += y_grad ⊗ x  (outer product accumulation)
inline void outer_acc(std::span<const float> ygrad, std::span<const float> x,
                      MatView dw) {
  PHFTL_CHECK(dw.rows == ygrad.size() && dw.cols == x.size());
  for (std::size_t r = 0; r < dw.rows; ++r) {
    const float g = ygrad[r];
    if (g == 0.0f) continue;
    float* wr = dw.data + r * dw.cols;
    for (std::size_t c = 0; c < dw.cols; ++c) wr[c] += g * x[c];
  }
}

inline void axpy(float a, std::span<const float> x, std::span<float> y) {
  PHFTL_CHECK(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += a * x[i];
}

inline void fill(std::span<float> x, float v) {
  for (auto& e : x) e = v;
}

/// Numerically stable in-place softmax.
inline void softmax(std::span<float> x) {
  float mx = x[0];
  for (float v : x) mx = v > mx ? v : mx;
  float sum = 0.0f;
  for (auto& v : x) {
    v = std::exp(v - mx);
    sum += v;
  }
  for (auto& v : x) v /= sum;
}

/// Owned matrix with contiguous storage.
class Mat {
 public:
  Mat() = default;
  Mat(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  float& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  float at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::size_t size() const { return data_.size(); }

  MatView view() { return {data_.data(), rows_, cols_}; }
  ConstMatView view() const { return {data_.data(), rows_, cols_}; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace phftl::ml
