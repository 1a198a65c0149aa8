#include "ml/kernels.hpp"

#include <algorithm>
#include <cstring>

#include "ml/avx2_target.hpp"

namespace phftl::ml::kernels {

PackedGates3 pack_gates3(const std::int8_t* g0, const std::int8_t* g1,
                         const std::int8_t* g2, std::size_t rows,
                         std::size_t cols) {
  PackedGates3 p;
  p.rows = rows;
  p.cols = cols;
  p.stride = padded_cols(cols);
  p.data.assign(rows * 3 * p.stride, 0);
  const std::int8_t* gates[3] = {g0, g1, g2};
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t g = 0; g < 3; ++g)
      std::memcpy(p.data.data() + (r * 3 + g) * p.stride, gates[g] + r * cols,
                  cols);
  return p;
}

namespace {

void fused_gemv3_scalar(const PackedGates3& m, const std::int8_t* x,
                        std::int32_t* out0, std::int32_t* out1,
                        std::int32_t* out2) {
  const std::size_t stride = m.stride;
  const std::int8_t* __restrict xp = x;
  for (std::size_t r = 0; r < m.rows; ++r) {
    const std::int8_t* __restrict w0 = m.data.data() + r * 3 * stride;
    const std::int8_t* __restrict w1 = w0 + stride;
    const std::int8_t* __restrict w2 = w1 + stride;
    std::int32_t a0 = 0, a1 = 0, a2 = 0;
    // stride is a multiple of kLaneAlign, so the 4-way unroll has no tail;
    // each x[c] is loaded once and feeds all three gate accumulators.
    for (std::size_t c = 0; c < stride; c += 4) {
      const std::int32_t xc0 = xp[c + 0], xc1 = xp[c + 1];
      const std::int32_t xc2 = xp[c + 2], xc3 = xp[c + 3];
      a0 += w0[c + 0] * xc0 + w0[c + 1] * xc1 + w0[c + 2] * xc2 +
            w0[c + 3] * xc3;
      a1 += w1[c + 0] * xc0 + w1[c + 1] * xc1 + w1[c + 2] * xc2 +
            w1[c + 3] * xc3;
      a2 += w2[c + 0] * xc0 + w2[c + 1] * xc1 + w2[c + 2] * xc2 +
            w2[c + 3] * xc3;
    }
    out0[r] = a0;
    out1[r] = a1;
    out2[r] = a2;
  }
}

#if PHFTL_ML_X86

PHFTL_TARGET_AVX2 inline std::int32_t hsum_epi32(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

PHFTL_TARGET_AVX2 void fused_gemv3_avx2(const PackedGates3& m,
                                        const std::int8_t* x,
                                        std::int32_t* out0, std::int32_t* out1,
                                        std::int32_t* out2) {
  const std::size_t stride = m.stride;
  for (std::size_t r = 0; r < m.rows; ++r) {
    const std::int8_t* w0 = m.data.data() + r * 3 * stride;
    const std::int8_t* w1 = w0 + stride;
    const std::int8_t* w2 = w1 + stride;
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    // 16 int8 lanes per step, widened to int16; each 16-lane chunk of x is
    // loaded once and multiply-accumulated against all three gate rows.
    // madd_epi16 pair-sums into int32, which cannot overflow here:
    // |product| ≤ 127², and rows are at most a few hundred columns.
    for (std::size_t c = 0; c < stride; c += 16) {
      const __m256i xv = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + c)));
      const __m256i v0 = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(w0 + c)));
      const __m256i v1 = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(w1 + c)));
      const __m256i v2 = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(w2 + c)));
      acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(v0, xv));
      acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(v1, xv));
      acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(v2, xv));
    }
    out0[r] = hsum_epi32(acc0);
    out1[r] = hsum_epi32(acc1);
    out2[r] = hsum_epi32(acc2);
  }
}

#endif  // PHFTL_ML_X86

using KernelFn = void (*)(const PackedGates3&, const std::int8_t*,
                          std::int32_t*, std::int32_t*, std::int32_t*);

KernelFn resolve_kernel() {
#if PHFTL_ML_X86
  if (__builtin_cpu_supports("avx2")) return fused_gemv3_avx2;
#endif
  return fused_gemv3_scalar;
}

const KernelFn g_fused_gemv3 = resolve_kernel();

}  // namespace

void fused_gemv3_i8(const PackedGates3& m, const std::int8_t* x,
                    std::int32_t* out0, std::int32_t* out1,
                    std::int32_t* out2) {
  g_fused_gemv3(m, x, out0, out1, out2);
}

bool fused_gemv3_uses_avx2() {
#if PHFTL_ML_X86
  return g_fused_gemv3 == fused_gemv3_avx2;
#else
  return false;
#endif
}

void gemv_i8_ref(const std::int8_t* w, std::size_t rows, std::size_t cols,
                 const std::int8_t* x, std::int32_t* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::int8_t* wr = w + r * cols;
    std::int32_t acc = 0;
    for (std::size_t c = 0; c < cols; ++c)
      acc += static_cast<std::int32_t>(wr[c]) * x[c];
    out[r] = acc;
  }
}

// ---------------------------------------------------------------------------
// Float lane kernels
// ---------------------------------------------------------------------------

void lane_gemv_ref(const float* w, std::size_t rows, std::size_t cols,
                   const float* x, std::size_t lanes, float* y) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* yr = y + r * lanes;
    for (std::size_t c = 0; c < cols; ++c) {
      const float wc = w[r * cols + c];
      const float* xc = x + c * lanes;
      for (std::size_t l = 0; l < lanes; ++l) yr[l] += wc * xc[l];
    }
  }
}

void lane_gemv_t_masked_ref(const float* w, std::size_t rows,
                            std::size_t cols, const float* g,
                            std::size_t lanes, float* y) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* gr = g + r * lanes;
    for (std::size_t c = 0; c < cols; ++c) {
      const float wc = w[r * cols + c];
      float* yc = y + c * lanes;
      for (std::size_t l = 0; l < lanes; ++l)
        if (gr[l] != 0.0f) yc[l] += wc * gr[l];
    }
  }
}

void outer_acc_batch_ref(const float* g, const std::size_t* g_off,
                         std::size_t g_stride, const float* const* x,
                         std::size_t count, std::size_t rows,
                         std::size_t cols, float* dw) {
  for (std::size_t k = 0; k < count; ++k)
    for (std::size_t r = 0; r < rows; ++r) {
      const float gk = g[g_off[k] + r * g_stride];
      if (gk == 0.0f) continue;
      for (std::size_t c = 0; c < cols; ++c) dw[r * cols + c] += gk * x[k][c];
    }
}

namespace {

#if PHFTL_ML_X86

/// lane_gemv over one block of NV·8 lanes (x and y point at the block's
/// first lane; `lanes` is the full tile stride). Two rows share each x load,
/// giving 2·NV independent add chains.
template <int NV>
PHFTL_TARGET_AVX2 void lane_gemv_block_avx2(const float* w, std::size_t rows,
                                            std::size_t cols, const float* x,
                                            std::size_t lanes, float* y) {
  std::size_t r = 0;
  for (; r + 2 <= rows; r += 2) {
    const float* w0 = w + r * cols;
    const float* w1 = w0 + cols;
    float* y0 = y + r * lanes;
    float* y1 = y0 + lanes;
    __m256 a0[NV], a1[NV];
#pragma GCC unroll 4
    for (int k = 0; k < NV; ++k) {
      a0[k] = _mm256_loadu_ps(y0 + 8 * k);
      a1[k] = _mm256_loadu_ps(y1 + 8 * k);
    }
    for (std::size_t c = 0; c < cols; ++c) {
      const __m256 b0 = _mm256_set1_ps(w0[c]);
      const __m256 b1 = _mm256_set1_ps(w1[c]);
      const float* xc = x + c * lanes;
#pragma GCC unroll 4
      for (int k = 0; k < NV; ++k) {
        const __m256 xv = _mm256_loadu_ps(xc + 8 * k);
        a0[k] = _mm256_add_ps(a0[k], _mm256_mul_ps(b0, xv));
        a1[k] = _mm256_add_ps(a1[k], _mm256_mul_ps(b1, xv));
      }
    }
#pragma GCC unroll 4
    for (int k = 0; k < NV; ++k) {
      _mm256_storeu_ps(y0 + 8 * k, a0[k]);
      _mm256_storeu_ps(y1 + 8 * k, a1[k]);
    }
  }
  if (r < rows) {
    const float* w0 = w + r * cols;
    float* y0 = y + r * lanes;
    __m256 a0[NV];
#pragma GCC unroll 4
    for (int k = 0; k < NV; ++k) a0[k] = _mm256_loadu_ps(y0 + 8 * k);
    for (std::size_t c = 0; c < cols; ++c) {
      const __m256 b0 = _mm256_set1_ps(w0[c]);
      const float* xc = x + c * lanes;
#pragma GCC unroll 4
      for (int k = 0; k < NV; ++k)
        a0[k] = _mm256_add_ps(a0[k],
                              _mm256_mul_ps(b0, _mm256_loadu_ps(xc + 8 * k)));
    }
#pragma GCC unroll 4
    for (int k = 0; k < NV; ++k) _mm256_storeu_ps(y0 + 8 * k, a0[k]);
  }
}

PHFTL_TARGET_AVX2 void lane_gemv_avx2(const float* w, std::size_t rows,
                                      std::size_t cols, const float* x,
                                      std::size_t lanes, float* y) {
  for (std::size_t lb = 0; lb < lanes; lb += 4 * kFloatLanes) {
    const float* xb = x + lb;
    float* yb = y + lb;
    switch (std::min<std::size_t>((lanes - lb) / kFloatLanes, 4)) {
      case 1:
        lane_gemv_block_avx2<1>(w, rows, cols, xb, lanes, yb);
        break;
      case 2:
        lane_gemv_block_avx2<2>(w, rows, cols, xb, lanes, yb);
        break;
      case 3:
        lane_gemv_block_avx2<3>(w, rows, cols, xb, lanes, yb);
        break;
      default:
        lane_gemv_block_avx2<4>(w, rows, cols, xb, lanes, yb);
        break;
    }
  }
}

/// lane_gemv_t_masked for the 8 lanes at g/y, columns [c0, c0 + NC): the NC
/// y vectors stay in registers across all `rows` updates. Without kMasked
/// every g is known to be nonzero, so the per-lane skip needs no blend.
template <int NC, bool kMasked>
PHFTL_TARGET_AVX2 void lane_gemv_t_block_avx2(const float* w, std::size_t rows,
                                              std::size_t cols, std::size_t c0,
                                              const float* g, std::size_t lanes,
                                              float* y) {
  __m256 acc[NC];
#pragma GCC unroll 8
  for (int j = 0; j < NC; ++j) acc[j] = _mm256_loadu_ps(y + (c0 + j) * lanes);
  for (std::size_t r = 0; r < rows; ++r) {
    const __m256 gv = _mm256_loadu_ps(g + r * lanes);
    const float* wr = w + r * cols + c0;
    if constexpr (kMasked) {
      // Unordered compare: a NaN gradient is "not zero", as in the scalar
      // `if (g == 0.0f) continue;`.
      const __m256 live = _mm256_cmp_ps(gv, _mm256_setzero_ps(), _CMP_NEQ_UQ);
#pragma GCC unroll 8
      for (int j = 0; j < NC; ++j)
        acc[j] = _mm256_blendv_ps(
            acc[j],
            _mm256_add_ps(acc[j], _mm256_mul_ps(_mm256_set1_ps(wr[j]), gv)),
            live);
    } else {
#pragma GCC unroll 8
      for (int j = 0; j < NC; ++j)
        acc[j] =
            _mm256_add_ps(acc[j], _mm256_mul_ps(_mm256_set1_ps(wr[j]), gv));
    }
  }
#pragma GCC unroll 8
  for (int j = 0; j < NC; ++j) _mm256_storeu_ps(y + (c0 + j) * lanes, acc[j]);
}

template <bool kMasked>
PHFTL_TARGET_AVX2 void lane_gemv_t_lanes_avx2(const float* w, std::size_t rows,
                                              std::size_t cols, const float* g,
                                              std::size_t lanes, float* y) {
  std::size_t c0 = 0;
  for (; c0 + 8 <= cols; c0 += 8)
    lane_gemv_t_block_avx2<8, kMasked>(w, rows, cols, c0, g, lanes, y);
  for (; c0 < cols; ++c0)
    lane_gemv_t_block_avx2<1, kMasked>(w, rows, cols, c0, g, lanes, y);
}

PHFTL_TARGET_AVX2 void lane_gemv_t_masked_avx2(const float* w,
                                               std::size_t rows,
                                               std::size_t cols,
                                               const float* g,
                                               std::size_t lanes, float* y) {
  for (std::size_t lb = 0; lb < lanes; lb += kFloatLanes) {
    // Blend only in lane blocks that hold a zero gradient somewhere.
    int zero = 0;
    for (std::size_t r = 0; r < rows; ++r)
      zero |= _mm256_movemask_ps(_mm256_cmp_ps(
          _mm256_loadu_ps(g + r * lanes + lb), _mm256_setzero_ps(),
          _CMP_EQ_OQ));
    if (zero)
      lane_gemv_t_lanes_avx2<true>(w, rows, cols, g + lb, lanes, y + lb);
    else
      lane_gemv_t_lanes_avx2<false>(w, rows, cols, g + lb, lanes, y + lb);
  }
}

/// outer_acc_batch over columns [c0, min(c0 + 8·NV, cols)): each dw row is
/// held in NV registers while all `count` updates are applied to it in
/// order. The last register may be partial; its masked lanes are never
/// loaded from x nor stored to dw.
template <int NV>
PHFTL_TARGET_AVX2 void outer_acc_block_avx2(
    const float* g, const std::size_t* g_off, std::size_t g_stride,
    const float* const* x, std::size_t count, std::size_t rows,
    std::size_t cols, std::size_t c0, float* dw) {
  constexpr std::size_t kLast = 8 * (NV - 1);
  const int tail =
      static_cast<int>(std::min<std::size_t>(cols - c0 - kLast, 8));
  const __m256i mask = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(tail), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = dw + r * cols + c0;
    const float* gr = g + r * g_stride;
    __m256 acc[NV];
#pragma GCC unroll 4
    for (int j = 0; j < NV - 1; ++j) acc[j] = _mm256_loadu_ps(row + 8 * j);
    acc[NV - 1] = _mm256_maskload_ps(row + kLast, mask);
    for (std::size_t k = 0; k < count; ++k) {
      const float gk = gr[g_off[k]];
      if (gk == 0.0f) continue;
      const __m256 gv = _mm256_set1_ps(gk);
      const float* xk = x[k] + c0;
#pragma GCC unroll 4
      for (int j = 0; j < NV - 1; ++j)
        acc[j] = _mm256_add_ps(acc[j],
                               _mm256_mul_ps(gv, _mm256_loadu_ps(xk + 8 * j)));
      acc[NV - 1] = _mm256_add_ps(
          acc[NV - 1], _mm256_mul_ps(gv, _mm256_maskload_ps(xk + kLast, mask)));
    }
#pragma GCC unroll 4
    for (int j = 0; j < NV - 1; ++j) _mm256_storeu_ps(row + 8 * j, acc[j]);
    _mm256_maskstore_ps(row + kLast, mask, acc[NV - 1]);
  }
}

PHFTL_TARGET_AVX2 void outer_acc_batch_avx2(
    const float* g, const std::size_t* g_off, std::size_t g_stride,
    const float* const* x, std::size_t count, std::size_t rows,
    std::size_t cols, float* dw) {
  for (std::size_t c0 = 0; c0 < cols; c0 += 4 * kFloatLanes) {
    const std::size_t nv =
        std::min<std::size_t>((cols - c0 + kFloatLanes - 1) / kFloatLanes, 4);
    switch (nv) {
      case 1:
        outer_acc_block_avx2<1>(g, g_off, g_stride, x, count, rows, cols, c0,
                                dw);
        break;
      case 2:
        outer_acc_block_avx2<2>(g, g_off, g_stride, x, count, rows, cols, c0,
                                dw);
        break;
      case 3:
        outer_acc_block_avx2<3>(g, g_off, g_stride, x, count, rows, cols, c0,
                                dw);
        break;
      default:
        outer_acc_block_avx2<4>(g, g_off, g_stride, x, count, rows, cols, c0,
                                dw);
        break;
    }
  }
}

#endif  // PHFTL_ML_X86

using LaneGemvFn = void (*)(const float*, std::size_t, std::size_t,
                            const float*, std::size_t, float*);
using OuterFn = void (*)(const float*, const std::size_t*, std::size_t,
                         const float* const*, std::size_t, std::size_t,
                         std::size_t, float*);

struct LaneKernels {
  LaneGemvFn gemv;
  LaneGemvFn gemv_t_masked;
  OuterFn outer;
};

LaneKernels resolve_lane_kernels() {
#if PHFTL_ML_X86
  if (__builtin_cpu_supports("avx2"))
    return {lane_gemv_avx2, lane_gemv_t_masked_avx2, outer_acc_batch_avx2};
#endif
  return {lane_gemv_ref, lane_gemv_t_masked_ref, outer_acc_batch_ref};
}

const LaneKernels g_lane = resolve_lane_kernels();

}  // namespace

void lane_gemv(const float* w, std::size_t rows, std::size_t cols,
               const float* x, std::size_t lanes, float* y) {
  g_lane.gemv(w, rows, cols, x, lanes, y);
}

void lane_gemv_t_masked(const float* w, std::size_t rows, std::size_t cols,
                        const float* g, std::size_t lanes, float* y) {
  g_lane.gemv_t_masked(w, rows, cols, g, lanes, y);
}

void outer_acc_batch(const float* g, const std::size_t* g_off,
                     std::size_t g_stride, const float* const* x,
                     std::size_t count, std::size_t rows, std::size_t cols,
                     float* dw) {
  g_lane.outer(g, g_off, g_stride, x, count, rows, cols, dw);
}

}  // namespace phftl::ml::kernels
