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
  p.pairs = (cols + 1) / 2;
  p.blocks = (rows + kRowBlock - 1) / kRowBlock;
  p.data.assign(p.pairs * p.blocks * 3 * PackedGates3::kTileSize, 0);
  const std::int8_t* gates[3] = {g0, g1, g2};
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      for (std::size_t g = 0; g < 3; ++g)
        p.data[p.tile_offset(c / 2, r / kRowBlock, g) + r % kRowBlock * 2 +
               c % 2] = gates[g][r * cols + c];
  return p;
}

namespace {

void fused_gemv3_scalar(const PackedGates3& m, const std::int8_t* x,
                        std::int32_t* out0, std::int32_t* out1,
                        std::int32_t* out2) {
  std::int32_t* out[3] = {out0, out1, out2};
  for (std::size_t b = 0; b < m.blocks; ++b) {
    std::int32_t acc[3][kRowBlock] = {};
    for (std::size_t p = 0; p < m.pairs; ++p) {
      const std::int32_t x0 = x[2 * p], x1 = x[2 * p + 1];
      for (std::size_t g = 0; g < 3; ++g) {
        const std::int16_t* t = m.tile(p, b, g);
        for (std::size_t i = 0; i < kRowBlock; ++i)
          acc[g][i] += t[2 * i] * x0 + t[2 * i + 1] * x1;
      }
    }
    const std::size_t n = std::min(kRowBlock, m.rows - b * kRowBlock);
    for (std::size_t g = 0; g < 3; ++g)
      std::memcpy(out[g] + b * kRowBlock, acc[g], n * sizeof(std::int32_t));
  }
}

#if PHFTL_ML_X86

/// Row blocks [b0, b0 + NB) of the fused GEMV, their 3·NB accumulators held
/// in registers across all column pairs. Each pair (x[2p], x[2p+1]) is
/// broadcast as one int16 pair; madd_epi16 against a tile gives each row's
/// w[r][2p]·x[2p] + w[r][2p+1]·x[2p+1] in int32, which cannot overflow:
/// |product| ≤ 128², and rows are at most a few hundred columns.
template <int NB>
PHFTL_TARGET_AVX2 void fused_gemv3_blocks_avx2(const PackedGates3& m,
                                               std::size_t b0,
                                               const std::int8_t* x,
                                               std::int32_t* const* out) {
  // acc[3b + g] is gate g of block b0 + b: the order of the tiles of one
  // column pair, so the tile loop walks memory straight through.
  constexpr int kAcc = 3 * NB;
  __m256i acc[kAcc];
#pragma GCC unroll 12
  for (int k = 0; k < kAcc; ++k) acc[k] = _mm256_setzero_si256();
  for (std::size_t p = 0; p < m.pairs; ++p) {
    const std::uint32_t pair =
        static_cast<std::uint16_t>(x[2 * p]) |
        static_cast<std::uint32_t>(static_cast<std::uint16_t>(x[2 * p + 1]))
            << 16;
    const __m256i xv = _mm256_set1_epi32(static_cast<int>(pair));
    const std::int16_t* t = m.tile(p, b0, 0);
#pragma GCC unroll 12
    for (int k = 0; k < kAcc; ++k)
      acc[k] = _mm256_add_epi32(
          acc[k], _mm256_madd_epi16(_mm256_loadu_si256(
                                        reinterpret_cast<const __m256i*>(
                                            t + k * PackedGates3::kTileSize)),
                                    xv));
  }
#pragma GCC unroll 12
  for (int k = 0; k < kAcc; ++k) {
    const std::size_t row = (b0 + k / 3) * kRowBlock;
    std::int32_t* dst = out[k % 3] + row;
    if (m.rows - row >= kRowBlock) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), acc[k]);
    } else {
      alignas(32) std::int32_t tmp[kRowBlock];
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), acc[k]);
      std::memcpy(dst, tmp, (m.rows - row) * sizeof(std::int32_t));
    }
  }
}

PHFTL_TARGET_AVX2 void fused_gemv3_avx2(const PackedGates3& m,
                                        const std::int8_t* x,
                                        std::int32_t* out0, std::int32_t* out1,
                                        std::int32_t* out2) {
  std::int32_t* const out[3] = {out0, out1, out2};
  // Up to four row blocks (32 rows, the paper's hidden size) per pass:
  // 12 accumulators, the pair broadcast and a weight tile fit the 16
  // AVX2 registers.
  for (std::size_t b0 = 0; b0 < m.blocks; b0 += 4) {
    switch (std::min<std::size_t>(m.blocks - b0, 4)) {
      case 1:
        fused_gemv3_blocks_avx2<1>(m, b0, x, out);
        break;
      case 2:
        fused_gemv3_blocks_avx2<2>(m, b0, x, out);
        break;
      case 3:
        fused_gemv3_blocks_avx2<3>(m, b0, x, out);
        break;
      default:
        fused_gemv3_blocks_avx2<4>(m, b0, x, out);
        break;
    }
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
