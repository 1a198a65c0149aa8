#include "ml/kernels.hpp"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PHFTL_KERNELS_X86 1
#include <immintrin.h>
#endif

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

#if PHFTL_KERNELS_X86

#ifndef __AVX2__
__attribute__((target("avx2")))
#endif
inline std::int32_t hsum_epi32(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

#ifndef __AVX2__
__attribute__((target("avx2")))
#endif
void fused_gemv3_avx2(const PackedGates3& m, const std::int8_t* x,
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

#endif  // PHFTL_KERNELS_X86

using KernelFn = void (*)(const PackedGates3&, const std::int8_t*,
                          std::int32_t*, std::int32_t*, std::int32_t*);

KernelFn resolve_kernel() {
#if PHFTL_KERNELS_X86
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
#if PHFTL_KERNELS_X86
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

}  // namespace phftl::ml::kernels
