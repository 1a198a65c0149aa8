#include "ml/activations.hpp"

#include <bit>
#include <cstdint>
#include <iterator>

#include "ml/avx2_target.hpp"

namespace phftl::ml::act {
namespace {

// e^t is evaluated only for t in [kExpLo, kExpHi], where 2^n is a normal
// float; callers clamp first. Past those ends σ and tanh are already 0, 1
// or ±1 to well within the error bound.
constexpr float kExpLo = -87.0f;
constexpr float kExpHi = 88.0f;
constexpr float kLog2e = 1.44269504088896341f;
// Adding 1.5·2^23 rounds a float of magnitude below 2^22 to an integer
// (ties to even) and leaves that integer in the low mantissa bits.
constexpr float kRoundInt = 12582912.0f;
// ln 2 split so that n·kLn2Hi is exact (kLn2Hi has 9 significant bits).
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
// e^r ≈ 1 + r + r²·P(r) on |r| ≤ ln2/2 (the Cephes single-precision
// exp), P highest order first.
constexpr float kExpP[] = {1.9875691500e-4f, 1.3981999507e-3f,
                           8.3334519073e-3f, 4.1665795894e-2f,
                           1.6666665459e-1f, 5.0000001201e-1f};
// Below kTanhSmall, tanh(a) ≈ a + a·s·Q(s) with s = a² (the Cephes
// single-precision tanh), which keeps small arguments accurate to a few ulp
// where 1 − 2/(e^2a + 1) would cancel.
constexpr float kTanhSmall = 0.625f;
constexpr float kTanhQ[] = {-5.70498872745e-3f, 2.06390887954e-2f,
                            -5.37397155531e-2f, 1.33314422036e-1f,
                            -3.33332819422e-1f};
constexpr std::uint32_t kSignBit = 0x80000000u;
constexpr std::uint32_t kOneBits = 0x3F800000u;  // 2^n is (n << 23) + this

// Written the way minps/maxps compare, so a NaN v passes through both.
inline float min_hi(float hi, float v) { return hi < v ? hi : v; }
inline float max_lo(float lo, float v) { return lo > v ? lo : v; }

/// e^t for t in [kExpLo, kExpHi]. exp_reduced8 below is its AVX2 twin:
/// keep every operation and its order in step with it.
inline float exp_reduced(float t) {
  const float k = t * kLog2e + kRoundInt;
  const float n = k - kRoundInt;
  float r = t - n * kLn2Hi;
  r = r - n * kLn2Lo;
  float p = kExpP[0];
  for (std::size_t i = 1; i < std::size(kExpP); ++i) p = p * r + kExpP[i];
  p = p * (r * r) + r + 1.0f;
  const float scale = std::bit_cast<float>(
      (std::bit_cast<std::uint32_t>(k) << 23) + kOneBits);
  return p * scale;
}

}  // namespace

float sigmoid(float x) {
  const float e = exp_reduced(min_hi(kExpHi, max_lo(kExpLo, -x)));
  return 1.0f / (1.0f + e);
}

float tanh(float x) {
  const std::uint32_t sign = std::bit_cast<std::uint32_t>(x) & kSignBit;
  const float a = std::bit_cast<float>(std::bit_cast<std::uint32_t>(x) ^ sign);
  float y;
  if (a < kTanhSmall) {
    const float s = a * a;
    float q = kTanhQ[0];
    for (std::size_t i = 1; i < std::size(kTanhQ); ++i) q = q * s + kTanhQ[i];
    y = q * s * a + a;
  } else {
    const float e = exp_reduced(min_hi(kExpHi, a + a));
    y = 1.0f - 2.0f / (e + 1.0f);
  }
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(y) | sign);
}

namespace {

void sigmoid_scalar(float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = sigmoid(x[i]);
}

void tanh_scalar(float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = tanh(x[i]);
}

#if PHFTL_ML_X86

PHFTL_TARGET_AVX2 inline __m256 exp_reduced8(__m256 t) {
  const __m256 round = _mm256_set1_ps(kRoundInt);
  const __m256 k =
      _mm256_add_ps(_mm256_mul_ps(t, _mm256_set1_ps(kLog2e)), round);
  const __m256 n = _mm256_sub_ps(k, round);
  __m256 r = _mm256_sub_ps(t, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Hi)));
  r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Lo)));
  __m256 p = _mm256_set1_ps(kExpP[0]);
  for (std::size_t i = 1; i < std::size(kExpP); ++i)
    p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP[i]));
  p = _mm256_add_ps(
      _mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r),
      _mm256_set1_ps(1.0f));
  const __m256i scale =
      _mm256_add_epi32(_mm256_slli_epi32(_mm256_castps_si256(k), 23),
                       _mm256_set1_epi32(static_cast<int>(kOneBits)));
  return _mm256_mul_ps(p, _mm256_castsi256_ps(scale));
}

PHFTL_TARGET_AVX2 inline __m256 sigmoid8(__m256 x) {
  const __m256 neg = _mm256_xor_ps(x, _mm256_set1_ps(-0.0f));
  const __m256 t = _mm256_min_ps(
      _mm256_set1_ps(kExpHi), _mm256_max_ps(_mm256_set1_ps(kExpLo), neg));
  const __m256 one = _mm256_set1_ps(1.0f);
  return _mm256_div_ps(one, _mm256_add_ps(one, exp_reduced8(t)));
}

/// Both tanh branches run on every element; the blend keeps the one the
/// scalar `if` takes.
PHFTL_TARGET_AVX2 inline __m256 tanh8(__m256 x) {
  const __m256 sign = _mm256_and_ps(x, _mm256_set1_ps(-0.0f));
  const __m256 a = _mm256_xor_ps(x, sign);
  const __m256 s = _mm256_mul_ps(a, a);
  __m256 q = _mm256_set1_ps(kTanhQ[0]);
  for (std::size_t i = 1; i < std::size(kTanhQ); ++i)
    q = _mm256_add_ps(_mm256_mul_ps(q, s), _mm256_set1_ps(kTanhQ[i]));
  const __m256 small = _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(q, s), a), a);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = exp_reduced8(
      _mm256_min_ps(_mm256_set1_ps(kExpHi), _mm256_add_ps(a, a)));
  const __m256 large = _mm256_sub_ps(
      one, _mm256_div_ps(_mm256_set1_ps(2.0f), _mm256_add_ps(e, one)));
  const __m256 is_small =
      _mm256_cmp_ps(a, _mm256_set1_ps(kTanhSmall), _CMP_LT_OQ);
  return _mm256_or_ps(_mm256_blendv_ps(large, small, is_small), sign);
}

PHFTL_TARGET_AVX2 void sigmoid_avx2(float* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(x + i, sigmoid8(_mm256_loadu_ps(x + i)));
  for (; i < n; ++i) x[i] = sigmoid(x[i]);
}

PHFTL_TARGET_AVX2 void tanh_avx2(float* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(x + i, tanh8(_mm256_loadu_ps(x + i)));
  for (; i < n; ++i) x[i] = tanh(x[i]);
}

#endif  // PHFTL_ML_X86

using ArrayFn = void (*)(float*, std::size_t);

struct ArrayFns {
  ArrayFn sigmoid;
  ArrayFn tanh;
};

ArrayFns resolve_array_fns() {
#if PHFTL_ML_X86
  if (__builtin_cpu_supports("avx2")) return {sigmoid_avx2, tanh_avx2};
#endif
  return {sigmoid_scalar, tanh_scalar};
}

const ArrayFns g_array = resolve_array_fns();

}  // namespace

void sigmoid_inplace(float* x, std::size_t n) { g_array.sigmoid(x, n); }

void tanh_inplace(float* x, std::size_t n) { g_array.tanh(x, n); }

}  // namespace phftl::ml::act
