// Kernel layer: exactness against the reference scalar paths.
//
// The fused int8 kernels accumulate in int32, so their results must be *bit
// identical* to the naive loops regardless of which dispatch target (scalar
// or AVX2) runs — these tests assert that, both at the GEMV level and
// end-to-end through QuantizedGru::predict_incremental. The float lane
// kernels and the array activations keep the scalar operation order per
// output, so they too must match their scalar definitions bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "ml/activations.hpp"
#include "ml/gru.hpp"
#include "ml/kernels.hpp"
#include "ml/qgru.hpp"
#include "util/rng.hpp"

namespace phftl::ml {
namespace {

std::vector<std::int8_t> random_i8(std::size_t n, Xoshiro256& rng) {
  std::vector<std::int8_t> v(n);
  for (auto& x : v)
    x = static_cast<std::int8_t>(static_cast<int>(rng.next_below(255)) - 127);
  return v;
}

std::vector<float> random_unit_vec(std::size_t n, Xoshiro256& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.next_double());
  return v;
}

TEST(PackedGates3, LayoutPairsColumnsAndZeroPads) {
  // 2 rows x 3 cols, three distinct matrices: 2 column pairs, 1 row block.
  const std::int8_t g0[] = {1, 2, 3, 4, 5, 6};
  const std::int8_t g1[] = {10, 20, 30, 40, 50, 60};
  const std::int8_t g2[] = {-1, -2, -3, -4, -5, -6};
  const auto p = kernels::pack_gates3(g0, g1, g2, 2, 3);
  EXPECT_EQ(p.rows, 2u);
  EXPECT_EQ(p.cols, 3u);
  EXPECT_EQ(p.pairs, 2u);
  EXPECT_EQ(p.blocks, 1u);
  ASSERT_EQ(p.data.size(), 2 * 1 * 3 * kernels::PackedGates3::kTileSize);
  // Tiles follow pair, then block, then gate; a tile holds each row's
  // (w[r][2p], w[r][2p+1]) in row order.
  EXPECT_EQ(p.tile(0, 0, 0) - p.data.data(), 0);
  EXPECT_EQ(p.tile(0, 0, 2) - p.tile(0, 0, 1),
            static_cast<std::ptrdiff_t>(kernels::PackedGates3::kTileSize));
  EXPECT_EQ(p.tile(1, 0, 0) - p.tile(0, 0, 2),
            static_cast<std::ptrdiff_t>(kernels::PackedGates3::kTileSize));
  const std::vector<std::int16_t> pair0_gate0(p.tile(0, 0, 0),
                                              p.tile(0, 0, 0) + 16);
  EXPECT_EQ(pair0_gate0, (std::vector<std::int16_t>{1, 2, 4, 5, 0, 0, 0, 0,
                                                    0, 0, 0, 0, 0, 0, 0, 0}));
  const std::vector<std::int16_t> pair1_gate1(p.tile(1, 0, 1),
                                              p.tile(1, 0, 1) + 16);
  // Column 3 pads the odd count, rows 2-7 pad the row block: all zero.
  EXPECT_EQ(pair1_gate1, (std::vector<std::int16_t>{30, 0, 60, 0, 0, 0, 0, 0,
                                                    0, 0, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(p.tile(1, 0, 2)[0], -3);
  EXPECT_EQ(p.tile(1, 0, 2)[2], -6);
}

TEST(FusedGemv3, MatchesReferenceGemvExactly) {
  Xoshiro256 rng(11);
  // Odd column counts exercise the padding column, row counts off a
  // multiple of 8 the padded row block and its partial store, and more
  // than 32 rows a second register pass.
  const std::size_t shapes[][2] = {{1, 1},   {3, 5},   {16, 6},  {32, 32},
                                   {32, 20}, {24, 7},  {40, 33}, {64, 96},
                                   {12, 9},  {33, 40}, {7, 1},   {71, 13}};
  for (const auto& shape : shapes)
    for (const bool extremes : {false, true}) {
      const std::size_t rows = shape[0], cols = shape[1];
      SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols) +
                   (extremes ? " with -128" : ""));
      auto g0 = random_i8(rows * cols, rng);
      auto g1 = random_i8(rows * cols, rng);
      auto g2 = random_i8(rows * cols, rng);
      auto xv = random_i8(cols, rng);
      if (extremes) {
        // int8's full range: -128 weights and inputs, whose products are
        // the largest the int16 multiply-add sees.
        for (auto* v : {&g0, &g1, &g2, &xv})
          for (std::size_t i = 0; i < v->size(); i += 2) (*v)[i] = -128;
      }
      const auto p = kernels::pack_gates3(g0.data(), g1.data(), g2.data(),
                                          rows, cols);
      // x readable up to whole column pairs; the padding value is ignored.
      std::vector<std::int8_t> x(2 * p.pairs, 99);
      std::copy(xv.begin(), xv.end(), x.begin());

      std::vector<std::int32_t> out0(rows + 1, 7), out1(rows + 1, 7),
          out2(rows + 1, 7);
      kernels::fused_gemv3_i8(p, x.data(), out0.data(), out1.data(),
                              out2.data());
      std::vector<std::int32_t> ref0(rows + 1, 7), ref1(rows + 1, 7),
          ref2(rows + 1, 7);
      kernels::gemv_i8_ref(g0.data(), rows, cols, x.data(), ref0.data());
      kernels::gemv_i8_ref(g1.data(), rows, cols, x.data(), ref1.data());
      kernels::gemv_i8_ref(g2.data(), rows, cols, x.data(), ref2.data());
      // The guard element past the rows stays untouched.
      EXPECT_EQ(out0, ref0);
      EXPECT_EQ(out1, ref1);
      EXPECT_EQ(out2, ref2);
    }
}

/// Random floats in [-1, 1). With `zeros`, about a quarter are exact zeros
/// of either sign, so the kernels' zero-gradient skips and signed-zero sums
/// are exercised; without, the AVX2 transpose takes its blend-free path.
std::vector<float> random_floats(std::size_t n, Xoshiro256& rng,
                                 bool zeros) {
  std::vector<float> v(n);
  for (auto& x : v) {
    const std::uint64_t k = zeros ? rng.next_below(8) : 2;
    x = k == 0 ? 0.0f
        : k == 1 ? -0.0f
                 : static_cast<float>(rng.next_double() * 2.0 - 1.0);
  }
  return v;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(FloatLaneKernels, DispatchedMatchScalarBitForBit) {
  // On an AVX2 host this compares the AVX2 kernels with their scalar
  // definitions; the shapes cover every lane-block width (8-40 lanes),
  // 2-row blocking with an odd tail row, column tails, and column blocks
  // past 32.
  Xoshiro256 rng(5150);
  const std::size_t row_counts[] = {1, 2, 3, 5, 32};
  const std::size_t col_counts[] = {1, 3, 9, 20, 32, 38, 72};
  const std::size_t lane_counts[] = {8, 16, 24, 32, 40};
  for (std::size_t rows : row_counts)
    for (std::size_t cols : col_counts)
      for (std::size_t lanes : lane_counts)
        for (bool zeros : {true, false}) {
          SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols) +
                       ", " + std::to_string(lanes) + " lanes" +
                       (zeros ? ", with zeros" : ""));
          const auto w = random_floats(rows * cols, rng, zeros);
          const auto x = random_floats(cols * lanes, rng, zeros);
          const auto g = random_floats(rows * lanes, rng, zeros);

          const auto y0 = random_floats(rows * lanes, rng, zeros);
          auto y = y0, y_ref = y0;
          kernels::lane_gemv(w.data(), rows, cols, x.data(), lanes, y.data());
          kernels::lane_gemv_ref(w.data(), rows, cols, x.data(), lanes,
                                 y_ref.data());
          EXPECT_TRUE(same_bits(y, y_ref)) << "lane_gemv";

          const auto yt0 = random_floats(cols * lanes, rng, zeros);
          auto yt = yt0, yt_ref = yt0;
          kernels::lane_gemv_t_masked(w.data(), rows, cols, g.data(), lanes,
                                      yt.data());
          kernels::lane_gemv_t_masked_ref(w.data(), rows, cols, g.data(), lanes,
                                          yt_ref.data());
          EXPECT_TRUE(same_bits(yt, yt_ref)) << "lane_gemv_t_masked";

          // Updates read g columns (lane k % lanes) and x rows in a
          // scrambled, repeating order.
          const std::size_t count = lanes + 3;
          std::vector<std::size_t> g_off(count);
          std::vector<const float*> xs(count);
          for (std::size_t k = 0; k < count; ++k) {
            g_off[k] = (k * 5) % lanes;
            xs[k] = x.data() + rng.next_below(lanes) * cols;
          }
          const auto dw0 = random_floats(rows * cols, rng, zeros);
          auto dw = dw0, dw_ref = dw0;
          kernels::outer_acc_batch(g.data(), g_off.data(), lanes, xs.data(),
                                   count, rows, cols, dw.data());
          kernels::outer_acc_batch_ref(g.data(), g_off.data(), lanes, xs.data(),
                                       count, rows, cols, dw_ref.data());
          EXPECT_TRUE(same_bits(dw, dw_ref)) << "outer_acc_batch";
        }
}

TEST(FloatLaneKernels, MaskedTransposeSkipsZeroGradientsPerLane) {
  // A zero gradient must leave its lane untouched even where adding
  // w * 0 would flip a -0.0 accumulator to +0.0.
  const std::vector<float> w = {2.0f};  // 1 x 1
  std::vector<float> g(kernels::kFloatLanes, 0.0f);
  g[1] = 0.5f;
  std::vector<float> y(kernels::kFloatLanes, -0.0f);
  kernels::lane_gemv_t_masked(w.data(), 1, 1, g.data(), kernels::kFloatLanes,
                              y.data());
  EXPECT_TRUE(std::signbit(y[0]));
  EXPECT_EQ(y[1], 1.0f);
}

// ---------------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------------

std::uint32_t bits_of(float x) { return std::bit_cast<std::uint32_t>(x); }

/// Calls fn(chunk) over every finite float whose bit pattern is a multiple
/// of 389: 1.1e7 values, both signs, every exponent, subnormals included.
/// Returns how many values it visited.
template <class Fn>
std::size_t for_each_sweep_chunk(Fn fn) {
  constexpr std::uint64_t kStride = 389;
  std::vector<float> chunk;
  std::size_t visited = 0;
  for (std::uint64_t b = 0; b < (std::uint64_t{1} << 32); b += kStride) {
    const float x = std::bit_cast<float>(static_cast<std::uint32_t>(b));
    if (!std::isfinite(x)) continue;
    chunk.push_back(x);
    if (chunk.size() == 4096) {
      fn(chunk);
      visited += chunk.size();
      chunk.clear();
    }
  }
  fn(chunk);
  return visited + chunk.size();
}

/// ±0, subnormals, ±FLT_MIN, ±FLT_MAX, ±inf, and the ends of the
/// implementation's ranges (tanh's polynomial cut at 0.625, exp's clamp).
std::vector<float> activation_specials() {
  const float inf = std::numeric_limits<float>::infinity();
  const float pos[] = {0.0f,
                       std::numeric_limits<float>::denorm_min(),
                       std::bit_cast<float>(std::uint32_t{0x00400000}),
                       std::bit_cast<float>(std::uint32_t{0x007FFFFF}),
                       FLT_MIN,
                       1e-20f,
                       1e-4f,
                       0.625f,
                       std::nextafter(0.625f, 0.0f),
                       1.0f,
                       44.0f,
                       87.0f,
                       88.0f,
                       89.0f,
                       FLT_MAX,
                       inf};
  std::vector<float> v;
  for (float x : pos) {
    v.push_back(x);
    v.push_back(-x);
  }
  return v;
}

struct Activation {
  const char* name;
  void (*inplace)(float*, std::size_t);
  float (*scalar)(float);
};
const Activation kActivations[] = {
    {"sigmoid", act::sigmoid_inplace, act::sigmoid},
    {"tanh", act::tanh_inplace, act::tanh}};

TEST(Activations, DispatchedMatchScalarOverFiniteSweep) {
  std::size_t mismatches = 0;
  const std::size_t visited =
      for_each_sweep_chunk([&](const std::vector<float>& x) {
        for (const auto& f : kActivations) {
          auto y = x;
          f.inplace(y.data(), y.size());
          for (std::size_t i = 0; i < x.size(); ++i)
            if (bits_of(y[i]) != bits_of(f.scalar(x[i])) && mismatches++ == 0)
              ADD_FAILURE() << f.name << "(" << x[i] << "): dispatched "
                            << y[i] << " vs scalar " << f.scalar(x[i]);
        }
      });
  EXPECT_GE(visited, 10'000'000u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(Activations, DispatchedMatchScalarAtSpecialValuesAndEveryTail) {
  // Lengths 0-40 put every remainder mod 8 behind zero to five full
  // vectors; the guard element past the end must stay untouched.
  const auto specials = activation_specials();
  Xoshiro256 rng(404);
  for (std::size_t n = 0; n <= 40; ++n) {
    SCOPED_TRACE("length " + std::to_string(n));
    std::vector<float> x(n + 1);
    for (std::size_t i = 0; i < n; ++i)
      x[i] = i % 2 ? specials[(i / 2 + n) % specials.size()]
                   : static_cast<float>(rng.next_gaussian() * 4.0);
    x[n] = 12345.0f;
    for (const auto& f : kActivations) {
      auto y = x;
      f.inplace(y.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(bits_of(y[i]), bits_of(f.scalar(x[i]))) << "x = " << x[i];
      EXPECT_EQ(bits_of(y[n]), bits_of(12345.0f));
    }
  }
  // Every special value in every lane position of a full vector.
  for (std::size_t shift = 0; shift < kernels::kFloatLanes; ++shift) {
    std::vector<float> x(specials.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] = specials[(i + shift) % specials.size()];
    for (const auto& f : kActivations) {
      auto y = x;
      f.inplace(y.data(), y.size());
      for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_EQ(bits_of(y[i]), bits_of(f.scalar(x[i]))) << "x = " << x[i];
    }
  }
}

TEST(Activations, ScalarDefinitionsArePinned) {
  // PHFTL's floats depend on these bits alone, so no target or compiler
  // may change them: this catches a multiply-add fused into an FMA, which
  // the parity test above misses when both paths fuse alike. The hash is
  // FNV-1a over every sweep value's sigmoid and tanh bits; change it only
  // with the definitions, and record the model drift that follows.
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](float y) {
    const std::uint32_t b = bits_of(y);
    for (int k = 0; k < 4; ++k) {
      h ^= (b >> (8 * k)) & 0xFFu;
      h *= 1099511628211ull;
    }
  };
  for_each_sweep_chunk([&](const std::vector<float>& x) {
    for (float v : x) {
      mix(act::sigmoid(v));
      mix(act::tanh(v));
    }
  });
  EXPECT_EQ(h, 3604304238054817182ull);
}

double sigmoid_exact(float x) { return 1.0 / (1.0 + std::exp(-double{x})); }

double tanh_exact(float x) {
  const double a = std::fabs(double{x});
  const double t = a < 20.0 ? std::expm1(2.0 * a) / (std::expm1(2.0 * a) + 2.0)
                            : 1.0;
  return std::copysign(t, double{x});
}

TEST(Activations, AbsoluteErrorAtMostTwoToMinus21) {
  double sigmoid_err = 0.0, tanh_err = 0.0;
  float sigmoid_at = 0.0f, tanh_at = 0.0f;
  auto check = [&](const std::vector<float>& x) {
    for (float v : x) {
      const double es = std::fabs(act::sigmoid(v) - sigmoid_exact(v));
      const double et = std::fabs(act::tanh(v) - tanh_exact(v));
      if (es > sigmoid_err) sigmoid_err = es, sigmoid_at = v;
      if (et > tanh_err) tanh_err = et, tanh_at = v;
    }
  };
  for_each_sweep_chunk(check);
  check(activation_specials());
  const double bound = std::ldexp(1.0, -21);
  EXPECT_LE(sigmoid_err, bound) << "at x = " << sigmoid_at;
  EXPECT_LE(tanh_err, bound) << "at x = " << tanh_at;
}

TEST(Activations, TanhIsOddAndBothStayInRange) {
  std::size_t bad = 0;
  auto check = [&](const std::vector<float>& x) {
    for (float v : x) {
      const float s = act::sigmoid(v), t = act::tanh(v);
      const bool ok = bits_of(act::tanh(-v)) == bits_of(-t) && s >= 0.0f &&
                      s <= 1.0f && t >= -1.0f && t <= 1.0f;
      if (!ok && bad++ == 0)
        ADD_FAILURE() << "x = " << v << ": sigmoid " << s << ", tanh " << t
                      << ", tanh(-x) " << act::tanh(-v);
    }
  };
  for_each_sweep_chunk(check);
  check(activation_specials());
  EXPECT_EQ(bad, 0u);
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(act::tanh(inf), 1.0f);
  EXPECT_EQ(act::tanh(-inf), -1.0f);
  EXPECT_EQ(act::sigmoid(inf), 1.0f);
  EXPECT_LE(act::sigmoid(-inf), FLT_MIN);
  EXPECT_TRUE(std::signbit(act::tanh(-0.0f)));
}

/// End-to-end parity: the fused predict_incremental must return the same
/// class and leave the same int8 hidden state as the retained reference
/// implementation, bit for bit, over randomized models and sequences.
TEST(QuantizedGruFused, BitExactAgainstReferenceAcrossRandomModels) {
  Xoshiro256 rng(2027);
  // Hidden sizes off a multiple of 8 (12, 33) run the float tail's scalar
  // remainder after its AVX2 vectors.
  const std::size_t dims[][2] = {{6, 16}, {20, 32}, {7, 24},
                                 {33, 40}, {20, 12}, {9, 33}};
  for (const auto& d : dims) {
    GruClassifier::Config cfg;
    cfg.input_dim = d[0];
    cfg.hidden_dim = d[1];
    cfg.seed = 100 + d[0];
    GruClassifier model(cfg);
    // Nonzero biases, as after training: with the initial zeros a misordered
    // bias add would still round alike.
    for (float& p : model.store().all_params())
      p += static_cast<float>(0.2 * rng.next_gaussian());
    QuantizedGru q(model);
    q.set_decision_bias(static_cast<float>(rng.next_gaussian()));

    for (int trial = 0; trial < 10; ++trial) {
      std::vector<std::int8_t> h_fused(q.hidden_dim(), 0);
      std::vector<std::int8_t> h_ref(q.hidden_dim(), 0);
      for (int t = 0; t < 12; ++t) {
        const auto x = random_unit_vec(d[0], rng);
        const int cls_fused = q.predict_incremental(x, h_fused);
        const std::vector<float> float_fused(q.last_hidden().begin(),
                                             q.last_hidden().end());
        const int cls_ref = q.predict_incremental_reference(x, h_ref);
        // The float hidden state too: int8 rounding would hide a float
        // tail that drifted by an ulp.
        ASSERT_TRUE(same_bits(float_fused, std::vector<float>(
                                               q.last_hidden().begin(),
                                               q.last_hidden().end())))
            << "float hidden state diverged at dims " << d[0] << "x" << d[1]
            << " trial " << trial << " step " << t;
        ASSERT_EQ(cls_fused, cls_ref)
            << "dims " << d[0] << "x" << d[1] << " trial " << trial
            << " step " << t;
        ASSERT_EQ(0, std::memcmp(h_fused.data(), h_ref.data(),
                                 h_fused.size()))
            << "hidden state diverged at dims " << d[0] << "x" << d[1]
            << " trial " << trial << " step " << t;
      }
    }
  }
}

/// Parity must also hold for a *trained* model (weights far from init) and
/// across redeployments.
TEST(QuantizedGruFused, BitExactAfterTraining) {
  GruClassifier::Config cfg;
  cfg.input_dim = 6;
  cfg.hidden_dim = 16;
  cfg.seed = 21;
  GruClassifier model(cfg);
  Xoshiro256 rng(77);
  std::vector<Sequence> data;
  for (int i = 0; i < 200; ++i) {
    Sequence s;
    for (int t = 0; t < 4; ++t) s.steps.push_back(random_unit_vec(6, rng));
    s.label = s.steps.back()[0] > 0.5f ? 1 : 0;
    data.push_back(std::move(s));
  }
  Xoshiro256 train_rng(4);
  for (int e = 0; e < 10; ++e) model.train_epoch(data, 32, train_rng);

  const QuantizedGru q(model);
  std::vector<std::int8_t> h_fused(q.hidden_dim(), 0);
  std::vector<std::int8_t> h_ref(q.hidden_dim(), 0);
  for (int t = 0; t < 64; ++t) {
    const auto x = random_unit_vec(6, rng);
    const int cls_fused = q.predict_incremental(x, h_fused);
    const std::vector<float> float_fused(q.last_hidden().begin(),
                                         q.last_hidden().end());
    ASSERT_EQ(cls_fused, q.predict_incremental_reference(x, h_ref));
    ASSERT_TRUE(same_bits(float_fused,
                          std::vector<float>(q.last_hidden().begin(),
                                             q.last_hidden().end())));
    ASSERT_EQ(0, std::memcmp(h_fused.data(), h_ref.data(), h_fused.size()));
  }
}

}  // namespace
}  // namespace phftl::ml
