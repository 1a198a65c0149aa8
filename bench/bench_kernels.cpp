// Kernel-layer micro-benchmarks (google-benchmark).
//
// Tracks the hot paths this repo optimizes:
//
//  * predict_incremental — one call per host write. Fused packed-gate
//    kernels + reusable scratch vs the retained reference implementation
//    (six naive GEMVs + six heap allocations per call). Beside it, the
//    §III-C design points: recomputing the whole feature sequence (O(N))
//    instead of one step from the cached hidden state (O(1)), the float
//    model's step, and one int8 quantization of the trained model.
//  * activations — one gate's 32 sigmoids or tanhs, through libm, through
//    the scalar definitions in ml/activations.hpp, and through their
//    dispatched array path (AVX2 where the CPU has it).
//  * window training — one GRU epoch (lane-batched BPTT), one
//    logistic-regression fit and one threshold adjustment (Algorithm 1),
//    run once per window. The epoch and Algorithm 1 run on the host's
//    fork-join team (util/team.hpp); their *Inline twins run the same
//    bodies on one thread, as a one-CPU host or a grid job would.
//  * GC victim selection — greedy via the incremental victim index (O(1)
//    pop) and Adjusted Greedy via the bounded ascending-bucket scan, vs
//    the historical full superblock scan. Run at 1k and 10k superblocks:
//    the indexed variants must stay flat while the scans grow ~10x.
//  * meta-page cache — random vs sequential metadata lookups, the
//    locality the §III-C meta layout is designed for.
//
// Emit the perf-trajectory artifact with:
//   ./build/bench/bench_kernels --benchmark_out=BENCH_kernels.json
//                               --benchmark_out_format=json  (one line)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/base_ftl.hpp"
#include "core/features.hpp"
#include "core/meta.hpp"
#include "core/threshold.hpp"
#include "ftl/victim_policy.hpp"
#include "ml/activations.hpp"
#include "ml/gru.hpp"
#include "ml/kernels.hpp"
#include "ml/logreg.hpp"
#include "ml/qgru.hpp"
#include "util/rng.hpp"
#include "util/team.hpp"

namespace {

using namespace phftl;

// --- predict_incremental: fused vs reference ---

ml::GruClassifier make_float_model() {
  ml::GruClassifier::Config cfg;
  cfg.input_dim = core::kInputDim;
  cfg.hidden_dim = 32;  // paper configuration: 32 B hidden state per page
  return ml::GruClassifier(cfg);
}

ml::QuantizedGru make_deployed_model() {
  return ml::QuantizedGru(make_float_model());
}

std::vector<float> random_input(Xoshiro256& rng) {
  core::RawFeatures raw;
  raw.prev_lifetime = static_cast<std::uint32_t>(rng.next_below(100000));
  raw.io_len = static_cast<std::uint16_t>(rng.next_below(64));
  raw.chunk_write = static_cast<std::uint16_t>(rng.next_below(256));
  raw.chunk_read = static_cast<std::uint16_t>(rng.next_below(256));
  raw.rw_percent = static_cast<std::uint8_t>(rng.next_below(100));
  raw.is_seq = rng.next_bool(0.3);
  return core::encode_features(raw);
}

void BM_PredictIncrementalFused(benchmark::State& state) {
  const auto q = make_deployed_model();
  Xoshiro256 rng(1);
  const auto x = random_input(rng);
  std::vector<std::int8_t> h(q.hidden_dim(), 0);
  for (auto _ : state) benchmark::DoNotOptimize(q.predict_incremental(x, h));
  state.counters["MACs"] = static_cast<double>(q.macs_per_step());
  state.counters["avx2"] = ml::kernels::fused_gemv3_uses_avx2() ? 1 : 0;
}
BENCHMARK(BM_PredictIncrementalFused);

void BM_PredictIncrementalReference(benchmark::State& state) {
  const auto q = make_deployed_model();
  Xoshiro256 rng(1);
  const auto x = random_input(rng);
  std::vector<std::int8_t> h(q.hidden_dim(), 0);
  for (auto _ : state)
    benchmark::DoNotOptimize(q.predict_incremental_reference(x, h));
}
BENCHMARK(BM_PredictIncrementalReference);

// --- The O(N) alternative, the float step, and quantization ---

void BM_Int8FullSequencePredict(benchmark::State& state) {
  const auto q = make_deployed_model();
  Xoshiro256 rng(1);
  std::vector<std::vector<float>> seq;
  for (std::int64_t i = 0; i < state.range(0); ++i)
    seq.push_back(random_input(rng));
  for (auto _ : state) benchmark::DoNotOptimize(q.predict_sequence(seq));
}
BENCHMARK(BM_Int8FullSequencePredict)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_FloatIncrementalPredict(benchmark::State& state) {
  const auto model = make_float_model();
  Xoshiro256 rng(1);
  const auto x = random_input(rng);
  std::vector<float> h(32, 0.0f);
  for (auto _ : state)
    benchmark::DoNotOptimize(model.predict_incremental(x, h));
}
BENCHMARK(BM_FloatIncrementalPredict);

void BM_Quantization(benchmark::State& state) {
  const auto model = make_float_model();
  for (auto _ : state) {
    ml::QuantizedGru q(model);
    benchmark::DoNotOptimize(q.deployed());
  }
}
BENCHMARK(BM_Quantization);

// --- Raw GEMV: fused triple-pass vs three naive passes ---

void BM_FusedGemv3(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t cols = rows;
  Xoshiro256 rng(3);
  std::vector<std::int8_t> g0(rows * cols), g1(rows * cols), g2(rows * cols);
  for (auto* g : {&g0, &g1, &g2})
    for (auto& v : *g)
      v = static_cast<std::int8_t>(static_cast<int>(rng.next_below(255)) -
                                   127);
  const auto p =
      ml::kernels::pack_gates3(g0.data(), g1.data(), g2.data(), rows, cols);
  std::vector<std::int8_t> x(2 * p.pairs, 0);
  for (std::size_t i = 0; i < cols; ++i)
    x[i] = static_cast<std::int8_t>(static_cast<int>(rng.next_below(255)) -
                                    127);
  std::vector<std::int32_t> o0(rows), o1(rows), o2(rows);
  for (auto _ : state) {
    ml::kernels::fused_gemv3_i8(p, x.data(), o0.data(), o1.data(), o2.data());
    benchmark::DoNotOptimize(o0.data());
  }
}
BENCHMARK(BM_FusedGemv3)->Arg(32)->Arg(64)->Arg(128);

void BM_ReferenceGemv3(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t cols = rows;
  Xoshiro256 rng(3);
  std::vector<std::int8_t> g0(rows * cols), g1(rows * cols), g2(rows * cols);
  for (auto* g : {&g0, &g1, &g2})
    for (auto& v : *g)
      v = static_cast<std::int8_t>(static_cast<int>(rng.next_below(255)) -
                                   127);
  std::vector<std::int8_t> x(cols);
  for (auto& v : x)
    v = static_cast<std::int8_t>(static_cast<int>(rng.next_below(255)) - 127);
  std::vector<std::int32_t> o0(rows), o1(rows), o2(rows);
  for (auto _ : state) {
    ml::kernels::gemv_i8_ref(g0.data(), rows, cols, x.data(), o0.data());
    ml::kernels::gemv_i8_ref(g1.data(), rows, cols, x.data(), o1.data());
    ml::kernels::gemv_i8_ref(g2.data(), rows, cols, x.data(), o2.data());
    benchmark::DoNotOptimize(o0.data());
  }
}
BENCHMARK(BM_ReferenceGemv3)->Arg(32)->Arg(64)->Arg(128);

// --- Activations: libm vs scalar definition vs dispatched array path ---

float libm_sigmoid(float v) { return 1.0f / (1.0f + std::exp(-v)); }
float libm_tanh(float v) { return std::tanh(v); }

/// Activates one gate's 32 pre-activations, restored before each pass:
/// element by element through `scalar`, or in one `inplace` call.
void BM_Activation32(benchmark::State& state, float (*scalar)(float),
                     void (*inplace)(float*, std::size_t)) {
  Xoshiro256 rng(9);
  std::vector<float> in(32), x(32);
  for (auto& v : in) v = static_cast<float>(rng.next_gaussian() * 2.0);
  for (auto _ : state) {
    std::copy(in.begin(), in.end(), x.begin());
    if (inplace)
      inplace(x.data(), x.size());
    else
      for (auto& v : x) v = scalar(v);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK_CAPTURE(BM_Activation32, sigmoid_libm, libm_sigmoid, nullptr);
BENCHMARK_CAPTURE(BM_Activation32, sigmoid_scalar, ml::act::sigmoid, nullptr);
BENCHMARK_CAPTURE(BM_Activation32, sigmoid_dispatched, nullptr,
                  ml::act::sigmoid_inplace);
BENCHMARK_CAPTURE(BM_Activation32, tanh_libm, libm_tanh, nullptr);
BENCHMARK_CAPTURE(BM_Activation32, tanh_scalar, ml::act::tanh, nullptr);
BENCHMARK_CAPTURE(BM_Activation32, tanh_dispatched, nullptr,
                  ml::act::tanh_inplace);

// --- Window training: GRU epoch, light-model fit, threshold search ---

void BM_TrainEpoch(benchmark::State& state) {
  ml::GruClassifier::Config cfg;
  cfg.input_dim = core::kInputDim;
  cfg.hidden_dim = 32;
  ml::GruClassifier model(cfg);
  Xoshiro256 rng(5);
  std::vector<ml::Sequence> data;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    ml::Sequence s;
    for (int t = 0; t < 8; ++t) s.steps.push_back(random_input(rng));
    s.label = static_cast<int>(rng.next_below(2));
    data.push_back(std::move(s));
  }
  Xoshiro256 train_rng(6);
  for (auto _ : state)
    benchmark::DoNotOptimize(model.train_epoch(data, 32, train_rng));
}
BENCHMARK(BM_TrainEpoch)->Arg(128)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_TrainEpochInline(benchmark::State& state) {
  const util::InlineScope serial;
  BM_TrainEpoch(state);
}
BENCHMARK(BM_TrainEpochInline)
    ->Arg(128)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_ThresholdAdjustment(benchmark::State& state) {
  Xoshiro256 rng(7);
  std::vector<std::uint64_t> lifetimes;
  std::vector<float> feats;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t lt =
        rng.next_bool(0.7) ? 100 + rng.next_below(100)
                           : 5000 + rng.next_below(5000);
    lifetimes.push_back(lt);
    core::RawFeatures raw;
    raw.prev_lifetime = static_cast<std::uint32_t>(lt);
    const auto row = core::encode_features_compact(raw);
    feats.insert(feats.end(), row.begin(), row.end());
  }
  const ml::ConstMatView window(feats.data(), lifetimes.size(),
                                core::kCompactDim);
  for (auto _ : state) {
    core::ThresholdController::Config cfg;
    core::ThresholdController tc(cfg);
    benchmark::DoNotOptimize(tc.pick_threshold(lifetimes, window));
    benchmark::DoNotOptimize(tc.pick_threshold(lifetimes, window));
  }
}
BENCHMARK(BM_ThresholdAdjustment)->Unit(benchmark::kMillisecond);

void BM_ThresholdAdjustmentInline(benchmark::State& state) {
  const util::InlineScope serial;
  BM_ThresholdAdjustment(state);
}
BENCHMARK(BM_ThresholdAdjustmentInline)->Unit(benchmark::kMillisecond);

void BM_LogRegFit(benchmark::State& state) {
  Xoshiro256 rng(9);
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (int i = 0; i < 1024; ++i) {
    core::RawFeatures raw;
    raw.prev_lifetime = static_cast<std::uint32_t>(rng.next_below(10000));
    x.push_back(core::encode_features_compact(raw));
    y.push_back(raw.prev_lifetime < 2000 ? 1 : 0);
  }
  for (auto _ : state) {
    ml::LogisticRegression::Config cfg;
    cfg.input_dim = core::kCompactDim;
    ml::LogisticRegression model(cfg);
    model.fit(x, y);
    benchmark::DoNotOptimize(model.bias());
  }
}
BENCHMARK(BM_LogRegFit)->Unit(benchmark::kMicrosecond);

// --- GC victim selection: indexed vs linear scan, 1k vs 10k superblocks ---

/// A dirtied drive with `n_sb` superblocks, most of them closed at varied
/// valid counts. Built once per size and shared across iterations.
const BaseFtl& dirty_ftl(std::uint64_t n_sb) {
  static std::vector<std::pair<std::uint64_t, std::unique_ptr<BaseFtl>>> cache;
  for (const auto& [size, ftl] : cache)
    if (size == n_sb) return *ftl;

  FtlConfig cfg;
  cfg.geom.num_dies = 2;
  cfg.geom.pages_per_block = 64;  // 128 pages per superblock
  cfg.geom.blocks_per_die = static_cast<std::uint32_t>(n_sb);
  cfg.geom.page_size = 4 * 1024;
  cfg.op_ratio = 0.10;
  auto ftl = std::make_unique<BaseFtl>(cfg, VictimPolicy::kGreedy);
  // Skewed overwrites close nearly all superblocks at a spread of valid
  // counts and exercise GC along the way.
  Xoshiro256 rng(42);
  WriteContext ctx;
  const std::uint64_t logical = ftl->logical_pages();
  const std::uint64_t hot = std::max<std::uint64_t>(logical / 20, 1);
  for (std::uint64_t i = 0; i < logical * 2; ++i) {
    const Lpn lpn =
        rng.next_bool(0.5) ? rng.next_below(hot) : rng.next_below(logical);
    if (ftl->try_write_page(lpn, ctx) != WriteResult::kOk) {
      std::fprintf(stderr, "dirty_ftl(%llu): write rejected (ENOSPC)\n",
                   static_cast<unsigned long long>(n_sb));
      std::exit(1);
    }
  }
  cache.emplace_back(n_sb, std::move(ftl));
  return *cache.back().second;
}

void BM_VictimGreedyIndexed(benchmark::State& state) {
  const BaseFtl& ftl = dirty_ftl(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(ftl.greedy_victim());
  state.counters["closed"] = static_cast<double>(ftl.closed_count());
}
BENCHMARK(BM_VictimGreedyIndexed)->Arg(1000)->Arg(10000);

void BM_VictimGreedyLinearScan(benchmark::State& state) {
  // The pre-index implementation: scan every superblock, check flash
  // state, recompute the invalid fraction.
  const BaseFtl& ftl = dirty_ftl(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    std::uint64_t best_sb = ~0ULL;
    double best = -1.0;
    for (std::uint64_t sb = 0; sb < ftl.config().geom.num_superblocks();
         ++sb) {
      if (ftl.flash().state(sb) != SuperblockState::kClosed) continue;
      const double s =
          1.0 - static_cast<double>(ftl.valid_count(sb)) /
                    static_cast<double>(ftl.config().geom.pages_per_superblock());
      if (s > best) {
        best = s;
        best_sb = sb;
      }
    }
    benchmark::DoNotOptimize(best_sb);
  }
}
BENCHMARK(BM_VictimGreedyLinearScan)->Arg(1000)->Arg(10000);

void BM_VictimAdjustedGreedyBounded(benchmark::State& state) {
  // Adjusted Greedy through the bounded ascending-bucket scan. Scores are
  // computed as PHFTL does (Eq. 1), with the hot-stream bit faked from the
  // superblock id so some candidates take the discounted branch.
  const BaseFtl& ftl = dirty_ftl(static_cast<std::uint64_t>(state.range(0)));
  const double inv_pages = sb_fraction_scale(ftl);
  for (auto _ : state) {
    const std::uint64_t victim =
        select_victim_bounded(ftl, [&](std::uint64_t sb) {
          return adjusted_greedy_score(
              invalid_fraction(ftl.valid_count(sb), inv_pages),
              valid_fraction(ftl.valid_count(sb), inv_pages),
              /*short_living=*/(sb & 1) != 0, /*threshold=*/5000.0,
              /*elapsed=*/static_cast<double>(ftl.virtual_clock() -
                                              ftl.close_time(sb) + 1));
        });
    benchmark::DoNotOptimize(victim);
  }
}
BENCHMARK(BM_VictimAdjustedGreedyBounded)->Arg(1000)->Arg(10000);

void BM_VictimAdjustedGreedyFullScan(benchmark::State& state) {
  const BaseFtl& ftl = dirty_ftl(static_cast<std::uint64_t>(state.range(0)));
  const double inv_pages = sb_fraction_scale(ftl);
  for (auto _ : state) {
    const std::uint64_t victim = select_victim(ftl, [&](std::uint64_t sb) {
      return adjusted_greedy_score(
          invalid_fraction(ftl.valid_count(sb), inv_pages),
          valid_fraction(ftl.valid_count(sb), inv_pages),
          /*short_living=*/(sb & 1) != 0, /*threshold=*/5000.0,
          /*elapsed=*/static_cast<double>(ftl.virtual_clock() -
                                          ftl.close_time(sb) + 1));
    });
    benchmark::DoNotOptimize(victim);
  }
}
BENCHMARK(BM_VictimAdjustedGreedyFullScan)->Arg(1000)->Arg(10000);

// --- Meta-page cache: random vs sequential metadata lookups ---

/// The metadata store of an 8-die drive with 96 superblocks of 128 pages.
core::MetaStore::Config meta_config() {
  core::MetaStore::Config cfg;
  cfg.geom.num_dies = 8;
  cfg.geom.blocks_per_die = 96;
  cfg.geom.pages_per_block = 16;
  cfg.geom.page_size = 16 * 1024;
  return cfg;
}

void BM_MetaCacheLookup(benchmark::State& state) {
  const auto cfg = meta_config();
  core::MetaStore store(cfg);
  Xoshiro256 rng(3);
  const std::uint64_t data_pages = store.data_pages_per_superblock();
  bool missed;
  for (auto _ : state) {
    const std::uint64_t sb = rng.next_below(cfg.geom.num_superblocks());
    const std::uint64_t off = rng.next_below(data_pages);
    benchmark::DoNotOptimize(
        store.get(cfg.geom.make_ppn(sb, off), false, &missed));
  }
  state.counters["hit_rate"] = store.cache_hit_rate();
}
BENCHMARK(BM_MetaCacheLookup);

void BM_MetaCacheSequentialLookup(benchmark::State& state) {
  const auto cfg = meta_config();
  core::MetaStore store(cfg);
  const std::uint64_t data_pages = store.data_pages_per_superblock();
  bool missed;
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::uint64_t sb = (i / data_pages) % cfg.geom.num_superblocks();
    benchmark::DoNotOptimize(
        store.get(cfg.geom.make_ppn(sb, i % data_pages), false, &missed));
    ++i;
  }
  state.counters["hit_rate"] = store.cache_hit_rate();
}
BENCHMARK(BM_MetaCacheSequentialLookup);

}  // namespace

int main(int argc, char** argv) {
  // Timings are only comparable on the same box; record its thread count
  // in the JSON context, as the other BENCH_*.json artifacts do.
  benchmark::AddCustomContext(
      "hardware_threads", std::to_string(std::thread::hardware_concurrency()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
