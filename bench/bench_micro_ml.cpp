// ML kernel micro-benchmarks (google-benchmark).
//
// Quantifies the §III-C design points:
//   * O(1) incremental prediction from a cached hidden state vs O(N)
//     recomputation of the full feature sequence,
//   * int8-quantized inference vs float inference.
// The window-training benchmarks live in bench_kernels.
// The paper tunes one int8 prediction to ~9 µs on a Cortex-A9; on a host
// CPU the same kernel runs in well under a microsecond.
#include <benchmark/benchmark.h>

#include "core/features.hpp"
#include "ml/gru.hpp"
#include "ml/qgru.hpp"
#include "util/rng.hpp"

namespace {

using namespace phftl;
using namespace phftl::core;

ml::GruClassifier make_model() {
  ml::GruClassifier::Config cfg;
  cfg.input_dim = kInputDim;
  cfg.hidden_dim = 32;
  return ml::GruClassifier(cfg);
}

std::vector<float> random_input(Xoshiro256& rng) {
  RawFeatures raw;
  raw.prev_lifetime = static_cast<std::uint32_t>(rng.next_below(100000));
  raw.io_len = static_cast<std::uint16_t>(rng.next_below(64));
  raw.chunk_write = static_cast<std::uint16_t>(rng.next_below(256));
  raw.chunk_read = static_cast<std::uint16_t>(rng.next_below(256));
  raw.rw_percent = static_cast<std::uint8_t>(rng.next_below(100));
  raw.is_seq = rng.next_bool(0.3);
  return encode_features(raw);
}

void BM_FloatIncrementalPredict(benchmark::State& state) {
  const auto model = make_model();
  Xoshiro256 rng(1);
  const auto x = random_input(rng);
  std::vector<float> h(32, 0.0f);
  for (auto _ : state)
    benchmark::DoNotOptimize(model.predict_incremental(x, h));
}
BENCHMARK(BM_FloatIncrementalPredict);

void BM_Int8IncrementalPredict(benchmark::State& state) {
  const auto model = make_model();
  const ml::QuantizedGru q(model);
  Xoshiro256 rng(1);
  const auto x = random_input(rng);
  std::vector<std::int8_t> h(32, 0);
  for (auto _ : state)
    benchmark::DoNotOptimize(q.predict_incremental(x, h));
  state.counters["MACs"] = static_cast<double>(q.macs_per_step());
}
BENCHMARK(BM_Int8IncrementalPredict);

void BM_Int8FullSequencePredict(benchmark::State& state) {
  const auto model = make_model();
  const ml::QuantizedGru q(model);
  Xoshiro256 rng(1);
  std::vector<std::vector<float>> seq;
  for (std::int64_t i = 0; i < state.range(0); ++i)
    seq.push_back(random_input(rng));
  for (auto _ : state) benchmark::DoNotOptimize(q.predict_sequence(seq));
}
BENCHMARK(BM_Int8FullSequencePredict)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_FeatureEncoding(benchmark::State& state) {
  RawFeatures raw;
  raw.prev_lifetime = 123456;
  raw.io_len = 16;
  std::vector<float> out(kInputDim);
  for (auto _ : state) {
    encode_features(raw, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FeatureEncoding);

void BM_Quantization(benchmark::State& state) {
  const auto model = make_model();
  for (auto _ : state) {
    ml::QuantizedGru q(model);
    benchmark::DoNotOptimize(q.deployed());
  }
}
BENCHMARK(BM_Quantization);

}  // namespace

BENCHMARK_MAIN();
