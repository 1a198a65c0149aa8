// End-to-end replay wall-clock benchmark: how long the (scheme × trace)
// grid takes serially vs on the parallel experiment runner, each cell's
// exact WA and write counts (CI's identity checks compare against these),
// plus the meta-cache fast-path microbenchmark, written to a
// schema-versioned artifact (BENCH_replay.json, schema
// "phftl-bench-replay/3" — see EXPERIMENTS.md).
//
// Usage: bench_replay [--jobs N] [--out <path>]
//   --jobs  parallel job count for the comparison run, an integer in
//           [0, 256] (default and 0: 4; anything else exits 2). The
//           speedup ceiling is min(jobs, hardware_threads) — the artifact
//           records hardware_threads so numbers from a 1-core CI box are
//           interpretable.
//   --out   artifact path (default ./BENCH_replay.json).
//
// Wall-clock numbers are the one intentionally non-deterministic output of
// the bench suite; everything the runs *compute* stays byte-identical
// between the serial and parallel pass (tests/test_runner.cpp).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/meta_cache.hpp"
#include "util/rng.hpp"

namespace {

using namespace phftl;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

volatile std::uint64_t g_sink;  // keeps the timing loop observable

/// ns/op for a miss-heavy access pattern (keyspace >> capacity): the
/// pattern where the flat cache's allocation-free slots pay off most.
template <typename Cache>
double cache_ns_per_op(std::uint64_t ops) {
  Cache cache(1024);
  Xoshiro256 rng(7);
  constexpr std::uint64_t kKeySpace = 1 << 20;
  const auto t0 = Clock::now();
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < ops; ++i)
    sink += cache.access(rng.next_below(kKeySpace)).hit;
  const double secs = seconds_since(t0);
  g_sink = sink;
  return secs * 1e9 / static_cast<double>(ops);
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

/// Full precision for WA values: CI's identity checks compare them against
/// fresh replays.
std::string json_exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const phftl::util::FlagParser flags("bench_replay");
  unsigned cli_jobs = 4;
  std::string out_path = "BENCH_replay.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      cli_jobs = phftl::bench::parse_jobs(flags, argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--jobs N] [--out <path>]\n", argv[0]);
      return 2;
    }
  }
  const unsigned jobs = cli_jobs == 0 ? 4 : cli_jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  const double drive_writes = drive_writes_from_env(2.0);
  const std::vector<std::string> schemes = {"Base", "2R", "SepBIT", "PHFTL"};
  const std::vector<std::string> trace_ids = {"#52", "#144"};

  std::printf("Replay wall-clock: %zu schemes x %zu traces, %.1f drive "
              "writes, serial vs %u jobs (%u hardware threads)\n",
              schemes.size(), trace_ids.size(), drive_writes, jobs, hw);

  std::vector<bench::GridCell> cells;
  for (const auto& id : trace_ids)
    for (const auto& scheme : schemes)
      cells.push_back({&suite_spec(id), scheme, drive_writes, {}});

  // --- serial pass, timing each cell ---
  std::vector<double> cell_secs;
  std::vector<bench::SuiteRunResult> serial;
  const auto serial_t0 = Clock::now();
  for (const auto& cell : cells) {
    const auto t0 = Clock::now();
    std::vector<bench::SuiteRunResult> r =
        bench::ExperimentRunner(1).run({cell});
    cell_secs.push_back(seconds_since(t0));
    serial.push_back(std::move(r.front()));
  }
  const double serial_total = seconds_since(serial_t0);

  // --- parallel pass over the identical grid ---
  const auto par_t0 = Clock::now();
  bench::ExperimentRunner(jobs).run(cells);
  const double parallel_total = seconds_since(par_t0);
  const double speedup = parallel_total > 0 ? serial_total / parallel_total
                                            : 0.0;

  // --- meta-cache fast path (miss-heavy get/put) ---
  constexpr std::uint64_t kCacheOps = 4'000'000;
  const double flat_ns = cache_ns_per_op<core::FlatMetaCache>(kCacheOps);
  const double ref_ns = cache_ns_per_op<core::ReferenceMetaCache>(kCacheOps);

  std::printf("  serial   %.2fs\n  jobs=%-3u %.2fs  (speedup %.2fx)\n"
              "  meta-cache miss-heavy: flat %.1f ns/op vs reference %.1f "
              "ns/op (%.2fx)\n",
              serial_total, jobs, parallel_total, speedup, flat_ns, ref_ns,
              flat_ns > 0 ? ref_ns / flat_ns : 0.0);

  std::ostringstream js;
  js << "{\n  \"schema\": \"phftl-bench-replay/3\",\n"
     << "  \"drive_writes\": " << json_num(drive_writes) << ",\n"
     << "  \"hardware_threads\": " << hw << ",\n"
     << "  \"runs\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const bench::SuiteRunResult& r = serial[i];
    js << "    {\"trace\": \"" << cells[i].spec->id << "\", \"scheme\": \""
       << cells[i].scheme << "\", \"serial_seconds\": "
       << json_num(cell_secs[i]) << ", \"wa\": " << json_exact(r.wa)
       << ", \"user_writes\": " << r.stats.user_writes
       << ", \"gc_writes\": " << r.stats.gc_writes << "}";
    js << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  js << "  ],\n"
     << "  \"serial_total_seconds\": " << json_num(serial_total) << ",\n"
     << "  \"parallel\": {\"jobs\": " << jobs
     << ", \"total_seconds\": " << json_num(parallel_total)
     << ", \"speedup\": " << json_num(speedup) << "},\n"
     << "  \"meta_cache_miss_heavy\": {\"ops\": " << kCacheOps
     << ", \"flat_ns_per_op\": " << json_num(flat_ns)
     << ", \"reference_ns_per_op\": " << json_num(ref_ns)
     << ", \"speedup\": " << json_num(flat_ns > 0 ? ref_ns / flat_ns : 0.0)
     << "}\n}\n";
  if (!obs::write_text_file(out_path, js.str())) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
