// Replay identity baseline: each (scheme × trace) cell's exact WA and
// write counts, written to a schema-versioned artifact (BENCH_replay.json,
// schema "phftl-bench-replay/4" — see EXPERIMENTS.md). CI's identity checks
// replay the PHFTL cells with trace_replay and compare against these rows.
//
// Usage: bench_replay [--jobs N] [--out <path>]
//   --jobs  job count for the grid, an integer in [0, 256] (0: one per
//           hardware thread; anything else exits 2). Without it PHFTL_JOBS
//           decides, else 4. The artifact is the same under any job count.
//   --out   artifact path (default ./BENCH_replay.json).
//
// Replay wall-clock is perfbench's job (perfbench/README.md).
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace phftl;
  const util::FlagParser flags("bench_replay");
  long cli_jobs = -1;
  std::string out_path = "BENCH_replay.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      cli_jobs = bench::parse_jobs(flags, argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--jobs N] [--out <path>]\n", argv[0]);
      return 2;
    }
  }
  const unsigned jobs = util::resolve_jobs(cli_jobs, /*fallback=*/4);
  const double drive_writes = drive_writes_from_env(2.0);
  const std::vector<std::string> trace_ids = {"#52", "#144"};

  std::printf("Replay WA: %zu schemes x %zu traces, %.1f drive writes, "
              "%u job(s)\n",
              kSchemeNames.size(), trace_ids.size(), drive_writes, jobs);

  std::vector<bench::GridCell> cells;
  for (const auto& id : trace_ids)
    for (const auto& scheme : kSchemeNames)
      cells.push_back({&suite_spec(id), scheme, drive_writes, {}});
  const auto results = bench::ExperimentRunner(jobs).run(cells);

  char drive_writes_text[32];
  std::snprintf(drive_writes_text, sizeof(drive_writes_text), "%.4f",
                drive_writes);
  std::ostringstream js;
  js << "{\n  \"schema\": \"phftl-bench-replay/4\",\n"
     << "  \"drive_writes\": " << drive_writes_text << ",\n"
     << "  \"runs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const bench::SuiteRunResult& r = results[i];
    // Full precision for WA: CI compares it against fresh replays.
    char wa[32];
    std::snprintf(wa, sizeof(wa), "%.17g", r.wa);
    js << "    {\"trace\": \"" << r.trace_id << "\", \"scheme\": \""
       << r.scheme << "\", \"wa\": " << wa
       << ", \"user_writes\": " << r.stats.user_writes
       << ", \"gc_writes\": " << r.stats.gc_writes << "}"
       << (i + 1 < results.size() ? ",\n" : "\n");
  }
  js << "  ]\n}\n";
  if (!obs::write_text_file(out_path, js.str())) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
