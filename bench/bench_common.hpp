// Shared runner for the trace-suite benchmarks (bench_fig5's tables and
// artifact, and the other suite benches), plus the aged-tail method of the
// timed benches (bench_fig7, bench_gc_latency).
//
// Every suite benchmark replays a (scheme × trace × config) grid of fully
// independent runs. run_suite_grid executes that grid through
// util::run_grid (`--jobs N`; 0 or absent = one job per usable CPU) — each
// run owns its FTL, FlashArray, RNG, and obs::MetricsRegistry/TraceRecorder,
// so jobs share nothing — and returns results in *grid order* regardless of
// which run finishes first. The merged ${PHFTL_METRICS_DIR}/BENCH_metrics.json
// is likewise appended in grid order, and make_scheme() turns PHFTL's
// wall-clock prediction timing (the one non-simulated metric) off, so the
// artifact is byte-identical between serial and parallel execution
// (tests/test_runner.cpp holds this property under TSan in CI).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/phftl.hpp"
#include "core/schemes.hpp"
#include "device/replayer.hpp"
#include "obs/observability.hpp"
#include "trace/alibaba_suite.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/team.hpp"

namespace phftl::bench {

namespace detail {

/// Process-global metrics artifact. Every recorded run appends one entry; a
/// single `${PHFTL_METRICS_DIR}/BENCH_metrics.json` is flushed when the
/// bench binary exits. One artifact per binary (schema
/// "phftl-bench-metrics/1", documented in EXPERIMENTS.md) lets perf PRs
/// diff full metric sets across commits instead of collecting a directory of
/// per-run side files. add() is serialized by a mutex; run_suite_grid
/// additionally calls it only after the grid has joined, in grid order, so
/// the artifact layout is deterministic under any job count.
class MetricsArtifact {
 public:
  static MetricsArtifact& instance() {
    static MetricsArtifact artifact;
    return artifact;
  }

  bool enabled() const { return !dir_.empty(); }

  void add(const std::string& trace_id, const std::string& scheme,
           double drive_writes, std::string metrics_json) {
    if (!enabled()) return;
    while (!metrics_json.empty() &&
           (metrics_json.back() == '\n' || metrics_json.back() == ' '))
      metrics_json.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    if (!runs_.empty()) runs_ += ",\n";
    runs_ += "    {\"trace\": \"" + trace_id + "\", \"scheme\": \"" + scheme +
             "\", \"drive_writes\": " + std::to_string(drive_writes) +
             ",\n     \"metrics\": " + metrics_json + "}";
  }

 private:
  MetricsArtifact() {
    if (const char* dir = std::getenv("PHFTL_METRICS_DIR"); dir && *dir)
      dir_ = dir;
  }
  ~MetricsArtifact() {  // flushes at process exit, after the last run
    if (!enabled() || runs_.empty()) return;
    obs::write_text_file(dir_ + "/BENCH_metrics.json",
                         "{\n  \"schema\": \"phftl-bench-metrics/1\",\n"
                         "  \"runs\": [\n" +
                             runs_ + "\n  ]\n}\n");
  }

  std::mutex mu_;
  std::string dir_;
  std::string runs_;
};

}  // namespace detail

struct SuiteRunResult {
  std::string trace_id;
  std::string scheme;  ///< scheme_label(): "PHFTL/history1" for an arm
  double wa = 0.0;
  FtlStats stats;
  std::uint32_t streams = 0;  ///< the scheme's write-stream count
  RunningStats erase_counts;  ///< per superblock, at the end of the run
  // PHFTL-only extras:
  ConfusionMatrix classifier;
  double cache_hit_rate = 0.0;
  /// Full metrics_to_json dump (captured only when the artifact is enabled
  /// or the caller asked for it; empty otherwise).
  std::string metrics_json;
};

/// The PHFTL arm a cell runs: the paper's design, or the one departure
/// from it that an ablation measures (§V-C's history length, Algorithm 1's
/// adaptive threshold, Eq. 1's victim policy). Other schemes ignore it.
enum class PhftlArm {
  kDefault,
  kHistory1,         ///< feature sequence truncated to the latest write
  kFrozenThreshold,  ///< threshold frozen after the first window
  kGreedy,           ///< plain Greedy victims instead of Adjusted Greedy
  kCostBenefit,      ///< Cost-Benefit victims instead of Adjusted Greedy
};

/// What a grid cell varies per run; everything else is FtlConfig's.
struct RunOptions {
  PhftlArm arm = PhftlArm::kDefault;
  /// Capture metrics_to_json into SuiteRunResult::metrics_json even when
  /// the artifact is disabled (the determinism test compares these).
  bool capture_metrics = false;
};

/// A cell's scheme name in tables and BENCH_metrics.json: the scheme, plus
/// "/<arm>" for a PHFTL ablation arm.
inline std::string scheme_label(const std::string& scheme, PhftlArm arm) {
  static const char* const kArmNames[] = {"", "history1", "frozen-threshold",
                                          "greedy", "cost-benefit"};
  return arm == PhftlArm::kDefault
             ? scheme
             : scheme + "/" + kArmNames[static_cast<int>(arm)];
}

/// phftl::make_scheme with the cell's PHFTL arm applied.
inline std::unique_ptr<FtlBase> make_scheme(const std::string& scheme,
                                            const FtlConfig& cfg,
                                            const RunOptions& opts = {}) {
  core::PhftlConfig pcfg = core::default_phftl_config(cfg);
  if (opts.arm == PhftlArm::kHistory1) pcfg.trainer.history_len = 1;
  pcfg.trainer.threshold.freeze_after_first_window =
      opts.arm == PhftlArm::kFrozenThreshold;
  if (opts.arm == PhftlArm::kGreedy)
    pcfg.gc_policy = core::PhftlConfig::GcPolicy::kGreedy;
  if (opts.arm == PhftlArm::kCostBenefit)
    pcfg.gc_policy = core::PhftlConfig::GcPolicy::kCostBenefit;
  // Wall-clock predict latency is not reproducible; keep it out of every
  // bench export (PhftlConfig::time_predictions).
  pcfg.time_predictions = false;
  return phftl::make_scheme(scheme, pcfg);
}

/// Replay one suite trace under one scheme and collect everything the
/// benchmarks report. Self-contained: builds its own trace, FTL, and
/// observability state, so concurrent calls never share mutable state.
inline SuiteRunResult run_suite_trace(const SuiteTraceSpec& spec,
                                      const std::string& scheme,
                                      double drive_writes,
                                      const RunOptions& opts) {
  const FtlConfig cfg = suite_ftl_config(spec);
  const Trace trace = make_suite_trace(spec, drive_writes);
  auto ftl = make_scheme(scheme, cfg, opts);
  // A write the capacity watermark rejects counts in
  // stats.enospc_rejections, which run_suite_grid reports.
  for (const auto& req : trace.ops) ftl->submit_checked(req);
  ftl->drain();  // finish a parked GC round, flush CMT write-back

  SuiteRunResult res;
  res.trace_id = spec.id;
  res.scheme = scheme_label(scheme, opts.arm);
  res.stats = ftl->stats();
  res.wa = res.stats.write_amplification();
  res.streams = ftl->layout().num_streams;
  for (std::uint64_t sb = 0; sb < cfg.geom.num_superblocks(); ++sb)
    res.erase_counts.add(static_cast<double>(ftl->flash().erase_count(sb)));
  if (auto* phftl = dynamic_cast<core::PhftlFtl*>(ftl.get())) {
    phftl->finalize_evaluation();
    res.classifier = phftl->classifier_metrics();
    res.cache_hit_rate = phftl->meta_store().cache_hit_rate();
  }

  // With PHFTL_METRICS_DIR set, run_suite_grid embeds every run's full
  // metric dump in a single <dir>/BENCH_metrics.json artifact flushed at
  // process exit (schema "phftl-bench-metrics/1" — EXPERIMENTS.md).
  if (detail::MetricsArtifact::instance().enabled() || opts.capture_metrics)
    res.metrics_json = obs::metrics_to_json(ftl->observability());
  return res;
}

/// One cell of a benchmark grid.
struct GridCell {
  const SuiteTraceSpec* spec = nullptr;
  std::string scheme;
  double drive_writes = 0.0;
  RunOptions opts;
};

/// Run every cell of a (scheme × trace × config) grid on `jobs` threads
/// (util::run_grid) and return the results in cell order. Artifact entries
/// are appended in cell order after the whole grid has run, so
/// BENCH_metrics.json is byte-identical to a serial run. A cell whose
/// writes hit the capacity watermark gets one stdout line with its
/// rejection count. An exception from a run propagates out of this call.
inline std::vector<SuiteRunResult> run_suite_grid(
    unsigned jobs, const std::vector<GridCell>& cells) {
  std::vector<SuiteRunResult> results =
      util::run_grid(jobs, cells.size(), [&cells](std::size_t i) {
        return run_suite_trace(*cells[i].spec, cells[i].scheme,
                               cells[i].drive_writes, cells[i].opts);
      });
  for (const SuiteRunResult& r : results)
    if (r.stats.enospc_rejections > 0)
      std::printf("%s on %s: %llu write requests rejected (ENOSPC)\n",
                  r.scheme.c_str(), r.trace_id.c_str(),
                  static_cast<unsigned long long>(r.stats.enospc_rejections));

  auto& artifact = detail::MetricsArtifact::instance();
  if (artifact.enabled()) {
    for (std::size_t i = 0; i < cells.size(); ++i)
      artifact.add(results[i].trace_id, results[i].scheme,
                   cells[i].drive_writes, results[i].metrics_json);
  }
  return results;
}

/// The one `--jobs` value parser every harness shares: the whole token
/// must be an integer in [0, 256], where 0 means one job per usable CPU
/// (util::resolve_jobs); anything else exits 2 with one line naming the
/// flag and the value.
inline unsigned parse_jobs(const util::FlagParser& flags, const char* text) {
  return static_cast<unsigned>(flags.parse_uint("--jobs", text, 0, 256));
}

/// Shared CLI handling: every suite bench accepts `--jobs N` (0 or absent =
/// one job per usable CPU) and returns its value; a bench that passes
/// `out_path` also accepts `--out <path>` for its artifact. Unknown
/// arguments exit 2 with a usage line.
inline unsigned jobs_from_cli(int argc, char** argv,
                              std::string* out_path = nullptr) {
  const util::FlagParser flags(argv[0]);
  unsigned jobs = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      jobs = parse_jobs(flags, argv[++i]);
    } else if (out_path && arg == "--out" && i + 1 < argc) {
      *out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--jobs N]%s\n", argv[0],
                   out_path ? " [--out <path>]" : "");
      std::exit(2);
    }
  }
  return jobs;
}

/// The timed benches' cut of a trace. `head`, its first 90 % of requests,
/// is stress-loaded to age the device, one bandwidth sample per drive
/// write of pages (`segment_pages`); `tail`, the rest rebased to t = 0, is
/// the measured open-loop replay.
struct AgedTail {
  Trace head, tail;
  std::uint64_t segment_pages = 0;

  AgedTail(const Trace& trace, double drive_writes)
      : segment_pages(static_cast<std::uint64_t>(
            static_cast<double>(trace.total_write_pages()) / drive_writes)) {
    const auto cut = trace.ops.begin() +
                     static_cast<std::ptrdiff_t>(trace.ops.size() * 9 / 10);
    head.name = tail.name = trace.name;
    head.logical_pages = tail.logical_pages = trace.logical_pages;
    head.ops.assign(trace.ops.begin(), cut);
    tail.ops.assign(cut, trace.ops.end());
    const std::uint64_t t0 = tail.ops.front().timestamp_us;
    for (auto& op : tail.ops) op.timestamp_us -= t0;
  }
};

/// The open-loop arrival scale that replays `cut.tail` at 65 % of the
/// service rate of a device aged by `aged` (stress_load of `cut.head`), so
/// the replay does not saturate it. The head's mean service time per
/// request understates the aged device's cost, so it is corrected by the
/// first-to-last drive-write slowdown; the scale is floored at 1e-6. A
/// bench computes it once per pair of runs that must see identical arrivals.
inline double arrival_scale(const AgedTail& cut, const Phase1Result& aged) {
  const double service_per_op = static_cast<double>(aged.total_sim_ns) /
                                static_cast<double>(cut.head.ops.size());
  const double slowdown =
      aged.bandwidth_mb_s.size() >= 2 && aged.bandwidth_mb_s.back() > 0
          ? aged.bandwidth_mb_s.front() / aged.bandwidth_mb_s.back()
          : 1.0;
  const double tail_duration_ns =
      static_cast<double>(cut.tail.ops.back().timestamp_us) * 1000.0;
  const double tail_arrival_per_op =
      tail_duration_ns / static_cast<double>(cut.tail.ops.size());
  const double scale =
      service_per_op * slowdown / (0.65 * tail_arrival_per_op);
  return scale < 1e-6 ? 1e-6 : scale;
}

}  // namespace phftl::bench
