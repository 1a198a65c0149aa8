// Replay benchmark: host time, simulated WA/latency and per-layer cost of one
// named FTL workload on suite trace #144 (perfbench/README.md).
//
//   perfbench_replay --workload NAME --seed N --seconds S --trace 0|1
//                    [--small] [--trace-out PATH]
//   perfbench_replay --workload NAME --seed N --calibrate
//
// --trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones.
// Every replay is one client in a closed loop (the next request is submitted
// when the previous one returns), single-threaded. The FTL is driven only
// through its public calls; all timing lives in this file. The last stdout
// line is one JSON object with the keys "correct", "attempted", "failed",
// "metrics" and "env"; the process exits 1 when a correctness check fails.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/base_ftl.hpp"
#include "baselines/sepbit.hpp"
#include "core/features.hpp"
#include "core/phftl.hpp"
#include "device/replayer.hpp"
#include "ml/gru.hpp"
#include "ml/qgru.hpp"
#include "trace/alibaba_suite.hpp"
#include "util/rng.hpp"

namespace {

using namespace phftl;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  return 0.5 * (hi + *std::max_element(v.begin(),
                                       v.begin() +
                                           static_cast<std::ptrdiff_t>(mid)));
}

/// Nearest-rank-interpolated quantile, q in [0, 1]; 0 when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One named workload. All three replay suite trace #144 (the high-WA trace
/// with blurred temperature tiers) on its own geometry; the seed from the
/// command line replaces WorkloadParams::seed, so the FTL sees only the
/// generated trace.
struct Workload {
  const char* name;
  const char* scheme;        ///< "PHFTL", "Base" or "SepBIT"
  double drive_writes;       ///< trace length of a full run
  double small_drive_writes; ///< trace length under --small
  bool mapping_tier;         ///< cmt_pages 4, tp_entries 32 when on
  bool learned_index;        ///< error bound 1, needs mapping_tier
  double read_fraction;      ///< read_request_fraction; < 0 keeps #144's
  double trim_fraction;      ///< trim_request_fraction
  /// Open-loop arrival scale of the timed tail. Calibrated once with
  /// --calibrate (seed 1) and frozen here: recalibrating per run would
  /// stretch the arrivals along with any service-time regression and hide
  /// it from sim_p50_us / sim_p99_us.
  double time_scale;
  /// Host seconds of one untraced replay on the reference box (4 hardware
  /// threads); sizes the number of sub-traces a run replays.
  double nominal_replay_s;
};

constexpr Workload kWorkloads[] = {
    {"phftl_train", "PHFTL", 2.5, 1.3, false, false, -1.0, 0.0, 27.5, 2.0},
    {"base_gc", "Base", 100.0, 2.0, false, false, -1.0, 0.0, 746.0, 2.2},
    {"tiered_mixed", "SepBIT", 2.5, 1.3, true, true, 0.5, 0.02, 15.7, 1.25},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

/// Replays of one workload differ only in the mapping knobs (the traced
/// run prices the learned index and the tier by switching them off).
enum class Variant { kAsDefined, kLearnedOff, kTierOff };

FtlConfig ftl_config(const Workload& w, Variant v) {
  FtlConfig cfg = suite_ftl_config(suite_spec("#144"));
  if (w.mapping_tier && v != Variant::kTierOff) {
    cfg.mapping_tier = true;
    cfg.cmt_pages = 4;
    cfg.cmt_wb_batch = 4;  // bench_mapping's min(cmt_pages, 8)
    cfg.tp_entries = 32;
    cfg.learned_index = w.learned_index && v == Variant::kAsDefined;
    cfg.learned_error_bound = 1;
  }
  return cfg;
}

std::unique_ptr<FtlBase> make_ftl(const Workload& w, const FtlConfig& cfg) {
  const std::string scheme = w.scheme;
  if (scheme == "Base") return std::make_unique<BaseFtl>(cfg);
  if (scheme == "SepBIT") return std::make_unique<SepBitFtl>(cfg);
  core::PhftlConfig pcfg = core::default_phftl_config(cfg);
  pcfg.predict_mode = core::PhftlConfig::PredictMode::kSync;
  pcfg.time_predictions = false;
  return std::make_unique<core::PhftlFtl>(pcfg);
}

double trace_drive_writes(const Workload& w, bool small) {
  return small ? w.small_drive_writes : w.drive_writes;
}

Trace make_trace(const Workload& w, std::uint64_t seed, bool small) {
  SuiteTraceSpec spec = suite_spec("#144");
  spec.params.seed = seed;
  if (w.read_fraction >= 0.0)
    spec.params.read_request_fraction = w.read_fraction;
  spec.params.trim_request_fraction = w.trim_fraction;
  return make_suite_trace(spec, trace_drive_writes(w, small));
}

bool same_ops(const Trace& a, const Trace& b) {
  if (a.ops.size() != b.ops.size() || a.logical_pages != b.logical_pages)
    return false;
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    const HostRequest& x = a.ops[i];
    const HostRequest& y = b.ops[i];
    if (x.timestamp_us != y.timestamp_us || x.op != y.op ||
        x.start_lpn != y.start_lpn || x.num_pages != y.num_pages)
      return false;
  }
  return true;
}

/// The trace cut the way bench_gc_latency cuts it: the first 90 % of the
/// requests age the drive under stress load, the rebased last 10 % is the
/// open-loop timed phase. Every replay, traced or not, submits exactly
/// these requests, head then tail.
struct Replay {
  Trace head;
  Trace tail;
  std::uint64_t segment_pages = 0;  ///< one drive write of host pages
  std::uint64_t host_pages = 0;     ///< read + write + trim pages
  std::uint64_t write_pages = 0;
  /// Mapped-ness of every LPN once all requests are acknowledged.
  std::vector<std::uint8_t> shadow;
};

Replay split_trace(const Trace& t, double drive_writes) {
  Replay r;
  const std::size_t tail_start = t.ops.size() * 9 / 10;
  r.head.name = r.tail.name = t.name;
  r.head.logical_pages = r.tail.logical_pages = t.logical_pages;
  r.head.ops.assign(t.ops.begin(),
                    t.ops.begin() + static_cast<std::ptrdiff_t>(tail_start));
  r.tail.ops.assign(t.ops.begin() + static_cast<std::ptrdiff_t>(tail_start),
                    t.ops.end());
  const std::uint64_t t0 =
      r.tail.ops.empty() ? 0 : r.tail.ops.front().timestamp_us;
  for (auto& op : r.tail.ops) op.timestamp_us -= t0;
  r.shadow.assign(t.logical_pages, 0);
  for (const HostRequest& req : t.ops) {
    r.host_pages += req.num_pages;
    if (req.op == OpType::kRead) continue;
    if (req.op == OpType::kWrite) r.write_pages += req.num_pages;
    const std::uint8_t mapped = req.op == OpType::kWrite ? 1 : 0;
    std::fill_n(r.shadow.begin() + static_cast<std::ptrdiff_t>(req.start_lpn),
                req.num_pages, mapped);
  }
  r.segment_pages = static_cast<std::uint64_t>(
      static_cast<double>(r.write_pages) / drive_writes);
  return r;
}

// ---------------------------------------------------------------------------
// Untraced replay: host time plus the simulated device metrics
// ---------------------------------------------------------------------------

/// Simulated metrics of one replay; deterministic for a fixed trace.
struct SimMetrics {
  double wa = 0.0;
  double sim_bw_mb_s = 0.0;
  double sim_p50_us = 0.0;
  double sim_p99_us = 0.0;
  double read_amp = 0.0;
  double mapping_ram_kb = 0.0;
  std::uint64_t timed_requests = 0;
};

/// Host read amplification as stats.hpp defines it.
double read_amp(const FtlStats& s) {
  return ratio(static_cast<double>(s.host_reads + s.trans_reads_host +
                                   s.learned_probe_reads_host),
               static_cast<double>(s.host_reads + s.host_reads_unmapped));
}

double mapping_ram_kb(const FtlBase& ftl) {
  const std::uint64_t bytes = ftl.mapping_tier_enabled()
                                  ? ftl.mapping_ram_bytes()
                                  : ftl.logical_pages() * 8;
  return static_cast<double>(bytes) / 1024.0;
}

struct UntracedRun {
  std::unique_ptr<FtlBase> ftl;
  double host_s = 0.0;
  SimMetrics sim;
};

UntracedRun run_untraced(const Workload& w, std::unique_ptr<FtlBase> ftl,
                         const Replay& r) {
  UntracedRun run;
  run.ftl = std::move(ftl);
  TimedReplayer replayer(*run.ftl, DeviceTimingConfig{});
  const auto t0 = Clock::now();
  const Phase1Result aged = replayer.stress_load(r.head, r.segment_pages);
  const Phase2Result lat = replayer.timed_replay(r.tail, w.time_scale);
  run.ftl->drain();
  run.host_s = seconds_between(t0, Clock::now());
  const FtlStats& s = run.ftl->stats();
  run.sim.wa = s.write_amplification();
  run.sim.sim_bw_mb_s = aged.final_bandwidth_mb_s;
  run.sim.sim_p50_us = lat.p50_us;
  run.sim.sim_p99_us = lat.p99_us;
  run.sim.read_amp = read_amp(s);
  run.sim.mapping_ram_kb = mapping_ram_kb(*run.ftl);
  run.sim.timed_requests = lat.requests;
  return run;
}

/// The frozen-scale procedure: bench_gc_latency's offered load at ~65 % of
/// the aged service rate, corrected by the first-to-last drive-write
/// slowdown the head understates.
double calibrate_time_scale(const Workload& w, const Replay& r) {
  auto ftl = make_ftl(w, ftl_config(w, Variant::kAsDefined));
  TimedReplayer replayer(*ftl, DeviceTimingConfig{});
  const Phase1Result aged = replayer.stress_load(r.head, r.segment_pages);
  const double service_per_op = static_cast<double>(aged.total_sim_ns) /
                                static_cast<double>(r.head.ops.size());
  const double slowdown =
      aged.bandwidth_mb_s.size() >= 2 && aged.bandwidth_mb_s.back() > 0
          ? aged.bandwidth_mb_s.front() / aged.bandwidth_mb_s.back()
          : 1.0;
  const double tail_arrival_per_op =
      static_cast<double>(r.tail.ops.back().timestamp_us) * 1000.0 /
      static_cast<double>(r.tail.ops.size());
  return service_per_op * slowdown / (0.65 * tail_arrival_per_op);
}

// ---------------------------------------------------------------------------
// Durability check (outside every timed region)
// ---------------------------------------------------------------------------

struct Verification {
  std::uint64_t checked = 0;     ///< LPN checks, two sweeps
  std::uint64_t mismatches = 0;
};

/// After drain(), every LPN's mapped-ness must match the shadow of
/// acknowledged writes and trims, and a page reads nonzero iff it is
/// mapped. Then an unclean-shutdown mount (recover()), and a second sweep:
/// mapped-ness must still match and every payload must be unchanged.
Verification verify_durability(FtlBase& ftl,
                               const std::vector<std::uint8_t>& shadow) {
  Verification v;
  const std::uint64_t n = ftl.logical_pages();
  if (shadow.size() != n) {
    v.checked = v.mismatches = 1;
    return v;
  }
  ftl.drain();
  std::vector<std::uint64_t> before(n);
  for (Lpn lpn = 0; lpn < n; ++lpn) {
    const bool want = shadow[lpn] != 0;
    before[lpn] = ftl.read_page(lpn);
    if (ftl.is_mapped(lpn) != want || (before[lpn] != 0) != want)
      ++v.mismatches;
  }
  ftl.recover();
  for (Lpn lpn = 0; lpn < n; ++lpn) {
    const bool want = shadow[lpn] != 0;
    if (ftl.is_mapped(lpn) != want || ftl.read_page(lpn) != before[lpn])
      ++v.mismatches;
  }
  v.checked = 2 * n;
  return v;
}

// ---------------------------------------------------------------------------
// Traced replay: one span per submit_checked call
// ---------------------------------------------------------------------------

/// Span class, from the public counters that moved during the call, in
/// this priority: a window trained, then GC ran, then plain.
enum class SpanKind : std::uint8_t { kPlain, kGc, kTrain };

struct Span {
  std::int64_t start_ns = 0;  ///< since the start of the traced replay
  std::int64_t dur_ns = 0;
  OpType op = OpType::kWrite;
  SpanKind kind = SpanKind::kPlain;
  std::uint32_t pages = 0;
};

struct TracedRun {
  std::unique_ptr<FtlBase> ftl;
  double host_s = 0.0;
  std::vector<Span> spans;
  std::vector<std::uint8_t> shadow;  ///< from the acknowledged pages
  std::uint64_t write_pages = 0;     ///< attempted
  std::uint64_t rejected_pages = 0;  ///< ENOSPC
};

TracedRun run_traced(const Workload& w, const FtlConfig& cfg,
                     const Replay& r) {
  TracedRun run;
  run.ftl = make_ftl(w, cfg);
  FtlBase& ftl = *run.ftl;
  const auto* phftl = dynamic_cast<const core::PhftlFtl*>(&ftl);
  run.shadow.assign(ftl.logical_pages(), 0);
  run.spans.reserve(r.head.ops.size() + r.tail.ops.size());
  const auto t0 = Clock::now();
  auto submit = [&](const HostRequest& req) {
    const std::uint64_t trainings =
        phftl ? phftl->trainer().trainings_run() : 0;
    const std::uint64_t gc_rounds = ftl.stats().gc_invocations;
    const auto start = Clock::now();
    const SubmitResult res = ftl.submit_checked(req);
    const auto end = Clock::now();
    Span span;
    span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        start - t0).count();
    span.dur_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count();
    span.op = req.op;
    span.pages = req.num_pages;
    if (phftl && phftl->trainer().trainings_run() != trainings)
      span.kind = SpanKind::kTrain;
    else if (ftl.stats().gc_invocations != gc_rounds)
      span.kind = SpanKind::kGc;
    run.spans.push_back(span);

    const auto first = run.shadow.begin() +
                       static_cast<std::ptrdiff_t>(req.start_lpn);
    if (req.op == OpType::kWrite) {
      run.write_pages += req.num_pages;
      run.rejected_pages += req.num_pages - res.pages_completed;
      std::fill_n(first, res.pages_completed, 1);
    } else if (req.op == OpType::kTrim) {
      std::fill_n(first, req.num_pages, 0);
    }
  };
  for (const HostRequest& req : r.head.ops) submit(req);
  for (const HostRequest& req : r.tail.ops) submit(req);
  ftl.drain();
  run.host_s = seconds_between(t0, Clock::now());
  return run;
}

// ---------------------------------------------------------------------------
// ML layer, called directly
// ---------------------------------------------------------------------------

struct MlCost {
  double train_epoch_ms = 0.0;
  double predict_step_ns = 0.0;
};

/// GruClassifier::train_epoch on a synthetic window shaped like the
/// trainer's (2 x train_per_class sequences of history_len steps, the
/// trainer's batch and hidden sizes), then the QuantizedGru incremental
/// predict loop on the resulting model. Medians over `reps` repetitions.
MlCost measure_ml(std::uint64_t seed, int reps) {
  const core::ModelTrainer::Config tc;
  ml::GruClassifier::Config mc;
  mc.input_dim = core::kInputDim;
  mc.hidden_dim = tc.gru_hidden;
  mc.adam = tc.adam;
  mc.adam.lr = tc.gru_lr;
  mc.seed = seed;
  ml::GruClassifier model(mc);

  Xoshiro256 rng(seed);
  std::vector<ml::Sequence> window(2 * tc.train_per_class);
  for (std::size_t i = 0; i < window.size(); ++i) {
    window[i].label = static_cast<int>(i % 2);
    window[i].steps.assign(tc.history_len,
                           std::vector<float>(core::kInputDim));
    for (auto& step : window[i].steps)
      for (float& x : step) x = static_cast<float>(rng.next_double());
  }

  MlCost cost;
  std::vector<double> epoch_ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    model.train_epoch(window, tc.batch_size, rng);
    epoch_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  cost.train_epoch_ms = median(epoch_ms);

  const ml::QuantizedGru qgru(model);
  constexpr std::size_t kInputs = 256;
  constexpr int kSteps = 20000;
  std::vector<float> xs(kInputs * core::kInputDim);
  for (float& x : xs) x = static_cast<float>(rng.next_double());
  std::vector<std::int8_t> hidden(qgru.hidden_dim(), 0);
  std::vector<double> step_ns;
  long long shorts = 0;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    for (int s = 0; s < kSteps; ++s) {
      const float* x = xs.data() + (static_cast<std::size_t>(s) % kInputs) *
                                       core::kInputDim;
      shorts += qgru.predict_incremental(
          std::span<const float>(x, core::kInputDim), hidden);
    }
    step_ns.push_back(seconds_between(t0, Clock::now()) * 1e9 / kSteps);
  }
  cost.predict_step_ns = median(step_ns);
  std::printf("ml: %lld short predictions in %d x %d steps\n", shorts, reps,
              kSteps);
  return cost;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

class Report {
 public:
  void add(std::string name, std::string unit, double value) {
    std::printf("  %-34s %16.6f %s\n", name.c_str(), value, unit.c_str());
    metrics_.push_back({std::move(name), std::move(unit), value});
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i) out += ", ";
      out += json_str(metrics_[i].name) + ": {\"value\": " +
             num(metrics_[i].value) +
             ", \"unit\": " + json_str(metrics_[i].unit) + "}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool small = false;
  bool calibrate = false;
  std::string trace_out;
};

std::string env_json(const Options& o, int sub_traces) {
  const unsigned threads = std::thread::hardware_concurrency();
  return std::string("{\"workload\": ") + json_str(o.workload->name) +
         ", \"seed\": " + std::to_string(o.seed) +
         ", \"trace\": " + std::to_string(o.trace) +
         ", \"small\": " + (o.small ? "true" : "false") +
         ", \"sub_traces\": " + std::to_string(sub_traces) +
         ", \"hardware_threads\": " + std::to_string(threads) +
         ", \"compiler\": " + json_str(PERFBENCH_COMPILER) +
         ", \"build_type\": " + json_str(PERFBENCH_BUILD_TYPE) +
         ", \"phftl_obs\": " + (PHFTL_OBS_ENABLED ? "true" : "false") + "}";
}

/// The traced replay's spans as chrome://tracing JSON, in the event layout
/// obs::trace_to_chrome_json writes (complete "X" events, ts/dur in us, one
/// lane per span class). Only the last `kMaxSpans` spans are kept, like the
/// obs trace ring; the file is written once, at exit.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& env) {
  constexpr std::size_t kMaxSpans = 50000;
  const std::size_t first = spans.size() > kMaxSpans ? spans.size() - kMaxSpans
                                                     : 0;
  static const char* kLanes[] = {"plain", "gc", "train"};
  static const char* kOps[] = {"submit_read", "submit_write", "submit_trim"};
  std::string out = "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"env\": " +
                    env + ", \"dropped_spans\": " + std::to_string(first) +
                    "}, \"traceEvents\": [\n";
  for (int tid = 0; tid < 3; ++tid) {
    if (tid) out += ",\n";
    out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": " +
           std::to_string(tid) + ", \"args\": {\"name\": \"" + kLanes[tid] +
           "\"}}";
  }
  char buf[256];
  for (std::size_t i = first; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int lane = static_cast<int>(s.kind);
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 0, \"tid\": %d, "
                  "\"args\": {\"pages\": %u}}",
                  kOps[static_cast<int>(s.op)], kLanes[lane],
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.dur_ns) * 1e-3, lane, s.pages);
    out += buf;
  }
  out += "\n]}\n";
  return obs::write_text_file(path, out);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// The two modes
// ---------------------------------------------------------------------------

/// Shared state of one benchmark process.
struct Run {
  explicit Run(const Options& o) : opts(o), w(*o.workload) {}

  const Options& opts;
  const Workload& w;
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  int sub_traces = 0;  ///< replayed so far

  void fail(const char* what) {
    std::printf("CHECK FAILED: %s\n", what);
    correct = false;
  }

  void count_verification(const Verification& v, std::uint64_t write_pages,
                          std::uint64_t rejected) {
    attempted += write_pages + v.checked;
    failed += rejected + v.mismatches;
    if (v.mismatches) fail("durability verification found mismatches");
    if (rejected) fail("writes were rejected with ENOSPC");
  }
};

/// Sub-traces one run replays: enough nominal replay time to fill
/// --seconds (a traced round replays about twice). A deterministic function
/// of the arguments, so the simulated results depend on the seed alone.
int sub_traces(const Options& o) {
  if (o.small) return 1;
  const double per_round = o.workload->nominal_replay_s * (o.trace ? 2 : 1);
  return static_cast<int>(
      std::clamp(std::lround(o.seconds / per_round), 1L, 64L));
}

/// Sub-trace j of seed s. Each run averages over several independently
/// generated traces, so its figures vary little from seed to seed.
std::uint64_t sub_seed(std::uint64_t seed, int j) {
  return seed * 64 + static_cast<std::uint64_t>(j);
}

struct Prepared {
  Replay replay;
  std::unique_ptr<FtlBase> ftl;  ///< fresh, for the untraced replay
};

/// Set-up of one sub-trace: trace generation plus FTL construction, timed.
Prepared set_up(Run& run, int j) {
  const auto t0 = Clock::now();
  const Trace trace =
      make_trace(run.w, sub_seed(run.opts.seed, j), run.opts.small);
  const auto t1 = Clock::now();
  Prepared p;
  p.ftl = make_ftl(run.w, ftl_config(run.w, Variant::kAsDefined));
  const auto t2 = Clock::now();
  run.generate_s.push_back(seconds_between(t0, t1));
  run.setup_s.push_back(seconds_between(t0, t2));
  p.replay = split_trace(trace, trace_drive_writes(run.w, run.opts.small));
  return p;
}

/// The same seed must give the same inputs: regenerate sub-trace 0 (after
/// its replay, so the second copy stays out of peak_rss_mb) and compare.
void check_regenerates(Run& run, const Replay& first) {
  const Replay again = split_trace(
      make_trace(run.w, sub_seed(run.opts.seed, 0), run.opts.small),
      trace_drive_writes(run.w, run.opts.small));
  if (!same_ops(first.head, again.head) || !same_ops(first.tail, again.tail))
    run.fail("the same seed generated a different trace");
}

void report_end_to_end(Run& run, Report& report) {
  std::vector<SimMetrics> sims;
  double host_s = 0.0;
  std::uint64_t host_pages = 0, timed_requests = 0;
  std::vector<double> f1;
  double rss_mb = 0.0;
  for (int j = 0; j < sub_traces(run.opts); ++j, ++run.sub_traces) {
    Prepared p = set_up(run, j);
    UntracedRun r = run_untraced(run.w, std::move(p.ftl), p.replay);
    if (j == 0) {
      // Peak memory of set-up plus one replay: later sub-traces only add
      // allocator-reuse noise.
      rss_mb = peak_rss_mb();
      check_regenerates(run, p.replay);
    }
    host_s += r.host_s;
    host_pages += p.replay.host_pages;
    timed_requests += r.sim.timed_requests;
    sims.push_back(r.sim);
    if (auto* phftl = dynamic_cast<core::PhftlFtl*>(r.ftl.get())) {
      phftl->finalize_evaluation();
      f1.push_back(phftl->classifier_metrics().f1());
    }
    run.count_verification(verify_durability(*r.ftl, p.replay.shadow),
                           p.replay.write_pages,
                           r.ftl->stats().enospc_rejections);
  }
  auto mean = [&sims](double SimMetrics::*field) {
    double sum = 0.0;
    for (const SimMetrics& s : sims) sum += s.*field;
    return sum / static_cast<double>(sims.size());
  };
  std::printf("%d sub-traces, %llu host pages, sim latency over %llu timed "
              "requests, %.3f s of replay\n",
              run.sub_traces, static_cast<unsigned long long>(host_pages),
              static_cast<unsigned long long>(timed_requests), host_s);
  report.add("setup_s", "s", median(run.setup_s));
  report.add("replay_pages_per_s", "1/s",
             static_cast<double>(host_pages) / host_s);
  report.add("peak_rss_mb", "MB", rss_mb);
  report.add("wa", "ratio", mean(&SimMetrics::wa));
  report.add("sim_bw_mb_s", "MB/s", mean(&SimMetrics::sim_bw_mb_s));
  report.add("sim_p50_us", "us", mean(&SimMetrics::sim_p50_us));
  report.add("sim_p99_us", "us", mean(&SimMetrics::sim_p99_us));
  report.add("read_amp", "ratio", mean(&SimMetrics::read_amp));
  report.add("mapping_ram_kb", "KiB", mean(&SimMetrics::mapping_ram_kb));
  if (!f1.empty()) {
    double sum = 0.0;
    for (const double v : f1) sum += v;
    std::printf("classifier_f1 %.6f (Table I, online; mean of %zu)\n",
                sum / static_cast<double>(f1.size()), f1.size());
  }
  std::printf("failed_op_frac %.6g (%llu of %llu page operations)\n",
              ratio(static_cast<double>(run.failed),
                    static_cast<double>(run.attempted)),
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.attempted));
}

/// Span-derived host costs of one traced replay. The plain, GC and train
/// span classes are shares of the traced replay time, so they add up to
/// bench.span_coverage_pct (the ledger), and a class a workload never runs
/// reads 0 % instead of a constant time.
void add_span_costs(const TracedRun& t, std::vector<Metric>& m) {
  std::vector<double> writes, reads, plain_writes;
  double class_s[3] = {0.0, 0.0, 0.0};
  for (const Span& span : t.spans) {
    const double us = static_cast<double>(span.dur_ns) * 1e-3;
    class_s[static_cast<int>(span.kind)] += us * 1e-6;
    if (span.op == OpType::kWrite) writes.push_back(us);
    if (span.op == OpType::kRead) reads.push_back(us);
    if (span.op == OpType::kWrite && span.kind == SpanKind::kPlain)
      plain_writes.push_back(us);
  }
  auto share = [&](SpanKind k) {
    return ratio(class_s[static_cast<int>(k)], t.host_s) * 100.0;
  };
  m.push_back({"ftl.write_submit_us_p50", "us", quantile(writes, 0.50)});
  m.push_back({"ftl.write_submit_us_p99", "us", quantile(writes, 0.99)});
  m.push_back({"ftl.read_submit_us_p50", "us", quantile(reads, 0.50)});
  m.push_back({"ftl.read_submit_us_p99", "us", quantile(reads, 0.99)});
  m.push_back({"ftl.plain_submit_pct", "%", share(SpanKind::kPlain)});
  m.push_back({"ftl.gc_submit_pct", "%", share(SpanKind::kGc)});
  m.push_back({"core.train_submit_pct", "%", share(SpanKind::kTrain)});
  m.push_back({"core.plain_write_submit_us_p50", "us",
               quantile(plain_writes, 0.50)});
  m.push_back({"bench.replay_s", "s", t.host_s});
  m.push_back({"bench.span_coverage_pct", "%",
               share(SpanKind::kPlain) + share(SpanKind::kGc) +
                   share(SpanKind::kTrain)});
}

/// Simulated counters of one traced replay, read before verification.
void add_counters(const TracedRun& t, std::vector<Metric>& m) {
  FtlBase& ftl = *t.ftl;
  const FtlStats& s = ftl.stats();
  auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  m.push_back({"ftl.gc_rounds", "count", count(s.gc_invocations)});
  m.push_back({"ftl.gc_moved_pages", "count", count(s.gc_writes)});
  m.push_back({"ftl.moved_per_round", "pages",
               ratio(count(s.gc_writes), count(s.gc_invocations))});
  m.push_back({"ftl.erases", "count", count(s.erases)});
  m.push_back({"ftl.map.cmt_hit_rate", "ratio",
               ratio(count(s.cmt_hits), count(s.cmt_hits + s.cmt_misses))});
  m.push_back({"ftl.map.trans_reads_host", "count", count(s.trans_reads_host)});
  m.push_back({"ftl.map.trans_writes", "count", count(s.trans_writes)});
  // A verified learned probe answers a lookup before it reaches the CMT,
  // so the misses it saved are not in cmt_misses: base = both.
  m.push_back({"ftl.map.learned_hit_ratio", "ratio",
               ratio(count(s.learned_hits),
                     count(s.learned_hits + s.cmt_misses))});
  m.push_back({"ftl.map.learned_probe_reads", "count",
               count(s.learned_probe_reads)});
  m.push_back({"ftl.map.learned_segments", "count",
               count(ftl.learned_segments())});
  m.push_back({"ftl.map.learned_kb", "KiB",
               count(ftl.learned_index_bytes()) / 1024.0});

  auto* phftl = dynamic_cast<core::PhftlFtl*>(&ftl);
  if (phftl) phftl->finalize_evaluation();
  m.push_back({"core.train_windows", "count",
               phftl ? count(phftl->trainer().trainings_run()) : 0.0});
  m.push_back({"core.meta_cache_hit_rate", "ratio",
               phftl ? phftl->meta_store().cache_hit_rate() : 0.0});
  m.push_back({"core.meta_flash_reads", "count", count(s.meta_reads)});
  m.push_back({"core.classifier_f1", "ratio",
               phftl ? phftl->classifier_metrics().f1() : 0.0});

  m.push_back({"flash.programs", "count", count(ftl.flash().total_programs())});
  m.push_back({"flash.reads", "count",
               count(s.host_reads + s.gc_reads + s.meta_reads + s.trans_reads +
                     s.learned_probe_reads)});
  m.push_back({"flash.erases", "count", count(ftl.flash().total_erases())});
}

/// One round per sub-trace: the untraced replay (baseline of the trace
/// overhead), the traced replay, and on the tiered workload the same traced
/// replay with the learned index off and with the tier off. Each per-layer
/// metric is the median over the rounds.
void report_per_layer(Run& run, Report& report) {
  const bool tiered = run.w.mapping_tier;
  std::vector<std::vector<Metric>> rounds;
  std::vector<Span> exported;
  for (int j = 0; j < sub_traces(run.opts); ++j, ++run.sub_traces) {
    Prepared p = set_up(run, j);
    const Replay& replay = p.replay;
    const UntracedRun u = run_untraced(run.w, std::move(p.ftl), replay);
    if (j == 0) check_regenerates(run, replay);
    TracedRun t =
        run_traced(run.w, ftl_config(run.w, Variant::kAsDefined), replay);
    if (t.ftl->stats().write_amplification() != u.sim.wa)
      run.fail("the traced replay simulated a different WA than the untraced");

    std::vector<Metric> m;
    add_counters(t, m);
    add_span_costs(t, m);
    // Mapping-layer host cost as shares of the traced replay: 0 % where the
    // tier is off. learned_cost_pct = 95 means learned-off runs 20x faster.
    double learned_cost = 0.0, tier_cost = 0.0;
    if (tiered) {
      const double learned_off =
          run_traced(run.w, ftl_config(run.w, Variant::kLearnedOff), replay)
              .host_s;
      const double tier_off =
          run_traced(run.w, ftl_config(run.w, Variant::kTierOff), replay)
              .host_s;
      learned_cost = ratio(t.host_s - learned_off, t.host_s) * 100.0;
      tier_cost = ratio(learned_off - tier_off, t.host_s) * 100.0;
    }
    m.push_back({"ftl.map.learned_cost_pct", "%", learned_cost});
    m.push_back({"ftl.map.tier_cost_pct", "%", tier_cost});
    m.push_back({"device.timed_requests", "count",
                 static_cast<double>(u.sim.timed_requests)});
    m.push_back({"bench.trace_overhead_pct", "%",
                 (t.host_s / u.host_s - 1.0) * 100.0});
    rounds.push_back(std::move(m));

    run.count_verification(verify_durability(*t.ftl, t.shadow),
                           t.write_pages, t.rejected_pages);
    if (j == 0) exported = std::move(t.spans);
  }

  report.add("trace.generate_s", "s", median(run.generate_s));
  for (std::size_t i = 0; i < rounds.front().size(); ++i) {
    std::vector<double> v;
    for (const auto& m : rounds) v.push_back(m[i].value);
    report.add(rounds.front()[i].name, rounds.front()[i].unit, median(v));
  }
  const MlCost ml = measure_ml(run.opts.seed, run.opts.small ? 2 : 7);
  report.add("ml.train_epoch_ms", "ms", ml.train_epoch_ms);
  report.add("ml.predict_step_ns", "ns", ml.predict_step_ns);

  if (!run.opts.trace_out.empty() &&
      !write_chrome_trace(run.opts.trace_out, exported,
                          env_json(run.opts, run.sub_traces)))
    run.fail("could not write the chrome trace");
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <phftl_train|base_gc|tiered_mixed> "
               "--seed N [--seconds S] [--trace 0|1] [--small] "
               "[--trace-out PATH] [--calibrate]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  auto number = [&](const std::string& s) {
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (s.empty() || *end != '\0' || !(v >= 0.0)) usage(argv[0]);
    return v;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload") {
      o.workload = find_workload(value(i));
      if (!o.workload) usage(argv[0]);
    } else if (arg == "--seed") {
      const std::string s = value(i);
      if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
        usage(argv[0]);
      o.seed = std::strtoull(s.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = number(value(i));
    } else if (arg == "--trace") {
      const std::string s = value(i);
      if (s != "0" && s != "1") usage(argv[0]);
      o.trace = s == "1" ? 1 : 0;
    } else if (arg == "--small") {
      o.small = true;
    } else if (arg == "--calibrate") {
      o.calibrate = true;
    } else if (arg == "--trace-out") {
      o.trace_out = value(i);
    } else {
      usage(argv[0]);
    }
  }
  if (!o.workload) usage(argv[0]);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  Run run(opts);
  std::printf("workload %s: %s on #144, %.1f drive writes%s, seed %llu\n",
              run.w.name, run.w.scheme,
              trace_drive_writes(run.w, opts.small),
              opts.small ? " (small)" : "",
              static_cast<unsigned long long>(opts.seed));

  if (opts.calibrate) {
    const Prepared p = set_up(run, 0);
    std::printf("time_scale %.6g\n", calibrate_time_scale(run.w, p.replay));
    return 0;
  }

  Report report;
  if (opts.trace == 0)
    report_end_to_end(run, report);
  else
    report_per_layer(run, report);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s, \"env\": %s}\n",
              run.correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed),
              report.json().c_str(), env_json(opts, run.sub_traces).c_str());
  return run.correct ? 0 : 1;
}
