// Tail-latency comparison: stop-the-world vs time-sliced GC (docs/QOS.md).
//
// For every scheme (Base/2R/SepBIT/PHFTL) on the two Fig. 7 traces (#144
// high-WA, #52 low-WA), replay the trace tail on the device timing model
// twice — once with GC running whole victims inside the triggering write
// (gc_step_pages 0, stop-the-world) and once with GC bounded to
// --step-pages relocations per host write (time-sliced) — and report the
// host latency distribution plus WA for each. The QoS contract under test:
// time-sliced GC must cut P99/P99.9 (no request waits behind a whole
// victim) while staying WA-neutral to within 1 % (the cursor-based round
// relocates the same valid pages, minus any the host invalidates mid-round).
//
// Method (bench_fig7's, from bench_common.hpp): age the device by
// stress-loading the first 90 % of the trace (bench::AgedTail), calibrate
// the open-loop arrival scale off the stop-the-world run (65 % of its aged
// service rate, bench::arrival_scale), then reuse that scale for the
// time-sliced run so both see identical arrivals.
//
// Usage: bench_gc_latency [--jobs N] [--step-pages N] [--out <path>]
// Writes BENCH_gc_latency.json (schema "phftl-bench-gc-latency/1" — see
// EXPERIMENTS.md). The job count is --jobs; 0 or absent means one per
// usable CPU. --step-pages defaults to 8. A numeric flag whose whole token
// is not an integer in its range (--jobs [0, 256]; --step-pages >= 1, since
// a budget of 0 would make both arms stop-the-world) exits with status 2.
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "device/replayer.hpp"
#include "trace/alibaba_suite.hpp"
#include "util/table.hpp"

namespace {

using namespace phftl;

struct ModeResult {
  Phase2Result lat;
  double wa = 0.0;
  std::uint64_t gc_steps = 0;
  std::uint64_t gc_preemptions = 0;
};

struct CellResult {
  std::string trace_id;
  std::string scheme;
  ModeResult stw;      // stop-the-world
  ModeResult sliced;   // time-sliced
  std::string report;  // rendered table, printed in grid order
};

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

/// One (trace, scheme) cell: STW first (calibrates the arrival scale),
/// then time-sliced under the identical arrival process.
CellResult run_cell(const SuiteTraceSpec& spec, const std::string& scheme,
                    double drive_writes, std::uint64_t step_pages) {
  FtlConfig cfg = suite_ftl_config(spec);
  const bench::AgedTail cut(make_suite_trace(spec, drive_writes),
                           drive_writes);

  CellResult cell;
  cell.trace_id = spec.id;
  cell.scheme = scheme;

  double time_scale = 1.0;  // set by the STW run, reused for time-sliced
  for (const bool sliced : {false, true}) {
    cfg.gc_step_pages = sliced ? step_pages : 0;
    auto ftl = bench::make_scheme(scheme, cfg);
    TimedReplayer replayer(*ftl, DeviceTimingConfig{});

    const Phase1Result aged = replayer.stress_load(cut.head, cut.segment_pages);
    if (!sliced) time_scale = bench::arrival_scale(cut, aged);

    ModeResult& r = sliced ? cell.sliced : cell.stw;
    r.lat = replayer.timed_replay(cut.tail, time_scale);
    ftl->drain();  // finish a preempted round before reading final stats
    const FtlStats& s = ftl->stats();
    r.wa = s.write_amplification();
    r.gc_steps = s.gc_steps;
    r.gc_preemptions = s.gc_preemptions;
  }

  std::ostringstream out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "=== %s / %s (step budget %llu pages) ===\n",
                spec.id.c_str(), scheme.c_str(),
                static_cast<unsigned long long>(step_pages));
  out << buf;
  TextTable t;
  t.header({"gc mode", "P50 us", "P99 us", "P99.9 us", "WA", "steps",
            "yields"});
  const ModeResult* rows[2] = {&cell.stw, &cell.sliced};
  const char* names[2] = {"stop-the-world", "time-sliced"};
  for (int i = 0; i < 2; ++i) {
    t.row({names[i], TextTable::num(rows[i]->lat.p50_us, 1),
           TextTable::num(rows[i]->lat.p99_us, 1),
           TextTable::num(rows[i]->lat.p999_us, 1),
           TextTable::num(rows[i]->wa, 4), std::to_string(rows[i]->gc_steps),
           std::to_string(rows[i]->gc_preemptions)});
  }
  t.render(out);
  const double p99_delta =
      cell.stw.lat.p99_us > 0
          ? (cell.sliced.lat.p99_us / cell.stw.lat.p99_us - 1.0) * 100.0
          : 0.0;
  const double wa_delta =
      cell.stw.wa > 0 ? (cell.sliced.wa / cell.stw.wa - 1.0) * 100.0 : 0.0;
  std::snprintf(buf, sizeof(buf),
                "time-sliced: P99 %+.1f%%, WA %+.2f%% vs stop-the-world\n\n",
                p99_delta, wa_delta);
  out << buf;
  cell.report = out.str();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const phftl::util::FlagParser flags("bench_gc_latency");
  unsigned jobs = 0;
  std::uint64_t step_pages = 8;
  std::string out_path = "BENCH_gc_latency.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      jobs = phftl::bench::parse_jobs(flags, argv[++i]);
    } else if (arg == "--step-pages" && i + 1 < argc) {
      step_pages = flags.parse_uint(arg, argv[++i], 1);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--jobs N] [--step-pages N] [--out <path>]\n",
                   argv[0]);
      return 2;
    }
  }
  const double drive_writes = drive_writes_from_env(4.0);

  const std::vector<std::string> trace_ids = {"#144", "#52"};
  const std::size_t schemes = kSchemeNames.size();
  const std::size_t n = trace_ids.size() * schemes;  // trace-major
  const unsigned threads = phftl::util::grid_threads(jobs, n);
  std::printf("GC scheduling tail latency: %zu traces x %zu schemes, "
              "%.1f drive writes, step budget %llu pages, %u jobs\n\n",
              trace_ids.size(), schemes, drive_writes,
              static_cast<unsigned long long>(step_pages), threads);

  const std::vector<CellResult> cells =
      phftl::util::run_grid(threads, n, [&](std::size_t i) {
        return run_cell(suite_spec(trace_ids[i / schemes]),
                        kSchemeNames[i % schemes], drive_writes, step_pages);
      });
  for (const auto& cell : cells) std::fputs(cell.report.c_str(), stdout);

  std::ostringstream js;
  js << "{\n  \"schema\": \"phftl-bench-gc-latency/1\",\n"
     << "  \"drive_writes\": " << json_num(drive_writes) << ",\n"
     << "  \"gc_step_pages\": " << step_pages << ",\n"
     << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    auto mode_json = [&](const char* name, const ModeResult& r) {
      js << "      \"" << name << "\": {\"p50_us\": " << json_num(r.lat.p50_us)
         << ", \"p90_us\": " << json_num(r.lat.p90_us)
         << ", \"p99_us\": " << json_num(r.lat.p99_us)
         << ", \"p999_us\": " << json_num(r.lat.p999_us)
         << ", \"mean_us\": " << json_num(r.lat.mean_us)
         << ", \"wa\": " << json_num(r.wa) << ", \"gc_steps\": " << r.gc_steps
         << ", \"gc_preemptions\": " << r.gc_preemptions << "}";
    };
    js << "    {\"trace\": \"" << c.trace_id << "\", \"scheme\": \""
       << c.scheme << "\",\n";
    mode_json("stop_the_world", c.stw);
    js << ",\n";
    mode_json("time_sliced", c.sliced);
    const double p99_ratio = c.stw.lat.p99_us > 0
                                 ? c.sliced.lat.p99_us / c.stw.lat.p99_us
                                 : 1.0;
    const double wa_ratio = c.stw.wa > 0 ? c.sliced.wa / c.stw.wa : 1.0;
    js << ",\n      \"p99_ratio\": " << json_num(p99_ratio)
       << ", \"wa_ratio\": " << json_num(wa_ratio) << "\n    }"
       << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  js << "  ]\n}\n";
  if (!obs::write_text_file(out_path, js.str())) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
