// Figure 7 reproduction: impact of WA reduction on bandwidth and latency,
// on the device timing model (OpenSSD stand-in).
//
// The paper replays the two most representative 500 GB traces — #144 (the
// highest-WA trace) and #52 (the lowest) — on PHFTL-hw and the stock FTL:
//   Phase 1: stress-load the trace and report bandwidth per drive write.
//            PHFTL starts slightly slower (ML overhead), then overtakes as
//            WA reduction kicks in (paper: +12.1% on #52, +61.6% on #144
//            during the last drive write).
//   Phase 2: replay the trace tail by timestamp and report the latency
//            distribution. Tail latencies drop with GC pressure (paper:
//            -16.2% / -53.0% average latency).
//
// Within a trace the two schemes are sequential (PHFTL-hw's phase-2 arrival
// scale is derived from Stock's aged service rate), so `--jobs` parallelizes
// across traces: each trace runs as one task that buffers its report, and
// the reports print in trace order.
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "core/schemes.hpp"
#include "device/replayer.hpp"
#include "trace/alibaba_suite.hpp"
#include "util/table.hpp"

namespace {

using namespace phftl;

/// The scheme behind a device label: the stock FTL is Base.
const char* scheme_of(const std::string& label) {
  return label == "Stock" ? "Base" : "PHFTL";
}

DeviceTimingConfig timing_for(const std::string& scheme) {
  DeviceTimingConfig t;
  t.controller.mode =
      scheme == "Stock" ? PredictionMode::kStock : PredictionMode::kAsync;
  return t;
}

std::string run_trace(const char* trace_id, double drive_writes) {
  std::ostringstream out;
  char buf[256];

  const auto& spec = suite_spec(trace_id);
  const FtlConfig cfg = suite_ftl_config(spec);
  const Trace trace = make_suite_trace(spec, drive_writes);
  // Phase 2 replays the last ~10 % of the trace by timestamp (the paper
  // replays the last hour) on a device aged by the rest.
  const bench::AgedTail cut(trace, drive_writes);

  std::snprintf(buf, sizeof(buf),
                "=== Trace %s (%s, %.1f drive writes) ===\n", trace_id,
                trace_id == std::string("#52") ? "low WA" : "high WA",
                drive_writes);
  out << buf;

  // --- Phase 1: stress load, bandwidth per drive write ---
  TextTable bw;
  std::vector<std::string> header{"scheme"};
  for (std::uint64_t d = 1; d <= static_cast<std::uint64_t>(drive_writes);
       ++d)
    header.push_back("DW" + std::to_string(d) + " MB/s");
  header.push_back("WA");
  bw.header(header);

  double last_bw[2] = {0, 0};
  int idx = 0;
  for (const char* scheme : {"Stock", "PHFTL-hw"}) {
    auto ftl = make_scheme(scheme_of(scheme), core::default_phftl_config(cfg));
    TimedReplayer replayer(*ftl, timing_for(scheme));
    const Phase1Result res = replayer.stress_load(trace, cut.segment_pages);
    std::vector<std::string> row{scheme};
    for (double b : res.bandwidth_mb_s)
      row.push_back(TextTable::num(b, 0));
    row.push_back(TextTable::pct(ftl->stats().write_amplification()));
    bw.row(row);
    last_bw[idx++] = res.final_bandwidth_mb_s;
  }
  out << "Phase 1 (stress load):\n";
  bw.render(out);
  std::snprintf(buf, sizeof(buf),
                "Last-drive-write bandwidth: PHFTL-hw %+.1f%% vs Stock\n\n",
                (last_bw[1] / last_bw[0] - 1.0) * 100.0);
  out << buf;

  // --- Phase 2: timestamped replay of the trace tail ---
  TextTable lat;
  lat.header({"scheme", "P50 us", "P90 us", "P99 us", "P99.5 us",
              "P99.9 us", "Avg us"});
  double avg[2] = {0, 0};
  double time_scale = 1.0;  // set by the Stock run, reused by PHFTL-hw
  idx = 0;
  for (const char* scheme : {"Stock", "PHFTL-hw"}) {
    auto ftl = make_scheme(scheme_of(scheme), core::default_phftl_config(cfg));
    TimedReplayer replayer(*ftl, timing_for(scheme));
    const Phase1Result aged = replayer.stress_load(cut.head, cut.segment_pages);
    // Both schemes see the arrival times the *stock* device's aged service
    // rate sets, as the paper replays wall-clock timestamps.
    if (scheme == std::string("Stock"))
      time_scale = bench::arrival_scale(cut, aged);
    const Phase2Result res = replayer.timed_replay(cut.tail, time_scale);
    lat.row({scheme, TextTable::num(res.p50_us, 1),
             TextTable::num(res.p90_us, 1), TextTable::num(res.p99_us, 1),
             TextTable::num(res.p995_us, 1),
             TextTable::num(res.p999_us, 1),
             TextTable::num(res.mean_us, 1)});
    avg[idx++] = res.mean_us;
  }
  out << "Phase 2 (timestamped replay of trace tail):\n";
  lat.render(out);
  std::snprintf(buf, sizeof(buf),
                "Average latency: PHFTL-hw %+.1f%% vs Stock\n\n",
                (avg[1] / avg[0] - 1.0) * 100.0);
  out << buf;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = phftl::bench::jobs_from_cli(argc, argv);
  const double drive_writes = drive_writes_from_env(6.0);

  const std::vector<const char*> trace_ids = {"#52", "#144"};
  const std::vector<std::string> reports = phftl::util::run_grid(
      jobs, trace_ids.size(),
      [&](std::size_t i) { return run_trace(trace_ids[i], drive_writes); });
  for (const std::string& report : reports) std::fputs(report.c_str(), stdout);

  std::printf(
      "Paper: last-drive-write bandwidth +12.1%% (#52) and +61.6%% (#144); "
      "average latency -16.2%% (#52)\nand -53.0%% (#144); low-percentile "
      "latencies within 5%%, tails much lower for PHFTL-hw.\n");
  return 0;
}
