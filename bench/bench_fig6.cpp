// Figure 6 reproduction: effect of off-critical-path prediction on write
// latency.
//
// The paper's microbenchmark issues fio writes of 4 KB–1 MB with offsets
// capped to the OpenSSD's 16 MB RAM data buffer (no flash programs), so the
// FTL is stressed to the extreme. Three configurations:
//   Stock            — no prediction,
//   PHFTL-hw (sync)  — prediction on the critical path (one core),
//   PHFTL-hw         — interleaved prediction + decoupled completion.
// Paper: sync inflates latency 139.7% on average; async returns it to stock
// levels with a slightly higher standard deviation.
//
// Each request-size point owns its three seeded ControllerModels, so
// `--jobs N` runs the points concurrently with identical output. Latency
// samples additionally flow into a shared obs::MetricsRegistry (one
// histogram per size × mode, observed after the join so the registry sees
// them in deterministic order) and are exported to the common
// BENCH_metrics.json artifact when PHFTL_METRICS_DIR is set — the same
// machinery every replay benchmark uses (docs/METRICS.md).
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "device/controller.hpp"
#include "obs/observability.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace phftl;

constexpr const char* kModeNames[3] = {"stock", "sync", "async"};

struct SizePoint {
  double mean[3], sd[3];
  double inflation;
  /// Raw per-request latencies (us), per mode, for the shared registry.
  std::vector<double> samples[3];
};

SizePoint run_size(std::uint32_t kb, int requests) {
  RunningStats stats[3];
  const PredictionMode modes[] = {PredictionMode::kStock,
                                  PredictionMode::kSync,
                                  PredictionMode::kAsync};
  SizePoint p;
  for (int m = 0; m < 3; ++m) {
    ControllerConfig cfg;
    cfg.mode = modes[m];
    ControllerModel model(cfg, /*seed=*/kb * 7 + m);
    p.samples[m].reserve(requests);
    for (int i = 0; i < requests; ++i) {
      const double us =
          static_cast<double>(model.write_latency_ns(kb)) * 1e-3;
      stats[m].add(us);
      p.samples[m].push_back(us);
    }
  }
  for (int m = 0; m < 3; ++m) {
    p.mean[m] = stats[m].mean();
    p.sd[m] = stats[m].stddev();
  }
  p.inflation = stats[1].mean() / stats[0].mean() - 1.0;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = phftl::bench::jobs_from_cli(argc, argv);
  constexpr int kRequests = 20000;
  const std::vector<std::uint32_t> sizes_kb = {4, 16, 64, 256, 1024};

  std::printf("Figure 6: write latency vs request size (buffered writes, "
              "%d requests per point)\n\n", kRequests);

  const std::vector<SizePoint> points =
      util::run_grid(jobs, sizes_kb.size(), [&sizes_kb](std::size_t i) {
        return run_size(sizes_kb[i], kRequests);
      });

  // Shared registry: one latency histogram per size × mode, filled after
  // the join (points arrive in grid order, so registration order — and the
  // exported JSON — is deterministic under any job count).
  obs::Observability obs;

  TextTable table;
  table.header({"size", "Stock (us)", "sd", "PHFTL-sync (us)", "sd",
                "PHFTL (us)", "sd", "sync inflation"});
  double inflation_sum = 0.0;
  for (std::size_t i = 0; i < sizes_kb.size(); ++i) {
    const std::uint32_t kb = sizes_kb[i];
    const SizePoint& p = points[i];
    inflation_sum += p.inflation;
    const std::string label = kb >= 1024
                                  ? std::to_string(kb / 1024) + "MB"
                                  : std::to_string(kb) + "KB";
    for (int m = 0; m < 3; ++m) {
      auto& hist = obs.metrics().histogram(
          "fig6.write_latency_us." + label + "." + kModeNames[m],
          {25, 50, 100, 200, 400, 800, 1600, 3200, 6400, 12800}, "us",
          "buffered-write latency, " + label + " requests, " +
              kModeNames[m] + " prediction");
      for (const double us : p.samples[m]) hist.observe(us);
    }
    obs.metrics().gauge("fig6.sync_inflation." + label,
                        [inflation = p.inflation] { return inflation; },
                        "ratio",
                        "sync-prediction latency inflation vs stock, " + label);
    table.row({label, TextTable::num(p.mean[0], 1),
               TextTable::num(p.sd[0], 2), TextTable::num(p.mean[1], 1),
               TextTable::num(p.sd[1], 2), TextTable::num(p.mean[2], 1),
               TextTable::num(p.sd[2], 2),
               TextTable::num(p.inflation * 100.0, 1) + "%"});
  }
  table.render(std::cout);

  // Same artifact path as the replay benches: with PHFTL_METRICS_DIR set,
  // the full histogram dump lands in BENCH_metrics.json.
  auto& artifact = bench::detail::MetricsArtifact::instance();
  if (artifact.enabled())
    artifact.add("fig6", "latency-microbench", 0.0, obs::metrics_to_json(obs));

  std::printf(
      "\nPaper: sync prediction inflates latency by 139.7%% on average; "
      "off-critical-path prediction\nreturns it to stock level with higher "
      "standard deviation.\nMeasured average sync inflation: %.1f%%\n",
      inflation_sum / 5.0 * 100.0);
  return 0;
}
