// WA sensitivity sweeps: over-provisioning and TRIM intensity
// (docs/ENDURANCE.md §"Lifetime methodology", EXPERIMENTS.md).
//
// Two classic FTL trade-off curves, one table each:
//
//  1. WA vs over-provisioning — the same physical drive exported at
//     op_ratio from 7 % to 25 %, with the host filling its full logical
//     capacity at every point (a fixed under-sized footprint would leave
//     unmapped logical space acting as hidden spare area and flatten the
//     curve). More spare area means GC victims sit longer and drain
//     emptier, so WA falls for every scheme; the sweep quantifies how much
//     of PHFTL's separation advantage survives at high OP, where even a
//     greedy baseline finds empty victims.
//
//  2. WA vs TRIM intensity — the same drive at the paper's 7 % OP with a
//     rising fraction of TRIM requests in the workload. Trims unmap pages
//     before GC has to move them, but each trim range also costs journal
//     record pages (docs/RECOVERY.md); WA here includes that journal
//     overhead, so the curve shows the net effect.
//
// Usage: bench_op_trim [--jobs N]   (PHFTL_DRIVE_WRITES scales run length)
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "trace/generator.hpp"
#include "util/table.hpp"

namespace {

using namespace phftl;

FtlConfig sweep_config(double op_ratio) {
  FtlConfig cfg;  // 8 dies x 32 blocks x 64 pages x 16 KB = 32 superblocks
  cfg.geom.num_dies = 8;
  cfg.geom.blocks_per_die = 32;
  cfg.geom.pages_per_block = 64;
  cfg.geom.page_size = 16 * 1024;
  cfg.op_ratio = op_ratio;
  return cfg;
}

/// Skewed overwrite workload filling `footprint_pages` of logical space.
Trace sweep_workload(std::uint64_t footprint_pages, double drive_writes,
                     double trim_fraction, std::uint64_t seed) {
  WorkloadParams wp;
  wp.name = "op-trim-sweep";
  wp.logical_pages = footprint_pages;
  wp.total_write_pages = static_cast<std::uint64_t>(
      static_cast<double>(footprint_pages) * drive_writes);
  wp.trim_request_fraction = trim_fraction;
  wp.hot_region_fraction = 0.012;
  wp.hot_traffic_fraction = 0.75;
  wp.warm_region_fraction = 0.10;
  wp.warm_traffic_fraction = 0.15;
  wp.zipf_theta = 0.2;
  wp.seed = seed;
  return generate_workload(wp);
}

FtlStats replay(const std::string& scheme, const FtlConfig& cfg,
               const Trace& trace) {
  auto ftl = bench::make_scheme(scheme, cfg);
  for (const auto& req : trace.ops) ftl->submit_checked(req);
  ftl->drain();
  return ftl->stats();
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = phftl::bench::jobs_from_cli(argc, argv);
  const double drive_writes = drive_writes_from_env(3.0);
  const std::vector<std::string>& schemes = kSchemeNames;
  const std::vector<double> op_points = {0.07, 0.10, 0.15, 0.20, 0.25};
  const std::vector<double> trim_points = {0.0, 0.05, 0.10, 0.20};

  const std::uint64_t total_pages = sweep_config(0.07).geom.total_pages();
  auto logical_at = [total_pages](double op) {
    return static_cast<std::uint64_t>(static_cast<double>(total_pages) *
                                      (1.0 - op));
  };

  // One cell per (sweep point, scheme), point-major: the OP points, then
  // the trim points.
  const std::size_t n = (op_points.size() + trim_points.size()) *
                        schemes.size();
  const unsigned threads = util::grid_threads(jobs, n);
  std::printf("WA sweeps: %zu OP points + %zu trim points x %zu schemes, "
              "%.1f drive writes, %u jobs\n\n",
              op_points.size(), trim_points.size(), schemes.size(),
              drive_writes, threads);

  // One trace per sweep point (shared across schemes); generated up front so
  // grid threads only read them. OP traces fill the full logical capacity
  // of their OP point; trim traces fill the 7 % OP capacity.
  std::vector<Trace> op_traces;
  for (double op : op_points)
    op_traces.push_back(sweep_workload(logical_at(op), drive_writes, 0.0, 91));
  std::vector<Trace> trim_traces;
  for (double tf : trim_points)
    trim_traces.push_back(
        sweep_workload(logical_at(0.07), drive_writes, tf, 91));

  // Each sweep point's OP and trace.
  std::vector<std::pair<double, const Trace*>> points;
  for (std::size_t oi = 0; oi < op_points.size(); ++oi)
    points.emplace_back(op_points[oi], &op_traces[oi]);
  for (const Trace& trace : trim_traces) points.emplace_back(0.07, &trace);

  const std::vector<FtlStats> stats =
      util::run_grid(threads, n, [&](std::size_t i) {
        const auto& [op, trace] = points[i / schemes.size()];
        return replay(schemes[i % schemes.size()], sweep_config(op), *trace);
      });
  std::vector<double> wa;
  std::uint64_t rejected = 0;
  for (const FtlStats& s : stats) {
    wa.push_back(s.write_amplification());
    rejected += s.enospc_rejections;
  }

  std::size_t k = 0;
  std::printf("WA vs over-provisioning (no trims):\n");
  TextTable op_table;
  {
    std::vector<std::string> hdr = {"OP"};
    hdr.insert(hdr.end(), schemes.begin(), schemes.end());
    op_table.header(hdr);
  }
  for (double op : op_points) {
    std::vector<std::string> row = {TextTable::pct(op, 0)};
    for (std::size_t s = 0; s < schemes.size(); ++s)
      row.push_back(TextTable::num(wa[k++], 4));
    op_table.row(row);
  }
  op_table.render(std::cout);

  std::printf("\nWA vs TRIM request fraction (7%% OP; includes trim-journal "
              "writes):\n");
  TextTable trim_table;
  {
    std::vector<std::string> hdr = {"trim frac"};
    hdr.insert(hdr.end(), schemes.begin(), schemes.end());
    trim_table.header(hdr);
  }
  for (double tf : trim_points) {
    std::vector<std::string> row = {TextTable::pct(tf, 0)};
    for (std::size_t s = 0; s < schemes.size(); ++s)
      row.push_back(TextTable::num(wa[k++], 4));
    trim_table.row(row);
  }
  trim_table.render(std::cout);
  if (rejected > 0)
    std::printf("\n%llu write requests rejected (ENOSPC)\n",
                static_cast<unsigned long long>(rejected));
  return 0;
}
