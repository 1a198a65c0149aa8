// Quickstart: build a small SSD, run a skewed workload on the Base FTL and
// on PHFTL, and compare write amplification.
//
//   $ ./quickstart
//
// This exercises the full public API: geometry/FTL configuration, synthetic
// workload generation, trace replay, and the PHFTL-specific metrics
// (classifier confusion matrix, metadata cache hit rate, adaptive
// threshold).
#include <cstdio>
#include <iostream>

#include "baselines/base_ftl.hpp"
#include "core/phftl.hpp"
#include "trace/generator.hpp"
#include "util/table.hpp"

int main() {
  using namespace phftl;

  // A small drive: 8 dies x 128 blocks x 16 pages x 16 KB = 256 MiB.
  FtlConfig cfg;
  cfg.geom.num_dies = 8;
  cfg.geom.blocks_per_die = 128;
  cfg.geom.pages_per_block = 16;
  cfg.geom.page_size = 16 * 1024;
  cfg.op_ratio = 0.07;

  // A tiered hot/warm/static workload: a small hot set takes most of the
  // write traffic while near-static data receives a trickle — the regime
  // where data separation pays off.
  WorkloadParams wp;
  wp.name = "quickstart-hotcold";
  wp.logical_pages = static_cast<std::uint64_t>(
      static_cast<double>(cfg.geom.total_pages()) * (1.0 - cfg.op_ratio));
  wp.total_write_pages = wp.logical_pages * 6;  // six drive writes
  wp.hot_region_fraction = 0.012;
  wp.hot_traffic_fraction = 0.78;
  wp.warm_region_fraction = 0.012;
  wp.warm_traffic_fraction = 0.12;
  wp.cyclic_fraction = 0.8;
  wp.written_space_fraction = 0.75;
  wp.read_request_fraction = 0.1;
  wp.seed = 42;
  const Trace trace = generate_workload(wp);

  std::printf("drive: %llu physical pages (%llu logical), workload: %zu "
              "requests, %llu pages written\n\n",
              static_cast<unsigned long long>(cfg.geom.total_pages()),
              static_cast<unsigned long long>(wp.logical_pages),
              trace.ops.size(),
              static_cast<unsigned long long>(trace.total_write_pages()));

  // --- Base FTL: no data separation ---
  BaseFtl base(cfg);
  for (const auto& req : trace.ops) base.submit_checked(req);

  // --- PHFTL: learning-based data separation ---
  core::PhftlConfig pcfg = core::default_phftl_config(cfg);
  core::PhftlFtl phftl(pcfg);
  for (const auto& req : trace.ops) phftl.submit_checked(req);
  phftl.finalize_evaluation();

  TextTable table;
  table.header({"scheme", "WA", "GC copies", "erases", "GC runs"});
  for (const FtlBase* ftl : {static_cast<const FtlBase*>(&base),
                             static_cast<const FtlBase*>(&phftl)}) {
    const FtlStats& s = ftl->stats();
    table.row({ftl->name(), TextTable::pct(s.write_amplification()),
               std::to_string(s.gc_writes), std::to_string(s.erases),
               std::to_string(s.gc_invocations)});
    // A write past the capacity watermark is rejected, not aborted.
    if (s.enospc_rejections > 0)
      std::printf("%s: %llu write requests rejected (ENOSPC)\n",
                  ftl->name().c_str(),
                  static_cast<unsigned long long>(s.enospc_rejections));
  }
  table.render(std::cout);

  const auto& cm = phftl.classifier_metrics();
  std::printf(
      "\nPHFTL details:\n"
      "  classifier: accuracy %.3f precision %.3f recall %.3f F1 %.3f "
      "(%llu predictions)\n"
      "  adaptive threshold: %lld pages (windows trained: %llu)\n"
      "  metadata cache: %.2f%% hit rate (capacity %zu meta pages, %.1f KiB)\n",
      cm.accuracy(), cm.precision(), cm.recall(), cm.f1(),
      static_cast<unsigned long long>(phftl.predictions_made()),
      static_cast<long long>(phftl.threshold()),
      static_cast<unsigned long long>(phftl.trainer().windows_completed()),
      phftl.meta_store().cache_hit_rate() * 100.0,
      phftl.meta_store().cache_capacity_pages(),
      static_cast<double>(phftl.meta_store().cache_capacity_bytes()) / 1024.0);
  return 0;
}
