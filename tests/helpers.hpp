// Shared fixtures for the PHFTL test suite.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "baselines/base_ftl.hpp"
#include "baselines/sepbit.hpp"
#include "baselines/two_r.hpp"
#include "core/phftl.hpp"
#include "ftl/ftl_base.hpp"
#include "trace/generator.hpp"

namespace phftl::test {

/// A tiny drive that keeps unit tests fast: 4 dies × 64 blocks × 16 pages
/// × 4 KB = 16 MiB, 4096 pages, 64 superblocks of 64 pages.
inline FtlConfig small_config() {
  FtlConfig cfg;
  cfg.geom.num_dies = 4;
  cfg.geom.blocks_per_die = 64;
  cfg.geom.pages_per_block = 16;
  cfg.geom.page_size = 4 * 1024;
  cfg.geom.oob_size = 128;
  cfg.op_ratio = 0.10;  // roomy OP so the 5% trigger is satisfiable
  return cfg;
}

/// Factory over all four schemes, for parameterized suites.
inline std::unique_ptr<FtlBase> make_ftl(const std::string& scheme,
                                         const FtlConfig& cfg,
                                         std::uint64_t seed = 1) {
  if (scheme == "Base") return std::make_unique<BaseFtl>(cfg);
  if (scheme == "2R") return std::make_unique<TwoRFtl>(cfg);
  if (scheme == "SepBIT") return std::make_unique<SepBitFtl>(cfg);
  if (scheme == "PHFTL") {
    core::PhftlConfig pcfg = core::default_phftl_config(cfg, seed);
    return std::make_unique<core::PhftlFtl>(pcfg);
  }
  return nullptr;
}

/// A modest skewed workload sized for `cfg`.
inline Trace small_workload(const FtlConfig& cfg, double drive_writes,
                            std::uint64_t seed = 7) {
  WorkloadParams wp;
  wp.name = "test-workload";
  wp.logical_pages = static_cast<std::uint64_t>(
      static_cast<double>(cfg.geom.total_pages()) * (1.0 - cfg.op_ratio));
  wp.total_write_pages = static_cast<std::uint64_t>(
      static_cast<double>(wp.logical_pages) * drive_writes);
  // Tiered temperatures sized so the hot-tier rewrite interval fits inside
  // the 5%-of-SSD training window even on this tiny drive.
  wp.hot_region_fraction = 0.012;
  wp.hot_traffic_fraction = 0.75;
  wp.warm_region_fraction = 0.10;
  wp.warm_traffic_fraction = 0.15;
  wp.zipf_theta = 0.2;
  wp.read_request_fraction = 0.1;
  wp.seed = seed;
  return generate_workload(wp);
}

}  // namespace phftl::test
