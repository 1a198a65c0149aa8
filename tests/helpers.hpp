// Shared fixtures for the PHFTL test suite.
#pragma once

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/phftl.hpp"
#include "core/schemes.hpp"
#include "ftl/ftl_base.hpp"
#include "trace/generator.hpp"
#include "util/team.hpp"

namespace phftl::test {

/// Run `body` twice: under util::InlineScope (one thread) and on the
/// process-wide training team. Training outputs must not depend on which.
template <class Fn>
void inline_then_team(Fn&& body) {
  {
    SCOPED_TRACE("inline");
    util::InlineScope scope;
    body();
  }
  SCOPED_TRACE("team of " +
               std::to_string(util::Team::Lease().width()) + " threads");
  body();
}

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

/// What make_scheme builds a test drive from: PHFTL's paper defaults at
/// the suite's seed (Base, 2R and SepBIT read only its `ftl` part).
inline core::PhftlConfig scheme_config(const FtlConfig& cfg,
                                       std::uint64_t seed = 1) {
  return core::default_phftl_config(cfg, seed);
}

/// A host write the test expects the drive to accept.
inline void write_ok(FtlBase& ftl, Lpn lpn, const WriteContext& ctx) {
  EXPECT_EQ(ftl.try_write_page(lpn, ctx), WriteResult::kOk) << "lpn " << lpn;
}

/// A request the test expects the drive to accept in full.
inline void submit_ok(FtlBase& ftl, const HostRequest& req) {
  EXPECT_EQ(ftl.submit_checked(req).status, WriteResult::kOk)
      << "request at lpn " << req.start_lpn;
}

/// Replays `trace`, expecting every request to be accepted; stops at the
/// first rejection.
inline void replay_ok(FtlBase& ftl, const Trace& trace) {
  for (const HostRequest& req : trace.ops)
    ASSERT_EQ(ftl.submit_checked(req).status, WriteResult::kOk)
        << "request at lpn " << req.start_lpn;
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
