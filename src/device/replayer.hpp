// Timed trace replay on the device model (paper Fig. 7).
//
// Wraps any FtlBase and charges simulated time for every flash operation
// the FTL performs, using the per-request flash-op deltas from the FTL's
// counters. Two experiment modes mirror the paper:
//   * Phase 1 — stress load (closed loop, always-busy workers): report
//     bandwidth per drive write. As GC sets in, flash-op time per request
//     grows with WA, so schemes with lower WA sustain higher bandwidth.
//   * Phase 2 — open-loop replay by trace timestamps: report the host
//     latency distribution (P50…P99.9, mean). GC bursts behind a request
//     inflate the tail; lower WA ⇒ lower tails.
// Both modes submit through FtlBase::submit_checked: a write past the
// capacity watermark is rejected (FtlStats::enospc_rejections) and the
// replay goes on.
#pragma once

#include <cstdint>
#include <vector>

#include "device/controller.hpp"
#include "flash/geometry.hpp"
#include "ftl/ftl_base.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace phftl {

struct DeviceTimingConfig {
  FlashTiming flash;
  ControllerConfig controller;
};

struct Phase1Result {
  /// MB/s of host writes during each drive-write segment.
  std::vector<double> bandwidth_mb_s;
  double final_bandwidth_mb_s = 0.0;
  std::uint64_t total_sim_ns = 0;
};

struct Phase2Result {
  double p50_us = 0, p90_us = 0, p99_us = 0, p995_us = 0, p999_us = 0;
  double mean_us = 0;
  std::uint64_t requests = 0;
};

class TimedReplayer {
 public:
  TimedReplayer(FtlBase& ftl, const DeviceTimingConfig& cfg);

  /// Phase 1: replay `trace` under stress (back-to-back requests),
  /// reporting bandwidth per `segment_pages` of host writes (one drive
  /// write each in the paper).
  Phase1Result stress_load(const Trace& trace, std::uint64_t segment_pages);

  /// Phase 2: replay `trace` by its timestamps scaled by `time_scale`
  /// (>1 stretches the trace, lowering offered load). Returns the latency
  /// distribution.
  Phase2Result timed_replay(const Trace& trace, double time_scale);

 private:
  struct OpCosts {
    std::uint64_t user_ns = 0;  ///< host path + the request's own flash ops
    std::uint64_t gc_ns = 0;    ///< GC/meta work triggered behind it
  };
  /// Submits `req` through the admission-checked path and returns its
  /// service time: the host path plus the flash work it caused.
  OpCosts run_request(const HostRequest& req);

  FtlBase& ftl_;
  DeviceTimingConfig cfg_;
  ControllerModel controller_;
  obs::Histogram* request_latency_hist_ = nullptr;
};

}  // namespace phftl
