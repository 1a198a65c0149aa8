#include <gtest/gtest.h>

#include "baselines/base_ftl.hpp"
#include "device/controller.hpp"
#include "device/replayer.hpp"
#include "helpers.hpp"
#include "util/stats.hpp"

namespace phftl {
namespace {

ControllerConfig ctrl_cfg(PredictionMode mode) {
  ControllerConfig cfg;
  cfg.mode = mode;
  return cfg;
}

TEST(ControllerModel, PagesOfRoundsUp) {
  ControllerModel m(ctrl_cfg(PredictionMode::kStock));
  EXPECT_EQ(m.pages_of(4), 1u);    // 4 KB < one 16 KB page
  EXPECT_EQ(m.pages_of(16), 1u);
  EXPECT_EQ(m.pages_of(17), 2u);
  EXPECT_EQ(m.pages_of(1024), 64u);
}

TEST(ControllerModel, LatencyGrowsWithRequestSize) {
  ControllerModel m(ctrl_cfg(PredictionMode::kStock));
  EXPECT_LT(m.write_latency_ns(4), m.write_latency_ns(64));
  EXPECT_LT(m.write_latency_ns(64), m.write_latency_ns(1024));
}

TEST(ControllerModel, SyncModeInflatesLatencySubstantially) {
  // Paper Fig. 6: on-critical-path prediction inflates latency ~139.7% on
  // average across sizes.
  ControllerModel stock(ctrl_cfg(PredictionMode::kStock));
  ControllerModel sync(ctrl_cfg(PredictionMode::kSync));
  for (std::uint32_t kb : {4u, 16u, 64u, 256u, 1024u}) {
    const double inflation =
        static_cast<double>(sync.write_latency_ns(kb)) /
        static_cast<double>(stock.write_latency_ns(kb));
    EXPECT_GT(inflation, 1.3) << kb << " KB";
  }
}

TEST(ControllerModel, AsyncModeIsNearStock) {
  // Paper Fig. 6: off-critical-path prediction returns latency to ~stock.
  ControllerConfig cfg = ctrl_cfg(PredictionMode::kAsync);
  ControllerModel stock(ctrl_cfg(PredictionMode::kStock));
  ControllerModel async(cfg);
  for (std::uint32_t kb : {4u, 16u, 64u, 256u, 1024u}) {
    RunningStats s_stock, s_async;
    for (int i = 0; i < 200; ++i) {
      s_stock.add(static_cast<double>(stock.write_latency_ns(kb)));
      s_async.add(static_cast<double>(async.write_latency_ns(kb)));
    }
    EXPECT_LT(s_async.mean(), s_stock.mean() * 1.10) << kb << " KB";
  }
}

TEST(ControllerModel, AsyncHasHigherVarianceThanStock) {
  // Paper: "latency standard deviation is higher in PHFTL-hw than in stock
  // because of occasional synchronization between the two cores".
  ControllerModel stock(ctrl_cfg(PredictionMode::kStock));
  ControllerModel async(ctrl_cfg(PredictionMode::kAsync));
  RunningStats s_stock, s_async;
  for (int i = 0; i < 500; ++i) {
    s_stock.add(static_cast<double>(stock.write_latency_ns(64)));
    s_async.add(static_cast<double>(async.write_latency_ns(64)));
  }
  EXPECT_GT(s_async.stddev(), s_stock.stddev());
}

TEST(ControllerModel, PredictionBusyTimeOnlyWhenEnabled) {
  ControllerModel stock(ctrl_cfg(PredictionMode::kStock));
  ControllerModel async(ctrl_cfg(PredictionMode::kAsync));
  EXPECT_EQ(stock.prediction_busy_ns(64), 0u);
  EXPECT_EQ(async.prediction_busy_ns(64), 4u * 9000u);
}

TEST(TimedReplayer, StressLoadProducesSegmentsAndAdvancesTime) {
  const FtlConfig cfg = test::small_config();
  BaseFtl ftl(cfg);
  const Trace trace = test::small_workload(cfg, 3.0);

  DeviceTimingConfig dcfg;
  TimedReplayer replayer(ftl, dcfg);
  const auto logical = ftl.logical_pages();
  const Phase1Result res = replayer.stress_load(trace, logical);
  ASSERT_GE(res.bandwidth_mb_s.size(), 2u);
  EXPECT_GT(res.total_sim_ns, 0u);
  for (double bw : res.bandwidth_mb_s) EXPECT_GT(bw, 0.0);
  // GC kicks in after the first drive write: later segments are slower.
  EXPECT_LT(res.bandwidth_mb_s.back(), res.bandwidth_mb_s.front());
}

TEST(TimedReplayer, TimedReplayReportsPercentiles) {
  const FtlConfig cfg = test::small_config();
  BaseFtl ftl(cfg);
  const Trace trace = test::small_workload(cfg, 2.0);

  DeviceTimingConfig dcfg;
  TimedReplayer replayer(ftl, dcfg);
  const Phase2Result res = replayer.timed_replay(trace, /*time_scale=*/5.0);
  EXPECT_EQ(res.requests, trace.ops.size());
  EXPECT_GT(res.p50_us, 0.0);
  EXPECT_LE(res.p50_us, res.p90_us);
  EXPECT_LE(res.p90_us, res.p99_us);
  EXPECT_LE(res.p99_us, res.p995_us);
  EXPECT_LE(res.p995_us, res.p999_us);
}

// A device-timed run past the capacity watermark rejects writes instead of
// aborting: the P/E budget retires blocks until the watermark sinks below
// the mapped count, and the stress load still replays the whole trace.
TEST(TimedReplayer, StressLoadPastWatermarkRejectsAndCompletes) {
  FtlConfig cfg = test::small_config();
  cfg.max_pe_cycles = 8;
  BaseFtl ftl(cfg);
  // 40 drive writes need several times the drive's whole P/E budget.
  const Trace trace = test::small_workload(cfg, 40.0);
  std::uint64_t write_pages = 0;
  for (const HostRequest& req : trace.ops)
    if (req.op == OpType::kWrite) write_pages += req.num_pages;

  TimedReplayer replayer(ftl, DeviceTimingConfig{});
  const Phase1Result res = replayer.stress_load(trace, ftl.logical_pages());
  EXPECT_GT(ftl.stats().wear_retired, 0u);
  EXPECT_GT(ftl.stats().enospc_rejections, 0u);
  EXPECT_LT(ftl.stats().user_writes, write_pages);
  // A segment per drive write the trace offers, rejected pages included
  // (each segment drops its overshoot, so the last may fall short).
  EXPECT_GE(res.bandwidth_mb_s.size() + 1, write_pages / ftl.logical_pages());
  EXPECT_GT(res.total_sim_ns, 0u);
}

TEST(TimedReplayer, SlowerArrivalsLowerTailLatency) {
  const FtlConfig cfg = test::small_config();
  const Trace trace = test::small_workload(cfg, 2.0);
  DeviceTimingConfig dcfg;

  BaseFtl fast_ftl(cfg);
  TimedReplayer fast(fast_ftl, dcfg);
  const auto busy = fast.timed_replay(trace, 1.0);

  BaseFtl slow_ftl(cfg);
  TimedReplayer slow(slow_ftl, dcfg);
  const auto relaxed = slow.timed_replay(trace, 50.0);

  EXPECT_LE(relaxed.p999_us, busy.p999_us);
}

}  // namespace
}  // namespace phftl
