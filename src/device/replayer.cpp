#include "device/replayer.hpp"

#include <algorithm>

#include "device/fifo_server.hpp"
#include "util/assert.hpp"

namespace phftl {

TimedReplayer::TimedReplayer(FtlBase& ftl, const DeviceTimingConfig& cfg)
    : ftl_(ftl), cfg_(cfg), controller_(cfg.controller) {
  // Device timing metrics share the wrapped FTL's registry, so one export
  // carries the whole run (FTL + ML + device).
  controller_.bind_observability(&ftl.observability());
  request_latency_hist_ = &ftl.observability().metrics().histogram(
      "device.request_latency_us",
      {10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}, "us",
      "host-visible request latency in open-loop timed replay (Fig. 7 "
      "phase 2), including queueing and the GC work the FTL ran inside "
      "the request (whole victims under stop-the-world; bounded steps "
      "under time-sliced GC — docs/QOS.md)");
}

TimedReplayer::OpCosts TimedReplayer::run_request(const HostRequest& req) {
  // The cost model reads three sums of the FTL's ledger: programs, reads
  // and erases, each before and after the request.
  const FtlStats& s = ftl_.stats();
  const auto read_sum = [&s] {
    return s.gc_reads + s.meta_reads + s.host_reads;
  };
  const std::uint64_t programs_before = s.flash_writes();
  const std::uint64_t reads_before = read_sum();
  const std::uint64_t erases_before = s.erases;
  // Past the capacity watermark a write is rejected, not aborted: the
  // refusal shows in FtlStats::enospc_rejections, and the request is
  // charged only for the pages it completed.
  const std::uint32_t done = ftl_.submit_checked(req).pages_completed;
  const std::uint64_t programs = s.flash_writes() - programs_before;
  const std::uint64_t reads = read_sum() - reads_before;
  const std::uint64_t erases = s.erases - erases_before;

  const Geometry& geom = ftl_.config().geom;
  const std::uint32_t page_kb = geom.page_size / 1024;
  const std::uint32_t size_kb = req.num_pages * page_kb;

  // Flash busy time, ideally striped across dies. Includes the channel
  // transfer per page moved. Split into the request's own flash work and
  // the GC/meta work it triggered.
  const std::uint64_t per_program =
      cfg_.flash.program_ns + cfg_.flash.bus_ns_per_kb * page_kb;
  const std::uint64_t per_read =
      cfg_.flash.read_ns + cfg_.flash.bus_ns_per_kb * page_kb;
  const std::uint64_t own_programs =
      req.op == OpType::kWrite ? std::min<std::uint64_t>(done, programs) : 0;
  const std::uint64_t own_reads =
      req.op == OpType::kRead ? std::min<std::uint64_t>(done, reads) : 0;
  const std::uint64_t own_flash =
      (own_programs * per_program + own_reads * per_read) / geom.num_dies;
  const std::uint64_t gc_flash = ((programs - own_programs) * per_program +
                                  (reads - own_reads) * per_read +
                                  erases * cfg_.flash.erase_ns) /
                                 geom.num_dies;

  // Host-side time: command handling + DMA (+ prediction if synchronous).
  std::uint64_t host_time;
  if (req.op == OpType::kWrite) {
    host_time = controller_.write_latency_ns(std::max(size_kb, 1u));
  } else if (req.op == OpType::kTrim) {
    // Trims carry no payload: command handling + completion only.
    host_time = cfg_.controller.cmd_process_ns + cfg_.controller.completion_ns;
  } else {
    host_time = cfg_.controller.cmd_process_ns +
                static_cast<std::uint64_t>(size_kb) *
                    cfg_.controller.dma_ns_per_kb +
                cfg_.controller.completion_ns;
  }

  // Prediction core (core 1) throughput cap in async mode.
  std::uint64_t pred_time = 0;
  if (req.op == OpType::kWrite &&
      cfg_.controller.mode == PredictionMode::kAsync)
    pred_time = controller_.prediction_busy_ns(std::max(size_kb, 1u));

  OpCosts costs;
  costs.user_ns = std::max({host_time, own_flash, pred_time});
  costs.gc_ns = gc_flash;
  return costs;
}

Phase1Result TimedReplayer::stress_load(const Trace& trace,
                                        std::uint64_t segment_pages) {
  PHFTL_CHECK(segment_pages > 0);
  Phase1Result result;

  std::uint64_t sim_ns = 0;
  std::uint64_t segment_start_ns = 0;
  std::uint64_t segment_written = 0;
  const double page_mb =
      static_cast<double>(ftl_.config().geom.page_size) / (1024.0 * 1024.0);

  for (const auto& req : trace.ops) {
    const OpCosts costs = run_request(req);
    sim_ns += costs.user_ns + costs.gc_ns;

    if (req.op == OpType::kWrite) {
      segment_written += req.num_pages;
      if (segment_written >= segment_pages) {
        const double seconds =
            static_cast<double>(sim_ns - segment_start_ns) * 1e-9;
        result.bandwidth_mb_s.push_back(
            static_cast<double>(segment_written) * page_mb /
            std::max(seconds, 1e-12));
        segment_start_ns = sim_ns;
        segment_written = 0;
      }
    }
  }
  if (!result.bandwidth_mb_s.empty())
    result.final_bandwidth_mb_s = result.bandwidth_mb_s.back();
  result.total_sim_ns = sim_ns;
  return result;
}

Phase2Result TimedReplayer::timed_replay(const Trace& trace,
                                         double time_scale) {
  PHFTL_CHECK(time_scale > 0.0);
  QuantileSampler lat;
  FifoServer device;
  // Each request is charged exactly the flash work the FTL performed while
  // serving it — its own programs/reads plus whatever GC it triggered.
  // Incremental background GC is no longer faked here with a debt pool:
  // the FTL itself time-slices GC when given a step budget
  // (FtlConfig::gc_step_pages > 0), so the latency distribution honestly
  // reflects the GC scheduling policy under test (docs/QOS.md).
  for (const auto& req : trace.ops) {
    const auto arrival = static_cast<SimTime>(
        static_cast<double>(req.timestamp_us) * 1000.0 * time_scale);
    const OpCosts costs = run_request(req);
    const SimTime done = device.serve(arrival, costs.user_ns + costs.gc_ns);
    const double latency_us = static_cast<double>(done - arrival) * 1e-3;
    lat.add(latency_us);
    request_latency_hist_->observe(latency_us);
  }

  Phase2Result r;
  r.p50_us = lat.quantile(0.50);
  r.p90_us = lat.quantile(0.90);
  r.p99_us = lat.quantile(0.99);
  r.p995_us = lat.quantile(0.995);
  r.p999_us = lat.quantile(0.999);
  r.mean_us = lat.mean();
  r.requests = lat.count();
  return r;
}

}  // namespace phftl
