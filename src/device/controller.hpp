// Controller timing model of the Cosmos+ OpenSSD write path (paper §IV/§V-D).
//
// The OpenSSD runs the FTL on a dual-core ARM Cortex-A9; PHFTL-hw dedicates
// one core to the Page Classifier and the other to everything else, with a
// tuned single-prediction cost of ~9 µs. An NVMe write is processed as:
//   command fetch/decode (core 0) → payload DMA (PCIe engine) → completion,
// and prediction per written page runs either
//   * not at all            (Stock FTL),
//   * on core 0, serialized (PHFTL-hw sync — prediction on the critical
//     path; Fig. 6 shows latencies inflate ~139.7 %), or
//   * on core 1, decoupled  (PHFTL-hw — command completes once the payload
//     reaches the DMA buffer; prediction result is collected asynchronously
//     when the page is flushed, §III-C).
//
// Async mode adds a small synchronization jitter (inter-core mailbox and
// cache-line sharing), which the paper observes as a higher latency
// standard deviation at equal mean.
#pragma once

#include <cstdint>

#include "obs/observability.hpp"
#include "util/rng.hpp"

namespace phftl {

enum class PredictionMode : std::uint8_t { kStock, kSync, kAsync };

struct ControllerConfig {
  std::uint64_t cmd_process_ns = 2'000;   ///< NVMe command handling, core 0
  std::uint64_t dma_ns_per_kb = 600;      ///< ~1.6 GB/s PCIe payload DMA
  std::uint64_t prediction_ns = 9'000;    ///< per-page Page Classifier cost
  std::uint64_t completion_ns = 1'000;    ///< CQ entry + doorbell
  std::uint64_t sync_jitter_ns = 1'500;   ///< max inter-core sync jitter
  std::uint32_t page_kb = 16;             ///< flash page size
  PredictionMode mode = PredictionMode::kStock;
};

/// Latency of one buffered write (payload stays in the on-device RAM data
/// buffer — the Fig. 6 microbenchmark regime, no flash programs).
class ControllerModel {
 public:
  explicit ControllerModel(const ControllerConfig& cfg,
                           std::uint64_t seed = 7)
      : cfg_(cfg), rng_(seed) {}

  const ControllerConfig& config() const { return cfg_; }

  /// Register the device timing metrics into a shared registry (usually
  /// the wrapped FTL's). Unbound models record nothing.
  void bind_observability(obs::Observability* obs) {
    if (!obs) return;
    write_latency_hist_ = &obs->metrics().histogram(
        "device.write_latency_ns",
        {2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6, 2e6, 5e6}, "ns",
        "modelled controller write-path latency per request (Fig. 6 "
        "regime: cmd + DMA [+ prediction in sync mode])");
    writes_ctr_ = &obs->metrics().counter(
        "device.writes", "requests", "write requests timed by the model");
  }

  std::uint32_t pages_of(std::uint32_t size_kb) const {
    return (size_kb + cfg_.page_kb - 1) / cfg_.page_kb;
  }

  /// Latency (ns) of a single write request of `size_kb`, queue depth 1.
  std::uint64_t write_latency_ns(std::uint32_t size_kb) {
    if (writes_ctr_) writes_ctr_->inc();
    const std::uint64_t dma = static_cast<std::uint64_t>(size_kb) *
                              cfg_.dma_ns_per_kb;
    const std::uint64_t pred =
        static_cast<std::uint64_t>(pages_of(size_kb)) * cfg_.prediction_ns;
    std::uint64_t lat = 0;
    switch (cfg_.mode) {
      case PredictionMode::kStock:
        lat = cfg_.cmd_process_ns + dma + cfg_.completion_ns;
        break;
      case PredictionMode::kSync:
        // One core runs command handling, DMA scheduling *and* prediction
        // serially: every page's inference blocks the request pipeline
        // (this is what the paper measures as a 139.7% average latency
        // inflation in Fig. 6).
        lat = cfg_.cmd_process_ns + dma + pred + cfg_.completion_ns;
        break;
      case PredictionMode::kAsync: {
        // Prediction is off the critical path; only occasional inter-core
        // synchronization and cache-line sharing bleed into latency,
        // raising the standard deviation but not the mean (Fig. 6).
        const std::uint64_t jitter =
            rng_.next_below(10) == 0 ? rng_.next_below(cfg_.sync_jitter_ns + 1)
                                     : 0;
        lat = cfg_.cmd_process_ns + dma + cfg_.completion_ns + jitter;
        break;
      }
    }
    if (write_latency_hist_)
      write_latency_hist_->observe(static_cast<double>(lat));
    return lat;
  }

  /// Busy time prediction adds per request on its core (for throughput
  /// modelling): core 0 in sync mode, core 1 in async mode.
  std::uint64_t prediction_busy_ns(std::uint32_t size_kb) const {
    if (cfg_.mode == PredictionMode::kStock) return 0;
    return static_cast<std::uint64_t>(pages_of(size_kb)) *
           cfg_.prediction_ns;
  }

 private:
  ControllerConfig cfg_;
  Xoshiro256 rng_;
  obs::Histogram* write_latency_hist_ = nullptr;
  obs::Counter* writes_ctr_ = nullptr;
};

}  // namespace phftl
