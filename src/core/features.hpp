// Feature extraction for the Page Classifier (paper §III-B).
//
// Per written page, the model consumes a time series of feature vectors.
// Each vector captures, at one write to the page:
//   prev_lifetime — the lifetime the page's previous version just completed
//                   (found to be the single most useful feature, ~70%
//                   accuracy alone),
//   io_len        — size of the containing write request (pages),
//   is_seq        — whether the request is sequential,
//   chunk_write / chunk_read — recent write/read request counts targeting
//                   the larger chunk containing the page (locality),
//   rw_rat        — the global read/write ratio (workload profile).
//
// For efficient fixed-size model input, numeric features are broken into
// hexadecimal digits, one input neuron per digit, sized so most values fit
// without overflow (paper §III-B).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "flash/geometry.hpp"
#include "ftl/request.hpp"

namespace phftl::core {

/// Raw (un-encoded) features of one write event. 12 bytes — cheap enough to
/// keep short per-page histories on the host trainer.
struct RawFeatures {
  std::uint32_t prev_lifetime = 0;  ///< pages; saturated
  std::uint16_t io_len = 1;         ///< request size in pages (≤ 4095 encoded)
  std::uint16_t chunk_write = 0;    ///< recent writes to the page's chunk
  std::uint16_t chunk_read = 0;     ///< recent reads of the page's chunk
  std::uint8_t rw_percent = 0;      ///< global reads/(reads+writes) × 100
  std::uint8_t is_seq = 0;          ///< 1 if request is sequential
};
static_assert(sizeof(RawFeatures) == 12,
              "the trainer's per-page ring budget assumes 12-byte entries");

/// Hex digits per feature: prev_lifetime 8, io_len 3, chunk_write 3,
/// chunk_read 3, rw_rat 2, is_seq 1 → 20 input neurons.
inline constexpr std::size_t kInputDim = 8 + 3 + 3 + 3 + 2 + 1;

/// Encode raw features into `out` (size kInputDim), each hex digit
/// normalized to [0, 1] (digit / 15).
void encode_features(const RawFeatures& raw, std::span<float> out);

/// Convenience: encode into a fresh vector.
std::vector<float> encode_features(const RawFeatures& raw);

/// Compact monotone encoding for the *lightweight* threshold-evaluation
/// model (Algorithm 1): 6 log-scaled floats in [0, 1] plus 8 one-hot bins
/// of log2(prev_lifetime). A linear model cannot exploit hex-digit inputs
/// (they are non-monotone in the underlying value), so candidate-threshold
/// accuracies would be flat noise and the threshold walk would drift; the
/// log-scaled scalars and lifetime bins let logistic regression represent
/// any lifetime threshold sharply, making the knee of the distribution
/// visible to the hill climb.
inline constexpr std::size_t kCompactBins = 32;  ///< half an octave per bin
inline constexpr std::size_t kCompactDim = 6 + kCompactBins;
void encode_features_compact(const RawFeatures& raw, std::span<float> out);
std::vector<float> encode_features_compact(const RawFeatures& raw);

/// Tracks the request-stream statistics the features are computed from.
/// Both the host-side Model Trainer (profiling the driver) and the
/// device-side predictor observe the same request stream, so they share one
/// tracker instance in this in-process implementation.
class FeatureTracker {
 public:
  struct Config {
    std::uint64_t logical_pages = 0;
    std::uint32_t chunk_pages = 256;      ///< chunk size (4 MiB at 16 KB pages)
    std::uint32_t decay_interval = 4096;  ///< halve chunk counters every N reqs
  };

  explicit FeatureTracker(const Config& cfg);

  /// Record a request (call once per request, before per-page processing).
  void observe_request(const HostRequest& req);

  /// Build the feature vector for a page write. `prev_lifetime` is supplied
  /// by the caller (device: from ML metadata; trainer: from its mirror).
  RawFeatures make_features(Lpn lpn, std::uint32_t prev_lifetime,
                            const WriteContext& ctx) const;

  /// Power-cut reset: chunk locality counters and the global read/write
  /// ratio are RAM-only approximations — restart them empty.
  void reset() {
    std::fill(chunk_write_.begin(), chunk_write_.end(), 0);
    std::fill(chunk_read_.begin(), chunk_read_.end(), 0);
    recent_reads_ = 0;
    recent_writes_ = 0;
    since_decay_ = 0;
  }

  std::uint8_t read_write_percent() const;
  std::uint16_t chunk_writes(Lpn lpn) const {
    return chunk_write_[lpn / cfg_.chunk_pages];
  }
  std::uint16_t chunk_reads(Lpn lpn) const {
    return chunk_read_[lpn / cfg_.chunk_pages];
  }

 private:
  void decay();

  Config cfg_;
  std::vector<std::uint16_t> chunk_write_;
  std::vector<std::uint16_t> chunk_read_;
  std::uint64_t recent_reads_ = 0;
  std::uint64_t recent_writes_ = 0;
  std::uint32_t since_decay_ = 0;
};

}  // namespace phftl::core
