// Host I/O request model shared by traces, FTLs, and the device layer.
#pragma once

#include <cstdint>

#include "flash/geometry.hpp"

namespace phftl {

enum class OpType : std::uint8_t { kRead = 0, kWrite = 1, kTrim = 2 };

/// One block-layer request, already aligned to page granularity.
struct HostRequest {
  std::uint64_t timestamp_us = 0;  ///< arrival time (trace timestamp)
  OpType op = OpType::kWrite;
  Lpn start_lpn = 0;
  std::uint32_t num_pages = 1;
};

/// Outcome of an admission-checked host write. kEnospc means the write was
/// rejected at the capacity watermark: accepting it could leave GC unable
/// to reach its free-superblock target (over-provisioning lost to
/// bad/retired blocks plus trim-journal overhead). Nothing was modified;
/// the host may retry after trimming.
enum class WriteResult : std::uint8_t { kOk = 0, kEnospc = 1 };

/// Outcome of an admission-checked request. Pages are processed in order,
/// so on kEnospc the first `pages_completed` pages of the request took
/// effect and the rest did not.
struct SubmitResult {
  WriteResult status = WriteResult::kOk;
  std::uint32_t pages_completed = 0;
};

/// Per-page context handed to an FTL's user-write classifier.
struct WriteContext {
  std::uint64_t now = 0;           ///< virtual clock: host pages written so far
  std::uint32_t io_len_pages = 1;  ///< size of the containing request
  bool is_sequential = false;      ///< request starts where the previous ended
};

}  // namespace phftl
