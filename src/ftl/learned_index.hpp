// Learned index over the flash-resident mapping tier (docs/MAPPING.md
// "Learned index"): piecewise-linear LPN -> PPN segments that serve CMT
// misses without the DFTL translation-page read.
//
// The model exploits the append-order property LearnedFTL (PAPERS.md)
// identifies: the FTL programs pages sequentially inside a superblock, so a
// run of consecutively written LPNs maps to consecutive PPNs — a line with
// slope 1 — and GC migrations preserve the property for the runs they copy.
// Greedy piecewise-linear regression (PLR) over each translation page's
// content at write-back time captures those runs exactly:
//
//   * segments are fitted with a configurable error_bound: every training
//     point satisfies |predict(lpn) - ppn| <= error_bound, and the *exact*
//     maximum error observed at fit time is stored per segment (`radius`,
//     usually 0), so the verify probe scans the tightest possible window;
//   * all arithmetic is integer-exact: slopes are rationals (sn/sd) chosen
//     from the feasible interval the greedy fit maintains, predictions use
//     floor division, and bound comparisons cross-multiply in 128-bit —
//     no float rounding can ever widen a segment's true error;
//   * training reuses member scratch buffers and predictions are a tree
//     search plus one division; the segment map allocates one node per
//     segment gained (a split or a kept piece) and frees one per segment
//     lost, while an edge trim that moves a start re-keys its node in place.
//
// Segments live in one ordered map keyed by start LPN, with disjoint covers,
// so a split, trim, erase or insert costs O(log n). The map is global rather
// than per translation page: a fit whose first/last run continues a
// neighbouring segment's line (verified point-by-point against the
// error bound) extends that segment instead of starting a new one. Long
// sequential regions therefore cost O(superblock runs) segments however
// small `tp_entries` is — the sub-linear RAM property the multi-TB sweep in
// BENCH_mapping.json demonstrates — while a scrambled translation page is
// capped at kMaxSegmentsPerTrain (longest-first) and simply leaves its
// remainder uncovered for the ordinary GTD/CMT path.
//
// Correctness never rests on the model: the FTL treats a prediction as a
// hint, verifies it against the probed page's OOB LPN and validity, and
// falls back to the translation-page path on any mismatch
// (ftl.map.learned_mispredicts). See FtlBase::learned_lookup.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "flash/geometry.hpp"

namespace phftl {

class LearnedIndex {
 public:
  /// Segments a single train() call may emit (longest kept first). Bounds
  /// the per-translation-page RAM of scrambled (unlearnable) segments.
  static constexpr std::size_t kMaxSegmentsPerTrain = 32;

  /// One linear piece: predicts PPNs for LPNs in [start, start + len).
  /// The anchor (x0, base) and slope sn/sd are frozen at fit time; merges
  /// and invalidation only move the [start, len) cover window, so a
  /// prediction never changes once fitted (radius stays exact).
  struct Segment {
    Lpn start = 0;           ///< first covered LPN
    std::uint32_t len = 0;   ///< covered LPNs (consecutive, all mapped)
    std::uint8_t radius = 0; ///< exact max |prediction - ppn| at fit time
    Lpn x0 = 0;              ///< anchor LPN (fit-time first point)
    std::int64_t base = 0;   ///< predicted PPN at x0
    std::int64_t sn = 0;     ///< slope numerator
    std::int64_t sd = 1;     ///< slope denominator (> 0)
  };

  /// (Re)initialise for a drive. `error_bound` is the PLR fit tolerance
  /// (<= 250 so radius fits its byte); 0 demands exact-line segments.
  void reset(std::uint64_t logical_pages, std::uint64_t tp_entries,
             std::uint32_t error_bound);
  /// Drop every segment (mount-time rebuild starts from nothing). The RAM
  /// high-water mark stays, as an array's capacity would.
  void clear() { segs_.clear(); }

  /// Retrain the LPN range of translation page `tpn` from its write-back
  /// blob (`blob[i]` = PPN of LPN tpn*tp_entries+i, kInvalidPpn if
  /// unmapped). Replaces whatever previously covered the range, then tries
  /// to extend the neighbouring segments across the range boundaries.
  void train(std::uint64_t tpn, std::span<const std::uint64_t> blob);

  /// Predict the PPN for `lpn`. Returns false when no segment covers it.
  /// On success *pred is the model's PPN (may be out of device range —
  /// callers validate) and *radius the segment's exact fit error.
  bool predict(Lpn lpn, std::int64_t* pred, std::uint32_t* radius) const;

  /// Excise `lpn` from its covering segment, if any (splitting the
  /// segment when the hole is interior). Called on every mapping update —
  /// host write, trim, or a data-GC patch through the batched CMT path —
  /// so a covered LPN always reflects the owning translation page's last
  /// write-back, never a superseded mapping.
  void invalidate(Lpn lpn);

  std::uint64_t segment_count() const { return segs_.size(); }
  /// Model RAM a controller would hold: the segments as one sorted array,
  /// charged at its high-water capacity (into mapping_ram_bytes();
  /// docs/MAPPING.md). The array grows to size + max(size, n) whenever n
  /// more segments do not fit, and never shrinks.
  std::uint64_t ram_bytes() const { return ram_cap_ * sizeof(Segment); }
  std::uint32_t error_bound() const { return error_bound_; }

  /// Test hook: shift the base of the segment covering `lpn` by `delta`,
  /// making its predictions stale on purpose. Returns false if uncovered.
  /// The stale-segment regression test uses this to prove the verify
  /// probe catches a wrong prediction instead of serving it.
  bool corrupt_segment_for_test(Lpn lpn, std::int64_t delta);

 private:
  struct ScratchSeg {
    Segment seg;
    std::uint32_t pt_begin = 0;  ///< member points, indices into pts_
    std::uint32_t pt_end = 0;
  };

  /// predict() body for a known segment.
  static std::int64_t eval(const Segment& s, Lpn x);
  /// Max |eval - ppn| over pts_[pb, pe) under `s`, or kNoFit if any point
  /// exceeds error_bound_.
  std::uint32_t fit_error(const Segment& s, std::uint32_t pb,
                          std::uint32_t pe) const;
  /// Greedy PLR over pts_ into scratch_ (runs break at non-consecutive
  /// LPNs and at error-bound violations).
  void build_plr();
  /// Close the in-progress piece over pts_[pb, pe).
  void close_piece(std::uint32_t pb, std::uint32_t pe, std::int64_t hi_n,
                   std::int64_t hi_d, std::int64_t lo_n, std::int64_t lo_d);

  using SegMap = std::map<Lpn, Segment>;
  /// Remove [lo, hi) from the cover of existing segments (trim / split /
  /// erase). Returns the right neighbour: new segments go before it.
  SegMap::iterator splice_range(Lpn lo, Lpn hi);
  /// Move the start of `it`'s cover to `start`, keeping its end, by
  /// re-keying the node (no allocation). Returns the node's iterator.
  SegMap::iterator move_start(SegMap::iterator it, Lpn start);
  /// Charge `n` segments about to be added to the modelled array.
  void grow_ram(std::uint64_t n);

  static constexpr std::uint32_t kNoFit = ~0U;

  SegMap segs_;  ///< keyed by start LPN, disjoint covers
  std::uint64_t ram_cap_ = 0;  ///< modelled array capacity, in segments
  // Training scratch, reused across calls (allocation-free steady state).
  std::vector<std::pair<Lpn, std::uint64_t>> pts_;
  std::vector<ScratchSeg> scratch_;
  std::vector<std::uint32_t> order_;
  std::uint64_t logical_ = 0;
  std::uint64_t tp_entries_ = 1;
  std::uint32_t error_bound_ = 0;
};

}  // namespace phftl
