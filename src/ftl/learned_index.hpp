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
//   * training reuses member scratch buffers, and a slope-1 line (the
//     append-order case) predicts with no division at all.
//
// Segments have disjoint covers and live in a slot pool with a free list;
// owner_ names each LPN's covering slot, so a lookup is one load.
// invalidate is O(1), plus a relabel of the shorter half when its hole
// splits a segment; train is O(tp_entries) plus the relabels of a split, a
// merge or a new piece; clear() is O(logical pages). The cover is global,
// not per translation page: a fit whose first/last run continues a
// neighbouring segment's line (checked point by point against the error
// bound) extends that segment, so long sequential regions cost
// O(superblock runs) segments however small `tp_entries` is (the
// sub-linear RAM of BENCH_mapping.json's multi-TB sweep), while a scrambled
// translation page is capped at kMaxSegmentsPerTrain (longest first) and
// leaves its remainder to the GTD/CMT path. owner_ (4 B per LPN) and the
// pool are simulator state: ram_bytes() charges the sorted array a
// controller would hold.
//
// Correctness never rests on the model: the FTL treats a prediction as a
// hint, verifies it against the probed page's OOB LPN and validity, and
// falls back to the translation-page path on any mismatch
// (ftl.map.learned_mispredicts). See MappingTier::learned_lookup.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
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
  void clear();

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

  std::uint64_t segment_count() const { return live_; }
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

  /// The slot covering `lpn`, or kNoSlot.
  std::uint32_t slot_of(Lpn lpn) const {
    return lpn < owner_.size() ? owner_[lpn] : kNoSlot;
  }
  /// Store `s` in a free slot and label its cover.
  void add(const Segment& s);
  /// Remove [lo, hi) from the cover of slot `id`: erase, trim an edge, or
  /// split around an interior hole.
  void cut(std::uint32_t id, Lpn lo, Lpn hi);
  /// Remove [lo, hi) from the cover of every segment.
  void splice_range(Lpn lo, Lpn hi);
  /// Extend slot `id` over the adjacent `piece` if the piece's points fit
  /// its line within the error bound.
  bool absorb(std::uint32_t id, const ScratchSeg& piece);
  /// Charge `n` segments about to be added to the modelled array.
  void grow_ram(std::uint64_t n);

  static constexpr std::uint32_t kNoFit = ~0U;
  static constexpr std::uint32_t kNoSlot = ~0U;

  std::vector<std::uint32_t> owner_;  ///< per LPN: covering slot or kNoSlot
  std::vector<Segment> slots_;        ///< segment pool, indexed by slot
  std::vector<std::uint32_t> free_;   ///< released slots
  std::uint64_t live_ = 0;            ///< slots holding a segment
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
