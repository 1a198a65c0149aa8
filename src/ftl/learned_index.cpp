#include "ftl/learned_index.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/assert.hpp"

namespace phftl {

namespace {

// Floor division with a positive denominator — predictions must round the
// same way on both sides of zero so the fit-time radius stays exact.
std::int64_t floor_div(__int128 num, std::int64_t den) {
  // Division by 1 is the product itself: slope-1 lines and single-point
  // pieces, the common case, skip the 128-bit division.
  if (den == 1) return static_cast<std::int64_t>(num);
  const __int128 d = den;
  __int128 q = num / d;
  if ((num % d) != 0 && ((num < 0) != (d < 0))) --q;
  return static_cast<std::int64_t>(q);
}

// Compare rationals a_n/a_d ? b_n/b_d with positive denominators, exactly.
int rational_cmp(std::int64_t a_n, std::int64_t a_d, std::int64_t b_n,
                 std::int64_t b_d) {
  const __int128 lhs = static_cast<__int128>(a_n) * b_d;
  const __int128 rhs = static_cast<__int128>(b_n) * a_d;
  if (lhs < rhs) return -1;
  if (lhs > rhs) return 1;
  return 0;
}

}  // namespace

void LearnedIndex::reset(std::uint64_t logical_pages, std::uint64_t tp_entries,
                         std::uint32_t error_bound) {
  PHFTL_CHECK_MSG(tp_entries >= 1, "learned index needs tp_entries >= 1");
  PHFTL_CHECK_MSG(error_bound <= 250,
                  "learned_error_bound must fit the segment radius byte");
  logical_ = logical_pages;
  tp_entries_ = tp_entries;
  error_bound_ = error_bound;
  owner_.resize(logical_pages);
  clear();
  ram_cap_ = 0;
}

void LearnedIndex::clear() {
  std::fill(owner_.begin(), owner_.end(), kNoSlot);
  slots_.clear();
  free_.clear();
  live_ = 0;
}

std::int64_t LearnedIndex::eval(const Segment& s, Lpn x) {
  const std::int64_t dx =
      static_cast<std::int64_t>(x) - static_cast<std::int64_t>(s.x0);
  return s.base + floor_div(static_cast<__int128>(s.sn) * dx, s.sd);
}

bool LearnedIndex::predict(Lpn lpn, std::int64_t* pred,
                           std::uint32_t* radius) const {
  const std::uint32_t id = slot_of(lpn);
  if (id == kNoSlot) return false;
  *pred = eval(slots_[id], lpn);
  *radius = slots_[id].radius;
  return true;
}

std::uint32_t LearnedIndex::fit_error(const Segment& s, std::uint32_t pb,
                                      std::uint32_t pe) const {
  std::uint32_t max_err = 0;
  for (std::uint32_t i = pb; i < pe; ++i) {
    const std::int64_t err =
        eval(s, pts_[i].first) - static_cast<std::int64_t>(pts_[i].second);
    const std::uint64_t mag = static_cast<std::uint64_t>(std::llabs(err));
    if (mag > error_bound_) return kNoFit;
    if (mag > max_err) max_err = static_cast<std::uint32_t>(mag);
  }
  return max_err;
}

void LearnedIndex::close_piece(std::uint32_t pb, std::uint32_t pe,
                               std::int64_t hi_n, std::int64_t hi_d,
                               std::int64_t lo_n, std::int64_t lo_d) {
  ScratchSeg ss;
  Segment& s = ss.seg;
  s.start = pts_[pb].first;
  s.len = pe - pb;  // runs are LPN-consecutive, so count == span
  s.x0 = s.start;
  s.base = static_cast<std::int64_t>(pts_[pb].second);
  if (pe - pb == 1) {
    s.sn = 0;
    s.sd = 1;
  } else if (rational_cmp(lo_n, lo_d, 1, 1) <= 0 &&
             rational_cmp(1, 1, hi_n, hi_d) <= 0) {
    // Prefer the exact append-order slope when the interval admits it.
    s.sn = 1;
    s.sd = 1;
  } else {
    s.sn = hi_n;
    s.sd = hi_d;
  }
  const std::uint32_t radius = fit_error(s, pb, pe);
  PHFTL_CHECK_MSG(radius != kNoFit, "PLR closed a piece outside its bound");
  s.radius = static_cast<std::uint8_t>(radius);
  ss.pt_begin = pb;
  ss.pt_end = pe;
  scratch_.push_back(ss);
}

void LearnedIndex::build_plr() {
  const std::uint32_t n = static_cast<std::uint32_t>(pts_.size());
  std::uint32_t pb = 0;
  std::int64_t hi_n = 0, hi_d = 1, lo_n = 0, lo_d = 1;
  bool bounded = false;  // bounds exist once the piece has >= 2 points
  for (std::uint32_t i = 1; i <= n; ++i) {
    bool fits = false;
    std::int64_t up_n = 0, up_d = 1, dn_n = 0, dn_d = 1;
    if (i < n && pts_[i].first == pts_[i - 1].first + 1) {
      // Candidate slope window through (x_i, y_i) from the anchor.
      const std::int64_t dx = static_cast<std::int64_t>(pts_[i].first) -
                              static_cast<std::int64_t>(pts_[pb].first);
      const std::int64_t dy = static_cast<std::int64_t>(pts_[i].second) -
                              static_cast<std::int64_t>(pts_[pb].second);
      up_n = dy + static_cast<std::int64_t>(error_bound_);
      dn_n = dy - static_cast<std::int64_t>(error_bound_);
      up_d = dn_d = dx;
      fits = !bounded || (rational_cmp(dn_n, dn_d, hi_n, hi_d) <= 0 &&
                          rational_cmp(lo_n, lo_d, up_n, up_d) <= 0);
    }
    if (!fits) {
      close_piece(pb, i, hi_n, hi_d, lo_n, lo_d);
      pb = i;
      bounded = false;
      continue;
    }
    if (!bounded || rational_cmp(up_n, up_d, hi_n, hi_d) < 0) {
      hi_n = up_n;
      hi_d = up_d;
    }
    if (!bounded || rational_cmp(lo_n, lo_d, dn_n, dn_d) < 0) {
      lo_n = dn_n;
      lo_d = dn_d;
    }
    bounded = true;
  }
}

void LearnedIndex::grow_ram(std::uint64_t n) {
  // The growth rule libstdc++ applies to std::vector, which produced the
  // RAM figures in BENCH_mapping.json (its capacity of 1600 segments rules
  // out plain doubling).
  if (live_ + n > ram_cap_) ram_cap_ = live_ + std::max(live_, n);
}

void LearnedIndex::add(const Segment& s) {
  std::uint32_t id = static_cast<std::uint32_t>(slots_.size());
  if (free_.empty()) {
    slots_.push_back(s);
  } else {
    id = free_.back();
    free_.pop_back();
    slots_[id] = s;
  }
  ++live_;
  std::fill_n(owner_.begin() + s.start, s.len, id);
}

void LearnedIndex::cut(std::uint32_t id, Lpn lo, Lpn hi) {
  Segment& s = slots_[id];
  const Lpn end = s.start + s.len;
  lo = std::max(lo, s.start);
  hi = std::min(hi, end);
  std::fill(owner_.begin() + lo, owner_.begin() + hi, kNoSlot);
  if (lo == s.start && hi == end) {
    free_.push_back(id);
    --live_;
  } else if (lo == s.start) {
    s.start = hi;
    s.len = static_cast<std::uint32_t>(end - hi);
  } else if (hi == end) {
    s.len = static_cast<std::uint32_t>(lo - s.start);
  } else {
    // Interior hole: split. Both halves keep the frozen line, so their
    // predictions (and radius) are unchanged. The longer half keeps the
    // slot, so only the shorter one is relabelled.
    Segment piece = s;
    if (lo - s.start < end - hi) {
      piece.len = static_cast<std::uint32_t>(lo - s.start);
      s.start = hi;
      s.len = static_cast<std::uint32_t>(end - hi);
    } else {
      piece.start = hi;
      piece.len = static_cast<std::uint32_t>(end - hi);
      s.len = static_cast<std::uint32_t>(lo - s.start);
    }
    grow_ram(1);
    add(piece);
  }
}

bool LearnedIndex::absorb(std::uint32_t id, const ScratchSeg& piece) {
  Segment& s = slots_[id];
  const std::uint32_t err = fit_error(s, piece.pt_begin, piece.pt_end);
  if (err == kNoFit) return false;
  std::fill_n(owner_.begin() + piece.seg.start, piece.seg.len, id);
  s.start = std::min(s.start, piece.seg.start);
  s.len += piece.seg.len;
  if (err > s.radius) s.radius = static_cast<std::uint8_t>(err);
  return true;
}

void LearnedIndex::splice_range(Lpn lo, Lpn hi) {
  for (Lpn p = lo; p < hi;) {
    const std::uint32_t id = owner_[p++];
    if (id == kNoSlot) continue;
    p = slots_[id].start + slots_[id].len;
    cut(id, lo, hi);
  }
}

void LearnedIndex::train(std::uint64_t tpn,
                         std::span<const std::uint64_t> blob) {
  const Lpn lo = tpn * tp_entries_;
  const Lpn hi = std::min<Lpn>(lo + tp_entries_, logical_);
  if (lo >= hi) return;
  pts_.clear();
  const std::uint64_t n = std::min<std::uint64_t>(blob.size(), hi - lo);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (blob[i] != kInvalidPpn) pts_.emplace_back(lo + i, blob[i]);
  }
  scratch_.clear();
  if (!pts_.empty()) build_plr();

  if (scratch_.size() > kMaxSegmentsPerTrain) {
    // Keep the most predictive (longest) pieces; the rest of the range
    // simply stays uncovered and uses the ordinary GTD/CMT path.
    order_.resize(scratch_.size());
    for (std::uint32_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::stable_sort(order_.begin(), order_.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                       return scratch_[a].seg.len > scratch_[b].seg.len;
                     });
    order_.resize(kMaxSegmentsPerTrain);
    std::sort(order_.begin(), order_.end());
    for (std::uint32_t i = 0; i < order_.size(); ++i) {
      scratch_[i] = scratch_[order_[i]];
    }
    scratch_.resize(kMaxSegmentsPerTrain);
  }

  splice_range(lo, hi);
  std::size_t first = 0, last = scratch_.size();

  // Boundary merges: if the fresh first/last piece continues the line of
  // the segment ending at lo (or starting at hi), within the error bound
  // and checked point by point, extend that segment instead — this is what
  // keeps segment count tracking sequential runs rather than translation-
  // page count.
  const std::uint32_t left = lo > 0 ? slot_of(lo - 1) : kNoSlot;
  if (first < last && left != kNoSlot && scratch_[first].seg.start == lo &&
      absorb(left, scratch_[first]))
    ++first;
  const std::uint32_t right = slot_of(hi);
  if (first < last && right != kNoSlot &&
      scratch_[last - 1].seg.start + scratch_[last - 1].seg.len == hi &&
      absorb(right, scratch_[last - 1]))
    --last;

  if (first < last) grow_ram(last - first);
  for (std::size_t i = first; i < last; ++i) add(scratch_[i].seg);
}

void LearnedIndex::invalidate(Lpn lpn) {
  const std::uint32_t id = slot_of(lpn);
  if (id != kNoSlot) cut(id, lpn, lpn + 1);
}

bool LearnedIndex::corrupt_segment_for_test(Lpn lpn, std::int64_t delta) {
  const std::uint32_t id = slot_of(lpn);
  if (id == kNoSlot) return false;
  slots_[id].base += delta;
  return true;
}

}  // namespace phftl
