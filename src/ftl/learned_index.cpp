#include "ftl/learned_index.hpp"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <utility>

#include "util/assert.hpp"

namespace phftl {

namespace {

// Floor division with a positive denominator — predictions must round the
// same way on both sides of zero so the fit-time radius stays exact.
std::int64_t floor_div(__int128 num, std::int64_t den) {
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

// The entry of `segs` whose cover holds `lpn`, or segs.end().
template <class Map>
auto cover_of(Map& segs, Lpn lpn) -> decltype(segs.begin()) {
  auto it = segs.upper_bound(lpn);
  if (it == segs.begin()) return segs.end();
  --it;
  return lpn < it->first + it->second.len ? it : segs.end();
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
  segs_.clear();
  ram_cap_ = 0;
  pts_.clear();
  scratch_.clear();
  order_.clear();
}

std::int64_t LearnedIndex::eval(const Segment& s, Lpn x) {
  const std::int64_t dx =
      static_cast<std::int64_t>(x) - static_cast<std::int64_t>(s.x0);
  return s.base + floor_div(static_cast<__int128>(s.sn) * dx, s.sd);
}

bool LearnedIndex::predict(Lpn lpn, std::int64_t* pred,
                           std::uint32_t* radius) const {
  const auto it = cover_of(segs_, lpn);
  if (it == segs_.end()) return false;
  *pred = eval(it->second, lpn);
  *radius = it->second.radius;
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
  const std::uint64_t size = segs_.size();
  if (size + n > ram_cap_) ram_cap_ = size + std::max(size, n);
}

LearnedIndex::SegMap::iterator LearnedIndex::move_start(SegMap::iterator it,
                                                      Lpn start) {
  const Lpn end = it->first + it->second.len;
  const auto next = std::next(it);
  auto node = segs_.extract(it);
  node.key() = start;
  node.mapped().start = start;
  node.mapped().len = static_cast<std::uint32_t>(end - start);
  return segs_.insert(next, std::move(node));
}

LearnedIndex::SegMap::iterator LearnedIndex::splice_range(Lpn lo, Lpn hi) {
  auto it = segs_.upper_bound(lo);
  if (it != segs_.begin()) {
    Segment& s = std::prev(it)->second;
    const Lpn s_end = s.start + s.len;
    if (s.start == lo) {
      --it;  // starts inside the range: erased or trimmed below
    } else if (s_end > lo) {
      s.len = static_cast<std::uint32_t>(lo - s.start);
      if (s_end > hi) {
        // Range is interior: keep the left piece, split off the right.
        Segment right = s;
        right.start = hi;
        right.len = static_cast<std::uint32_t>(s_end - hi);
        grow_ram(1);
        return segs_.emplace_hint(it, hi, right);
      }
    }
  }
  while (it != segs_.end() && it->first < hi) {
    if (it->first + it->second.len > hi) return move_start(it, hi);
    it = segs_.erase(it);
  }
  return it;
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

  auto right_it = splice_range(lo, hi);
  std::size_t first = 0, last = scratch_.size();

  // Boundary merges: if the fresh first/last piece continues the line of
  // the neighbouring segment within the error bound (checked point by
  // point), extend that segment instead — this is what keeps segment
  // count tracking sequential runs rather than translation-page count.
  if (first < last && right_it != segs_.begin()) {
    Segment& left = std::prev(right_it)->second;
    const ScratchSeg& f = scratch_[first];
    if (left.start + left.len == f.seg.start) {
      const std::uint32_t err = fit_error(left, f.pt_begin, f.pt_end);
      if (err != kNoFit) {
        left.len += f.seg.len;
        if (err > left.radius) left.radius = static_cast<std::uint8_t>(err);
        ++first;
      }
    }
  }
  if (first < last && right_it != segs_.end()) {
    Segment& right = right_it->second;
    const ScratchSeg& l = scratch_[last - 1];
    if (l.seg.start + l.seg.len == right.start) {
      const std::uint32_t err = fit_error(right, l.pt_begin, l.pt_end);
      if (err != kNoFit) {
        if (err > right.radius) right.radius = static_cast<std::uint8_t>(err);
        right_it = move_start(right_it, l.seg.start);
        --last;
      }
    }
  }

  // The kept pieces are sorted by start and disjoint: each goes just
  // before the right neighbour, after the one inserted before it.
  if (first < last) grow_ram(last - first);
  for (std::size_t i = first; i < last; ++i) {
    segs_.emplace_hint(right_it, scratch_[i].seg.start, scratch_[i].seg);
  }
}

void LearnedIndex::invalidate(Lpn lpn) {
  const auto it = cover_of(segs_, lpn);
  if (it == segs_.end()) return;
  Segment& s = it->second;
  if (s.len == 1) {
    segs_.erase(it);
    return;
  }
  if (lpn == s.start) {
    move_start(it, lpn + 1);
    return;
  }
  if (lpn == s.start + s.len - 1) {
    s.len -= 1;
    return;
  }
  // Interior hole: split. Both halves keep the frozen line, so their
  // predictions (and radius) are unchanged.
  Segment right = s;
  right.start = lpn + 1;
  right.len = static_cast<std::uint32_t>(s.start + s.len - lpn - 1);
  s.len = static_cast<std::uint32_t>(lpn - s.start);
  grow_ram(1);
  segs_.emplace_hint(std::next(it), right.start, right);
}

bool LearnedIndex::corrupt_segment_for_test(Lpn lpn, std::int64_t delta) {
  const auto it = cover_of(segs_, lpn);
  if (it == segs_.end()) return false;
  it->second.base += delta;
  return true;
}

}  // namespace phftl
