// Victim-selection scoring functions.
//
// All policies pick the *highest*-scoring closed superblock:
//   * Greedy: score = invalid fraction. Optimal for uniform workloads,
//     short-sighted under skew. Served in O(1) straight from the victim
//     index (FtlBase::greedy_victim) — no scan at all.
//   * Cost-Benefit (Rosenblum & Ousterhout, LFS): benefit/cost =
//     (1 - u) * age / (2u) — favours old, mostly-invalid segments. Used for
//     baselines whose papers did not specify a policy (paper §V-A). Age is
//     unbounded, so this one scans every candidate (cost_benefit_victim).
//   * Adjusted Greedy (paper Eq. 1): greedy, but superblocks holding
//     short-living pages are discounted by V^(T/C) so that hot blocks get
//     more time to self-invalidate — unless they have been closed for long
//     (large C ⇒ exponent T/C → 0 ⇒ discount → 1), which "remedies wrong
//     predictions": pages still valid long after close were probably
//     mispredicted as short-living and should be reclaimed normally. Its
//     score is capped by the invalid fraction, so select_victim_bounded can
//     prune whole valid-count buckets.
//
// Scans iterate the victim index through templated visitors — no
// std::function indirection — and break ties toward the lowest superblock
// id, reproducing the historical ascending full-scan argmax exactly.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "ftl/ftl_base.hpp"

namespace phftl {

inline double greedy_score(double invalid_fraction) {
  return invalid_fraction;
}

inline double cost_benefit_score(double invalid_fraction, double age) {
  const double u = 1.0 - invalid_fraction;  // utilization
  if (u <= 0.0) return std::numeric_limits<double>::infinity();
  return (1.0 - u) * age / (2.0 * u);
}

/// Paper Eq. 1: score = I · V^(T/C) for superblocks holding short-living
/// pages, score = I otherwise. `threshold` is the classification threshold T
/// and `elapsed` is C (time since close), both in virtual-clock pages.
///
/// Eq. 1's typography is ambiguous in the paper; this form is the one that
/// satisfies every property the prose states:
///  * "lower priority to hot pages": a freshly closed short-living
///    superblock (C << T) has V^(T/C) ≈ 0 — it is left alone so its pages
///    can self-invalidate;
///  * "closed earlier has a lower discount factor": as C grows, the
///    multiplier rises toward 1 and the block competes as plain greedy —
///    pages still valid long after close were likely *mispredicted* as
///    short-living and should be reclaimed ("false short-living pages
///    should be favored over true ones");
///  * the score stays bounded by I, so a hot block can never spuriously
///    outrank a fully invalid victim.
inline double adjusted_greedy_score(double invalid_fraction,
                                    double valid_fraction, bool short_living,
                                    double threshold, double elapsed) {
  if (!short_living) return invalid_fraction;
  if (elapsed <= 0.0) elapsed = 1.0;
  if (threshold <= 0.0) threshold = 1.0;
  double exponent = threshold / elapsed;
  if (exponent > 60.0) exponent = 60.0;  // keep pow() well-conditioned
  if (valid_fraction <= 0.0) return invalid_fraction;  // nothing to discount
  return invalid_fraction * std::pow(valid_fraction, exponent);
}

namespace detail {

/// Keeps the best (score, sb) pair with lowest-id tie-breaking. A score of
/// -inf never wins (candidates may use it to exclude themselves), matching
/// the historical strict-argmax behaviour.
struct BestVictim {
  double score = -std::numeric_limits<double>::infinity();
  std::uint64_t sb = ~0ULL;

  void offer(double s, std::uint64_t candidate) {
    if (s > score || (s == score && sb != ~0ULL && candidate < sb)) {
      score = s;
      sb = candidate;
    }
  }
};

}  // namespace detail

/// Generic arg-max over closed superblocks. `score(sb)` may return -inf to
/// exclude a candidate. Returns FtlBase::kNoVictim-compatible ~0 when no
/// closed superblock exists. O(closed superblocks) — use for unbounded
/// scores (Cost-Benefit); bounded policies should prefer
/// select_victim_bounded and pure greedy FtlBase::greedy_victim().
template <typename ScoreFn>
std::uint64_t select_victim(const FtlBase& ftl, ScoreFn&& score) {
  detail::BestVictim best;
  ftl.for_each_closed([&](std::uint64_t sb) { best.offer(score(sb), sb); });
  return best.sb;
}

/// Arg-max for score functions bounded above by the superblock's invalid
/// fraction (greedy_score, adjusted_greedy_score). Walks the victim
/// index's valid-count buckets in ascending order — descending
/// invalid-fraction bound — and stops as soon as the bound falls strictly
/// below the best score seen: no later bucket can beat *or tie* it, so the
/// result (including lowest-id tie-breaks) is identical to a full scan.
template <typename ScoreFn>
std::uint64_t select_victim_bounded(const FtlBase& ftl, ScoreFn&& score) {
  const double inv_pages =
      1.0 / static_cast<double>(ftl.config().geom.pages_per_superblock());
  detail::BestVictim best;
  ftl.visit_closed_by_valid(
      [&](std::uint64_t valid, const std::vector<std::uint64_t>& sbs) {
        const double bound =
            1.0 - static_cast<double>(valid) * inv_pages;
        if (bound < best.score) return false;  // prune the remaining buckets
        for (const std::uint64_t sb : sbs) best.offer(score(sb), sb);
        return true;
      });
  return best.sb;
}

/// Fraction helpers. The `1 / pages_per_superblock` reciprocal is hoisted
/// out of the scan: policies compute it once per selection instead of
/// re-dividing for every candidate superblock.
inline double sb_fraction_scale(const FtlBase& ftl) {
  return 1.0 / static_cast<double>(ftl.config().geom.pages_per_superblock());
}
inline double invalid_fraction(std::uint64_t valid_count, double inv_pages) {
  return 1.0 - static_cast<double>(valid_count) * inv_pages;
}
inline double valid_fraction(std::uint64_t valid_count, double inv_pages) {
  return static_cast<double>(valid_count) * inv_pages;
}

/// Cost-Benefit's arg-max over every closed superblock, aged against one
/// read of the virtual clock: Base's and 2R's policy, and PHFTL's
/// kCostBenefit ablation arm.
inline std::uint64_t cost_benefit_victim(const FtlBase& ftl) {
  const std::uint64_t now = ftl.virtual_clock();
  const double inv_pages = sb_fraction_scale(ftl);
  return select_victim(ftl, [&](std::uint64_t sb) {
    return cost_benefit_score(
        invalid_fraction(ftl.valid_count(sb), inv_pages),
        static_cast<double>(now - ftl.close_time(sb)));
  });
}

}  // namespace phftl
