#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/features.hpp"
#include "core/threshold.hpp"
#include "util/rng.hpp"
#include "util/team.hpp"

namespace phftl::core {
namespace {

/// A window matrix: one compact-encoded row per lifetime sample.
struct Window {
  std::vector<float> data;
  std::size_t rows = 0;
  operator ml::ConstMatView() const {
    return {data.data(), rows, kCompactDim};
  }
};

/// Build (lifetime, encoded-feature) pairs where prev_lifetime mirrors the
/// sampled lifetime — a learnable association, as in real windows.
void make_window(const std::vector<std::uint64_t>& lifetimes,
                 Window& features) {
  features.data.clear();
  for (const auto lt : lifetimes) {
    RawFeatures raw;
    raw.prev_lifetime = static_cast<std::uint32_t>(lt);
    const auto row = encode_features_compact(raw);
    features.data.insert(features.data.end(), row.begin(), row.end());
  }
  features.rows = lifetimes.size();
}

/// A skewed, bimodal lifetime population: `n_short` short-living samples
/// around `short_mode` and `n_long` around `long_mode`.
std::vector<std::uint64_t> bimodal(std::size_t n_short, std::uint64_t short_mode,
                                   std::size_t n_long, std::uint64_t long_mode,
                                   std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> v;
  for (std::size_t i = 0; i < n_short; ++i)
    v.push_back(short_mode + rng.next_below(short_mode));
  for (std::size_t i = 0; i < n_long; ++i)
    v.push_back(long_mode + rng.next_below(long_mode));
  deterministic_shuffle(v, rng);
  return v;
}

TEST(InflectionPoint, FindsKneeOfBimodalCdf) {
  // 800 short samples (~50..100) and 200 long (~5000..10000): the knee of
  // the sorted curve sits at the end of the short cluster.
  const auto samples = bimodal(800, 50, 200, 5000, 1);
  const std::uint64_t knee = ThresholdController::inflection_point(samples);
  EXPECT_GE(knee, 50u);
  EXPECT_LT(knee, 5000u);
}

TEST(InflectionPoint, SingleSample) {
  EXPECT_EQ(ThresholdController::inflection_point({42}), 42u);
}

TEST(InflectionPoint, UniformDistributionPicksSomeSample) {
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 0; i < 100; ++i) v.push_back(i * 10);
  const auto t = ThresholdController::inflection_point(v);
  EXPECT_GE(t, 0u);
  EXPECT_LE(t, 990u);
}

ThresholdController::Config test_cfg() {
  ThresholdController::Config cfg;
  cfg.resample_per_class = 128;
  cfg.seed = 5;
  return cfg;
}

TEST(ThresholdController, StartsUnset) {
  ThresholdController tc(test_cfg());
  EXPECT_EQ(tc.threshold(), -1);
  EXPECT_EQ(tc.step(), 5);
}

TEST(ThresholdController, FirstWindowUsesInflectionPoint) {
  ThresholdController tc(test_cfg());
  const auto lifetimes = bimodal(400, 50, 100, 5000, 2);
  Window feats;
  make_window(lifetimes, feats);
  const auto t = tc.pick_threshold(lifetimes, feats);
  EXPECT_EQ(t, ThresholdController::inflection_point(lifetimes));
  EXPECT_EQ(tc.threshold(), static_cast<std::int64_t>(t));
}

TEST(ThresholdController, EmptyWindowKeepsThreshold) {
  ThresholdController tc(test_cfg());
  const auto lifetimes = bimodal(400, 50, 100, 5000, 3);
  Window feats;
  make_window(lifetimes, feats);
  const auto t = tc.pick_threshold(lifetimes, feats);
  EXPECT_EQ(tc.pick_threshold({}, {}), t);
  EXPECT_EQ(tc.threshold(), static_cast<std::int64_t>(t));
}

TEST(ThresholdController, TracksDistributionAcrossWindows) {
  // Threshold should remain in the gap between the two modes as windows
  // repeat, and stay finite/sane when the distribution shifts.
  ThresholdController tc(test_cfg());
  Window feats;
  for (int w = 0; w < 6; ++w) {
    const auto lifetimes = bimodal(400, 50, 100, 5000, 10 + w);
    make_window(lifetimes, feats);
    tc.pick_threshold(lifetimes, feats);
    EXPECT_GT(tc.threshold(), 0);
    EXPECT_LT(tc.threshold(), 10000);
  }
  // Shift both modes up 4×: the controller must follow within a few
  // windows (adaptivity, paper Fig. 2b).
  std::int64_t final_thres = 0;
  for (int w = 0; w < 12; ++w) {
    const auto lifetimes = bimodal(400, 200, 100, 20000, 50 + w);
    make_window(lifetimes, feats);
    tc.pick_threshold(lifetimes, feats);
    final_thres = tc.threshold();
  }
  EXPECT_GT(final_thres, 200);
  EXPECT_LT(final_thres, 40000);
}

TEST(ThresholdController, StepStaysWithinBounds) {
  ThresholdController tc(test_cfg());
  Window feats;
  for (int w = 0; w < 20; ++w) {
    const auto lifetimes = bimodal(300, 50 + 10 * w, 100, 5000, 100 + w);
    make_window(lifetimes, feats);
    tc.pick_threshold(lifetimes, feats);
    EXPECT_GE(tc.step(), 1);
    EXPECT_LE(tc.step(), tc.threshold() >= 0 ? 10 : 5);
  }
}

TEST(ThresholdController, StableWindowsGrowStep) {
  // With identical windows the winning direction settles to 0 and the
  // "trapped in local optimum" rule grows the step.
  ThresholdController tc(test_cfg());
  const auto lifetimes = bimodal(400, 50, 100, 5000, 7);
  Window feats;
  make_window(lifetimes, feats);
  tc.pick_threshold(lifetimes, feats);  // first window: inflection point
  int prev_step = tc.step();
  int grew = 0;
  for (int w = 0; w < 6; ++w) {
    tc.pick_threshold(lifetimes, feats);
    if (tc.last_direction() == 0 && tc.step() > prev_step) ++grew;
    prev_step = tc.step();
  }
  EXPECT_GT(grew, 0);
}

TEST(ThresholdController, FreezeAfterFirstWindowHoldsThreshold) {
  auto cfg = test_cfg();
  cfg.freeze_after_first_window = true;
  ThresholdController tc(cfg);
  Window feats;
  const auto w1 = bimodal(400, 50, 100, 5000, 71);
  make_window(w1, feats);
  const auto t1 = tc.pick_threshold(w1, feats);
  // Later windows with a shifted distribution must not move it.
  const auto w2 = bimodal(400, 400, 100, 40000, 72);
  make_window(w2, feats);
  EXPECT_EQ(tc.pick_threshold(w2, feats), t1);
  EXPECT_EQ(tc.threshold(), static_cast<std::int64_t>(t1));
}

TEST(ThresholdController, ReanchorFollowsDistributionJump) {
  // With re-anchoring, a sudden 8x lifetime shift is tracked in one
  // window instead of crawling at <= kMaxStep percentile points.
  ThresholdController tc(test_cfg());
  Window feats;
  const auto w1 = bimodal(400, 50, 100, 5000, 73);
  make_window(w1, feats);
  tc.pick_threshold(w1, feats);
  const auto w2 = bimodal(400, 400, 100, 40000, 74);
  make_window(w2, feats);
  const auto t2 = tc.pick_threshold(w2, feats);
  EXPECT_GT(t2, 300u);
}

TEST(ThresholdController, ReportsAccuracyOfWinningCandidate) {
  ThresholdController tc(test_cfg());
  const auto lifetimes = bimodal(400, 50, 100, 5000, 9);
  Window feats;
  make_window(lifetimes, feats);
  tc.pick_threshold(lifetimes, feats);
  tc.pick_threshold(lifetimes, feats);
  // prev_lifetime mirrors the label, so the light model should score well.
  EXPECT_GT(tc.last_accuracy(), 0.7);
}

TEST(ThresholdController, FitsSideBySideMatchFitsInline) {
  // Algorithm 1 stages every draw serially and then fits its candidates on
  // the team: each window's threshold, step, direction and accuracy bits
  // must be those of running the fits one by one on the caller.
  struct Pick {
    std::int64_t threshold;
    int step, direction;
    std::uint64_t accuracy;
  };
  auto walk = [] {
    ThresholdController tc(test_cfg());
    Window feats;
    std::vector<Pick> picks;
    for (int w = 0; w < 10; ++w) {
      const auto lifetimes = bimodal(400, 50 + 30 * w, 100, 5000, 300 + w);
      make_window(lifetimes, feats);
      tc.pick_threshold(lifetimes, feats);
      picks.push_back({tc.threshold(), tc.step(), tc.last_direction(),
                       std::bit_cast<std::uint64_t>(tc.last_accuracy())});
    }
    return picks;
  };
  std::vector<Pick> serial;
  {
    util::InlineScope scope;
    serial = walk();
  }
  const std::vector<Pick> team = walk();
  ASSERT_EQ(serial.size(), team.size());
  for (std::size_t w = 0; w < serial.size(); ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    EXPECT_EQ(serial[w].threshold, team[w].threshold);
    EXPECT_EQ(serial[w].step, team[w].step);
    EXPECT_EQ(serial[w].direction, team[w].direction);
    EXPECT_EQ(serial[w].accuracy, team[w].accuracy);
  }
}

}  // namespace
}  // namespace phftl::core
