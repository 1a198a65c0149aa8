#include "core/threshold.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/team.hpp"

namespace phftl::core {

ThresholdController::ThresholdController(const Config& cfg)
    : cfg_(cfg), rng_(cfg.seed), step_(kInitialStep) {}

std::uint64_t ThresholdController::inflection_point(
    std::vector<std::uint64_t> samples) {
  std::sort(samples.begin(), samples.end());
  return sorted_inflection_point(samples);
}

std::uint64_t ThresholdController::sorted_inflection_point(
    std::span<const std::uint64_t> samples) {
  PHFTL_CHECK(!samples.empty());
  const std::size_t n = samples.size();
  if (n == 1) return samples[0];

  // Chord from (L_1, 1) to (L_N, N); pick the sample maximizing the
  // perpendicular distance |a·x + b·y + c| (the shared normalization is
  // constant, so the numerator alone decides).
  const double x1 = static_cast<double>(samples.front()), y1 = 1.0;
  const double x2 = static_cast<double>(samples.back());
  const double y2 = static_cast<double>(n);
  const double a = y2 - y1;
  const double b = -(x2 - x1);
  const double c = x2 * y1 - y2 * x1;

  double best = -1.0;
  std::uint64_t best_val = samples.front();
  for (std::size_t i = 0; i < n; ++i) {
    const double d = std::fabs(a * static_cast<double>(samples[i]) +
                               b * static_cast<double>(i + 1) + c);
    if (d > best) {
      best = d;
      best_val = samples[i];
    }
  }
  return best_val;
}

std::uint64_t ThresholdController::value_at_percentile(
    const std::vector<std::uint64_t>& sorted, double q) {
  PHFTL_CHECK(!sorted.empty());
  q = std::clamp(q, 0.0, 100.0);
  const double pos = q / 100.0 * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(pos + 0.5)];
}

double ThresholdController::percentile_of_value(
    const std::vector<std::uint64_t>& sorted, std::uint64_t value) {
  PHFTL_CHECK(!sorted.empty());
  const auto it = std::upper_bound(sorted.begin(), sorted.end(), value);
  const auto rank = static_cast<double>(it - sorted.begin());
  if (sorted.size() == 1) return 50.0;
  return 100.0 * rank / static_cast<double>(sorted.size());
}

void ThresholdController::stage_candidate(
    std::size_t c, std::uint64_t threshold,
    std::span<const std::uint64_t> lifetimes) {
  // Label with the candidate, balance, and split for the lightweight model
  // (Algorithm 1's TrainEvalLightModel); pick_threshold fits and scores.
  // Two independent resample/split rounds are averaged: the hill climb
  // follows these estimates, so their noise must be below the real
  // accuracy differences between candidates.
  std::vector<int>& labels = labels_[c];
  labels.resize(lifetimes.size());
  std::size_t positives = 0;
  for (std::size_t i = 0; i < lifetimes.size(); ++i) {
    labels[i] = lifetimes[i] <= threshold ? 1 : 0;
    positives += static_cast<std::size_t>(labels[i]);
  }
  // Degenerate splits (almost everything on one side) cannot be evaluated:
  // a balanced resample of a handful of boundary samples scores spuriously
  // high accuracy and would pin the threshold at the window's extremes.
  const std::size_t minority = std::min(positives, labels.size() - positives);
  if (minority < std::max<std::size_t>(8, labels.size() / 50)) return;

  for (std::size_t round = 0; round < kRounds; ++round) {
    ml::balanced_resample(labels, cfg_.resample_per_class, rng_, balanced_);
    if (balanced_.size() < 8) continue;
    Fit& fit = fits_[fit_count_++];
    fit.candidate = c;
    fit.n_train = ml::split_rows(balanced_, kTestFraction, rng_, fit.split);
  }
}

std::uint64_t ThresholdController::pick_threshold(
    std::span<const std::uint64_t> lifetimes, ml::ConstMatView features) {
  PHFTL_CHECK(lifetimes.size() == features.rows);
  if (lifetimes.empty()) {
    // No samples this window: keep the previous threshold.
    return threshold_ >= 0 ? static_cast<std::uint64_t>(threshold_) : 0;
  }

  if (threshold_ < 0) {
    // First window: inflection point of the lifetime CDF.
    threshold_ = static_cast<std::int64_t>(
        inflection_point({lifetimes.begin(), lifetimes.end()}));
    prev_dir_ = 0;
    last_dir_ = 0;
    last_accuracy_ = 0.0;
    return static_cast<std::uint64_t>(threshold_);
  }

  if (cfg_.freeze_after_first_window)
    return static_cast<std::uint64_t>(threshold_);

  std::vector<std::uint64_t> sorted(lifetimes.begin(), lifetimes.end());
  std::sort(sorted.begin(), sorted.end());
  const double p =
      percentile_of_value(sorted, static_cast<std::uint64_t>(threshold_));
  window_.assign(features.data, features.rows, features.cols);

  // Candidate set: the window's own inflection point (re-anchor), then the
  // percentile walk {p, p − step, p + step}. Evaluating the inflection
  // point first makes ties re-anchor the threshold at the CDF knee — the
  // placement the paper's Fig. 2 intends — instead of letting a flat,
  // noisy accuracy surface random-walk the threshold away from it.
  // A re-anchor counts as "no directional adjustment" (chosen_dir 0).
  constexpr int kDirs[kCandidates] = {0, 0, -1, 1};
  std::uint64_t candidates[kCandidates];
  candidates[0] = sorted_inflection_point(sorted);
  for (std::size_t c = 1; c < kCandidates; ++c)
    candidates[c] = value_at_percentile(
        sorted, p + kDirs[c] * static_cast<double>(step_));

  // Every draw is staged first, in candidate order; the fits then run side
  // by side on the team (each seeds its own RNG), and their accuracies are
  // averaged and compared in candidate and round order.
  fit_count_ = 0;
  for (std::size_t c = 0; c < kCandidates; ++c)
    stage_candidate(c, candidates[c], lifetimes);
  ml::LogisticRegression::Config lm;
  lm.epochs = 12;
  lm.lr = 0.2f;
  util::Team::Lease().run(fit_count_, [&](std::size_t i) {
    Fit& fit = fits_[i];
    fit.accuracy = ml::fit_and_score(window_, labels_[fit.candidate],
                                     fit.split, fit.n_train, lm);
  });
  double accuracy[kCandidates] = {};
  int rounds[kCandidates] = {};
  for (std::size_t i = 0; i < fit_count_; ++i) {
    accuracy[fits_[i].candidate] += fits_[i].accuracy;
    ++rounds[fits_[i].candidate];
  }

  std::uint64_t max_thres = candidates[0];
  double max_accu = 0.0;
  int chosen_dir = 0;
  for (std::size_t c = 0; c < kCandidates; ++c) {
    const double accu = rounds[c] ? accuracy[c] / rounds[c] : 0.0;
    if (c == 0 || accu > max_accu) {
      max_accu = accu;
      max_thres = candidates[c];
      chosen_dir = kDirs[c];
    }
  }

  // Step-length adaptation (Algorithm 1's four rules).
  const int cur_dir = chosen_dir;
  if (prev_dir_ == 0 && cur_dir == 0) {
    ++step_;  // stuck: widen to escape a local optimum
  } else if (prev_dir_ != 0 && cur_dir == 0) {
    --step_;  // just converged: try a finer step
  } else if (prev_dir_ != 0 && cur_dir != 0 && prev_dir_ != cur_dir) {
    --step_;  // fluctuation: damp
  } else if (prev_dir_ != 0 && cur_dir != 0 && prev_dir_ == cur_dir) {
    ++step_;  // consistent movement: accelerate
  }
  step_ = std::min(std::abs(step_), kMaxStep);
  step_ = std::max(step_, 1);

  prev_dir_ = cur_dir;
  last_dir_ = cur_dir;
  last_accuracy_ = max_accu;
  threshold_ = static_cast<std::int64_t>(max_thres);
  return max_thres;
}

}  // namespace phftl::core
