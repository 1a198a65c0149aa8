#include "core/trainer.hpp"

#include <algorithm>

#include "ml/logreg.hpp"
#include "util/assert.hpp"

namespace phftl::core {

ModelTrainer::ModelTrainer(const Config& cfg)
    : cfg_(cfg),
      rng_(cfg.seed),
      model_([&cfg] {
        ml::GruClassifier::Config mc;
        mc.input_dim = kInputDim;
        mc.hidden_dim = cfg.gru_hidden;
        mc.adam = cfg.adam;
        mc.adam.lr = cfg.gru_lr;
        mc.seed = cfg.seed ^ 0xABCDEF;
        return mc;
      }()),
      controller_(cfg.threshold) {
  PHFTL_CHECK(cfg_.logical_pages > 0);
  PHFTL_CHECK(cfg_.window_pages > 0);
  PHFTL_CHECK_MSG(cfg_.batch_size > 0, "training batch_size must be positive");
  PHFTL_CHECK_MSG(cfg_.history_len >= 1 && cfg_.history_len <= 16,
                  "history ring holds at most 16 steps");
  history_.resize(cfg_.logical_pages);
  samples_.reserve(cfg_.max_window_samples);
}

void ModelTrainer::reset() {
  // Rebuild from the original config: fresh RNG, untrained float model,
  // undeployed quantized model, pre-first-window threshold, empty
  // histories/samples. Cheaper bookkeeping (windows_, trainings_) restarts
  // too — the trainer's whole lifetime is RAM-only.
  *this = ModelTrainer(cfg_);
}

std::vector<RawFeatures> ModelTrainer::history_snapshot(
    const History& h) const {
  // Oldest → newest, at most history_len entries.
  const std::uint32_t n = std::min<std::uint32_t>(h.count, cfg_.history_len);
  std::vector<RawFeatures> seq(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    // Entry (count-n+i) in logical order; head points past the newest.
    const std::uint32_t logical = h.count - n + i;
    const std::uint32_t pos =
        (h.head + 16 - h.count + logical) % 16;
    seq[i] = h.ring[pos];
  }
  return seq;
}

void ModelTrainer::observe_page_write(Lpn lpn, const RawFeatures& raw,
                                      std::uint64_t now) {
  if (!cfg_.enabled) return;
  PHFTL_CHECK(lpn < history_.size());
  History& h = history_[lpn];
  now_ = now;

  // A rewrite within the current window contributes a lifetime sample for
  // the dying version (paper §III-B): its feature sequence is the history
  // *before* this write is appended.
  if (h.last_write_time != kNeverWritten && h.last_write_time >= window_start_ &&
      h.count > 0) {
    const std::uint64_t lifetime = now - h.last_write_time;
    ++samples_seen_;
    if (samples_.size() < cfg_.max_window_samples) {
      samples_.push_back({lifetime, history_snapshot(h)});
    } else {
      // Reservoir sampling keeps the set unbiased.
      const std::uint64_t j = rng_.next_below(samples_seen_);
      if (j < cfg_.max_window_samples)
        samples_[static_cast<std::size_t>(j)] = {lifetime,
                                                 history_snapshot(h)};
    }
  }

  // Append this write's features to the ring.
  h.ring[h.head] = raw;
  h.head = static_cast<std::uint8_t>((h.head + 1) % 16);
  if (h.count < 16) ++h.count;
  h.last_write_time = now;
  ++pages_in_window_;
}

bool ModelTrainer::maybe_train() {
  if (!cfg_.enabled || pages_in_window_ < cfg_.window_pages) return false;
  train_window();
  // Start the next window at the current clock.
  window_start_ = now_ + 1;
  pages_in_window_ = 0;
  samples_.clear();
  samples_seen_ = 0;
  ++windows_;
  return true;
}

void ModelTrainer::train_window() {
  last_sample_count_ = samples_.size();
  if (samples_.empty()) return;

  // 1. Threshold adjustment (Algorithm 1) on (lifetime, last-step feature)
  //    pairs. The lightweight model consumes the compact monotone encoding
  //    (see features.hpp) so candidate accuracy actually peaks at the knee.
  std::vector<std::uint64_t> lifetimes(samples_.size());
  std::vector<std::vector<float>> last_feats(samples_.size());
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    lifetimes[i] = samples_[i].lifetime;
    PHFTL_CHECK(!samples_[i].sequence.empty());
    last_feats[i] = encode_features_compact(samples_[i].sequence.back());
  }
  const std::uint64_t threshold =
      controller_.pick_threshold(lifetimes, last_feats);

  // 2. Label sequences and balance classes.
  std::vector<std::size_t> pos_idx, neg_idx;
  for (std::size_t i = 0; i < samples_.size(); ++i)
    (samples_[i].lifetime <= threshold ? pos_idx : neg_idx).push_back(i);
  if (pos_idx.empty() || neg_idx.empty()) return;  // degenerate window

  const std::size_t per_class =
      std::min({cfg_.train_per_class, pos_idx.size(), neg_idx.size()});
  auto draw = [&](std::vector<std::size_t>& idx,
                  std::vector<ml::Sequence>& dst, int label) {
    for (std::size_t k = 0; k < per_class; ++k) {
      const std::size_t j = k + rng_.next_below(idx.size() - k);
      std::swap(idx[k], idx[j]);
      const WindowSample& s = samples_[idx[k]];
      ml::Sequence seq;
      seq.label = label;
      seq.steps.reserve(s.sequence.size());
      for (const RawFeatures& f : s.sequence)
        seq.steps.push_back(encode_features(f));
      dst.push_back(std::move(seq));
    }
  };
  std::vector<ml::Sequence> train_set;
  train_set.reserve(2 * per_class);
  draw(pos_idx, train_set, 1);
  draw(neg_idx, train_set, 0);

  // 3. One epoch of training on the persistent model (paper §III-B).
  model_.train_epoch(train_set, cfg_.batch_size, rng_);

  // 4. Deployment: quantize to int8, recalibrate the decision boundary to
  //    the window's natural class prior, and hand to the device.
  deployed_ = ml::QuantizedGru(model_);
  // Natural positive rate: short-living versions nearly always die inside
  // the window (their lifetime is below the threshold, which is below the
  // window length), so the positive samples over *all* page writes in the
  // window estimate the deployment-time short-living share. Using the
  // sampled share instead would ignore the never-rewritten (cold) writes
  // and overstate the prior badly.
  const double pos_rate = std::clamp(
      static_cast<double>(pos_idx.size()) *
          (static_cast<double>(samples_seen_) /
           std::max<double>(1.0, static_cast<double>(samples_.size()))) /
          static_cast<double>(pages_in_window_),
      0.02, 0.98);
  deployed_.set_decision_bias(
      kPriorBiasStrength *
      static_cast<float>(std::log(pos_rate / (1.0 - pos_rate))));
  ++trainings_;
}

}  // namespace phftl::core
