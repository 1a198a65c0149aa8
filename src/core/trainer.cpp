#include "core/trainer.hpp"

#include <algorithm>

#include "ml/logreg.hpp"
#include "util/assert.hpp"
#include "util/team.hpp"

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
  ring_.resize(cfg_.logical_pages * cfg_.history_len);
  sample_lifetime_.reserve(cfg_.max_window_samples);
  sample_len_.resize(cfg_.max_window_samples);
  sample_steps_.resize(cfg_.max_window_samples * cfg_.history_len);
}

void ModelTrainer::reset() {
  // Rebuild from the original config: fresh RNG, untrained float model,
  // undeployed quantized model, pre-first-window threshold, empty
  // histories/samples. Cheaper bookkeeping (windows_, trainings_) restarts
  // too — the trainer's whole lifetime is RAM-only.
  *this = ModelTrainer(cfg_);
}

void ModelTrainer::store_sample(std::size_t slot, Lpn lpn) {
  // The ring holds the newest `count` entries; head points past the newest.
  const History& h = history_[lpn];
  const std::uint32_t len = cfg_.history_len;
  const RawFeatures* ring = ring_.data() + lpn * len;
  RawFeatures* dst = sample_steps_.data() + slot * len;
  for (std::uint32_t i = 0; i < h.count; ++i)
    dst[i] = ring[(h.head + len - h.count + i) % len];
  sample_len_[slot] = h.count;
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
    if (sample_lifetime_.size() < cfg_.max_window_samples) {
      store_sample(sample_lifetime_.size(), lpn);
      sample_lifetime_.push_back(lifetime);
    } else {
      // Reservoir sampling keeps the set unbiased.
      const std::uint64_t j = rng_.next_below(samples_seen_);
      if (j < cfg_.max_window_samples) {
        store_sample(static_cast<std::size_t>(j), lpn);
        sample_lifetime_[static_cast<std::size_t>(j)] = lifetime;
      }
    }
  }

  // Append this write's features to the ring.
  const std::uint32_t len = cfg_.history_len;
  ring_[lpn * len + h.head] = raw;
  h.head = static_cast<std::uint8_t>((h.head + 1) % len);
  if (h.count < len) ++h.count;
  h.last_write_time = now;
  ++pages_in_window_;
}

bool ModelTrainer::maybe_train() {
  if (!cfg_.enabled || pages_in_window_ < cfg_.window_pages) return false;
  train_window();
  // Start the next window at the current clock.
  window_start_ = now_ + 1;
  pages_in_window_ = 0;
  sample_lifetime_.clear();
  samples_seen_ = 0;
  ++windows_;
  return true;
}

void ModelTrainer::train_window() {
  const std::size_t n = sample_lifetime_.size();
  last_sample_count_ = n;
  if (n == 0) return;
  // Algorithm 1's fits and the epoch's phases share the host's idle cores
  // (util/team.hpp); holding the team for the whole window keeps its
  // workers ready between them.
  const util::Team::Lease lease;

  // 1. Threshold adjustment (Algorithm 1) on (lifetime, last-step feature)
  //    pairs. The lightweight model consumes the compact monotone encoding
  //    (see features.hpp) so candidate accuracy actually peaks at the knee.
  const std::uint32_t len = cfg_.history_len;
  compact_.resize(n * kCompactDim);
  for (std::size_t i = 0; i < n; ++i)
    encode_features_compact(
        sample_steps_[i * len + sample_len_[i] - 1],
        std::span<float>(compact_.data() + i * kCompactDim, kCompactDim));
  const std::uint64_t threshold = controller_.pick_threshold(
      sample_lifetime_, ml::ConstMatView(compact_.data(), n, kCompactDim));

  // 2. Label sequences and balance classes.
  pos_idx_.clear();
  neg_idx_.clear();
  for (std::size_t i = 0; i < n; ++i)
    (sample_lifetime_[i] <= threshold ? pos_idx_ : neg_idx_).push_back(i);
  if (pos_idx_.empty() || neg_idx_.empty()) return;  // degenerate window

  const std::size_t per_class =
      std::min({cfg_.train_per_class, pos_idx_.size(), neg_idx_.size()});
  if (train_set_.size() < 2 * per_class) train_set_.resize(2 * per_class);
  std::size_t filled = 0;
  auto draw = [&](std::vector<std::size_t>& idx, int label) {
    for (std::size_t k = 0; k < per_class; ++k) {
      const std::size_t j = k + rng_.next_below(idx.size() - k);
      std::swap(idx[k], idx[j]);
      const RawFeatures* steps = sample_steps_.data() + idx[k] * len;
      ml::Sequence& seq = train_set_[filled++];
      seq.label = label;
      const std::size_t seq_len = sample_len_[idx[k]];
      while (seq.steps.size() > seq_len) {
        spare_steps_.push_back(std::move(seq.steps.back()));
        seq.steps.pop_back();
      }
      while (seq.steps.size() < seq_len) {
        if (spare_steps_.empty()) {
          seq.steps.emplace_back(kInputDim);
        } else {
          seq.steps.push_back(std::move(spare_steps_.back()));
          spare_steps_.pop_back();
        }
      }
      for (std::size_t t = 0; t < seq_len; ++t)
        encode_features(steps[t], seq.steps[t]);
    }
  };
  draw(pos_idx_, 1);
  draw(neg_idx_, 0);

  // 3. One epoch of training on the persistent model (paper §III-B).
  model_.train_epoch(std::span(train_set_).first(filled), cfg_.batch_size,
                     rng_);

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
      static_cast<double>(pos_idx_.size()) *
          (static_cast<double>(samples_seen_) /
           std::max<double>(1.0, static_cast<double>(n))) /
          static_cast<double>(pages_in_window_),
      0.02, 0.98);
  deployed_.set_decision_bias(
      kPriorBiasStrength *
      static_cast<float>(std::log(pos_rate / (1.0 - pos_rate))));
  ++trainings_;
}

}  // namespace phftl::core
