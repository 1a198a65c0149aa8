#include <gtest/gtest.h>

#include "core/trainer.hpp"
#include "util/rng.hpp"

namespace phftl::core {
namespace {

ModelTrainer::Config trainer_cfg(std::uint64_t window = 200,
                                 std::uint32_t history = 8) {
  ModelTrainer::Config cfg;
  cfg.logical_pages = 512;
  cfg.window_pages = window;
  cfg.history_len = history;
  cfg.train_per_class = 64;
  cfg.seed = 11;
  return cfg;
}

RawFeatures feat(std::uint32_t lifetime) {
  RawFeatures f;
  f.prev_lifetime = lifetime;
  return f;
}

/// Drive a hot/cold write pattern: hot pages 0..15 rewritten every ~32
/// pages, cold pages rewritten rarely.
void drive_pattern(ModelTrainer& trainer, std::uint64_t& clock,
                   std::uint64_t total_writes, Xoshiro256& rng) {
  for (std::uint64_t i = 0; i < total_writes; ++i) {
    Lpn lpn;
    std::uint32_t lifetime;
    if (rng.next_bool(0.7)) {
      lpn = rng.next_below(16);  // hot
      lifetime = 20 + static_cast<std::uint32_t>(rng.next_below(20));
    } else {
      lpn = 16 + rng.next_below(496);  // cold
      lifetime = 2000 + static_cast<std::uint32_t>(rng.next_below(2000));
    }
    trainer.observe_page_write(lpn, feat(lifetime), clock++);
    trainer.maybe_train();
  }
}

TEST(ModelTrainerDeathTest, ZeroBatchSizeIsRejected) {
  auto cfg = trainer_cfg();
  cfg.batch_size = 0;
  EXPECT_DEATH(ModelTrainer{cfg}, "batch_size");
}

TEST(ModelTrainer, NoDeploymentBeforeFirstWindow) {
  ModelTrainer trainer(trainer_cfg());
  EXPECT_FALSE(trainer.model_deployed());
  EXPECT_EQ(trainer.threshold(), -1);
  std::uint64_t clock = 0;
  for (int i = 0; i < 100; ++i)
    trainer.observe_page_write(i % 16, feat(10), clock++);
  EXPECT_FALSE(trainer.maybe_train());
  EXPECT_FALSE(trainer.model_deployed());
}

TEST(ModelTrainer, DeploysAfterWindowWithRewrites) {
  ModelTrainer trainer(trainer_cfg());
  std::uint64_t clock = 0;
  Xoshiro256 rng(3);
  drive_pattern(trainer, clock, 1200, rng);
  EXPECT_GT(trainer.windows_completed(), 0u);
  EXPECT_GT(trainer.trainings_run(), 0u);
  EXPECT_TRUE(trainer.model_deployed());
  EXPECT_GT(trainer.threshold(), 0);
}

TEST(ModelTrainer, WindowBoundaryCountsPagesNotRequests) {
  ModelTrainer trainer(trainer_cfg(/*window=*/100));
  std::uint64_t clock = 0;
  for (int i = 0; i < 99; ++i)
    trainer.observe_page_write(i % 8, feat(8), clock++);
  EXPECT_FALSE(trainer.maybe_train());
  trainer.observe_page_write(0, feat(8), clock++);
  EXPECT_TRUE(trainer.maybe_train());
  EXPECT_EQ(trainer.windows_completed(), 1u);
}

TEST(ModelTrainer, LearnsHotColdSeparation) {
  // After several windows on a strongly bimodal workload, the deployed
  // model must classify by prev_lifetime.
  ModelTrainer trainer(trainer_cfg(/*window=*/400));
  std::uint64_t clock = 0;
  Xoshiro256 rng(7);
  drive_pattern(trainer, clock, 6000, rng);
  ASSERT_TRUE(trainer.model_deployed());

  const auto& model = trainer.deployed_model();
  int correct = 0;
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    const bool hot = i % 2 == 0;
    std::vector<std::vector<float>> seq;
    for (int t = 0; t < 4; ++t)
      seq.push_back(encode_features(feat(hot ? 25 : 3000)));
    const int pred = model.predict_sequence(seq);
    if (pred == (hot ? 1 : 0)) ++correct;
  }
  EXPECT_GT(correct, 85);
}

TEST(ModelTrainer, ThresholdSitsBetweenModes) {
  ModelTrainer trainer(trainer_cfg(/*window=*/400));
  std::uint64_t clock = 0;
  Xoshiro256 rng(13);
  drive_pattern(trainer, clock, 4000, rng);
  // Hot lifetimes ~20..40, cold ~2000..4000.
  EXPECT_GT(trainer.threshold(), 15);
  EXPECT_LT(trainer.threshold(), 2500);
}

TEST(ModelTrainer, HistoryLenOneStillTrains) {
  // The §V-C ablation config: sequences truncated to the latest step.
  ModelTrainer trainer(trainer_cfg(400, /*history=*/1));
  std::uint64_t clock = 0;
  Xoshiro256 rng(17);
  drive_pattern(trainer, clock, 3000, rng);
  EXPECT_TRUE(trainer.model_deployed());
}

TEST(ModelTrainer, DisabledTrainerNeverDeploys) {
  auto cfg = trainer_cfg();
  cfg.enabled = false;
  ModelTrainer trainer(cfg);
  std::uint64_t clock = 0;
  Xoshiro256 rng(19);
  drive_pattern(trainer, clock, 2000, rng);
  EXPECT_FALSE(trainer.model_deployed());
  EXPECT_EQ(trainer.windows_completed(), 0u);
}

TEST(ModelTrainer, ReservoirBoundsSampleMemory) {
  auto cfg = trainer_cfg(/*window=*/5000);
  cfg.max_window_samples = 128;
  ModelTrainer trainer(cfg);
  std::uint64_t clock = 0;
  // 4999 writes, all rewrites of 8 hot pages → thousands of samples seen.
  for (int i = 0; i < 4999; ++i) {
    trainer.observe_page_write(i % 8, feat(8), clock++);
    trainer.maybe_train();
  }
  // The window hasn't closed; sample count must respect the cap.
  EXPECT_EQ(trainer.windows_completed(), 0u);
  trainer.observe_page_write(0, feat(8), clock++);
  trainer.maybe_train();
  EXPECT_EQ(trainer.windows_completed(), 1u);
  EXPECT_LE(trainer.last_window_sample_count(), 128u);
}

}  // namespace
}  // namespace phftl::core
