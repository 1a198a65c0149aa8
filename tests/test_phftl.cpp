#include <gtest/gtest.h>

#include "core/phftl.hpp"
#include "helpers.hpp"

namespace phftl::core {
namespace {

using test::replay_ok;
using test::small_config;
using test::write_ok;

PhftlConfig small_phftl_config() {
  return default_phftl_config(small_config());
}

TEST(PhftlFtl, StreamLayout) {
  PhftlFtl ftl(small_phftl_config());
  EXPECT_EQ(ftl.layout().num_streams, 7u);
  EXPECT_EQ(ftl.name(), "PHFTL");
}

TEST(PhftlFtl, MetaPagesReduceDataCapacityAndAreProgrammed) {
  PhftlFtl ftl(small_phftl_config());
  const Trace trace = test::small_workload(small_config(), 2.0);
  replay_ok(ftl, trace);
  EXPECT_GT(ftl.stats().meta_writes, 0u);
  // Meta writes come in whole superblock tails.
  EXPECT_EQ(ftl.stats().meta_writes %
                ftl.meta_store().meta_pages_per_superblock(),
            0u);
}

TEST(PhftlFtl, PredictionsBeginAfterFirstDeployment) {
  PhftlFtl ftl(small_phftl_config());
  WriteContext ctx;
  // Before any window completes, no predictions.
  for (int i = 0; i < 50; ++i) write_ok(ftl, i, ctx);
  EXPECT_EQ(ftl.predictions_made(), 0u);

  const Trace trace = test::small_workload(small_config(), 3.0);
  replay_ok(ftl, trace);
  EXPECT_GT(ftl.trainer().windows_completed(), 0u);
  EXPECT_GT(ftl.predictions_made(), 0u);
}

TEST(PhftlFtl, ClassifierMetricsPopulatedAndSane) {
  PhftlFtl ftl(small_phftl_config());
  const Trace trace = test::small_workload(small_config(), 5.0);
  replay_ok(ftl, trace);
  ftl.finalize_evaluation();
  const auto& cm = ftl.classifier_metrics();
  ASSERT_GT(cm.total(), 0u);
  EXPECT_EQ(cm.total(), ftl.predictions_made());
  // On a cleanly bimodal workload the model must beat coin flipping.
  EXPECT_GT(cm.accuracy(), 0.6);
}

TEST(PhftlFtl, FinalizeEvaluationResolvesAllPending) {
  PhftlFtl ftl(small_phftl_config());
  const Trace trace = test::small_workload(small_config(), 3.0);
  replay_ok(ftl, trace);
  ftl.finalize_evaluation();
  const auto t1 = ftl.classifier_metrics().total();
  ftl.finalize_evaluation();  // idempotent
  EXPECT_EQ(ftl.classifier_metrics().total(), t1);
}

TEST(PhftlFtl, MetadataCacheServesRetrievals) {
  PhftlFtl ftl(small_phftl_config());
  const Trace trace = test::small_workload(small_config(), 4.0);
  replay_ok(ftl, trace);
  const auto& meta = ftl.meta_store();
  EXPECT_GT(meta.cache_hits() + meta.cache_misses() + meta.buffer_hits(), 0u);
  // Meta reads in stats must equal cache misses (each miss = 1 flash read).
  EXPECT_EQ(ftl.stats().meta_reads, meta.cache_misses());
}

TEST(PhftlFtl, ShortAndLongStreamsBothUsed) {
  PhftlFtl ftl(small_phftl_config());
  const Trace trace = test::small_workload(small_config(), 5.0);
  replay_ok(ftl, trace);
  ASSERT_GT(ftl.predictions_made(), 0u);
  EXPECT_GT(ftl.short_predictions(), 0u);
  EXPECT_LT(ftl.short_predictions(), ftl.predictions_made());
}

TEST(PhftlFtl, GcCountStreamsSeparateColdData) {
  PhftlFtl ftl(small_phftl_config());
  const Trace trace = test::small_workload(small_config(), 12.0);
  replay_ok(ftl, trace);
  // Multi-GC'd pages must exist and carry bounded counts.
  bool saw_gc2plus = false;
  const auto& geom = ftl.config().geom;
  for (Ppn ppn = 0; ppn < geom.total_pages(); ++ppn) {
    if (!ftl.page_valid(ppn)) continue;
    EXPECT_LE(ftl.page_gc_count(ppn), 5);
    if (ftl.page_gc_count(ppn) >= 2) saw_gc2plus = true;
  }
  EXPECT_TRUE(saw_gc2plus);
}

TEST(PhftlFtl, ThresholdIsLiveDuringRun) {
  PhftlFtl ftl(small_phftl_config());
  const Trace trace = test::small_workload(small_config(), 4.0);
  replay_ok(ftl, trace);
  EXPECT_GT(ftl.threshold(), 0);
  EXPECT_LT(static_cast<std::uint64_t>(ftl.threshold()),
            ftl.logical_pages() * 4);
}

TEST(PhftlFtl, GcPolicyAblationConfigsRun) {
  for (const auto policy :
       {PhftlConfig::GcPolicy::kAdjustedGreedy, PhftlConfig::GcPolicy::kGreedy,
        PhftlConfig::GcPolicy::kCostBenefit}) {
    PhftlConfig cfg = small_phftl_config();
    cfg.gc_policy = policy;
    PhftlFtl ftl(cfg);
    const Trace trace = test::small_workload(small_config(), 2.0);
    replay_ok(ftl, trace);
    EXPECT_GT(ftl.stats().gc_invocations, 0u);
  }
}

TEST(PhftlFtl, DisabledTrainerDegradesGracefully) {
  PhftlConfig cfg = small_phftl_config();
  cfg.trainer.enabled = false;
  PhftlFtl ftl(cfg);
  const Trace trace = test::small_workload(small_config(), 3.0);
  replay_ok(ftl, trace);
  EXPECT_EQ(ftl.predictions_made(), 0u);
  EXPECT_GT(ftl.stats().gc_invocations, 0u);  // GC separation still works
}

TEST(PhftlFtl, SequenceAblationConfigRuns) {
  PhftlConfig cfg = small_phftl_config();
  cfg.trainer.history_len = 1;  // §V-C truncation ablation
  PhftlFtl ftl(cfg);
  const Trace trace = test::small_workload(small_config(), 4.0);
  replay_ok(ftl, trace);
  ftl.finalize_evaluation();
  EXPECT_GT(ftl.classifier_metrics().total(), 0u);
}

}  // namespace
}  // namespace phftl::core
