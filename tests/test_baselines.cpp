#include <gtest/gtest.h>

#include "baselines/base_ftl.hpp"
#include "baselines/sepbit.hpp"
#include "baselines/two_r.hpp"
#include "helpers.hpp"

namespace phftl {
namespace {

using test::replay_ok;
using test::small_config;
using test::write_ok;

TEST(BaseFtl, SingleStream) {
  BaseFtl ftl(small_config());
  EXPECT_EQ(ftl.layout().num_streams, 1u);
  EXPECT_EQ(ftl.name(), "Base");
}

TEST(TwoRFtl, SeparatesGcWritesFromUserWrites) {
  TwoRFtl ftl(small_config());
  EXPECT_EQ(ftl.layout().num_streams, 2u);
  const Trace trace = test::small_workload(small_config(), 3.0);
  replay_ok(ftl, trace);
  ASSERT_GT(ftl.stats().gc_writes, 0u);

  // After heavy GC, stream-1 superblocks must exist (GC-written data) and
  // pages inside them must carry a GC count > 0.
  bool saw_gc_stream = false;
  ftl.for_each_closed([&](std::uint64_t sb) {
    if (ftl.stream_of(sb) == 1) saw_gc_stream = true;
  });
  EXPECT_TRUE(saw_gc_stream);
}

TEST(SepBitFtl, SixStreams) {
  SepBitFtl ftl(small_config());
  EXPECT_EQ(ftl.layout().num_streams, 6u);
  EXPECT_EQ(ftl.name(), "SepBIT");
}

TEST(SepBitFtl, LifetimeEstimateAdaptsToWorkload) {
  SepBitFtl ftl(small_config());
  const double initial = ftl.lifetime_estimate();
  WriteContext ctx;
  // Rewrite a small hot set thousands of times: observed lifetimes are
  // tiny, so ℓ must fall well below its bootstrap value.
  Xoshiro256 rng(5);
  for (int i = 0; i < 40000; ++i)
    write_ok(ftl, rng.next_below(64), ctx);
  EXPECT_LT(ftl.lifetime_estimate(), initial);
  EXPECT_LT(ftl.lifetime_estimate(), 200.0);
}

TEST(SepBitFtl, HotPagesLandInClassOne) {
  // Probe classification through placement: with a hot loop, user writes
  // should flow into stream 0 (class 1) once ℓ adapts.
  SepBitFtl ftl(small_config());
  WriteContext ctx;
  Xoshiro256 rng(9);
  for (int i = 0; i < 40000; ++i) write_ok(ftl, rng.next_below(64), ctx);
  // The open superblock receiving the most recent hot write is stream 0.
  const Ppn ppn = ftl.lookup(0);
  write_ok(ftl, 0, ctx);
  const Ppn ppn2 = ftl.lookup(0);
  EXPECT_NE(ppn, ppn2);
  EXPECT_EQ(ftl.stream_of(ftl.config().geom.superblock_of(ppn2)), 0u);
}

TEST(SepBitFtl, FirstWriteIsClassTwo) {
  SepBitFtl ftl(small_config());
  WriteContext ctx;
  write_ok(ftl, 100, ctx);
  const Ppn ppn = ftl.lookup(100);
  EXPECT_EQ(ftl.stream_of(ftl.config().geom.superblock_of(ppn)), 1u);
}

TEST(Schemes, SeparationReducesWaOnSkewedWorkload) {
  // The paper's core comparison, in miniature: on a hot/cold workload the
  // data-separating schemes must beat Base, and PHFTL must be competitive
  // with the best rule-based scheme.
  const FtlConfig cfg = small_config();
  const Trace trace = test::small_workload(cfg, 6.0, /*seed=*/123);

  double wa_base = 0, wa_2r = 0, wa_sepbit = 0, wa_phftl = 0;
  {
    BaseFtl ftl(cfg);
    replay_ok(ftl, trace);
    wa_base = ftl.stats().write_amplification();
  }
  {
    TwoRFtl ftl(cfg);
    replay_ok(ftl, trace);
    wa_2r = ftl.stats().write_amplification();
  }
  {
    SepBitFtl ftl(cfg);
    replay_ok(ftl, trace);
    wa_sepbit = ftl.stats().write_amplification();
  }
  {
    core::PhftlConfig pcfg = core::default_phftl_config(cfg);
    core::PhftlFtl ftl(pcfg);
    replay_ok(ftl, trace);
    wa_phftl = ftl.stats().write_amplification();
  }
  EXPECT_GT(wa_base, 0.0);
  EXPECT_LT(wa_2r, wa_base);
  EXPECT_LT(wa_sepbit, wa_base);
  EXPECT_LT(wa_phftl, wa_base);
  // PHFTL should at least approach the rule-based schemes on this small
  // drive (it beats them at realistic scale; see bench_fig5).
  EXPECT_LT(wa_phftl, wa_base * 0.95);
}

}  // namespace
}  // namespace phftl
