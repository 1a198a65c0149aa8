#include <gtest/gtest.h>

#include <sstream>

#include "trace/alibaba_suite.hpp"
#include "trace/csv.hpp"
#include "trace/generator.hpp"
#include "trace/trace.hpp"

namespace phftl {
namespace {

WorkloadParams tiny_params() {
  WorkloadParams p;
  p.logical_pages = 2048;
  p.total_write_pages = 8192;
  p.seed = 3;
  return p;
}

TEST(Generator, ProducesExactWriteVolume) {
  const Trace t = generate_workload(tiny_params());
  EXPECT_EQ(t.total_write_pages(), 8192u);
  EXPECT_EQ(t.logical_pages, 2048u);
}

TEST(Generator, DeterministicForSeed) {
  const Trace a = generate_workload(tiny_params());
  const Trace b = generate_workload(tiny_params());
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].start_lpn, b.ops[i].start_lpn);
    EXPECT_EQ(a.ops[i].num_pages, b.ops[i].num_pages);
    EXPECT_EQ(a.ops[i].timestamp_us, b.ops[i].timestamp_us);
  }
}

TEST(Generator, SeedChangesTrace) {
  WorkloadParams p = tiny_params();
  const Trace a = generate_workload(p);
  p.seed = 4;
  const Trace b = generate_workload(p);
  bool differs = a.ops.size() != b.ops.size();
  for (std::size_t i = 0; !differs && i < a.ops.size(); ++i)
    differs = a.ops[i].start_lpn != b.ops[i].start_lpn;
  EXPECT_TRUE(differs);
}

TEST(Generator, RequestsStayInBounds) {
  WorkloadParams p = tiny_params();
  p.sequential_fraction = 0.4;
  p.read_request_fraction = 0.3;
  p.noise_fraction = 0.2;
  const Trace t = generate_workload(p);
  for (const auto& r : t.ops) {
    EXPECT_GT(r.num_pages, 0u);
    EXPECT_LE(r.start_lpn + r.num_pages, p.logical_pages);
  }
}

TEST(Generator, ReadFractionApproximatelyHonoured) {
  WorkloadParams p = tiny_params();
  p.read_request_fraction = 0.3;
  const Trace t = generate_workload(p);
  std::size_t reads = 0;
  for (const auto& r : t.ops)
    if (r.op == OpType::kRead) ++reads;
  const double frac = static_cast<double>(reads) / t.ops.size();
  EXPECT_NEAR(frac, 0.3, 0.05);
}

TEST(Generator, SkewConcentratesWrites) {
  WorkloadParams p = tiny_params();
  p.hot_region_fraction = 0.05;
  p.hot_traffic_fraction = 0.75;
  p.warm_region_fraction = 0.15;
  p.warm_traffic_fraction = 0.15;
  const Trace t = generate_workload(p);
  // Count distinct pages written; with heavy skew, the working set is much
  // smaller than total write volume.
  std::vector<bool> touched(p.logical_pages, false);
  std::uint64_t distinct = 0;
  for (const auto& r : t.ops) {
    if (r.op != OpType::kWrite) continue;
    for (std::uint32_t i = 0; i < r.num_pages; ++i) {
      if (!touched[r.start_lpn + i]) {
        touched[r.start_lpn + i] = true;
        ++distinct;
      }
    }
  }
  EXPECT_LT(distinct, t.total_write_pages() / 3);
}

TEST(Generator, TimestampsAreMonotone) {
  const Trace t = generate_workload(tiny_params());
  for (std::size_t i = 1; i < t.ops.size(); ++i)
    EXPECT_GE(t.ops[i].timestamp_us, t.ops[i - 1].timestamp_us);
}

TEST(AnnotateLifetimes, HandComputedExample) {
  Trace t;
  t.logical_pages = 10;
  auto w = [](Lpn lpn, std::uint32_t n = 1) {
    HostRequest r;
    r.op = OpType::kWrite;
    r.start_lpn = lpn;
    r.num_pages = n;
    return r;
  };
  // Page-write sequence (virtual clock): 5, 7, 5, 7, 9
  t.ops = {w(5), w(7), w(5), w(7), w(9)};
  const auto lt = annotate_lifetimes(t);
  ASSERT_EQ(lt.size(), 5u);
  EXPECT_EQ(lt[0], 2u);  // 5 rewritten at clock 2
  EXPECT_EQ(lt[1], 2u);  // 7 rewritten at clock 3
  EXPECT_EQ(lt[2], kInfiniteLifetime);
  EXPECT_EQ(lt[3], kInfiniteLifetime);
  EXPECT_EQ(lt[4], kInfiniteLifetime);
}

TEST(AnnotateLifetimes, MultiPageRequestsCountPerPage) {
  Trace t;
  t.logical_pages = 10;
  HostRequest r;
  r.op = OpType::kWrite;
  r.start_lpn = 0;
  r.num_pages = 3;  // clock 0,1,2
  t.ops = {r, r};   // rewritten at clock 3,4,5
  const auto lt = annotate_lifetimes(t);
  ASSERT_EQ(lt.size(), 6u);
  EXPECT_EQ(lt[0], 3u);
  EXPECT_EQ(lt[1], 3u);
  EXPECT_EQ(lt[2], 3u);
}

TEST(LifetimeCdfSamples, SortedAndBounded) {
  const Trace t = generate_workload(tiny_params());
  const auto cdf = lifetime_cdf_samples(t, 500);
  EXPECT_LE(cdf.size(), 500u);
  EXPECT_FALSE(cdf.empty());
  for (std::size_t i = 1; i < cdf.size(); ++i)
    EXPECT_GE(cdf[i], cdf[i - 1]);
  for (const auto v : cdf) EXPECT_NE(v, kInfiniteLifetime);
}

TEST(Csv, RoundTrip) {
  const Trace t = generate_workload(tiny_params());
  std::stringstream ss;
  write_trace_csv(t, ss);
  const Trace back = read_trace_csv(ss, t.logical_pages, t.name);
  ASSERT_EQ(back.ops.size(), t.ops.size());
  for (std::size_t i = 0; i < t.ops.size(); ++i) {
    EXPECT_EQ(back.ops[i].timestamp_us, t.ops[i].timestamp_us);
    EXPECT_EQ(back.ops[i].op, t.ops[i].op);
    EXPECT_EQ(back.ops[i].start_lpn, t.ops[i].start_lpn);
    EXPECT_EQ(back.ops[i].num_pages, t.ops[i].num_pages);
  }
}

TEST(Csv, RejectsMalformedInput) {
  std::stringstream empty;
  EXPECT_THROW(read_trace_csv(empty, 100, "x"), std::runtime_error);

  std::stringstream no_header("1,W,0,1\n");
  EXPECT_THROW(read_trace_csv(no_header, 100, "x"), std::runtime_error);

  std::stringstream bad_op("timestamp_us,op,lpn,num_pages\n1,X,0,1\n");
  EXPECT_THROW(read_trace_csv(bad_op, 100, "x"), std::runtime_error);

  std::stringstream out_of_range(
      "timestamp_us,op,lpn,num_pages\n1,W,99,5\n");
  EXPECT_THROW(read_trace_csv(out_of_range, 100, "x"), std::runtime_error);

  std::stringstream bad_num("timestamp_us,op,lpn,num_pages\n1,W,abc,1\n");
  EXPECT_THROW(read_trace_csv(bad_num, 100, "x"), std::runtime_error);

  // start + count would wrap past 2^64 back into range.
  std::stringstream wraps(
      "timestamp_us,op,lpn,num_pages\n1,W,18446744073709551615,2\n");
  EXPECT_THROW(read_trace_csv(wraps, 100, "x"), std::runtime_error);

  // A count beyond 32 bits must not truncate to a small one.
  std::stringstream truncates(
      "timestamp_us,op,lpn,num_pages\n1,W,0,4294967297\n");
  EXPECT_THROW(read_trace_csv(truncates, 100, "x"), std::runtime_error);

  // Numbers are all decimal digits: no sign (a -1 timestamp must not wrap
  // to 2^64 - 1), no space, no trailing junk, nothing past 64 bits; and a
  // line has exactly four fields.
  const char* bad_lines[] = {"-1,W,3,1",   "+1,W,3,1",  " 1,W,3,1",
                             "12abc,W,3,1", "1,W,3x,1", "1,W,3,1 ",
                             "1,W,,1",      "1,W,3,1,9", "1,W,3,1,",
                             "18446744073709551616,W,3,1"};
  for (const char* bad : bad_lines) {
    std::stringstream ss(std::string("timestamp_us,op,lpn,num_pages\n"
                                     "0,W,0,1\n") +
                         bad + "\n");
    try {
      read_trace_csv(ss, 100, "x");
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("on line 3"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Csv, LoadsCrlfLines) {
  std::stringstream ss(
      "timestamp_us,op,lpn,num_pages\r\n1,W,3,1\r\n\r\n2,R,4,2\r\n");
  const Trace t = read_trace_csv(ss, 100, "x");
  ASSERT_EQ(t.ops.size(), 2u);
  EXPECT_EQ(t.ops[0].timestamp_us, 1u);
  EXPECT_EQ(t.ops[0].op, OpType::kWrite);
  EXPECT_EQ(t.ops[0].start_lpn, 3u);
  EXPECT_EQ(t.ops[0].num_pages, 1u);
  EXPECT_EQ(t.ops[1].timestamp_us, 2u);
  EXPECT_EQ(t.ops[1].op, OpType::kRead);
  EXPECT_EQ(t.ops[1].num_pages, 2u);
}

TEST(AlibabaSuite, TwentyTracesWithPaperIds) {
  const auto& suite = alibaba_suite();
  ASSERT_EQ(suite.size(), 20u);
  EXPECT_EQ(suite.front().id, "#52");
  EXPECT_EQ(suite.back().id, "#679");
  // Size classes follow the paper's Fig. 5 grouping.
  int n500 = 0, n100 = 0, n50 = 0, n40 = 0;
  for (const auto& s : suite) {
    if (s.size_label == "500GB") ++n500;
    if (s.size_label == "100GB") ++n100;
    if (s.size_label == "50GB") ++n50;
    if (s.size_label == "40GB") ++n40;
  }
  EXPECT_EQ(n500, 7);
  EXPECT_EQ(n100, 5);
  EXPECT_EQ(n50, 3);
  EXPECT_EQ(n40, 5);
}

TEST(AlibabaSuite, LookupById) {
  EXPECT_EQ(suite_spec("#144").size_label, "500GB");
  EXPECT_THROW(suite_spec("#999"), std::runtime_error);
}

TEST(AlibabaSuite, GcTriggerSatisfiableOnAllSizeClasses) {
  for (const auto& s : alibaba_suite()) {
    const FtlConfig cfg = suite_ftl_config(s);
    const double op_sbs =
        static_cast<double>(cfg.geom.num_superblocks()) * cfg.op_ratio;
    const double trigger =
        static_cast<double>(cfg.geom.num_superblocks()) *
        FtlBase::kGcFreeThreshold;
    EXPECT_GT(op_sbs, trigger) << s.id;
  }
}

TEST(AlibabaSuite, TraceSizedToDriveWrites) {
  const auto& spec = suite_spec("#38");
  const Trace t = make_suite_trace(spec, 1.5);
  const FtlConfig cfg = suite_ftl_config(spec);
  const auto logical = static_cast<std::uint64_t>(
      static_cast<double>(cfg.geom.total_pages()) * (1.0 - cfg.op_ratio));
  EXPECT_EQ(t.logical_pages, logical);
  EXPECT_NEAR(static_cast<double>(t.total_write_pages()),
              static_cast<double>(logical) * 1.5, 64.0);
}

TEST(AlibabaSuite, DriveWritesEnvOverride) {
  unsetenv("PHFTL_DRIVE_WRITES");
  EXPECT_DOUBLE_EQ(drive_writes_from_env(8.0), 8.0);
  setenv("PHFTL_DRIVE_WRITES", "", 1);
  EXPECT_DOUBLE_EQ(drive_writes_from_env(8.0), 8.0);
  setenv("PHFTL_DRIVE_WRITES", "2.5", 1);
  EXPECT_DOUBLE_EQ(drive_writes_from_env(8.0), 2.5);
  setenv("PHFTL_DRIVE_WRITES", "garbage", 1);
  EXPECT_EXIT(drive_writes_from_env(8.0), ::testing::ExitedWithCode(2),
              "'garbage' for PHFTL_DRIVE_WRITES");
  unsetenv("PHFTL_DRIVE_WRITES");
}

}  // namespace
}  // namespace phftl
