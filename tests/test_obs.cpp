// Observability layer: registry semantics, histogram bucket edges, trace
// ring wraparound, exporter goldens, and the PHFTL_OBS=OFF stub contract.
//
// The file compiles in both modes: sections that assert on real storage
// are guarded by PHFTL_OBS_ENABLED; the remainder checks that the stub API
// stays callable and the exporters still emit valid output.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/observability.hpp"

namespace phftl::obs {
namespace {

TEST(Metrics, CounterAndGauge) {
  MetricsRegistry m;
  Counter& c = m.counter("a.count", "pages", "help a");
  c.inc();
  c.add(4);
  // The stub accepts a gauge registration too, and drops it.
  m.gauge("a.gauge", [] { return 0.5; }, "ratio");
#if PHFTL_OBS_ENABLED
  EXPECT_EQ(c.value(), 5u);
  ASSERT_NE(m.find_gauge("a.gauge"), nullptr);
  EXPECT_DOUBLE_EQ(m.find_gauge("a.gauge")->value(), 0.5);
  EXPECT_EQ(m.size(), 2u);
#else
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(m.find_gauge("a.gauge"), nullptr);
  EXPECT_EQ(m.size(), 0u);
#endif
}

TEST(Metrics, RegistrationIsIdempotentWithStableReferences) {
  MetricsRegistry m;
  Counter& first = m.counter("x", "u", "h");
  first.inc();
  // Interleave other registrations to force deque growth, then re-register.
  for (int i = 0; i < 100; ++i)
    m.counter("filler." + std::to_string(i)).inc();
  Counter& again = m.counter("x");
  EXPECT_EQ(&first, &again);
#if PHFTL_OBS_ENABLED
  EXPECT_EQ(again.value(), 1u);
  EXPECT_EQ(m.size(), 101u);
  // Lookup resolves by name and respects the type.
  EXPECT_EQ(m.find_counter("x"), &first);
  EXPECT_EQ(m.find_gauge("x"), nullptr);
  EXPECT_EQ(m.find_counter("nope"), nullptr);
  // Entries keep registration order.
  EXPECT_EQ(m.entries().front().name, "x");
  EXPECT_EQ(m.entries().back().name, "filler.99");
#endif
}

TEST(Metrics, CounterViewReadsItsSourceInRegistrationOrder) {
  Observability obs;
  std::uint64_t field = 3;
  obs.metrics().counter("before").inc();
  obs.metrics().counter_view("view", &field, "pages", "a field");
  obs.metrics().counter("after");
  obs.metrics().counter_view("view", &field);  // idempotent, same source
  obs.set_snapshot_cadence(1);
  field = 9;
  obs.tick(1);
#if PHFTL_OBS_ENABLED
  ASSERT_EQ(obs.metrics().size(), 3u);
  EXPECT_EQ(obs.metrics().entries()[1].name, "view");
  EXPECT_EQ(obs.metrics().entries()[1].help, "a field");
  ASSERT_NE(obs.metrics().find_counter("view"), nullptr);
  EXPECT_EQ(obs.metrics().find_counter("view")->value(), 9u);
  EXPECT_DOUBLE_EQ(obs.snapshots().at(0).values.at(1), 9.0);
  field = 11;  // exports read the field at export time
  EXPECT_NE(metrics_to_json(obs).find("\"view\": {\"value\": 11,"),
            std::string::npos);
#else
  EXPECT_EQ(obs.metrics().size(), 0u);
#endif
}

TEST(Metrics, GaugeReadsItsSourceAtEveryRead) {
  Observability obs;
  double level = 0.25;
  obs.metrics().counter("before").inc();
  obs.metrics().gauge("level", [&level] { return level; }, "ratio", "a level");
  obs.set_snapshot_cadence(1);
  obs.tick(1);
  level = 0.5;
  obs.tick(2);
#if PHFTL_OBS_ENABLED
  ASSERT_EQ(obs.snapshots().size(), 2u);
  EXPECT_DOUBLE_EQ(obs.snapshots()[0].values.at(1), 0.25);
  EXPECT_DOUBLE_EQ(obs.snapshots()[1].values.at(1), 0.5);
  level = 0.75;  // a lookup reads the source now
  const Gauge* g = obs.metrics().find_gauge("level");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->value(), 0.75);
  level = 2.0;  // and so does each export
  EXPECT_NE(metrics_to_json(obs).find("\"level\": {\"value\": 2,"),
            std::string::npos);
  level = 3.0;
  EXPECT_NE(metrics_to_csv(obs).find("level,gauge,ratio,value,3\n"),
            std::string::npos);
#else
  EXPECT_TRUE(obs.snapshots().empty());
#endif
}

#if PHFTL_OBS_ENABLED
TEST(MetricsDeath, GaugeNameRegisteredTwiceDies) {
  MetricsRegistry m;
  m.gauge("g", [] { return 1.0; });
  EXPECT_DEATH(m.gauge("g", [] { return 2.0; }),
               "gauge name registered twice");
}
#endif

TEST(Metrics, HistogramBucketEdges) {
  MetricsRegistry m;
  Histogram& h = m.histogram("lat", {10, 20, 40}, "ns");
  // Bucket i counts x <= edge[i] (first matching bucket); above the last
  // edge goes to the overflow bucket.
  h.observe(5);    // <= 10            -> bucket 0
  h.observe(10);   // == 10, inclusive -> bucket 0
  h.observe(11);   // <= 20            -> bucket 1
  h.observe(40);   // == 40, inclusive -> bucket 2
  h.observe(41);   // > 40             -> overflow
#if PHFTL_OBS_ENABLED
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 107.0);
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 41.0);
  EXPECT_DOUBLE_EQ(h.mean(), 107.0 / 5.0);
#else
  EXPECT_EQ(h.count(), 0u);
#endif
}

TEST(Trace, RingWraparoundKeepsNewestEvents) {
  TraceRecorder t;
  // Disabled by default: record() is a no-op.
  t.record(TraceEventType::kFlashProgram, 1);
  EXPECT_EQ(t.total_recorded(), 0u);

  t.enable(4);
  for (std::uint64_t i = 0; i < 10; ++i)
    t.record(TraceEventType::kFlashProgram, i, /*a=*/i);
#if PHFTL_OBS_ENABLED
  EXPECT_TRUE(t.enabled());
  EXPECT_EQ(t.capacity(), 4u);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.total_recorded(), 10u);
  EXPECT_EQ(t.dropped(), 6u);
  // Held events are the newest four, visited oldest -> newest.
  std::vector<std::uint64_t> seen;
  t.for_each([&](const TraceEvent& e) { seen.push_back(e.a); });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{6, 7, 8, 9}));
#else
  EXPECT_FALSE(t.enabled());
  EXPECT_EQ(t.size(), 0u);
#endif
}

TEST(Trace, PartiallyFilledRingInOrder) {
  TraceRecorder t;
  t.enable(8);
  for (std::uint64_t i = 0; i < 3; ++i)
    t.record(TraceEventType::kFlashErase, i, i);
#if PHFTL_OBS_ENABLED
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.dropped(), 0u);
  std::vector<std::uint64_t> seen;
  t.for_each([&](const TraceEvent& e) { seen.push_back(e.a); });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 2}));
#endif
}

TEST(Snapshots, CadenceSampling) {
  Observability obs;
  Counter& c = obs.metrics().counter("writes");
  obs.set_snapshot_cadence(10);
  for (std::uint64_t now = 1; now <= 25; ++now) {
    c.inc();
    obs.tick(now);
  }
#if PHFTL_OBS_ENABLED
  // Samples at the first ticks crossing 10 and 20.
  ASSERT_EQ(obs.snapshots().size(), 2u);
  EXPECT_EQ(obs.snapshots()[0].now, 10u);
  EXPECT_EQ(obs.snapshots()[1].now, 20u);
  EXPECT_DOUBLE_EQ(obs.snapshots()[0].values.at(0), 10.0);
  EXPECT_DOUBLE_EQ(obs.snapshots()[1].values.at(0), 20.0);
#else
  EXPECT_TRUE(obs.snapshots().empty());
#endif
}

#if PHFTL_OBS_ENABLED

TEST(Export, JsonGolden) {
  Observability obs;
  obs.metrics().counter("c1", "pages", "a counter").add(7);
  obs.metrics().gauge("g1", [] { return 0.25; }, "ratio");
  Histogram& h = obs.metrics().histogram("h1", {1, 2}, "ns", "a hist");
  h.observe(1);
  h.observe(5);

  const std::string expected =
      "{\n"
      "  \"phftl_obs\": true,\n"
      "  \"counters\": {\n"
      "    \"c1\": {\"value\": 7, \"unit\": \"pages\", \"help\": \"a "
      "counter\"}\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"g1\": {\"value\": 0.25, \"unit\": \"ratio\", \"help\": \"\"}\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"h1\": {\"unit\": \"ns\", \"help\": \"a hist\", \"data\": "
      "{\"count\": 2, \"sum\": 6, \"min\": 1, \"max\": 5, \"mean\": 3, "
      "\"buckets\": [{\"le\": 1, \"count\": 1}, {\"le\": 2, \"count\": 0}, "
      "{\"le\": \"+inf\", \"count\": 1}]}}\n"
      "  },\n"
      "  \"snapshots\": {\"cadence\": 0, \"columns\": [\"c1\", \"g1\", "
      "\"h1\"], \"rows\": []},\n"
      "  \"trace\": {\"enabled\": false, \"capacity\": 0, \"recorded\": 0, "
      "\"dropped\": 0}\n"
      "}\n";
  EXPECT_EQ(metrics_to_json(obs), expected);
}

TEST(Export, CsvGolden) {
  Observability obs;
  obs.metrics().counter("c1", "pages").add(3);
  Histogram& h = obs.metrics().histogram("h1", {10}, "ns");
  h.observe(4);

  const std::string expected =
      "name,type,unit,field,value\n"
      "c1,counter,pages,value,3\n"
      "h1,histogram,ns,le_10,1\n"
      "h1,histogram,ns,le_+inf,0\n"
      "h1,histogram,ns,count,1\n"
      "h1,histogram,ns,sum,4\n"
      "h1,histogram,ns,min,4\n"
      "h1,histogram,ns,max,4\n";
  EXPECT_EQ(metrics_to_csv(obs), expected);
}

TEST(Export, ChromeTraceEvents) {
  TraceRecorder t;
  t.enable(16);
  t.record(TraceEventType::kGcRoundBegin, 100, /*sb=*/3, /*valid=*/12);
  t.record(TraceEventType::kGcRoundEnd, 100, 3, 12);
  t.record(TraceEventType::kMlPredict, 101, /*lat_ns=*/2500, /*class=*/1);
  t.record(TraceEventType::kSuperblockClose, 102, 7, 40, /*stream=*/2);

  const std::string out = trace_to_chrome_json(t);
  // Lane metadata + one entry per event type recorded.
  EXPECT_NE(out.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"ml_predict\", \"cat\": \"ml\", \"ph\": "
                     "\"X\", \"ts\": 101, \"dur\": 2.5"),
            std::string::npos);
  EXPECT_NE(out.find("\"valid_pages\": 40"), std::string::npos);
}

#else  // stub mode: exporters still emit valid, marked output

TEST(Export, StubJsonStillValid) {
  Observability obs;
  obs.metrics().counter("ignored").inc();
  const std::string out = metrics_to_json(obs);
  EXPECT_NE(out.find("\"phftl_obs\": false"), std::string::npos);
  EXPECT_NE(out.find("\"counters\": {}"), std::string::npos);
  EXPECT_EQ(metrics_to_csv(obs), "name,type,unit,field,value\n");
}

#endif  // PHFTL_OBS_ENABLED

TEST(Export, WriteTextFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "phftl_obs_test.txt";
  ASSERT_TRUE(write_text_file(path, "hello\n"));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[16] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), "hello\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace phftl::obs
