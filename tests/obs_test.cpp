// Observability subsystem: span tracer + metrics registry unit behavior,
// Chrome Trace Event export validity (a real JSON parse, not substring
// luck), and an end-to-end check that a tiny simulated run emits round,
// client, and kernel spans plus a parseable per-round JSONL.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "core/registry.h"
#include "fl/federation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace fedclust {
namespace {

// ---------------------------------------------------------- mini JSON parse
// Minimal recursive-descent JSON syntax checker: accepts exactly the JSON
// grammar (values, objects, arrays, strings with escapes, numbers). Enough
// to prove the exported trace and JSONL lines are loadable by a real
// parser without shipping one.

struct JsonCursor {
  const std::string& s;
  std::size_t i = 0;

  bool eof() const { return i >= s.size(); }
  char peek() const { return s[i]; }
  void skip_ws() {
    while (!eof() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool consume(char c) {
    skip_ws();
    if (eof() || s[i] != c) return false;
    ++i;
    return true;
  }
};

bool parse_value(JsonCursor& c);

bool parse_string(JsonCursor& c) {
  if (!c.consume('"')) return false;
  while (!c.eof()) {
    const char ch = c.s[c.i++];
    if (ch == '"') return true;
    if (ch == '\\') {
      if (c.eof()) return false;
      ++c.i;  // escaped char (\uXXXX hex digits parse as plain chars)
    }
  }
  return false;
}

bool parse_number(JsonCursor& c) {
  const std::size_t start = c.i;
  if (!c.eof() && (c.peek() == '-' || c.peek() == '+')) ++c.i;
  bool digits = false;
  while (!c.eof() && (std::isdigit(static_cast<unsigned char>(c.peek())) ||
                      c.peek() == '.' || c.peek() == 'e' ||
                      c.peek() == 'E' || c.peek() == '-' ||
                      c.peek() == '+')) {
    if (std::isdigit(static_cast<unsigned char>(c.peek()))) digits = true;
    ++c.i;
  }
  return digits && c.i > start;
}

bool parse_object(JsonCursor& c) {
  if (!c.consume('{')) return false;
  c.skip_ws();
  if (c.consume('}')) return true;
  for (;;) {
    c.skip_ws();
    if (!parse_string(c)) return false;
    if (!c.consume(':')) return false;
    if (!parse_value(c)) return false;
    if (c.consume(',')) continue;
    return c.consume('}');
  }
}

bool parse_array(JsonCursor& c) {
  if (!c.consume('[')) return false;
  c.skip_ws();
  if (c.consume(']')) return true;
  for (;;) {
    if (!parse_value(c)) return false;
    if (c.consume(',')) continue;
    return c.consume(']');
  }
}

bool parse_literal(JsonCursor& c, const char* lit) {
  const std::size_t n = std::string(lit).size();
  if (c.s.compare(c.i, n, lit) != 0) return false;
  c.i += n;
  return true;
}

bool parse_value(JsonCursor& c) {
  c.skip_ws();
  if (c.eof()) return false;
  switch (c.peek()) {
    case '{':
      return parse_object(c);
    case '[':
      return parse_array(c);
    case '"':
      return parse_string(c);
    case 't':
      return parse_literal(c, "true");
    case 'f':
      return parse_literal(c, "false");
    case 'n':
      return parse_literal(c, "null");
    default:
      return parse_number(c);
  }
}

bool is_valid_json(const std::string& s) {
  JsonCursor c{s};
  if (!parse_value(c)) return false;
  c.skip_ws();
  return c.eof();
}

// ------------------------------------------------------------------ helpers

// Enables tracing/metrics for one test and restores the disabled default.
struct ObsOn {
  ObsOn() {
    obs::SpanTracer::instance().clear();
    obs::SpanTracer::instance().set_enabled(true);
    obs::MetricsRegistry::instance().reset_values();
    obs::MetricsRegistry::instance().set_enabled(true);
  }
  ~ObsOn() {
    obs::SpanTracer::instance().set_enabled(false);
    obs::SpanTracer::instance().clear();
    obs::MetricsRegistry::instance().set_enabled(false);
    obs::MetricsRegistry::instance().close_round_log();
    obs::MetricsRegistry::instance().reset_values();
  }
};

fl::ExperimentConfig tiny_cfg() {
  fl::ExperimentConfig cfg;
  cfg.data_spec = data::dataset_spec("cifar10");
  cfg.fed.n_clients = 6;
  cfg.fed.train_per_client = 8;
  cfg.fed.test_per_client = 4;
  cfg.fed.partition = "dirichlet";
  cfg.fed.dirichlet_alpha = 0.3;
  cfg.model.arch = "lenet5";  // convs so kernel spans (gemm/im2col) fire
  cfg.model.in_channels = 3;
  cfg.model.image_hw = cfg.data_spec.hw;
  cfg.model.num_classes = 10;
  cfg.local.epochs = 1;
  cfg.local.batch_size = 4;
  cfg.local.lr = 0.05f;
  cfg.rounds = 2;
  cfg.sample_fraction = 0.5;
  cfg.seed = 5;
  return cfg;
}

// ----------------------------------------------------------------- tracer

TEST(SpanTracer, DisabledSpansRecordNothingAndSkipTheClock) {
  obs::SpanTracer::instance().clear();
  ASSERT_FALSE(obs::SpanTracer::enabled());
  const std::size_t before = obs::SpanTracer::instance().total_recorded();
  {
    OBS_SPAN("should-not-appear");
    OBS_SPAN_ARG("also-not", 7);
  }
  EXPECT_EQ(obs::SpanTracer::instance().total_recorded(), before);
}

TEST(SpanTracer, RecordsNestedSpansWithArgs) {
  const ObsOn on;
  {
    OBS_SPAN("outer");
    OBS_SPAN_ARG("inner", 42);
  }
  const auto threads = obs::SpanTracer::instance().collect();
  std::size_t outer = 0;
  std::size_t inner = 0;
  for (const auto& t : threads) {
    for (const auto& e : t.events) {
      if (std::string(e.name) == "outer") ++outer;
      if (std::string(e.name) == "inner") {
        ++inner;
        EXPECT_TRUE(e.has_arg);
        EXPECT_EQ(e.arg, 42u);
      }
      EXPECT_GE(e.end_us, e.begin_us);
    }
  }
  EXPECT_EQ(outer, 1u);
  EXPECT_EQ(inner, 1u);
}

TEST(SpanTracer, ChromeTraceJsonIsValidAndNamesThreads) {
  const ObsOn on;
  { OBS_SPAN("alpha"); }
  const std::string json = obs::SpanTracer::instance().chrome_trace_json();
  EXPECT_TRUE(is_valid_json(json)) << json.substr(0, 200);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
}

// ----------------------------------------------------------------- metrics

TEST(Metrics, CounterGaugeHistogramBasics) {
  const ObsOn on;
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("t.counter").add(3);
  reg.counter("t.counter").add(2);
  reg.gauge("t.gauge").set(7);
  reg.gauge("t.gauge").add(-2);
  auto& h = reg.histogram("t.hist", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("t.counter"), 5u);
  std::int64_t gauge_v = -1;
  for (const auto& [n, v] : snap.gauges) {
    if (n == "t.gauge") gauge_v = v;
  }
  EXPECT_EQ(gauge_v, 5);
  const auto hs = snap.histogram_snapshot("t.hist");
  EXPECT_EQ(hs.count, 3u);
  EXPECT_DOUBLE_EQ(hs.sum, 55.5);
  EXPECT_DOUBLE_EQ(hs.min, 0.5);
  EXPECT_DOUBLE_EQ(hs.max, 50.0);
  ASSERT_EQ(hs.counts.size(), 3u);
  EXPECT_EQ(hs.counts[0], 1u);
  EXPECT_EQ(hs.counts[1], 1u);
  EXPECT_EQ(hs.counts[2], 1u);  // overflow bucket
  // Rank 1.5 of 3 lands in the (1, 10] bucket; linear interpolation puts
  // the median halfway through it.
  EXPECT_DOUBLE_EQ(hs.quantile(0.5), 5.5);
}

TEST(Metrics, QuantileInterpolatesKnownDistribution) {
  const ObsOn on;
  // 1..100 into decade buckets: every interpolated quantile is exact.
  obs::Histogram h({10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0,
                    100.0});
  for (int v = 1; v <= 100; ++v) h.observe(static_cast<double>(v));
  const auto hs = h.snapshot();
  EXPECT_DOUBLE_EQ(hs.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(hs.quantile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(hs.quantile(0.99), 99.0);
  // Edges clamp to the observed extremes rather than the bucket bounds.
  EXPECT_DOUBLE_EQ(hs.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(hs.quantile(1.0), 100.0);
}

TEST(Metrics, QuantileOverflowBucketStaysWithinObservedRange) {
  const ObsOn on;
  obs::Histogram h({1.0});
  h.observe(5.0);
  h.observe(7.0);
  // Both observations sit in the overflow bucket, whose only known edge is
  // the observed max; estimates never leave [min, max].
  EXPECT_LE(h.snapshot().quantile(0.5), 7.0);
  EXPECT_GE(h.snapshot().quantile(0.5), 1.0);
}

TEST(Metrics, KindCollisionThrows) {
  const ObsOn on;
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("t.kind");
  EXPECT_THROW(reg.gauge("t.kind"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("t.kind"), std::invalid_argument);
}

TEST(Metrics, SummaryTableListsEveryMetric) {
  const ObsOn on;
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("t.summary_counter").add(9);
  reg.histogram("t.summary_hist").observe(0.02);
  const std::string table = reg.summary_table();
  EXPECT_NE(table.find("t.summary_counter"), std::string::npos);
  EXPECT_NE(table.find("t.summary_hist"), std::string::npos);
  EXPECT_NE(table.find("count=1"), std::string::npos);
}

TEST(Metrics, RoundLogThrowsWithPathOnBadDirectory) {
  const ObsOn on;
  const std::string bad = "/nonexistent-dir-obs/metrics.jsonl";
  try {
    obs::MetricsRegistry::instance().open_round_log(bad);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(bad), std::string::npos);
  }
}

TEST(Metrics, RoundLogEmitsOneValidJsonObjectPerLine) {
  const ObsOn on;
  auto& reg = obs::MetricsRegistry::instance();
  const std::string path = ::testing::TempDir() + "obs_round_log.jsonl";
  reg.open_round_log(path);
  reg.counter("t.jsonl_counter").add(11);
  reg.log_round({{"round", 0.0}, {"acc", 0.5}});
  reg.log_round({{"round", 1.0}, {"acc", 0.625}});
  reg.close_round_log();

  std::ifstream is(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    EXPECT_TRUE(is_valid_json(line)) << line;
    EXPECT_NE(line.find("\"round\""), std::string::npos);
    EXPECT_NE(line.find("\"t.jsonl_counter\":11"), std::string::npos);
  }
  EXPECT_EQ(lines, 2u);
  std::remove(path.c_str());
}

// ----------------------------------------------------- end-to-end sim trace

TEST(ObsEndToEnd, TinyRunEmitsRoundClientAndKernelSpans) {
  const ObsOn on;
  const std::string jsonl = ::testing::TempDir() + "obs_e2e.jsonl";
  obs::MetricsRegistry::instance().open_round_log(jsonl);

  fl::Federation fed(tiny_cfg());
  core::make_algorithm("FedAvg", fed)->run();

  const std::string json = obs::SpanTracer::instance().chrome_trace_json();
  ASSERT_TRUE(is_valid_json(json));

  std::set<std::string> names;
  for (const auto& t : obs::SpanTracer::instance().collect()) {
    for (const auto& e : t.events) names.insert(e.name);
  }
  // Round lifecycle, per-client, and kernel layers must all be present.
  EXPECT_TRUE(names.count("fl.setup"));
  EXPECT_TRUE(names.count("fl.round"));
  EXPECT_TRUE(names.count("fl.eval_sweep"));
  EXPECT_TRUE(names.count("client.train"));
  EXPECT_TRUE(names.count("client.eval"));
  EXPECT_TRUE(names.count("gemm"));
  EXPECT_TRUE(names.count("im2col"));
  EXPECT_TRUE(names.count("conv2d.backward"));
  EXPECT_TRUE(names.count("model.forward"));

  // Comm counters mirror the CommTracker exactly.
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap.counter_value("comm.bytes_up"), fed.comm().bytes_up());
  EXPECT_EQ(snap.counter_value("comm.bytes_down"), fed.comm().bytes_down());
  EXPECT_EQ(snap.counter_value("fl.rounds"), 2u);

  obs::MetricsRegistry::instance().close_round_log();
  std::ifstream is(jsonl);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    EXPECT_TRUE(is_valid_json(line)) << line;
  }
  EXPECT_EQ(lines, 2u);  // eval_every=1, rounds=2
  std::remove(jsonl.c_str());
}

}  // namespace
}  // namespace fedclust
