// Tests of the Prometheus text-format exposition (obs/exposition.hpp):
// metric/label name sanitization and escaping, counter/gauge/histogram
// rendering with `_total` / `_bucket` / `_sum` / `_count` semantics,
// bucket cumulativity, per-bucket exemplars, scrapes racing recorders,
// an exact golden scrape of a deterministic registry, and a
// parser-validated scrape of an instrumented end-to-end
// characterize-and-predict run.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/flow.hpp"
#include "obs/exposition.hpp"
#include "runtime/online_predictor.hpp"
#include "trace/functional_trace.hpp"
#include "trace/power_trace.hpp"

namespace psmgen {
namespace {

using common::BitVector;

// ------------------------------------------- validating text-format parser

/// One parsed sample: metric name, raw label block (may be empty), value
/// text. The validator below checks the grammar; tests then assert on
/// the decoded content.
struct PromSample {
  std::string name;
  std::string labels;
  std::string value;
};

struct PromDoc {
  std::map<std::string, std::string> types;  ///< family -> counter/gauge/...
  std::vector<PromSample> samples;
};

bool validMetricName(const std::string& name) {
  if (name.empty()) return false;
  if (name.front() >= '0' && name.front() <= '9') return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) return false;
  }
  return true;
}

/// Validates the label block grammar `{k="v",...}` including value
/// escapes; returns false on any violation.
bool validLabelBlock(const std::string& block) {
  if (block.empty()) return true;
  if (block.front() != '{' || block.back() != '}') return false;
  std::size_t i = 1;
  const std::size_t end = block.size() - 1;
  while (i < end) {
    std::size_t eq = block.find('=', i);
    if (eq == std::string::npos || eq >= end) return false;
    if (!validMetricName(block.substr(i, eq - i))) return false;
    if (eq + 1 >= end || block[eq + 1] != '"') return false;
    std::size_t j = eq + 2;
    while (j < end) {
      if (block[j] == '\\') {
        if (j + 1 >= end) return false;
        const char e = block[j + 1];
        if (e != '\\' && e != '"' && e != 'n') return false;
        j += 2;
      } else if (block[j] == '"') {
        break;
      } else {
        ++j;
      }
    }
    if (j >= end || block[j] != '"') return false;
    i = j + 1;
    if (i < end) {
      if (block[i] != ',') return false;
      ++i;
    }
  }
  return true;
}

/// Parses and validates a whole exposition document. Checks, per the
/// text-format spec: line grammar, name charset, label escaping, TYPE
/// declared once and before the family's samples, histogram bucket
/// cumulativity and `le="+Inf"` == `_count`.
::testing::AssertionResult parsePrometheus(const std::string& text,
                                           PromDoc* doc_out = nullptr) {
  PromDoc doc;
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kind, family;
      ls >> hash >> kind >> family;
      if (kind == "TYPE") {
        std::string type;
        ls >> type;
        if (!validMetricName(family)) {
          return ::testing::AssertionFailure()
                 << "line " << line_no << ": bad family name " << family;
        }
        if (doc.types.count(family)) {
          return ::testing::AssertionFailure()
                 << "line " << line_no << ": duplicate TYPE for " << family;
        }
        doc.types[family] = type;
      } else if (kind != "HELP") {
        return ::testing::AssertionFailure()
               << "line " << line_no << ": unknown comment " << line;
      }
      continue;
    }
    PromSample s;
    std::size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string::npos) {
      return ::testing::AssertionFailure()
             << "line " << line_no << ": no value: " << line;
    }
    s.name = line.substr(0, name_end);
    if (!validMetricName(s.name)) {
      return ::testing::AssertionFailure()
             << "line " << line_no << ": bad metric name " << s.name;
    }
    std::size_t value_start = name_end;
    if (line[name_end] == '{') {
      const std::size_t close = line.find('}', name_end);
      if (close == std::string::npos) {
        return ::testing::AssertionFailure()
               << "line " << line_no << ": unterminated labels: " << line;
      }
      s.labels = line.substr(name_end, close - name_end + 1);
      if (!validLabelBlock(s.labels)) {
        return ::testing::AssertionFailure()
               << "line " << line_no << ": bad label block " << s.labels;
      }
      value_start = close + 1;
    }
    if (value_start >= line.size() || line[value_start] != ' ') {
      return ::testing::AssertionFailure()
             << "line " << line_no << ": missing value separator: " << line;
    }
    s.value = line.substr(value_start + 1);
    char* parse_end = nullptr;
    if (s.value != "+Inf" && s.value != "-Inf" && s.value != "NaN") {
      std::strtod(s.value.c_str(), &parse_end);
      if (parse_end == s.value.c_str() || *parse_end != '\0') {
        return ::testing::AssertionFailure()
               << "line " << line_no << ": unparseable value " << s.value;
      }
    }
    doc.samples.push_back(std::move(s));
  }

  // Histogram semantics: buckets cumulative, +Inf bucket equals _count.
  for (const auto& [family, type] : doc.types) {
    if (type != "histogram") continue;
    double prev = -1.0;
    double inf_count = -1.0;
    double count = -1.0;
    bool saw_sum = false;
    for (const PromSample& s : doc.samples) {
      if (s.name == family + "_bucket") {
        const double v = std::strtod(s.value.c_str(), nullptr);
        if (v + 1e-9 < prev) {
          return ::testing::AssertionFailure()
                 << family << ": bucket counts not cumulative (" << v
                 << " after " << prev << ")";
        }
        prev = v;
        if (s.labels.find("le=\"+Inf\"") != std::string::npos) inf_count = v;
      } else if (s.name == family + "_count") {
        count = std::strtod(s.value.c_str(), nullptr);
      } else if (s.name == family + "_sum") {
        saw_sum = true;
      }
    }
    if (!saw_sum || count < 0 || inf_count < 0) {
      return ::testing::AssertionFailure()
             << family << ": missing _sum/_count/+Inf bucket";
    }
    if (inf_count != count) {
      return ::testing::AssertionFailure()
             << family << ": le=\"+Inf\" bucket " << inf_count
             << " != _count " << count;
    }
  }
  if (doc_out != nullptr) *doc_out = std::move(doc);
  return ::testing::AssertionSuccess();
}

double sampleValue(const PromDoc& doc, const std::string& name) {
  for (const PromSample& s : doc.samples) {
    if (s.name == name) return std::strtod(s.value.c_str(), nullptr);
  }
  ADD_FAILURE() << "no sample named " << name;
  return -1.0;
}

// ------------------------------------------------------------ unit tests

TEST(Exposition, SanitizeMetricName) {
  EXPECT_EQ(obs::sanitizeMetricName("predict.rows"), "predict_rows");
  EXPECT_EQ(obs::sanitizeMetricName("merge.test.welch.accepted"),
            "merge_test_welch_accepted");
  EXPECT_EQ(obs::sanitizeMetricName("weird-name?*"), "weird_name__");
  EXPECT_EQ(obs::sanitizeMetricName("9lives"), "_9lives");
  EXPECT_EQ(obs::sanitizeMetricName(""), "_");
  EXPECT_EQ(obs::sanitizeMetricName("ok:colons_kept"), "ok:colons_kept");
}

TEST(Exposition, EscapeLabelValue) {
  EXPECT_EQ(obs::escapeLabelValue("plain"), "plain");
  EXPECT_EQ(obs::escapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::escapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::escapeLabelValue("a\nb"), "a\\nb");
  EXPECT_EQ(obs::escapeLabelValue("\\\"\n"), "\\\\\\\"\\n");
}

TEST(Exposition, EmptyRegistryRendersEmptyDocument) {
  obs::Registry registry;
  EXPECT_EQ(obs::renderPrometheus(registry), "");
  PromDoc doc;
  ASSERT_TRUE(parsePrometheus("", &doc));
  EXPECT_TRUE(doc.samples.empty());
}

TEST(Exposition, CountersGetTotalSuffixAndTypeLines) {
  obs::Registry registry;
  registry.setEnabled(true);
  registry.counter("predict.rows").add(3);
  registry.gauge("flow.states").set(6.5);
  const std::string text = obs::renderPrometheus(registry);
  PromDoc doc;
  ASSERT_TRUE(parsePrometheus(text, &doc)) << text;
  EXPECT_EQ(doc.types.at("psmgen_predict_rows_total"), "counter");
  EXPECT_EQ(doc.types.at("psmgen_flow_states"), "gauge");
  EXPECT_EQ(sampleValue(doc, "psmgen_predict_rows_total"), 3.0);
  EXPECT_EQ(sampleValue(doc, "psmgen_flow_states"), 6.5);
  // The dotted source name survives in the HELP line.
  EXPECT_NE(text.find("# HELP psmgen_predict_rows_total psmgen registry "
                      "instrument predict.rows"),
            std::string::npos)
      << text;
}

TEST(Exposition, DirtyNamesAndLabelValuesAreEscaped) {
  obs::Registry registry;
  registry.setEnabled(true);
  registry.counter("weird metric-name?").add(1);
  obs::PrometheusOptions options;
  options.const_labels = {{"model path", "a\"b\\c\nd"}};
  const std::string text = obs::renderPrometheus(registry, options);
  PromDoc doc;
  ASSERT_TRUE(parsePrometheus(text, &doc)) << text;
  ASSERT_EQ(doc.samples.size(), 1u);
  EXPECT_EQ(doc.samples[0].name, "psmgen_weird_metric_name__total");
  EXPECT_EQ(doc.samples[0].labels,
            "{model_path=\"a\\\"b\\\\c\\nd\"}");
}

TEST(Exposition, ConstLabelsAttachToEverySampleIncludingBuckets) {
  obs::Registry registry;
  registry.setEnabled(true);
  registry.counter("c").add(1);
  registry.gauge("g").set(2);
  registry.histogram("h").record(1.0);
  obs::PrometheusOptions options;
  options.const_labels = {{"model", "ram.psm"}, {"shard", "3"}};
  const std::string text = obs::renderPrometheus(registry, options);
  PromDoc doc;
  ASSERT_TRUE(parsePrometheus(text, &doc)) << text;
  for (const PromSample& s : doc.samples) {
    EXPECT_NE(s.labels.find("model=\"ram.psm\""), std::string::npos)
        << s.name << s.labels;
    EXPECT_NE(s.labels.find("shard=\"3\""), std::string::npos)
        << s.name << s.labels;
  }
}

TEST(Exposition, HistogramBucketsAreCumulative) {
  obs::Registry registry;
  registry.setEnabled(true);
  obs::Histogram& h = registry.histogram("predict.resync_latency_rows");
  for (const double v : {0.4, 1.0, 3.0, 7.0, 10.0, 20000.0}) h.record(v);
  const std::string text = obs::renderPrometheus(registry);
  PromDoc doc;
  ASSERT_TRUE(parsePrometheus(text, &doc)) << text;

  // Every bound of the fixed ladder, in order, with the cumulative count
  // of samples <= it; +Inf holds all six.
  const std::vector<std::pair<std::string, double>> expected = {
      {"1e-06", 0}, {"2.5e-06", 0}, {"5e-06", 0}, {"1e-05", 0},
      {"2.5e-05", 0}, {"5e-05", 0}, {"0.0001", 0}, {"0.00025", 0},
      {"0.0005", 0}, {"0.001", 0}, {"0.0025", 0}, {"0.005", 0}, {"0.01", 0},
      {"0.025", 0}, {"0.05", 0}, {"0.1", 0}, {"0.25", 0}, {"0.5", 1},
      {"1", 2}, {"2.5", 2}, {"5", 3}, {"10", 5}, {"25", 5}, {"50", 5},
      {"100", 5}, {"250", 5}, {"500", 5}, {"1000", 5}, {"2500", 5},
      {"5000", 5}, {"10000", 5}, {"+Inf", 6}};
  std::size_t bucket_index = 0;
  for (const PromSample& s : doc.samples) {
    if (s.name != "psmgen_predict_resync_latency_rows_bucket") continue;
    ASSERT_LT(bucket_index, expected.size());
    EXPECT_EQ(s.labels, "{le=\"" + expected[bucket_index].first + "\"}");
    EXPECT_EQ(std::strtod(s.value.c_str(), nullptr),
              expected[bucket_index].second)
        << s.labels;
    ++bucket_index;
  }
  EXPECT_EQ(bucket_index, expected.size());
  EXPECT_EQ(sampleValue(doc, "psmgen_predict_resync_latency_rows_count"),
            6.0);
  EXPECT_DOUBLE_EQ(sampleValue(doc, "psmgen_predict_resync_latency_rows_sum"),
                   0.4 + 1.0 + 3.0 + 7.0 + 10.0 + 20000.0);
}

/// Exact golden scrape of a deterministic registry: any formatting change
/// to the exposition (spacing, ordering, suffixes, escaping) must be a
/// deliberate edit of this expected text.
TEST(Exposition, GoldenScrape) {
  obs::Registry registry;
  registry.setEnabled(true);
  registry.counter("predict.rows").add(41);
  registry.gauge("quality.status").set(2);
  registry.histogram("lat.rows").record(0.5);
  registry.histogram("lat.rows").record(8.0);
  obs::PrometheusOptions options;
  options.const_labels = {{"model", "m.psm"}};
  const std::string expected =
      "# HELP psmgen_predict_rows_total psmgen registry instrument "
      "predict.rows\n"
      "# TYPE psmgen_predict_rows_total counter\n"
      "psmgen_predict_rows_total{model=\"m.psm\"} 41\n"
      "# HELP psmgen_quality_status psmgen registry instrument "
      "quality.status\n"
      "# TYPE psmgen_quality_status gauge\n"
      "psmgen_quality_status{model=\"m.psm\"} 2\n"
      "# HELP psmgen_lat_rows psmgen registry instrument lat.rows\n"
      "# TYPE psmgen_lat_rows histogram\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"1e-06\"} 0\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"2.5e-06\"} 0\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"5e-06\"} 0\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"1e-05\"} 0\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"2.5e-05\"} 0\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"5e-05\"} 0\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"0.0001\"} 0\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"0.00025\"} 0\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"0.0005\"} 0\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"0.001\"} 0\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"0.0025\"} 0\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"0.005\"} 0\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"0.01\"} 0\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"0.025\"} 0\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"0.05\"} 0\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"0.1\"} 0\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"0.25\"} 0\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"0.5\"} 1\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"1\"} 1\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"2.5\"} 1\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"5\"} 1\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"10\"} 2\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"25\"} 2\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"50\"} 2\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"100\"} 2\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"250\"} 2\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"500\"} 2\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"1000\"} 2\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"2500\"} 2\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"5000\"} 2\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"10000\"} 2\n"
      "psmgen_lat_rows_bucket{model=\"m.psm\",le=\"+Inf\"} 2\n"
      "psmgen_lat_rows_sum{model=\"m.psm\"} 8.5\n"
      "psmgen_lat_rows_count{model=\"m.psm\"} 2\n";
  EXPECT_EQ(obs::renderPrometheus(registry, options), expected);
}

/// Exemplars: in the OpenMetrics exposition, a histogram record
/// carrying a flight-recorder event id attaches an
/// ` # {event_id="N"} value ts` suffix to its own bucket's line; the
/// classic exposition of the same registry carries none.
TEST(Exposition, ExemplarsAttachToTheMatchingBucket) {
  obs::Registry registry;
  registry.setEnabled(true);
  obs::Histogram& h = registry.histogram("lat.rows");
  h.record(0.5, /*event_id=*/7, /*ts_us=*/1'500'000);
  h.record(8.0, /*event_id=*/9, /*ts_us=*/2'000'000);
  h.record(100.0, /*event_id=*/11, /*ts_us=*/2'250'000);
  h.record(20000.0, /*event_id=*/13, /*ts_us=*/2'500'000);
  h.record(0.25);  // no event id: contributes to counts, not exemplars
  obs::PrometheusOptions options;
  options.openmetrics = true;
  const std::string text = obs::renderPrometheus(registry, options);
  for (const char* line :
       {"psmgen_lat_rows_bucket{le=\"0.25\"} 1\n",
        "psmgen_lat_rows_bucket{le=\"0.5\"} 2 # {event_id=\"7\"} 0.5 1.500\n",
        "psmgen_lat_rows_bucket{le=\"10\"} 3 # {event_id=\"9\"} 8 2.000\n",
        "psmgen_lat_rows_bucket{le=\"100\"} 4 # {event_id=\"11\"} 100 "
        "2.250\n",
        "psmgen_lat_rows_bucket{le=\"+Inf\"} 5 # {event_id=\"13\"} 20000 "
        "2.500\n"}) {
    EXPECT_NE(text.find(line), std::string::npos) << line << text;
  }
  std::size_t exemplar_lines = 0;
  for (std::size_t at = text.find(" # {"); at != std::string::npos;
       at = text.find(" # {", at + 1)) {
    ++exemplar_lines;
  }
  EXPECT_EQ(exemplar_lines, 4u) << text;

  options.openmetrics = false;
  const std::string plain = obs::renderPrometheus(registry, options);
  EXPECT_EQ(plain.find(" # {"), std::string::npos) << plain;
}

/// The classic 0.0.4 exposition must never contain exemplar syntax —
/// standard Prometheus scrapers reject the whole document on the first
/// exemplar suffix.
TEST(Exposition, ClassicExpositionNeverRendersExemplars) {
  obs::Registry registry;
  registry.setEnabled(true);
  registry.histogram("lat.rows").record(0.5, /*event_id=*/7,
                                        /*ts_us=*/1'500'000);
  obs::PrometheusOptions options;  // openmetrics defaults to false
  const std::string text = obs::renderPrometheus(registry, options);
  EXPECT_EQ(text.find(" # {"), std::string::npos) << text;
  EXPECT_EQ(text.find("# EOF"), std::string::npos) << text;
  PromDoc doc;
  ASSERT_TRUE(parsePrometheus(text, &doc)) << text;
}

/// OpenMetrics mode: counter TYPE/HELP lines name the family without
/// the `_total` suffix (the sample keeps it, per the OM counter
/// grammar) and the document ends with the mandatory `# EOF`.
TEST(Exposition, OpenMetricsNamesCounterFamiliesAndTerminates) {
  obs::Registry registry;
  registry.setEnabled(true);
  registry.counter("predict.rows").add(3);
  obs::PrometheusOptions options;
  options.openmetrics = true;
  const std::string text = obs::renderPrometheus(registry, options);
  EXPECT_NE(text.find("# TYPE psmgen_predict_rows counter\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("# TYPE psmgen_predict_rows_total"), std::string::npos)
      << text;
  EXPECT_NE(text.find("psmgen_predict_rows_total 3\n"), std::string::npos)
      << text;
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n") << text;

  // An empty registry still renders a terminated OpenMetrics document.
  obs::Registry empty;
  EXPECT_EQ(obs::renderPrometheus(empty, options), "# EOF\n");
}

TEST(Exposition, AcceptsOpenMetricsMatchesTheScraperHeader) {
  EXPECT_TRUE(obs::acceptsOpenMetrics(
      "application/openmetrics-text;version=1.0.0;q=0.75,text/plain;"
      "version=0.0.4;q=0.5"));
  EXPECT_TRUE(obs::acceptsOpenMetrics("application/openmetrics-text"));
  EXPECT_FALSE(obs::acceptsOpenMetrics("text/plain; version=0.0.4"));
  EXPECT_FALSE(obs::acceptsOpenMetrics("*/*"));
  EXPECT_FALSE(obs::acceptsOpenMetrics(""));
}

/// q-values are honored, not just the presence of the media type: a
/// client can name OpenMetrics and still opt out of it.
TEST(Exposition, AcceptsOpenMetricsHonorsQValues) {
  // q=0 is an explicit opt-out even though the type is named.
  EXPECT_FALSE(obs::acceptsOpenMetrics(
      "application/openmetrics-text;q=0, text/plain"));
  EXPECT_FALSE(obs::acceptsOpenMetrics("application/openmetrics-text;q=0"));
  EXPECT_FALSE(obs::acceptsOpenMetrics(
      "application/openmetrics-text;q=0.0,text/plain;q=0.1"));
  // Classic preferred by weight wins.
  EXPECT_FALSE(obs::acceptsOpenMetrics(
      "application/openmetrics-text;q=0.4, text/plain;q=0.9"));
  EXPECT_FALSE(obs::acceptsOpenMetrics(
      "application/openmetrics-text;q=0.4, */*;q=0.8"));
  // OpenMetrics preferred (or tied) by weight wins.
  EXPECT_TRUE(obs::acceptsOpenMetrics(
      "application/openmetrics-text;q=0.9, text/plain;q=0.4"));
  EXPECT_TRUE(obs::acceptsOpenMetrics(
      "application/openmetrics-text, text/plain"));
  EXPECT_TRUE(obs::acceptsOpenMetrics(
      "text/plain;q=0.5, application/openmetrics-text;q=0.5"));
  // Wildcards never select OpenMetrics on their own, but a wildcard with
  // a lower weight does not veto an explicit OpenMetrics request.
  EXPECT_FALSE(obs::acceptsOpenMetrics("text/*"));
  EXPECT_TRUE(obs::acceptsOpenMetrics(
      "application/openmetrics-text;q=1, */*;q=0.1"));
  // Parameters other than q (version, charset) are ignored; case folds.
  EXPECT_TRUE(obs::acceptsOpenMetrics(
      "Application/OpenMetrics-Text; Version=1.0.0; Q=0.7, text/plain;q=0.3"));
  // Unparsable q falls back to the RFC default of 1.
  EXPECT_TRUE(obs::acceptsOpenMetrics(
      "application/openmetrics-text;q=banana"));
}

/// Exemplar storage is one slot per bucket: any number of exemplars
/// into one bucket keeps only the newest, and no other slot fills.
TEST(Exposition, ExemplarStorageIsBounded) {
  obs::Registry registry;
  registry.setEnabled(true);
  obs::Histogram& h = registry.histogram("lat.rows");
  constexpr std::uint64_t kExemplars = 1000;
  for (std::uint64_t i = 1; i <= kExemplars; ++i) {
    h.record(1.0, /*event_id=*/i, /*ts_us=*/i);
  }
  const auto exemplars = h.exemplars();
  const auto le1 = static_cast<std::size_t>(
      std::find(obs::kHistogramBounds.begin(), obs::kHistogramBounds.end(),
                1.0) -
      obs::kHistogramBounds.begin());
  EXPECT_EQ(exemplars[le1].event_id, kExemplars);
  std::size_t filled = 0;
  for (const obs::Exemplar& e : exemplars) filled += e.event_id != 0 ? 1 : 0;
  EXPECT_EQ(filled, 1u);
}

/// A bucket's newest exemplar survives any number of exemplars landing
/// in other buckets.
TEST(Exposition, NewestExemplarPerBucketSurvivesOtherBuckets) {
  obs::Registry registry;
  registry.setEnabled(true);
  obs::Histogram& h = registry.histogram("lat.rows");
  h.record(0.5, /*event_id=*/1, /*ts_us=*/1'000'000);
  std::uint64_t id = 1;
  for (int i = 0; i < 10000; ++i) {
    h.record(8.0, ++id, /*ts_us=*/2'000'000);
    h.record(20000.0, ++id, /*ts_us=*/3'000'000);
  }
  obs::PrometheusOptions options;
  options.openmetrics = true;
  const std::string text = obs::renderPrometheus(registry, options);
  EXPECT_NE(text.find("psmgen_lat_rows_bucket{le=\"0.5\"} 1 "
                      "# {event_id=\"1\"} 0.5 1.000\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("psmgen_lat_rows_bucket{le=\"10\"} 10001 "
                      "# {event_id=\"" + std::to_string(id - 1) +
                      "\"} 8 2.000\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("psmgen_lat_rows_bucket{le=\"+Inf\"} 20001 "
                      "# {event_id=\"" + std::to_string(id) +
                      "\"} 20000 3.000\n"),
            std::string::npos)
      << text;
}

/// Scrapes racing two recording threads each see one consistent copy of
/// the counts: monotone in `le`, `le="+Inf"` equal to `_count`, and
/// `_count` never going backwards between scrapes.
TEST(Exposition, ScrapesWhileRecordingStayConsistent) {
  obs::Registry registry;
  registry.setEnabled(true);
  obs::Histogram& h = registry.histogram("lat.ms");
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> recorded{0};
  std::vector<std::thread> recorders;
  for (std::uint64_t t = 0; t < 2; ++t) {
    recorders.emplace_back([&, t] {
      std::uint64_t n = 0;
      // Spread samples over many buckets; every 16th carries an exemplar.
      for (; !stop.load(std::memory_order_relaxed) || n < 1000; ++n) {
        const double v = 1e-5 * static_cast<double>(1 + (n * 7919) % 100000);
        h.record(v, /*event_id=*/n % 16 == 0 ? 2 * n + t + 1 : 0,
                 /*ts_us=*/1);
      }
      recorded.fetch_add(n);
    });
  }
  double last_count = 0.0;
  for (int scrape = 0; scrape < 200; ++scrape) {
    const std::string text = obs::renderPrometheus(registry);
    PromDoc doc;
    ASSERT_TRUE(parsePrometheus(text, &doc)) << text;
    const double count = sampleValue(doc, "psmgen_lat_ms_count");
    EXPECT_GE(count, last_count);
    last_count = count;
  }
  stop.store(true);
  for (auto& t : recorders) t.join();
  PromDoc doc;
  ASSERT_TRUE(parsePrometheus(obs::renderPrometheus(registry), &doc));
  EXPECT_EQ(sampleValue(doc, "psmgen_lat_ms_count"),
            static_cast<double>(recorded.load()));
}

// ------------------------------------------- end-to-end scrape validation

trace::VariableSet toyVars() {
  trace::VariableSet vars;
  vars.add("run", 1, trace::VarKind::Input);
  vars.add("data", 8, trace::VarKind::Input);
  vars.add("out", 8, trace::VarKind::Output);
  return vars;
}

void buildToyPair(std::uint64_t seed, std::size_t ops,
                  trace::FunctionalTrace& f, trace::PowerTrace& p) {
  common::Rng rng(seed);
  f = trace::FunctionalTrace(toyVars());
  p = trace::PowerTrace();
  BitVector prev_data(8, 0);
  BitVector data(8, 0);
  for (std::size_t op = 0; op < ops; ++op) {
    const bool busy = op % 2 == 1;
    const std::size_t len = 4 + rng.uniform(8);
    for (std::size_t i = 0; i < len; ++i) {
      if (busy) data = rng.bits(8);
      const unsigned hd = BitVector::hammingDistance(data, prev_data);
      f.append({BitVector(1, busy), data, BitVector(8, busy ? 0xFF : 0)});
      p.append(busy ? 2.0 + 0.5 * hd : 1.0);
      prev_data = data;
    }
  }
}

/// The acceptance-criterion scrape: a real characterize-then-predict run
/// with the registry enabled renders to text the validating parser
/// accepts, with the serving metric families present.
TEST(Exposition, EndToEndScrapeIsParserValid) {
  obs::metrics().setEnabled(true);
  obs::metrics().reset();

  core::FlowConfig cfg;
  cfg.miner.max_toggle_rate = 0.6;
  core::CharacterizationFlow flow(cfg);
  for (std::uint64_t s = 1; s <= 2; ++s) {
    trace::FunctionalTrace f;
    trace::PowerTrace p;
    buildToyPair(s, 40, f, p);
    flow.addTrainingTrace(std::move(f), std::move(p));
  }
  flow.build();
  trace::FunctionalTrace eval;
  trace::PowerTrace eval_power;
  buildToyPair(7, 40, eval, eval_power);
  runtime::OnlinePredictor predictor(flow.psm(), flow.domain());
  predictor.predictTrace(eval);

  const std::string text = obs::renderPrometheus(obs::metrics());
  PromDoc doc;
  ASSERT_TRUE(parsePrometheus(text, &doc)) << text;
  for (const char* family :
       {"psmgen_predict_rows_total", "psmgen_flow_rows_evaluated_total",
        "psmgen_miner_atoms_kept_total", "psmgen_flow_states"}) {
    EXPECT_TRUE(doc.types.count(family)) << family << "\n" << text;
  }
  EXPECT_EQ(doc.types.at("psmgen_predict_resync_latency_rows"), "histogram");
  EXPECT_EQ(sampleValue(doc, "psmgen_predict_rows_total"),
            static_cast<double>(eval.length()));
  obs::metrics().setEnabled(false);
}

}  // namespace
}  // namespace psmgen
