// Tests for the observability layer (src/obs): histogram bucket/percentile
// behaviour, counter atomicity under thread hammering, span nesting, Chrome
// trace JSON well-formedness (parsed back with a minimal JSON reader), and
// the zero-event path when tracing is disabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/clock.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace decam::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser, just enough to re-read the Chrome
// trace export and prove it is well-formed.

struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> members;

  const JsonValue& at(const std::string& key) const {
    const auto found = members.find(key);
    if (found == members.end()) {
      throw std::runtime_error("missing key: " + key);
    }
    return found->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) throw std::runtime_error("trailing JSON data");
    return value;
  }

 private:
  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected JSON end");
    return text_[pos_];
  }

  void expect(char ch) {
    if (peek() != ch) {
      throw std::runtime_error(std::string("expected '") + ch + "'");
    }
    ++pos_;
  }

  JsonValue parse_value() {
    const char ch = peek();
    if (ch == '{') return parse_object();
    if (ch == '[') return parse_array();
    if (ch == '"') {
      JsonValue value;
      value.type = JsonValue::Type::String;
      value.text = parse_string();
      return value;
    }
    if (ch == 't' || ch == 'f') return parse_literal(ch == 't');
    if (ch == 'n') {
      consume_word("null");
      return JsonValue{};
    }
    return parse_number();
  }

  JsonValue parse_object() {
    JsonValue value;
    value.type = JsonValue::Type::Object;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      const std::string key = parse_string();
      expect(':');
      value.members.emplace(key, parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return value;
    }
  }

  JsonValue parse_array() {
    JsonValue value;
    value.type = JsonValue::Type::Array;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.items.push_back(parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return value;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char ch = text_[pos_++];
      if (ch != '\\') {
        out += ch;
        continue;
      }
      if (pos_ >= text_.size()) throw std::runtime_error("bad escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) throw std::runtime_error("bad \\u");
          const unsigned code = static_cast<unsigned>(
              std::stoul(std::string(text_.substr(pos_, 4)), nullptr, 16));
          pos_ += 4;
          out += static_cast<char>(code);  // control chars only in our data
          break;
        }
        default: throw std::runtime_error("unknown escape");
      }
    }
    if (pos_ >= text_.size()) throw std::runtime_error("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (start == pos_) throw std::runtime_error("bad number");
    JsonValue value;
    value.type = JsonValue::Type::Number;
    value.number = std::stod(std::string(text_.substr(start, pos_ - start)));
    return value;
  }

  JsonValue parse_literal(bool truthy) {
    consume_word(truthy ? "true" : "false");
    JsonValue value;
    value.type = JsonValue::Type::Bool;
    value.boolean = truthy;
    return value;
  }

  void consume_word(std::string_view word) {
    skip_whitespace();
    if (text_.substr(pos_, word.size()) != word) {
      throw std::runtime_error("bad literal");
    }
    pos_ += word.size();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// Restores the tracing gate and empties the buffer around each test so the
// tests compose regardless of execution order or the DECAM_TRACE env var.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_tracing_enabled(false);
    TraceBuffer::instance().clear();
  }
  void TearDown() override {
    set_tracing_enabled(false);
    TraceBuffer::instance().clear();
  }
};

void busy_wait_us(double duration_us) {
  const double until = now_us() + duration_us;
  while (now_us() < until) {
  }
}

// ---------------------------------------------------------------------------
// Histogram

TEST_F(ObsTest, HistogramBucketBoundsAreMonotone) {
  double previous = 0.0;
  for (int i = 0; i < Histogram::kBucketCount; ++i) {
    const double upper = Histogram::bucket_upper_ms(i);
    EXPECT_GT(upper, previous);
    previous = upper;
  }
  // Samples land in the bucket whose bounds bracket them (boundary values
  // may land on either side of the floating-point log).
  for (const double ms : {0.0005, 0.002, 0.5, 1.0, 17.0, 200.0, 5000.0}) {
    const int index = Histogram::bucket_index(ms);
    EXPECT_LE(ms, Histogram::bucket_upper_ms(index));
    if (index > 0) {
      EXPECT_GE(ms, Histogram::bucket_upper_ms(index - 1));
    }
  }
  // Out-of-range values clamp instead of overflowing.
  EXPECT_EQ(Histogram::bucket_index(-3.0), 0);
  EXPECT_EQ(Histogram::bucket_index(1e12), Histogram::kBucketCount - 1);
}

TEST_F(ObsTest, HistogramCountSumMinMaxAreExact) {
  Histogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.min_ms(), 0.0);
  EXPECT_EQ(histogram.max_ms(), 0.0);
  EXPECT_EQ(histogram.percentile(50.0), 0.0);

  histogram.record(3.0);
  histogram.record(1.0);
  histogram.record(10.0);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_DOUBLE_EQ(histogram.sum_ms(), 14.0);
  EXPECT_DOUBLE_EQ(histogram.min_ms(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.max_ms(), 10.0);

  histogram.reset();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.max_ms(), 0.0);
}

TEST_F(ObsTest, HistogramPercentilesTrackUniformData) {
  Histogram histogram;
  for (int ms = 1; ms <= 1000; ++ms) histogram.record(static_cast<double>(ms));
  // Geometric buckets give ~9 % relative resolution; allow 12 %.
  EXPECT_NEAR(histogram.percentile(50.0), 500.0, 60.0);
  EXPECT_NEAR(histogram.percentile(95.0), 950.0, 115.0);
  EXPECT_NEAR(histogram.percentile(99.0), 990.0, 120.0);
  // Extremes clamp to the exact observed range.
  EXPECT_DOUBLE_EQ(histogram.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(histogram.percentile(100.0), 1000.0);
  // Percentiles are monotone in p.
  double previous = 0.0;
  for (double p = 0.0; p <= 100.0; p += 5.0) {
    const double value = histogram.percentile(p);
    EXPECT_GE(value, previous);
    previous = value;
  }
}

TEST_F(ObsTest, HistogramSingleSamplePercentiles) {
  Histogram histogram;
  histogram.record(42.0);
  EXPECT_DOUBLE_EQ(histogram.percentile(50.0), 42.0);
  EXPECT_DOUBLE_EQ(histogram.percentile(99.0), 42.0);
}

TEST_F(ObsTest, HistogramOverflowSamplesLandInLastBucket) {
  Histogram histogram;
  histogram.record(1e12);  // far beyond the ~1 h top bucket bound
  histogram.record(1e12);
  EXPECT_EQ(histogram.bucket_count(Histogram::kBucketCount - 1), 2u);
  EXPECT_EQ(histogram.count(), 2u);
  // Percentiles of an overflow-only histogram clamp to the exact observed
  // values instead of the (meaningless) finite bucket bound.
  EXPECT_DOUBLE_EQ(histogram.percentile(50.0), 1e12);
  EXPECT_DOUBLE_EQ(histogram.max_ms(), 1e12);
}

TEST_F(ObsTest, HistogramPercentileBoundaryInterpolation) {
  Histogram histogram;
  // Two samples in well-separated buckets: any interior percentile must sit
  // within the observed range and the exact boundaries are the extremes.
  histogram.record(1.0);
  histogram.record(512.0);
  EXPECT_DOUBLE_EQ(histogram.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(histogram.percentile(100.0), 512.0);
  for (double p = 1.0; p < 100.0; p += 7.0) {
    const double value = histogram.percentile(p);
    EXPECT_GE(value, 1.0) << "p=" << p;
    EXPECT_LE(value, 512.0) << "p=" << p;
  }
  // Out-of-domain p clamps to the extremes rather than extrapolating.
  EXPECT_DOUBLE_EQ(histogram.percentile(-5.0), 1.0);
  EXPECT_DOUBLE_EQ(histogram.percentile(250.0), 512.0);
}

// Exporters snapshot histograms while hot paths keep recording (relaxed
// atomics; the header documents the "statistically consistent" contract).
// Primarily a TSan target; the reader also checks it never observes
// impossible values.
TEST_F(ObsTest, HistogramSnapshotWhileRecording) {
  Histogram histogram;
  constexpr int kRecords = 50000;
  std::thread writer([&histogram] {
    for (int i = 0; i < kRecords; ++i) {
      histogram.record(static_cast<double>(i % 100) + 0.5);
    }
  });
  std::uint64_t last_count = 0;
  while (last_count < kRecords) {
    const std::uint64_t count = histogram.count();
    EXPECT_GE(count, last_count);  // counts only grow
    last_count = count;
    std::uint64_t bucket_sum = 0;
    for (int i = 0; i < Histogram::kBucketCount; ++i) {
      bucket_sum += histogram.bucket_count(i);
    }
    EXPECT_LE(bucket_sum, static_cast<std::uint64_t>(kRecords));
    const double p50 = histogram.percentile(50.0);
    EXPECT_GE(p50, 0.0);
    EXPECT_LE(p50, 100.0);
  }
  writer.join();
  EXPECT_EQ(histogram.count(), static_cast<std::uint64_t>(kRecords));
  EXPECT_DOUBLE_EQ(histogram.min_ms(), 0.5);
  EXPECT_DOUBLE_EQ(histogram.max_ms(), 99.5);
}

// ---------------------------------------------------------------------------
// Thread hammering

TEST_F(ObsTest, CounterIsAtomicUnderThreadHammer) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrementsPerThread; ++i) counter.add();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kIncrementsPerThread);
}

TEST_F(ObsTest, HistogramIsLossLessUnderThreadHammer) {
  Histogram histogram;
  constexpr int kThreads = 4;
  constexpr int kRecordsPerThread = 25000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kRecordsPerThread; ++i) {
        histogram.record(static_cast<double>(t) + 1.0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(histogram.count(),
            static_cast<std::uint64_t>(kThreads) * kRecordsPerThread);
  // Sum of t+1 over threads: (1+2+3+4) * records.
  EXPECT_NEAR(histogram.sum_ms(), 10.0 * kRecordsPerThread, 1e-6);
  EXPECT_DOUBLE_EQ(histogram.min_ms(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.max_ms(), 4.0);
}

TEST_F(ObsTest, GaugeAddIsAtomicUnderThreadHammer) {
  Gauge gauge;
  constexpr int kThreads = 4;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kAddsPerThread; ++i) gauge.add(0.5);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_NEAR(gauge.value(), 0.5 * kThreads * kAddsPerThread, 1e-6);
}

// ---------------------------------------------------------------------------
// Registry

TEST_F(ObsTest, RegistryHandlesAreStableAndResettable) {
  auto& registry = MetricsRegistry::instance();
  Counter& counter = registry.counter("obs_test/counter");
  Gauge& gauge = registry.gauge("obs_test/gauge");
  Histogram& histogram = registry.histogram("obs_test/histogram");
  counter.add(7);
  gauge.set(2.5);
  histogram.record(1.0);

  // Repeated lookup returns the same objects.
  EXPECT_EQ(&registry.counter("obs_test/counter"), &counter);
  EXPECT_EQ(&registry.gauge("obs_test/gauge"), &gauge);
  EXPECT_EQ(&registry.histogram("obs_test/histogram"), &histogram);
  EXPECT_EQ(registry.find_histogram("obs_test/histogram"), &histogram);
  EXPECT_EQ(registry.find_histogram("obs_test/nonexistent"), nullptr);

  registry.reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0.0);
  EXPECT_EQ(histogram.count(), 0u);
}

TEST_F(ObsTest, LatencyTableOrdersByTable7CostRank) {
  EXPECT_EQ(table7_rank("detector/steganalysis/csp"), 0);
  EXPECT_EQ(table7_rank("detector/scaling/mse"), 1);
  EXPECT_EQ(table7_rank("detector/filtering/min/ssim"), 2);
  EXPECT_EQ(table7_rank("guard/request"), 3);

  auto& registry = MetricsRegistry::instance();
  registry.histogram("obs_table/scaling/mse").record(5.0);
  registry.histogram("obs_table/filtering/ssim").record(20.0);
  registry.histogram("obs_table/steganalysis/csp").record(1.0);
  const std::string rendered =
      latency_table_by_prefix("obs_table/").render();
  const std::size_t csp = rendered.find("obs_table/steganalysis/csp");
  const std::size_t mse = rendered.find("obs_table/scaling/mse");
  const std::size_t ssim = rendered.find("obs_table/filtering/ssim");
  ASSERT_NE(csp, std::string::npos);
  ASSERT_NE(mse, std::string::npos);
  ASSERT_NE(ssim, std::string::npos);
  EXPECT_LT(csp, mse);
  EXPECT_LT(mse, ssim);
  registry.reset();
}

// ---------------------------------------------------------------------------
// Spans & tracing

TEST_F(ObsTest, DisabledTracingRecordsNoEventsFromSpans) {
  ASSERT_FALSE(tracing_enabled());
  {
    Span outer("outer");
    EXPECT_FALSE(outer.active());
    DECAM_SPAN("macro");
    busy_wait_us(50.0);
  }
  EXPECT_EQ(TraceBuffer::instance().size(), 0u);
}

TEST_F(ObsTest, SpanNestingProducesContainedEvents) {
  set_tracing_enabled(true);
  {
    Span outer("outer");
    busy_wait_us(300.0);
    {
      Span inner("inner");
      busy_wait_us(300.0);
    }
    busy_wait_us(300.0);
  }
  set_tracing_enabled(false);
  const std::vector<TraceEvent> events = TraceBuffer::instance().snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Events are recorded on close, so "inner" lands first.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us + 1.0);
  EXPECT_LT(inner.dur_us, outer.dur_us);
  EXPECT_EQ(inner.tid, outer.tid);
}

TEST_F(ObsTest, ScopedTimerRecordsHistogramAndOptionalTrace) {
  Histogram histogram;
  {
    ScopedTimer timer(histogram, "timed");
    busy_wait_us(200.0);
    const double elapsed = timer.stop();
    EXPECT_GE(elapsed, 0.2);
    EXPECT_DOUBLE_EQ(timer.stop(), elapsed);  // idempotent
  }
  EXPECT_EQ(histogram.count(), 1u);           // stop() recorded exactly once
  EXPECT_EQ(TraceBuffer::instance().size(), 0u);  // tracing off: no event

  set_tracing_enabled(true);
  { ScopedTimer timer(histogram, "timed"); }
  set_tracing_enabled(false);
  EXPECT_EQ(histogram.count(), 2u);
  EXPECT_EQ(TraceBuffer::instance().size(), 1u);
}

// ---------------------------------------------------------------------------
// Chrome trace JSON

TEST_F(ObsTest, ChromeTraceJsonParsesBack) {
  set_tracing_enabled(true);
  {
    Span weird("we\"ird\\name\nwith\tcontrol");
    Span plain("detector/scaling/mse");
    busy_wait_us(100.0);
  }
  set_tracing_enabled(false);

  const std::string json = TraceBuffer::instance().chrome_json();
  const JsonValue root = JsonParser(json).parse();
  ASSERT_EQ(root.type, JsonValue::Type::Object);
  const JsonValue& events = root.at("traceEvents");
  ASSERT_EQ(events.type, JsonValue::Type::Array);
  ASSERT_EQ(events.items.size(), 2u);
  std::vector<std::string> names;
  for (const JsonValue& event : events.items) {
    ASSERT_EQ(event.type, JsonValue::Type::Object);
    EXPECT_EQ(event.at("ph").text, "X");
    EXPECT_EQ(event.at("cat").text, "decam");
    EXPECT_EQ(event.at("pid").number, 1.0);
    EXPECT_GT(event.at("tid").number, 0.0);
    EXPECT_GE(event.at("ts").number, 0.0);
    EXPECT_GE(event.at("dur").number, 0.0);
    names.push_back(event.at("name").text);
  }
  // Escaping survived the round trip, including the raw control characters.
  EXPECT_NE(std::find(names.begin(), names.end(),
                      "we\"ird\\name\nwith\tcontrol"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "detector/scaling/mse"),
            names.end());
}

TEST_F(ObsTest, JsonEscapeCoversEveryControlByte) {
  for (int byte = 0; byte < 0x20; ++byte) {
    char expected[8];
    std::snprintf(expected, sizeof(expected), "\\u%04x", byte);
    if (byte == '\n') std::snprintf(expected, sizeof(expected), "\\n");
    if (byte == '\r') std::snprintf(expected, sizeof(expected), "\\r");
    if (byte == '\t') std::snprintf(expected, sizeof(expected), "\\t");
    EXPECT_EQ(json_escape(std::string(1, static_cast<char>(byte))), expected)
        << "byte " << byte;
  }
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  // Multi-byte UTF-8 (2, 3 and 4 bytes) passes through unchanged.
  const std::string utf8 = "caf\xc3\xa9 \xe6\x97\xa5 \xf0\x9f\x98\x80";
  EXPECT_EQ(json_escape(utf8), utf8);
}

TEST_F(ObsTest, WriteChromeTraceProducesParseableFile) {
  set_tracing_enabled(true);
  { Span span("file_span"); }
  set_tracing_enabled(false);

  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "decam_obs_test_trace.json";
  TraceBuffer::instance().write_chrome_trace(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue root = JsonParser(buffer.str()).parse();
  EXPECT_EQ(root.at("traceEvents").items.size(), 1u);
  EXPECT_EQ(root.at("traceEvents").items[0].at("name").text, "file_span");
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Log prefix

TEST_F(ObsTest, LogPrefixCarriesElapsedMilliseconds) {
  const std::string prefix = log_prefix();
  EXPECT_EQ(prefix.rfind("[decam +", 0), 0u);
  EXPECT_NE(prefix.find("ms] "), std::string::npos);
  // The embedded elapsed time parses as a number and grows monotonically.
  const auto parse_ms = [](const std::string& text) {
    return std::stod(text.substr(8, text.find("ms]") - 8));
  };
  const double first = parse_ms(prefix);
  busy_wait_us(1500.0);
  const double second = parse_ms(log_prefix());
  EXPECT_GT(second, first);
}

TEST_F(ObsTest, ClockIsMonotoneAndThreadIdsAreStable) {
  const double t0 = now_us();
  busy_wait_us(100.0);
  EXPECT_GT(now_us(), t0);
  EXPECT_EQ(current_tid(), current_tid());
  std::uint32_t other = 0;
  std::thread([&other] { other = current_tid(); }).join();
  EXPECT_NE(other, current_tid());
}

// ---------------------------------------------------------------------------
// Thread-name metadata (runtime pool workers label their trace rows).
// NOTE: names registered here outlive TraceBuffer::clear(), so this test
// stays after the event-count assertions above.

TEST_F(ObsTest, ChromeTraceCarriesThreadNameMetadata) {
  set_current_thread_name("decam-test-main");
  set_tracing_enabled(true);
  { Span span("named_span"); }
  set_tracing_enabled(false);

  const std::string json = TraceBuffer::instance().chrome_json();
  const JsonValue root = JsonParser(json).parse();
  const JsonValue& events = root.at("traceEvents");
  ASSERT_EQ(events.items.size(), 2u);  // metadata first, then the span
  const JsonValue& meta = events.items[0];
  EXPECT_EQ(meta.at("ph").text, "M");
  EXPECT_EQ(meta.at("name").text, "thread_name");
  EXPECT_EQ(meta.at("pid").number, 1.0);
  EXPECT_EQ(meta.at("tid").number, static_cast<double>(current_tid()));
  EXPECT_EQ(meta.at("args").at("name").text, "decam-test-main");
  EXPECT_EQ(events.items[1].at("name").text, "named_span");
}

}  // namespace
}  // namespace decam::obs
