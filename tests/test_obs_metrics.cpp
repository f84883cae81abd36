#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <exception>
#include <future>
#include <numeric>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/observability.hpp"
#include "util/thread_pool.hpp"

namespace crowdlearn::obs {
namespace {

/// Wait on every future (so no task outlives its captures), then rethrow the
/// first exception in index order.
void wait_all(std::vector<std::future<void>>& futures) {
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

TEST(CounterTest, IncrementsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), 1.25);
}

TEST(HistogramTest, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(HistogramTest, BucketBoundariesAreUpperInclusive) {
  // Prometheus `le` semantics: value v lands in the FIRST bucket with
  // v <= upper_bound. A value exactly on a boundary belongs to that bucket,
  // the next representable value above it to the following one.
  Histogram h({1.0, 2.0, 4.0});
  h.observe(1.0);                                       // == bound 0 -> bucket 0
  h.observe(std::nextafter(1.0, 2.0));                  // just above -> bucket 1
  h.observe(2.0);                                       // == bound 1 -> bucket 1
  h.observe(4.0);                                       // == bound 2 -> bucket 2
  h.observe(std::nextafter(4.0, 5.0));                  // above last -> overflow
  h.observe(-3.0);                                      // below all -> bucket 0

  const Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.bucket_counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(s.bucket_counts[0], 2u);
  EXPECT_EQ(s.bucket_counts[1], 2u);
  EXPECT_EQ(s.bucket_counts[2], 1u);
  EXPECT_EQ(s.bucket_counts[3], 1u);
  EXPECT_EQ(s.count, 6u);
  EXPECT_DOUBLE_EQ(s.min, -3.0);
  EXPECT_DOUBLE_EQ(s.max, std::nextafter(4.0, 5.0));
}

TEST(HistogramTest, BoundsHelpers) {
  EXPECT_EQ(Histogram::linear_bounds(0.1, 0.1, 3), (std::vector<double>{0.1, 0.2, 0.30000000000000004}));
  EXPECT_EQ(Histogram::exponential_bounds(1.0, 2.0, 4), (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
}

TEST(RegistryTest, GetOrCreateReturnsStableObjects) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x_total");
  Counter& b = reg.counter("x_total");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(reg.find_counter("x_total")->value(), 1u);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(RegistryTest, TypeConflictThrows) {
  MetricsRegistry reg;
  reg.counter("name");
  EXPECT_THROW(reg.gauge("name"), std::logic_error);
  EXPECT_THROW(reg.histogram("name", {1.0}), std::logic_error);
  EXPECT_EQ(reg.find_gauge("name"), nullptr);  // wrong type -> nullptr, no throw
}

TEST(RegistryTest, LabeledBuildsPrometheusSeriesNames) {
  EXPECT_EQ(MetricsRegistry::labeled("m", {{"a", "1"}}), "m{a=\"1\"}");
  EXPECT_EQ(MetricsRegistry::labeled("m", {{"a", "1"}, {"b", "x"}}),
            "m{a=\"1\",b=\"x\"}");
}

TEST(RegistryTest, ConcurrentIncrementsFromThreadPoolSumExactly) {
  // The registry's correctness claim: counters never lose increments under
  // contention and a concurrent snapshot never tears. Hammer one counter,
  // one gauge and one histogram from every pool worker.
  MetricsRegistry reg(4);
  Counter& c = reg.counter("hits_total");
  Histogram& h = reg.histogram("lat", Histogram::linear_bounds(1.0, 1.0, 8));

  util::ThreadPool pool(8);
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kPerTask = 1000;
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (std::size_t t = 0; t < kTasks; ++t) {
    futures.push_back(pool.submit([&c, &h, t] {
      for (std::size_t i = 0; i < kPerTask; ++i) {
        c.inc();
        h.observe(static_cast<double>((t + i) % 10));
      }
    }));
  }
  wait_all(futures);

  EXPECT_EQ(c.value(), kTasks * kPerTask);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, kTasks * kPerTask);
  EXPECT_EQ(std::accumulate(s.bucket_counts.begin(), s.bucket_counts.end(),
                            std::uint64_t{0}),
            s.count);
}

TEST(RegistryTest, SnapshotNeverTearsUnderLoad) {
  // Invariant checked WHILE writers are running: every histogram snapshot's
  // bucket counts sum exactly to its total count, and its sum equals
  // count * observed value when every observation is identical.
  MetricsRegistry reg;
  Histogram& h = reg.histogram("v", {1.0, 2.0});
  std::atomic<bool> stop{false};

  util::ThreadPool pool(4);
  std::vector<std::future<void>> writers;
  for (int w = 0; w < 3; ++w) {
    writers.push_back(pool.submit([&h, &stop] {
      while (!stop.load(std::memory_order_relaxed)) h.observe(2.0);
    }));
  }
  for (int probe = 0; probe < 2000; ++probe) {
    const Histogram::Snapshot s = h.snapshot();
    ASSERT_EQ(std::accumulate(s.bucket_counts.begin(), s.bucket_counts.end(),
                              std::uint64_t{0}),
              s.count);
    ASSERT_DOUBLE_EQ(s.sum, 2.0 * static_cast<double>(s.count));
  }
  stop.store(true, std::memory_order_relaxed);
  wait_all(writers);
}

TEST(RegistryTest, PrometheusTextFormat) {
  MetricsRegistry reg;
  reg.counter("req_total").inc(3);
  reg.gauge("queue_depth").set(2.0);
  reg.counter(MetricsRegistry::labeled("pull_total", {{"ctx", "morning"}})).inc();
  Histogram& h = reg.histogram("lat_seconds", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);

  std::ostringstream os;
  reg.write_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE req_total counter\nreq_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth gauge\nqueue_depth 2\n"), std::string::npos);
  EXPECT_NE(text.find("pull_total{ctx=\"morning\"} 1"), std::string::npos);
  // Histogram buckets are cumulative, with labels merged and +Inf last.
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 3"), std::string::npos);
}

TEST(RegistryTest, HistogramLabelsMergeWithBucketLabels) {
  MetricsRegistry reg;
  reg.histogram(MetricsRegistry::labeled("d_seconds", {{"ctx", "am"}}), {1.0})
      .observe(0.5);
  std::ostringstream os;
  reg.write_prometheus(os);
  EXPECT_NE(os.str().find("d_seconds_bucket{ctx=\"am\",le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(os.str().find("d_seconds_count{ctx=\"am\"} 1"), std::string::npos);
}

TEST(RegistryTest, JsonSnapshotIsWellFormedish) {
  MetricsRegistry reg;
  reg.counter("a_total").inc(2);
  reg.gauge("g").set(0.5);
  reg.histogram("h", {1.0}).observe(0.25);
  std::ostringstream os;
  reg.write_json(os);
  const std::string j = os.str();
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  EXPECT_NE(j.find("\"counters\":{\"a_total\":2}"), std::string::npos);
  EXPECT_NE(j.find("\"g\":0.5"), std::string::npos);
  EXPECT_NE(j.find("\"count\":1"), std::string::npos);
  // Label quotes must arrive escaped so the document stays parseable.
  MetricsRegistry reg2;
  reg2.counter(MetricsRegistry::labeled("x", {{"k", "v"}})).inc();
  std::ostringstream os2;
  reg2.write_json(os2);
  EXPECT_NE(os2.str().find("\"x{k=\\\"v\\\"}\":1"), std::string::npos);
}

TEST(ObservabilityTest, ActiveAndTracerHelpers) {
  EXPECT_FALSE(active(nullptr));
  Observability o;
  EXPECT_TRUE(active(&o) == kCompiledIn);
  ObservabilityConfig no_trace;
  no_trace.tracing = false;
  Observability o2(no_trace);
  if (kCompiledIn) {
    EXPECT_EQ(tracer_of(&o), &o.tracer());
    EXPECT_EQ(tracer_of(&o2), nullptr);
  } else {
    EXPECT_EQ(tracer_of(&o), nullptr);
  }
  EXPECT_EQ(tracer_of(nullptr), nullptr);
}

}  // namespace
}  // namespace crowdlearn::obs
