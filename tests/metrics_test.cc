#include "util/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

namespace compcache {
namespace {

TEST(CounterTest, IncAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricRegistryTest, CounterRegistrationIsIdempotent) {
  MetricRegistry registry;
  Counter& a = registry.GetCounter("vm.test_counter");
  Counter& b = registry.GetCounter("vm.test_counter");
  EXPECT_EQ(&a, &b);
  a.Inc(7);
  EXPECT_EQ(b.value(), 7u);
  EXPECT_EQ(registry.num_counters(), 1u);

  ASSERT_NE(registry.FindCounter("vm.test_counter"), nullptr);
  EXPECT_EQ(registry.FindCounter("vm.test_counter")->value(), 7u);
  EXPECT_EQ(registry.FindCounter("no.such"), nullptr);

  double out = 0;
  ASSERT_TRUE(registry.Lookup("vm.test_counter", &out));
  EXPECT_EQ(out, 7.0);
  EXPECT_FALSE(registry.Lookup("no.such", &out));
}

TEST(MetricRegistryTest, GaugeReadsLiveValueAndRebindReplaces) {
  MetricRegistry registry;
  uint64_t source = 3;
  registry.RegisterGauge("mem.source", [&source] { return static_cast<double>(source); });
  EXPECT_TRUE(registry.HasGauge("mem.source"));
  EXPECT_EQ(registry.GaugeValue("mem.source"), 3.0);
  source = 9;  // pull mode: the gauge tracks the source with no publishing step
  EXPECT_EQ(registry.GaugeValue("mem.source"), 9.0);

  registry.RegisterGauge("mem.source", [] { return 1.5; });
  EXPECT_EQ(registry.GaugeValue("mem.source"), 1.5);
  EXPECT_EQ(registry.num_gauges(), 1u);
}

TEST(MetricRegistryTest, RebaseRestartsCountsButNotTheirSources) {
  MetricRegistry registry;
  uint64_t events = 5;
  SimDuration busy = SimDuration::Nanos(70);
  uint64_t occupancy = 11;
  registry.RegisterCounter("a.events", &events);
  registry.RegisterCounter("a.busy_ns", &busy);
  registry.RegisterGauge("a.occupancy", [&occupancy] { return static_cast<double>(occupancy); });
  registry.GetCounter("a.pushed").Inc(3);
  LatencyHistogram& hist = registry.GetHistogram("a.latency");
  hist.Observe(10);
  EXPECT_TRUE(registry.counter_gauge_names().contains("a.events"));
  EXPECT_EQ(registry.GaugeValue("a.events"), 5.0);
  EXPECT_EQ(registry.GaugeValue("a.busy_ns"), 70.0);

  registry.Rebase();
  // Counter gauges read zero while their fields keep their values; push
  // counters and histograms are zeroed; state gauges are untouched.
  EXPECT_EQ(registry.GaugeValue("a.events"), 0.0);
  EXPECT_EQ(registry.GaugeValue("a.busy_ns"), 0.0);
  EXPECT_EQ(events, 5u);
  EXPECT_EQ(busy.nanos(), 70);
  EXPECT_EQ(registry.FindCounter("a.pushed")->value(), 0u);
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(registry.GaugeValue("a.occupancy"), 11.0);

  // From the rebase on, each counter gauge reads its field's growth.
  events += 4;
  busy += SimDuration::Nanos(30);
  double out = 0;
  ASSERT_TRUE(registry.Lookup("a.events", &out));
  EXPECT_EQ(out, 4.0);
  EXPECT_EQ(registry.GaugeValue("a.busy_ns"), 30.0);
  const auto snapshot = registry.Snapshot();
  const std::pair<std::string, double> events_entry{"a.events", 4.0};
  EXPECT_NE(std::find(snapshot.begin(), snapshot.end(), events_entry), snapshot.end());
}

TEST(MetricRegistryTest, SnapshotFlattensEverything) {
  MetricRegistry registry;
  registry.GetCounter("a.count").Inc(2);
  registry.RegisterGauge("b.gauge", [] { return 4.0; });
  LatencyHistogram& h = registry.GetHistogram("c.hist");
  h.Observe(10);
  h.Observe(20);

  const auto snap = registry.Snapshot();
  // Sorted by name, no duplicates.
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].first, snap[i].first);
  }
  const auto at = [&snap](const std::string& name) {
    for (const auto& [k, v] : snap) {
      if (k == name) {
        return v;
      }
    }
    ADD_FAILURE() << "missing snapshot key " << name;
    return std::nan("");
  };
  EXPECT_EQ(at("a.count"), 2.0);
  EXPECT_EQ(at("b.gauge"), 4.0);
  EXPECT_EQ(at("c.hist.count"), 2.0);
  EXPECT_EQ(at("c.hist.mean"), 15.0);
  EXPECT_EQ(at("c.hist.min"), 10.0);
  EXPECT_EQ(at("c.hist.max"), 20.0);
  EXPECT_FALSE(std::isnan(at("c.hist.p50")));
  EXPECT_FALSE(std::isnan(at("c.hist.p90")));
  EXPECT_FALSE(std::isnan(at("c.hist.p99")));
  EXPECT_FALSE(std::isnan(at("c.hist.p999")));
  // Percentiles are non-decreasing in p (the tail-latency report relies on
  // p50 <= p99 <= p999).
  EXPECT_LE(at("c.hist.p50"), at("c.hist.p99"));
  EXPECT_LE(at("c.hist.p99"), at("c.hist.p999"));

  // Histogram sub-fields resolve through Lookup as well.
  double out = 0;
  ASSERT_TRUE(registry.Lookup("c.hist.p99", &out));
  EXPECT_GE(out, 10.0);
  EXPECT_LE(out, 20.0);
  ASSERT_TRUE(registry.Lookup("c.hist.p999", &out));
  EXPECT_GE(out, 10.0);
  EXPECT_LE(out, 20.0);

  const std::string json = registry.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"a.count\""), std::string::npos);
  EXPECT_NE(json.find("\"c.hist.p50\""), std::string::npos);
}

// Satellite regression: the bound-handle path (resolve once, use the pointer
// per event) must report identically to the string-keyed path.
TEST(MetricRegistryTest, BoundHandlesReportIdenticallyToStringKeyedPath) {
  MetricRegistry keyed;
  MetricRegistry bound_reg;

  // String-keyed: look the metric up by name on every event.
  for (int i = 1; i <= 100; ++i) {
    keyed.GetCounter("vm.faults").Inc(2);
    keyed.GetHistogram("vm.fault_ns").Observe(static_cast<double>(i * 1000));
  }

  // Bound: resolve once "at construction", then use the handles.
  Counter* faults = bound_reg.BindCounter("vm.faults");
  LatencyHistogram* fault_ns = bound_reg.BindHistogram("vm.fault_ns");
  for (int i = 1; i <= 100; ++i) {
    faults->Inc(2);
    fault_ns->Observe(static_cast<double>(i * 1000));
  }

  // Handles are stable: binding again yields the same objects.
  EXPECT_EQ(bound_reg.BindCounter("vm.faults"), faults);
  EXPECT_EQ(bound_reg.BindHistogram("vm.fault_ns"), fault_ns);

  const auto a = keyed.Snapshot();
  const auto b = bound_reg.Snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);
    EXPECT_EQ(a[i].second, b[i].second) << a[i].first;
  }
}

TEST(LatencyHistogramTest, MomentsAreExact) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(50), 0.0);  // empty

  for (double v : {4.0, 8.0, 12.0}) {
    h.Observe(v);
  }
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 24.0);
  EXPECT_EQ(h.mean(), 8.0);
  EXPECT_EQ(h.min(), 4.0);
  EXPECT_EQ(h.max(), 12.0);

  h.Reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(LatencyHistogramTest, PercentilesClampToObservedRange) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) {
    h.Observe(1000.0);  // single point: every percentile must be that point
  }
  EXPECT_EQ(h.Percentile(0), 1000.0);
  EXPECT_EQ(h.Percentile(50), 1000.0);
  EXPECT_EQ(h.Percentile(100), 1000.0);
}

TEST(LatencyHistogramTest, PercentilesAreMonotoneAndBracketed) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Observe(static_cast<double>(i));
  }
  const double p10 = h.Percentile(10);
  const double p50 = h.Percentile(50);
  const double p90 = h.Percentile(90);
  const double p99 = h.Percentile(99);
  EXPECT_LE(h.min(), p10);
  EXPECT_LE(p10, p50);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.max());
  // Power-of-two buckets: the estimate may be off by up to one bucket width, so
  // only assert it lands in the right neighborhood.
  EXPECT_GT(p50, 250.0);
  EXPECT_LT(p50, 1000.0);
  EXPECT_GT(p99, 500.0);
}

TEST(LatencyHistogramTest, ExtremeValuesLandInEdgeBuckets) {
  LatencyHistogram h;
  h.Observe(0.0);
  h.Observe(0.5);
  EXPECT_EQ(h.bucket_count(0), 2u);  // [0, 1)
  h.Observe(1e300);                  // far beyond 2^63: clamps to the last bucket
  EXPECT_EQ(h.bucket_count(LatencyHistogram::kNumBuckets - 1), 1u);
  EXPECT_EQ(h.count(), 3u);
  // The percentile estimate saturates at the last bucket's edge (~2^63); it
  // must stay within [min, max] and above the second-to-last bucket.
  EXPECT_GE(h.Percentile(100), 4.6e18);
  EXPECT_LE(h.Percentile(100), h.max());
}

}  // namespace
}  // namespace compcache
