#include "util/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/assert.h"
#include "util/json.h"

namespace compcache {

size_t LatencyHistogram::BucketFor(double value) {
  CC_EXPECTS(value >= 0.0);
  if (value < 1.0) {
    return 0;
  }
  const auto v = static_cast<uint64_t>(std::min(value, 9.2e18));
  const auto width = static_cast<size_t>(std::bit_width(v));  // v in [2^(w-1), 2^w)
  return std::min(width, kNumBuckets - 1);
}

double LatencyHistogram::BucketLow(size_t i) {
  return i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
}

double LatencyHistogram::BucketHigh(size_t i) {
  return std::ldexp(1.0, static_cast<int>(i));
}

void LatencyHistogram::Observe(double value) {
  CC_EXPECTS(value >= 0.0);
  stats_.Add(value);
  ++buckets_[BucketFor(value)];
}

double LatencyHistogram::Percentile(double p) const {
  CC_EXPECTS(p >= 0.0 && p <= 100.0);
  const uint64_t n = stats_.count();
  if (n == 0) {
    return 0.0;
  }
  const double rank = p / 100.0 * static_cast<double>(n);
  double cumulative = 0.0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] == 0) {
      continue;
    }
    const double next = cumulative + static_cast<double>(buckets_[i]);
    if (next >= rank) {
      const double fraction =
          (rank - cumulative) / static_cast<double>(buckets_[i]);
      const double value = BucketLow(i) + fraction * (BucketHigh(i) - BucketLow(i));
      return std::clamp(value, stats_.min(), stats_.max());
    }
    cumulative = next;
  }
  return stats_.max();
}

void LatencyHistogram::Reset() {
  stats_.Reset();
  buckets_.fill(0);
}

void MetricRegistry::CheckNameFree(const std::string& name, const void* exempt) const {
  const auto c = counters_.find(name);
  CC_EXPECTS(c == counters_.end() || c->second.get() == exempt);
  const auto g = gauges_.find(name);
  CC_EXPECTS(g == gauges_.end() || &g->second == exempt);
  const auto h = histograms_.find(name);
  CC_EXPECTS(h == histograms_.end() || h->second.hist.get() == exempt);
}

Counter& MetricRegistry::GetCounter(const std::string& name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    CheckNameFree(name, nullptr);
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return *it->second;
}

void MetricRegistry::RegisterGauge(const std::string& name, GaugeFn fn) {
  CC_EXPECTS(fn != nullptr);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    CheckNameFree(name, nullptr);
    gauges_.emplace(name, Gauge{std::move(fn)});
  } else {
    it->second = Gauge{std::move(fn)};
  }
}

void MetricRegistry::RegisterCounterGauge(const std::string& name, GaugeFn fn) {
  RegisterGauge(name, std::move(fn));
  counter_gauge_names_.insert(name);
}

void MetricRegistry::RegisterCounter(const std::string& name, const uint64_t* value) {
  CC_EXPECTS(value != nullptr);
  RegisterCounterGauge(name, [value] { return static_cast<double>(*value); });
}

void MetricRegistry::RegisterCounter(const std::string& name, const SimDuration* value) {
  CC_EXPECTS(value != nullptr);
  RegisterCounterGauge(name, [value] { return static_cast<double>(value->nanos()); });
}

void MetricRegistry::Rebase() {
  for (const std::string& name : counter_gauge_names_) {
    Gauge& gauge = gauges_.at(name);
    gauge.base = gauge.fn();
  }
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, entry] : histograms_) {
    entry.hist->Reset();
  }
}

std::vector<std::string> MetricRegistry::HistogramNames() const {
  std::vector<std::string> names;
  names.reserve(histograms_.size());
  for (const auto& [name, entry] : histograms_) {
    names.push_back(name);
  }
  return names;
}

Counter* MetricRegistry::FindCounter(const std::string& name) {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Counter* MetricRegistry::FindCounter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

LatencyHistogram& MetricRegistry::GetHistogram(const std::string& name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    CheckNameFree(name, nullptr);
    HistogramEntry entry;
    entry.hist = std::make_unique<LatencyHistogram>();
    entry.field_names = {name + ".count", name + ".mean", name + ".min",  name + ".max",
                         name + ".p50",   name + ".p90",  name + ".p99",  name + ".p999"};
    it = histograms_.emplace(name, std::move(entry)).first;
  }
  return *it->second.hist;
}

LatencyHistogram* MetricRegistry::FindHistogram(const std::string& name) {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.hist.get();
}

const LatencyHistogram* MetricRegistry::FindHistogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.hist.get();
}

double MetricRegistry::GaugeValue(const std::string& name) const {
  const auto it = gauges_.find(name);
  CC_EXPECTS(it != gauges_.end());
  return it->second.Read();
}

bool MetricRegistry::Lookup(const std::string& name, double* out) const {
  CC_EXPECTS(out != nullptr);
  if (const Counter* c = FindCounter(name); c != nullptr) {
    *out = static_cast<double>(c->value());
    return true;
  }
  if (const auto it = gauges_.find(name); it != gauges_.end()) {
    *out = it->second.Read();
    return true;
  }
  const auto dot = name.rfind('.');
  if (dot == std::string::npos) {
    return false;
  }
  const LatencyHistogram* h = FindHistogram(name.substr(0, dot));
  if (h == nullptr) {
    return false;
  }
  const std::string field = name.substr(dot + 1);
  if (field == "count") {
    *out = static_cast<double>(h->count());
  } else if (field == "mean") {
    *out = h->mean();
  } else if (field == "min") {
    *out = h->min();
  } else if (field == "max") {
    *out = h->max();
  } else if (field == "p50") {
    *out = h->Percentile(50);
  } else if (field == "p90") {
    *out = h->Percentile(90);
  } else if (field == "p99") {
    *out = h->Percentile(99);
  } else if (field == "p999") {
    *out = h->Percentile(99.9);
  } else {
    return false;
  }
  return true;
}

std::vector<std::pair<std::string, double>> MetricRegistry::Snapshot() const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size() * 8);
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, static_cast<double>(counter->value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back(name, gauge.Read());
  }
  for (const auto& [name, entry] : histograms_) {
    const LatencyHistogram& h = *entry.hist;
    const auto& f = entry.field_names;
    out.emplace_back(f[0], static_cast<double>(h.count()));
    out.emplace_back(f[1], h.mean());
    out.emplace_back(f[2], h.min());
    out.emplace_back(f[3], h.max());
    out.emplace_back(f[4], h.Percentile(50));
    out.emplace_back(f[5], h.Percentile(90));
    out.emplace_back(f[6], h.Percentile(99));
    out.emplace_back(f[7], h.Percentile(99.9));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::string MetricRegistry::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  for (const auto& [name, value] : Snapshot()) {
    w.Kv(name, value);
  }
  w.EndObject();
  return w.str();
}

}  // namespace compcache
