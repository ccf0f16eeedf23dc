// The metric registry: named counters, pull-mode gauges, and latency histograms
// shared by every simulator subsystem.
//
// Douglis's evaluation is counter-driven — faults served from the compression
// cache vs the backing store, pages kept vs rejected by the 4:3 threshold,
// clustered write-out batches, arbiter reclaim decisions. Each subsystem keeps
// its existing plain struct counters (cheap, branch-free) and *publishes* them
// here as gauges whose callbacks read those structs, so the registry can never
// drift from the source of truth. Latency distributions (fault service time,
// disk access time) are recorded directly into histograms.
//
// Subsystem counters never reset. The registry is the one place where a count
// restarts: Rebase() makes every counter gauge read its counter's growth since
// the call and zeroes the push counters and histograms.
//
// Naming convention: dotted lower_snake paths, subsystem first —
//   vm.faults, ccache.pages_kept, swap.clustered.batches_written,
//   disk.read_ops, bcache.hits, arbiter.ccache.reclaims, clock.io_ns.
// Histograms flatten into <name>.count/.mean/.min/.max/.p50/.p90/.p99/.p999 in
// snapshots. DESIGN.md documents the full metric list.
#ifndef COMPCACHE_UTIL_METRICS_H_
#define COMPCACHE_UTIL_METRICS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/stats.h"
#include "util/time_types.h"

namespace compcache {

// Monotonic event counter for direct instrumentation (push mode).
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

// Latency/size distribution: exact running moments (Welford, via RunningStats)
// plus power-of-two buckets for percentile estimation. Values are unit-free
// non-negative doubles; by convention latencies are virtual-clock nanoseconds.
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = 64;  // bucket 0 = [0,1), i>=1 = [2^(i-1), 2^i)

  void Observe(double value);

  uint64_t count() const { return stats_.count(); }
  double sum() const { return stats_.sum(); }
  double mean() const { return stats_.mean(); }
  double min() const { return stats_.min(); }
  double max() const { return stats_.max(); }
  const RunningStats& stats() const { return stats_; }

  // Percentile estimate, p in [0, 100]. Linear interpolation inside the bucket
  // containing the rank, clamped to the observed min/max so estimates never
  // leave the sampled range. Returns 0 when empty.
  double Percentile(double p) const;

  uint64_t bucket_count(size_t i) const { return buckets_.at(i); }

  void Reset();

 private:
  static size_t BucketFor(double value);
  static double BucketLow(size_t i);
  static double BucketHigh(size_t i);

  RunningStats stats_;
  std::array<uint64_t, kNumBuckets> buckets_{};
};

// Owns metric objects and hands out stable references. Registration is
// idempotent by name within a kind; a name may be used by only one kind.
// Not thread-safe — the simulator is single-threaded by design.
class MetricRegistry {
 public:
  using GaugeFn = std::function<double()>;

  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // Creates the counter on first use; later calls return the same object.
  Counter& GetCounter(const std::string& name);

  // Bound-handle API: resolve a metric by name ONCE (at subsystem
  // construction) and keep the returned pointer for per-event use. Pointers
  // are stable for the registry's lifetime. The string-keyed calls above are
  // for registration and snapshots only — nothing on the hot path should be
  // doing a by-name lookup per event.
  Counter* BindCounter(const std::string& name) { return &GetCounter(name); }
  LatencyHistogram* BindHistogram(const std::string& name) { return &GetHistogram(name); }

  // Registers a pull-mode gauge. Re-registering a name replaces its callback
  // (components may be re-bound after reconfiguration).
  void RegisterGauge(const std::string& name, GaugeFn fn);

  // Registers a gauge whose backing value is a monotonically non-decreasing
  // counter that never resets. The gauge reads the counter's growth since the
  // last Rebase() (since registration before the first one). The kind tag lets
  // the invariant auditor enforce monotonicity across snapshots and lets the
  // reset parity sweep assert every counter gauge reads 0 after a Rebase(),
  // without either of them hard-coding metric names. State gauges (occupancy,
  // free counts, clock time) stay on plain RegisterGauge.
  void RegisterCounterGauge(const std::string& name, GaugeFn fn);
  // A counter gauge over one field (a SimDuration reads in nanoseconds). The
  // field must outlive the registry's use of the gauge.
  void RegisterCounter(const std::string& name, const uint64_t* value);
  void RegisterCounter(const std::string& name, const SimDuration* value);

  const std::set<std::string>& counter_gauge_names() const { return counter_gauge_names_; }

  // Restarts every count (a bench's warm-up discard): from here on each counter
  // gauge reads its counter's growth since this call, and every push counter
  // and histogram starts from zero. State gauges are untouched.
  void Rebase();

  // Registered histogram names (not the expanded .count/.mean/... fields).
  std::vector<std::string> HistogramNames() const;

  Counter* FindCounter(const std::string& name);
  const Counter* FindCounter(const std::string& name) const;

  LatencyHistogram& GetHistogram(const std::string& name);
  LatencyHistogram* FindHistogram(const std::string& name);
  const LatencyHistogram* FindHistogram(const std::string& name) const;

  bool HasGauge(const std::string& name) const { return gauges_.contains(name); }
  // Evaluates a gauge; the gauge must exist.
  double GaugeValue(const std::string& name) const;

  // Value of `name` regardless of kind (counter value, gauge callback, or a
  // histogram sub-field like "vm.fault_ns.p99"). Returns false when unknown.
  bool Lookup(const std::string& name, double* out) const;

  size_t num_counters() const { return counters_.size(); }
  size_t num_gauges() const { return gauges_.size(); }

  // Flat name -> value view of everything, histograms expanded into
  // .count/.mean/.min/.max/.p50/.p90/.p99/.p999. Sorted by name (deterministic).
  // Returned as a vector so the whole snapshot is one reserved allocation;
  // histogram field names are built once at registration, not per snapshot.
  std::vector<std::pair<std::string, double>> Snapshot() const;

  // Snapshot rendered as one JSON object.
  std::string ToJson() const;

 private:
  void CheckNameFree(const std::string& name, const void* exempt) const;

  // Expanded snapshot field names ("<name>.count", ...) are precomputed here
  // when the histogram is created so Snapshot() never rebuilds them.
  struct HistogramEntry {
    std::unique_ptr<LatencyHistogram> hist;
    std::array<std::string, 8> field_names;
  };

  // A gauge reads fn() - base. Only Rebase() sets base, and only on counter
  // gauges; registration starts it at 0.
  struct Gauge {
    GaugeFn fn;
    double base = 0.0;
    double Read() const { return fn() - base; }
  };

  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, HistogramEntry> histograms_;
  std::set<std::string> counter_gauge_names_;  // subset of gauges_ keys
};

}  // namespace compcache

#endif  // COMPCACHE_UTIL_METRICS_H_
