// Three-way memory arbitration (paper section 4.2).
//
// Sprite traded memory between the VM system and the file buffer cache by
// comparing the ages of their LRU pages, "modulo an adjustment to favor retaining
// VM pages longer". The compression cache adds a third consumer: "allocation of
// each of the three types of memory requires a comparison of the ages of the
// oldest pages for all three types. The system biases the ages to favor compressed
// pages over uncompressed pages and both of these over file cache blocks."
//
// A bias is added to a consumer's oldest age to make it look younger (so it is
// retained longer). "The more the system favors compressed pages, the larger the
// compression cache will tend to grow in periods of heavy paging; with a very low
// bias ... the compression cache degenerates into a buffer for compressing and
// decompressing pages between memory and the backing store."
#ifndef COMPCACHE_POLICY_MEMORY_ARBITER_H_
#define COMPCACHE_POLICY_MEMORY_ARBITER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/metrics.h"
#include "util/time_types.h"
#include "util/trace.h"

namespace compcache {

class Clock;

struct ArbiterBiases {
  SimDuration file_cache;  // baseline: reclaimed first among equals
  SimDuration vm = SimDuration::Seconds(5);
  // Strongly favor compressed pages: they hold several pages' worth of data per
  // frame, so reclaiming them wastes more work than reclaiming one VM page. (The
  // paper notes the optimal value is application-dependent; see the bias
  // ablation benchmark.)
  SimDuration ccache = SimDuration::Seconds(10);
};

class InvariantAuditor;

class MemoryArbiter {
 public:
  struct Consumer {
    std::string name;
    std::function<uint64_t()> oldest_age_ns;  // UINT64_MAX when the consumer is empty
    std::function<bool()> release_oldest;     // false when nothing can be released
    uint64_t bias_ns = 0;
    uint64_t reclaims = 0;
    uint64_t refusals = 0;
    // Whether the published oldest age is non-decreasing while the consumer is
    // non-empty. True for pure LRU consumers (vm, file cache); the ccache
    // refreshes its front entry's age in place on a fault hit, so a later
    // front can be older than the refreshed one — legitimately non-monotone.
    bool monotone_age = false;
    uint64_t last_published_age = 0;  // auditor bookkeeping, monotone consumers only
  };

  void AddConsumer(std::string name, std::function<uint64_t()> oldest_age_ns,
                   std::function<bool()> release_oldest, SimDuration bias,
                   bool monotone_age = false);

  // Reclaims one frame from the consumer whose biased oldest age is smallest
  // (i.e., globally oldest after favoritism). Falls back to the next-oldest
  // consumer if the first refuses. Returns false only when every consumer is
  // empty or refuses.
  bool ReclaimOne();

  const std::vector<Consumer>& consumers() const { return consumers_; }

  // Invariants: every published age is UINT64_MAX (empty) or a plausible
  // timestamp (<= now), and monotone consumers never publish a smaller age
  // than they did at the previous audit. Call after all consumers are added.
  void RegisterAuditChecks(InvariantAuditor* auditor, const Clock* clock);

  // Publishes per-consumer counters as "arbiter.<name>.reclaims|refusals" gauges.
  // Call after all consumers are added.
  void BindMetrics(MetricRegistry* registry);
  // The arbiter has no clock of its own; the tracer needs one for timestamps.
  void SetTracer(EventTracer* tracer, const Clock* clock) {
    tracer_ = tracer;
    trace_clock_ = clock;
  }

 private:
  void RecordReclaim(size_t consumer_index, bool fell_through);

  std::vector<Consumer> consumers_;
  EventTracer* tracer_ = nullptr;
  const Clock* trace_clock_ = nullptr;
};

}  // namespace compcache

#endif  // COMPCACHE_POLICY_MEMORY_ARBITER_H_
