// Deterministic fault injection for the paging stack.
//
// Real memory-compression systems must survive a disk that occasionally errors
// and media that occasionally flips bits; the simulator models both through a
// single seeded injector so that any failure scenario replays bit-for-bit.
// Each fault *site* (transient disk read error, transient disk write error,
// latent sector corruption, codec corruption) has its own schedule and its own
// xoshiro256** stream, so enabling faults at one site never perturbs the
// random sequence — and therefore the injected history — of another.
//
// A schedule triggers in two ways, combinable:
//   - `fail_ops`: explicit 1-based operation ordinals ("fail the 3rd read"),
//     for targeted tests;
//   - `probability`: independent per-operation Bernoulli draw, for
//     statistical degradation experiments. The per-site RNG is consumed only
//     when probability > 0, keeping nth-op-only schedules draw-free.
//
// The injector is passive: callers (DiskDevice, CompressionCache) ask
// ShouldFault() at each operation and implement the fault themselves. It
// exposes `fault.*` injection counters as metrics and records a
// `fault_injected` trace event per trigger.
#ifndef COMPCACHE_UTIL_FAULT_H_
#define COMPCACHE_UTIL_FAULT_H_

#include <array>
#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "util/time_types.h"

namespace compcache {

class Clock;
class EventTracer;
class MetricRegistry;

enum class FaultSite : uint8_t {
  kDiskRead = 0,       // transient read error: the transfer fails, retry may succeed
  kDiskWrite,          // transient write error: the store fails, retry may succeed
  kSectorCorruption,   // latent: a stored bit flips after an otherwise-good write
  kCodecCorruption,    // a compressed image is damaged between store and decompress
  kPowerFail,          // whole-machine power loss mid-write: the disk keeps only a
                       // prefix of the in-flight request (torn final sector)
};

inline constexpr size_t kNumFaultSites = 5;

struct FaultSchedule {
  // Per-operation fault probability in [0, 1].
  double probability = 0.0;
  // Explicit 1-based operation ordinals that always fault. Kept sorted by
  // SetSchedule so ShouldFault can binary-search.
  std::vector<uint64_t> fail_ops;

  bool empty() const { return probability <= 0.0 && fail_ops.empty(); }
};

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed);

  void SetSchedule(FaultSite site, FaultSchedule schedule);

  // Counts one operation at `site` and reports whether it faults. Every call
  // advances the site's op ordinal, so callers must ask exactly once per
  // modeled operation.
  bool ShouldFault(FaultSite site);

  // Deterministic uniform draw in [0, bound) from the site's stream, for
  // picking *which* bit/byte a triggered corruption damages. Separate from the
  // Bernoulli stream state only in that it is drawn after the trigger, so
  // schedules with probability 0 (nth-op only) still corrupt reproducibly.
  uint64_t Draw(FaultSite site, uint64_t bound);

  uint64_t ops(FaultSite site) const { return sites_[Index(site)].ops; }
  uint64_t injected(FaultSite site) const { return sites_[Index(site)].injected; }
  uint64_t total_injected() const;

  // Publishes each site's injection count (fault.disk_read_errors,
  // fault.disk_write_errors, fault.sector_corruptions, fault.codec_corruptions,
  // fault.power_fails) as a counter: a registry rebase restarts the published
  // counts without touching the sites' positional ordinals.
  void BindMetrics(MetricRegistry* registry);
  void SetTracer(EventTracer* tracer, const Clock* clock) {
    tracer_ = tracer;
    clock_ = clock;
  }

 private:
  struct SiteState {
    FaultSchedule schedule;
    Rng rng{0};
    uint64_t ops = 0;
    uint64_t injected = 0;
  };

  static size_t Index(FaultSite site) { return static_cast<size_t>(site); }

  std::array<SiteState, kNumFaultSites> sites_;
  EventTracer* tracer_ = nullptr;
  const Clock* clock_ = nullptr;
};

}  // namespace compcache

#endif  // COMPCACHE_UTIL_FAULT_H_
