#include "util/fault.h"

#include <algorithm>

#include "sim/clock.h"
#include "util/assert.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace compcache {

FaultInjector::FaultInjector(uint64_t seed) {
  // Independent stream per site: SplitMix64 inside Rng::Seed decorrelates the
  // nearby seed values.
  for (size_t i = 0; i < kNumFaultSites; ++i) {
    sites_[i].rng.Seed(seed * kNumFaultSites + i + 1);
  }
}

void FaultInjector::SetSchedule(FaultSite site, FaultSchedule schedule) {
  CC_EXPECTS(schedule.probability >= 0.0 && schedule.probability <= 1.0);
  std::sort(schedule.fail_ops.begin(), schedule.fail_ops.end());
  sites_[Index(site)].schedule = std::move(schedule);
}

bool FaultInjector::ShouldFault(FaultSite site) {
  SiteState& s = sites_[Index(site)];
  ++s.ops;
  bool fault = false;
  if (!s.schedule.fail_ops.empty() &&
      std::binary_search(s.schedule.fail_ops.begin(), s.schedule.fail_ops.end(), s.ops)) {
    fault = true;
  }
  // Draw only when a probability is configured so that nth-op schedules leave
  // the site's RNG stream untouched.
  if (s.schedule.probability > 0.0 && s.rng.Chance(s.schedule.probability)) {
    fault = true;
  }
  if (fault) {
    ++s.injected;
    if (tracer_ != nullptr && clock_ != nullptr) {
      tracer_->Record(TraceEventKind::kFaultInjected, clock_->Now(),
                      static_cast<uint64_t>(site), s.ops);
    }
  }
  return fault;
}

uint64_t FaultInjector::Draw(FaultSite site, uint64_t bound) {
  return sites_[Index(site)].rng.Below(bound);
}

uint64_t FaultInjector::total_injected() const {
  uint64_t total = 0;
  for (const SiteState& s : sites_) {
    total += s.injected;
  }
  return total;
}

void FaultInjector::BindMetrics(MetricRegistry* registry) {
  CC_EXPECTS(registry != nullptr);
  registry->RegisterCounter("fault.disk_read_errors",
                            &sites_[Index(FaultSite::kDiskRead)].injected);
  registry->RegisterCounter("fault.disk_write_errors",
                            &sites_[Index(FaultSite::kDiskWrite)].injected);
  registry->RegisterCounter("fault.sector_corruptions",
                            &sites_[Index(FaultSite::kSectorCorruption)].injected);
  registry->RegisterCounter("fault.codec_corruptions",
                            &sites_[Index(FaultSite::kCodecCorruption)].injected);
  registry->RegisterCounter("fault.power_fails", &sites_[Index(FaultSite::kPowerFail)].injected);
}

}  // namespace compcache
