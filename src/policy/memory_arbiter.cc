#include "policy/memory_arbiter.h"

#include <algorithm>
#include <string>

#include "sim/clock.h"
#include "util/assert.h"
#include "util/audit.h"

namespace compcache {

void MemoryArbiter::AddConsumer(std::string name, std::function<uint64_t()> oldest_age_ns,
                                std::function<bool()> release_oldest, SimDuration bias,
                                bool monotone_age) {
  CC_EXPECTS(oldest_age_ns != nullptr && release_oldest != nullptr);
  CC_EXPECTS(bias.nanos() >= 0);
  Consumer c;
  c.name = std::move(name);
  c.oldest_age_ns = std::move(oldest_age_ns);
  c.release_oldest = std::move(release_oldest);
  c.bias_ns = static_cast<uint64_t>(bias.nanos());
  c.monotone_age = monotone_age;
  consumers_.push_back(std::move(c));
}

bool MemoryArbiter::ReclaimOne() {
  CC_EXPECTS(!consumers_.empty());

  // Rank consumers by biased age of their oldest page. The bias add saturates
  // so an enormous age cannot wrap around to look young; a saturated consumer
  // is still non-empty and stays eligible (only age == UINT64_MAX means
  // empty). Ties — including several consumers all at age 0 near virtual time
  // zero — break deterministically by consumer name, so the arbitration
  // outcome is a function of the configured consumer set alone, never of the
  // order the machine happened to register them in.
  struct Ranked {
    uint64_t effective;
    size_t idx;
    bool empty;
    const std::string* name;
    bool operator<(const Ranked& other) const {
      return effective != other.effective ? effective < other.effective
                                          : *name < *other.name;
    }
  };
  std::vector<Ranked> order;
  order.reserve(consumers_.size());
  for (size_t i = 0; i < consumers_.size(); ++i) {
    const uint64_t age = consumers_[i].oldest_age_ns();
    const uint64_t bias = consumers_[i].bias_ns;
    const uint64_t effective = age > UINT64_MAX - bias ? UINT64_MAX : age + bias;
    order.push_back(Ranked{effective, i, age == UINT64_MAX, &consumers_[i].name});
  }
  std::sort(order.begin(), order.end());

  bool fell_through = false;
  for (const Ranked& r : order) {
    if (r.empty) {
      continue;  // nothing to release; a saturated consumer is NOT empty
    }
    Consumer& c = consumers_[r.idx];
    if (c.release_oldest()) {
      ++c.reclaims;
      RecordReclaim(r.idx, fell_through);
      return true;
    }
    ++c.refusals;
    fell_through = true;
  }
  // Last resort: ask everyone once more, ignoring emptiness markers (a
  // consumer may hold frames yet report UINT64_MAX transiently). Same
  // name-determined order as the ranked pass, for the same reason.
  for (const Ranked& r : order) {
    Consumer& c = consumers_[r.idx];
    if (c.release_oldest()) {
      ++c.reclaims;
      RecordReclaim(r.idx, /*fell_through=*/true);
      return true;
    }
  }
  return false;
}

void MemoryArbiter::RecordReclaim(size_t consumer_index, bool fell_through) {
  if (tracer_ != nullptr && trace_clock_ != nullptr) {
    tracer_->Record(TraceEventKind::kArbiterReclaim, trace_clock_->Now(),
                    /*a=*/consumer_index, /*b=*/fell_through ? 1 : 0);
  }
}

void MemoryArbiter::RegisterAuditChecks(InvariantAuditor* auditor, const Clock* clock) {
  CC_EXPECTS(auditor != nullptr && clock != nullptr);
  auditor->Register("arbiter", "ages-plausible", [this, clock]() -> std::optional<std::string> {
    const uint64_t now = static_cast<uint64_t>(clock->Now().nanos());
    for (Consumer& c : consumers_) {
      const uint64_t age = c.oldest_age_ns();
      if (age == UINT64_MAX) {
        continue;  // empty
      }
      if (age > now) {
        return c.name + " publishes age " + std::to_string(age) +
               " ahead of virtual time " + std::to_string(now);
      }
      if (c.monotone_age) {
        if (age < c.last_published_age) {
          return c.name + " (monotone) published age " + std::to_string(age) +
                 " after previously publishing " + std::to_string(c.last_published_age);
        }
        c.last_published_age = age;
      }
    }
    return std::nullopt;
  });
}

void MemoryArbiter::BindMetrics(MetricRegistry* registry) {
  CC_EXPECTS(registry != nullptr);
  for (const Consumer& c : consumers_) {
    registry->RegisterCounter("arbiter." + c.name + ".reclaims", &c.reclaims);
    registry->RegisterCounter("arbiter." + c.name + ".refusals", &c.refusals);
  }
}

}  // namespace compcache
