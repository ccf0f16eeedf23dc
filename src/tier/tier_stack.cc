#include "tier/tier_stack.h"

#include <algorithm>
#include <utility>

#include "disk/disk_model.h"
#include "swap/clustered_swap.h"
#include "util/assert.h"
#include "util/audit.h"
#include "util/units.h"

namespace compcache {

namespace {

// Capacity quantum: the 1 KB fragment the clustered swap layout allocates in.
constexpr uint64_t kSubBlockBytes = kSwapFragmentSize;
// Per-request setup charged by every SSD tier device, and the device size
// (not the tier cap: the tier's capacity_bytes bounds what it holds).
constexpr SimDuration kSsdIoSetup = SimDuration::Micros(10);
constexpr uint64_t kSsdDeviceBytes = 1024 * kMiB;

uint32_t SubBlocksFor(size_t bytes) {
  const uint64_t sub_blocks = (bytes + kSubBlockBytes - 1) / kSubBlockBytes;
  return static_cast<uint32_t>(std::max<uint64_t>(1, sub_blocks));
}

bool InBatch(std::span<const SwapPageImage> batch, PageKey key) {
  return std::any_of(batch.begin(), batch.end(),
                     [key](const SwapPageImage& image) { return image.key == key; });
}

}  // namespace

TierStack::TierStack(Clock* clock, std::unique_ptr<CompressedSwapBackend> bottom,
                     TierOptions options)
    : clock_(clock), bottom_(std::move(bottom)) {
  CC_EXPECTS(clock_ != nullptr && bottom_ != nullptr);
  tiers_.reserve(options.tiers.size() + 1);
  for (const TierSpec& spec : options.tiers) {
    CC_EXPECTS(!spec.name.empty() && spec.name != "disk");
    for (const Tier& existing : tiers_) {
      CC_EXPECTS(existing.name != spec.name);
    }
    Tier tier;
    tier.name = spec.name;
    tier.max_sub_blocks = spec.capacity_bytes / kSubBlockBytes;
    CC_EXPECTS(tier.max_sub_blocks >= kPageSize / kSubBlockBytes);  // room for one page
    NetworkLinkParams params;
    params.capacity_bytes = kSsdDeviceBytes;
    params.round_trip_latency = spec.ssd_latency;
    params.bandwidth_bytes_per_sec = spec.ssd_bandwidth_bytes_per_sec;
    tier.ssd_device = std::make_unique<DiskDevice>(
        clock_, std::make_unique<NetworkLinkModel>(params), kSsdIoSetup);
    tier.ssd_fs = std::make_unique<FileSystem>(tier.ssd_device.get());
    tier.owned_layout = std::make_unique<ClusteredSwapLayout>(tier.ssd_fs.get());
    tier.backend = tier.owned_layout.get();
    tiers_.push_back(std::move(tier));
  }
  Tier disk;
  disk.name = "disk";
  disk.backend = bottom_.get();
  tiers_.push_back(std::move(disk));
}

TierStack::~TierStack() = default;

IoStatus TierStack::WriteBatch(std::span<const SwapPageImage> pages) {
  return StoreBatch(0, pages, Flow::kLanding);
}

CompressedSwapBackend::ReadResult TierStack::ReadPage(PageKey key, bool collect_coresidents) {
  const auto it = entries_.find(key);
  CC_EXPECTS(it != entries_.end());
  Tier& tier = tiers_[it->second.tier];
  const SimTime start = clock_->Now();
  ReadResult result = tier.backend->ReadPage(key, collect_coresidents);
  ++tier.counters.reads;
  TouchLru(tier, &it->second, key);
  if (tier.read_ns != nullptr) {
    tier.read_ns->Observe(static_cast<double>((clock_->Now() - start).nanos()));
  }
  return result;
}

void TierStack::Invalidate(PageKey key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    // Tolerant no-op for never-stored keys, same as the layouts themselves.
    tiers_.back().backend->Invalidate(key);
    return;
  }
  RemoveFrom(it->second.tier, key, /*demoted=*/false);
}

void TierStack::ForEachPage(const std::function<void(PageKey)>& fn) const {
  for (const auto& [key, entry] : entries_) {
    fn(key);
  }
}

void TierStack::SetTracer(EventTracer* tracer) {
  tracer_ = tracer;
  for (Tier& tier : tiers_) {
    tier.backend->SetTracer(tracer);
  }
}

void TierStack::BindMetrics(MetricRegistry* registry) {
  tiers_.back().backend->BindMetrics(registry);
  for (size_t t = 0; t < tiers_.size(); ++t) {
    Tier* tier = &tiers_[t];
    const std::string prefix = "tier." + tier->name + ".";
    registry->RegisterGauge(prefix + "level", [t] { return static_cast<double>(t); });
    registry->RegisterGauge(prefix + "pages",
                            [tier] { return static_cast<double>(tier->lru.size()); });
    registry->RegisterGauge(prefix + "sub_blocks",
                            [tier] { return static_cast<double>(tier->sub_blocks_used); });
    const TierCounters& c = tier->counters;
    registry->RegisterCounter(prefix + "landings", &c.landings);
    registry->RegisterCounter(prefix + "demotions_in", &c.demotions_in);
    registry->RegisterCounter(prefix + "demotions_out", &c.demotions_out);
    registry->RegisterCounter(prefix + "invalidations", &c.invalidations);
    registry->RegisterCounter(prefix + "reads", &c.reads);
    registry->RegisterCounter(prefix + "demotion_failures", &c.demotion_failures);
    if (tier->ssd_device != nullptr) {
      // The SSD device's own BindMetrics would collide with the bottom disk's
      // fixed "disk.*" names, so its stats surface under the tier prefix.
      const DiskStats& dev = tier->ssd_device->stats();
      registry->RegisterCounter(prefix + "device_read_ops", &dev.read_ops);
      registry->RegisterCounter(prefix + "device_write_ops", &dev.write_ops);
      registry->RegisterCounter(prefix + "device_busy_ns", &dev.busy_time);
    }
    tier->read_ns = registry->BindHistogram(prefix + "read_ns");
  }
}

void TierStack::RegisterAuditChecks(InvariantAuditor* auditor) {
  for (Tier& tier : tiers_) {
    tier.backend->RegisterAuditChecks(auditor);
  }
  // Every page in exactly one tier, and the central map agrees with what the
  // per-tier stores actually hold.
  auditor->Register("tier", "residency-coherence", [this]() -> std::optional<std::string> {
    size_t total = 0;
    for (size_t t = 0; t < tiers_.size(); ++t) {
      const Tier& tier = tiers_[t];
      size_t store_pages = 0;
      std::optional<std::string> failure;
      tier.backend->ForEachPage([&](PageKey key) {
        ++store_pages;
        const auto it = entries_.find(key);
        if (it == entries_.end()) {
          failure = "tier " + tier.name + " holds an unmapped page";
        } else if (it->second.tier != t) {
          failure = "tier " + tier.name + " holds a page mapped to tier " +
                    std::to_string(it->second.tier) + " (double residency)";
        }
      });
      if (failure.has_value()) {
        return failure;
      }
      if (store_pages != tier.lru.size()) {
        return "tier " + tier.name + " store holds " + std::to_string(store_pages) +
               " pages but lru tracks " + std::to_string(tier.lru.size());
      }
      total += store_pages;
    }
    if (total != entries_.size()) {
      return "tier stores hold " + std::to_string(total) + " pages but the map has " +
             std::to_string(entries_.size());
    }
    return std::nullopt;
  });
  // Per-tier occupancy: inflows equal live pages plus outflows.
  auditor->Register("tier", "occupancy-conservation", [this]() -> std::optional<std::string> {
    for (const Tier& tier : tiers_) {
      const TierCounters& c = tier.counters;
      const uint64_t in = c.landings + c.demotions_in;
      const uint64_t out =
          static_cast<uint64_t>(tier.lru.size()) + c.demotions_out + c.invalidations;
      if (in != out) {
        return "tier " + tier.name + " occupancy: inflows " + std::to_string(in) +
               " != live+outflows " + std::to_string(out);
      }
    }
    return std::nullopt;
  });
  // Demotions move between adjacent tiers only, and never across the stack's
  // ends.
  auditor->Register("tier", "flow-conservation", [this]() -> std::optional<std::string> {
    for (size_t t = 0; t + 1 < tiers_.size(); ++t) {
      const TierCounters& upper = tiers_[t].counters;
      const TierCounters& lower = tiers_[t + 1].counters;
      if (upper.demotions_out != lower.demotions_in) {
        return "boundary " + tiers_[t].name + "/" + tiers_[t + 1].name + ": demotions_out " +
               std::to_string(upper.demotions_out) + " != demotions_in " +
               std::to_string(lower.demotions_in);
      }
    }
    if (tiers_.front().counters.demotions_in != 0 || tiers_.back().counters.demotions_out != 0) {
      return "flow crossed the stack boundary (top received a demotion or bottom emitted one)";
    }
    return std::nullopt;
  });
}

uint64_t TierStack::checksum_mismatches() const {
  uint64_t total = 0;
  for (const Tier& tier : tiers_) {
    total += tier.backend->checksum_mismatches();
  }
  return total;
}

std::optional<size_t> TierStack::TierOf(PageKey key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    return std::nullopt;
  }
  return it->second.tier;
}

IoStatus TierStack::StoreBatch(size_t t, std::span<const SwapPageImage> batch, Flow flow) {
  Tier& tier = tiers_[t];
  const bool is_bottom = t + 1 == tiers_.size();
  if (!is_bottom) {
    uint64_t incoming = 0;
    for (const SwapPageImage& image : batch) {
      const uint32_t sb = SubBlocksFor(image.bytes.size());
      const auto it = entries_.find(image.key);
      if (it != entries_.end() && it->second.tier == t) {
        incoming += sb > it->second.sub_blocks ? sb - it->second.sub_blocks : 0;
      } else {
        incoming += sb;
      }
    }
    MakeRoom(t, incoming, batch);
  }
  const IoStatus status = tier.backend->WriteBatch(batch);
  if (status != IoStatus::kOk) {
    // The layouts may persist a prefix of a failed batch (LFS appends
    // per-image). Same discipline as the ccache write paths: discard those
    // partial locations, or the backend holds pages the tier map doesn't
    // place here.
    DiscardPartialPersists(t, batch);
    return is_bottom ? status : StoreBatch(t + 1, batch, flow);
  }
  for (const SwapPageImage& image : batch) {
    CommitStore(image.key, t, SubBlocksFor(image.bytes.size()), flow);
  }
  return IoStatus::kOk;
}

void TierStack::DiscardPartialPersists(size_t t, std::span<const SwapPageImage> batch) {
  Tier& tier = tiers_[t];
  for (const SwapPageImage& image : batch) {
    const auto it = entries_.find(image.key);
    if (it == entries_.end() || it->second.tier != t) {
      tier.backend->Invalidate(image.key);  // tolerant no-op if never persisted
    }
  }
}

void TierStack::MakeRoom(size_t t, uint64_t incoming_sub_blocks,
                         std::span<const SwapPageImage> exclude) {
  Tier& tier = tiers_[t];
  if (tier.sub_blocks_used + incoming_sub_blocks <= tier.max_sub_blocks) {
    return;
  }
  uint64_t reclaim = 0;
  std::vector<SwapPageImage> victims;
  for (const PageKey key : tier.lru) {
    if (InBatch(exclude, key)) {
      continue;
    }
    reclaim += entries_.at(key).sub_blocks;
    ReadResult stored = tier.backend->ReadPage(key, /*collect_coresidents=*/false);
    SwapPageImage& image = victims.emplace_back();
    image.key = key;
    image.bytes = std::move(stored.bytes);
    image.is_compressed = stored.is_compressed;
    image.original_size = stored.original_size;
    image.checksum = stored.checksum;
    if (tier.sub_blocks_used - reclaim + incoming_sub_blocks <= tier.max_sub_blocks) {
      break;
    }
  }
  if (victims.empty()) {
    return;  // everything is in the incoming batch; tolerate transient overflow
  }
  if (StoreBatch(t + 1, victims, Flow::kDemotion) != IoStatus::kOk) {
    // The bottom failed, so nothing moved: every victim stayed put.
    tier.counters.demotion_failures += victims.size();
  }
}

void TierStack::CommitStore(PageKey key, size_t t, uint32_t sub_blocks, Flow flow) {
  Tier& tier = tiers_[t];
  const auto it = entries_.find(key);
  if (it != entries_.end() && it->second.tier == t) {
    // In-place overwrite: the store already replaced the bytes; the old copy
    // counts as invalidated so occupancy stays conserved.
    tier.sub_blocks_used += sub_blocks;
    tier.sub_blocks_used -= it->second.sub_blocks;
    it->second.sub_blocks = sub_blocks;
    TouchLru(tier, &it->second, key);
    ++tier.counters.invalidations;
  } else {
    if (it != entries_.end()) {
      const size_t from = it->second.tier;
      const bool demoted = flow == Flow::kDemotion;
      RemoveFrom(from, key, demoted);
      if (demoted) {
        // A demotion that fell through intermediate failing tiers is booked
        // as transiting each one, so boundary flow conservation holds per hop.
        for (size_t mid = from + 1; mid < t; ++mid) {
          ++tiers_[mid].counters.demotions_in;
          ++tiers_[mid].counters.demotions_out;
        }
        if (tracer_ != nullptr) {
          tracer_->Record(TraceEventKind::kTierDemotion, clock_->Now(), key, from, t);
        }
      }
    } else {
      CC_ASSERT(flow == Flow::kLanding);  // demotions move existing entries
    }
    tier.lru.push_back(key);
    entries_[key] = Entry{t, sub_blocks, std::prev(tier.lru.end())};
    tier.sub_blocks_used += sub_blocks;
  }
  if (flow == Flow::kLanding) {
    ++tier.counters.landings;
  } else {
    ++tier.counters.demotions_in;
  }
}

void TierStack::RemoveFrom(size_t t, PageKey key, bool demoted) {
  Tier& tier = tiers_[t];
  const auto it = entries_.find(key);
  CC_EXPECTS(it != entries_.end() && it->second.tier == t);
  tier.backend->Invalidate(key);
  tier.lru.erase(it->second.lru_it);
  tier.sub_blocks_used -= it->second.sub_blocks;
  entries_.erase(it);
  ++(demoted ? tier.counters.demotions_out : tier.counters.invalidations);
}

void TierStack::TouchLru(Tier& tier, Entry* entry, PageKey key) {
  tier.lru.erase(entry->lru_it);
  tier.lru.push_back(key);
  entry->lru_it = std::prev(tier.lru.end());
}

}  // namespace compcache
