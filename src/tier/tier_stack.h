// TierStack: an LRU cascade of flash-class tiers behind the compression cache.
//
// The stack implements the CompressedSwapBackend contract, so to the ccache,
// pager, and write-behind decorator it *is* the backing store. Every image
// the ccache writes back lands in tier 0; when a tier is over capacity its
// LRU pages are demoted one tier down, and the machine's configured disk swap
// layout is the unbounded bottom tier. Every page lives in exactly one tier,
// and per-tier occupancy and flow conservation are audited.
#ifndef COMPCACHE_TIER_TIER_STACK_H_
#define COMPCACHE_TIER_TIER_STACK_H_

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "disk/disk_device.h"
#include "fs/file_system.h"
#include "sim/clock.h"
#include "swap/compressed_swap_backend.h"
#include "tier/tier_config.h"
#include "vm/page_key.h"

namespace compcache {

// Per-tier event counters, published as "tier.<name>.*" counter gauges.
// Conservation identities (audited, and re-checked over bench JSON):
//   landings + demotions_in
//     == pages + demotions_out + invalidations      (per tier)
//   demotions_out[i] == demotions_in[i+1]           (boundary)
struct TierCounters {
  uint64_t landings = 0;        // images stored directly from a WriteBatch
  uint64_t demotions_in = 0;    // received from the tier above
  uint64_t demotions_out = 0;   // pushed to the tier below
  uint64_t invalidations = 0;   // dropped (explicit Invalidate or overwrite)
  uint64_t reads = 0;           // fault-path reads served by this tier
  uint64_t demotion_failures = 0;  // demotions aborted (disk write failed)
};

class TierStack : public CompressedSwapBackend {
 public:
  // `bottom` is the machine's configured swap layout; it becomes the unbounded
  // lowest tier.
  TierStack(Clock* clock, std::unique_ptr<CompressedSwapBackend> bottom, TierOptions options);
  ~TierStack() override;

  // --- CompressedSwapBackend ---
  IoStatus WriteBatch(std::span<const SwapPageImage> pages) override;
  bool Contains(PageKey key) const override { return entries_.contains(key); }
  ReadResult ReadPage(PageKey key, bool collect_coresidents) override;
  void Invalidate(PageKey key) override;
  void ForEachPage(const std::function<void(PageKey)>& fn) const override;
  void RegisterAuditChecks(InvariantAuditor* auditor) override;
  // Summed over every tier's layout (the stack reads no image itself).
  uint64_t checksum_mismatches() const override;
  void BindMetrics(MetricRegistry* registry) override;
  void SetTracer(EventTracer* tracer) override;

  // --- machine integration ---
  // The adopted disk layout (for the machine's typed-alias debug check).
  CompressedSwapBackend* bottom_backend() { return tiers_.back().backend; }

  // --- introspection (tests, Report) ---
  size_t num_tiers() const { return tiers_.size(); }
  const std::string& tier_name(size_t t) const { return tiers_[t].name; }
  const TierCounters& tier_counters(size_t t) const { return tiers_[t].counters; }
  size_t tier_pages(size_t t) const { return tiers_[t].lru.size(); }
  uint64_t tier_sub_blocks(size_t t) const { return tiers_[t].sub_blocks_used; }
  // Tier index currently holding `key`, if any.
  std::optional<size_t> TierOf(PageKey key) const;

 private:
  enum class Flow { kLanding, kDemotion };

  struct Entry {
    size_t tier = 0;
    uint32_t sub_blocks = 0;
    std::list<PageKey>::iterator lru_it;
  };

  struct Tier {
    std::string name;
    uint64_t max_sub_blocks = UINT64_MAX;  // UINT64_MAX = the unbounded bottom
    // Device tiers own their device, file system and clustered layout; the
    // bottom tier aliases the adopted disk layout.
    std::unique_ptr<DiskDevice> ssd_device;
    std::unique_ptr<FileSystem> ssd_fs;
    std::unique_ptr<CompressedSwapBackend> owned_layout;
    CompressedSwapBackend* backend = nullptr;
    std::list<PageKey> lru;  // front = oldest
    uint64_t sub_blocks_used = 0;
    TierCounters counters;
    LatencyHistogram* read_ns = nullptr;  // owned by the bound registry
  };

  // Stores `batch` into tier `t`, first demoting the tier's LRU pages one
  // tier down to make room. A device tier whose write fails passes the batch
  // on to the next tier; only the bottom tier's failure propagates, with
  // nothing recorded.
  IoStatus StoreBatch(size_t t, std::span<const SwapPageImage> batch, Flow flow);
  // After a failed write of `batch` into tier `t`: invalidates every batch key
  // the tier map does not place in `t`, discarding any prefix the layout
  // persisted before failing (LFS appends per-image). Keys mapped to `t` keep
  // their copy — a failed overwrite preserved the old one.
  void DiscardPartialPersists(size_t t, std::span<const SwapPageImage> batch);
  // Demotes LRU pages of tier `t` (skipping `exclude`) until
  // `incoming_sub_blocks` fit under the tier's capacity. Best effort: a failed
  // demotion leaves the tier transiently over capacity.
  void MakeRoom(size_t t, uint64_t incoming_sub_blocks, std::span<const SwapPageImage> exclude);
  // Bookkeeping after a physical store of `key` into tier `t`: moves or
  // refreshes the entry, removes any old copy, bumps flow counters.
  void CommitStore(PageKey key, size_t t, uint32_t sub_blocks, Flow flow);
  // Physical removal + bookkeeping; `demoted` picks the outflow counter.
  void RemoveFrom(size_t t, PageKey key, bool demoted);
  void TouchLru(Tier& tier, Entry* entry, PageKey key);

  Clock* clock_;
  std::vector<Tier> tiers_;         // fastest first; back() = bottom (disk)
  std::unique_ptr<CompressedSwapBackend> bottom_;  // owned; aliased by back().backend
  std::unordered_map<PageKey, Entry, PageKeyHash> entries_;
  EventTracer* tracer_ = nullptr;
};

}  // namespace compcache

#endif  // COMPCACHE_TIER_TIER_STACK_H_
