// Configuration for the flash-class tiers behind the compression cache.
//
// The paper's compression cache is the one compressed-DRAM level: compressed
// pages live there until the arbiter reclaims them, then go to the swap
// device. A TierStack puts a cascade of flash-class devices between the two:
// every image the ccache writes back lands in the top tier, each tier's LRU
// overflow moves one tier down, and the machine's configured disk layout is
// the unbounded bottom (see ZipCache in PAPERS.md: one DRAM pool in front of
// compressed flash). The ccache's capacity stays MachineConfig::
// ccache_max_frames; nothing here holds DRAM frames.
#ifndef COMPCACHE_TIER_TIER_CONFIG_H_
#define COMPCACHE_TIER_TIER_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/time_types.h"
#include "util/units.h"

namespace compcache {

// One flash-class tier: its own DiskDevice with a position-free
// latency/bandwidth model (NetworkLinkModel underneath) and a clustered layout.
struct TierSpec {
  // Unique label; appears in metric names ("tier.<name>.landings"). "disk" is
  // reserved for the implicit bottom tier.
  std::string name = "ssd";
  // Payload capacity, quantized to 1 KB sub-blocks. Exceeding it demotes the
  // tier's LRU pages to the next tier down.
  uint64_t capacity_bytes = 4 * kMiB;
  SimDuration ssd_latency = SimDuration::Micros(80);
  double ssd_bandwidth_bytes_per_sec = 500.0e6;
};

struct TierOptions {
  // Device tiers, fastest first. The disk tier (the configured compressed-swap
  // layout) is always appended below them. Empty (the default): no TierStack
  // is constructed. A non-empty list requires use_compression_cache and
  // refuses durability (the device tiers are not crash-recoverable).
  std::vector<TierSpec> tiers;
};

}  // namespace compcache

#endif  // COMPCACHE_TIER_TIER_CONFIG_H_
