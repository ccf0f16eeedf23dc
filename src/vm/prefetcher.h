// Interface the pager uses to consult a decompress-ahead prefetcher without
// depending on the engine that implements it (which lives in src/core and
// needs the ccache, the swap backend, and the disk).
#ifndef COMPCACHE_VM_PREFETCHER_H_
#define COMPCACHE_VM_PREFETCHER_H_

#include <cstdint>
#include <optional>
#include <span>

#include "vm/page_key.h"

namespace compcache {

// Where a faulted page's bytes came from (reported to OnFault so the
// prefetcher can batch adjacent swap reads behind swap-sourced faults).
enum class FaultOrigin : uint8_t {
  kZeroFill = 0,
  kCcache,
  kSwap,
  kPrefetch,
};

class PagePrefetcher {
 public:
  virtual ~PagePrefetcher() = default;

  // If `key` sits in the prefetch buffer, fills `out` with its bytes (charging
  // copy time, plus any wait for the speculative work to finish on the
  // background timeline), consumes the entry, and reports where the
  // speculative copy originally came from. Returns nullopt on a buffer miss,
  // or when the buffered copy turns out unusable (the entry is discarded and
  // `out` holds no page).
  virtual std::optional<FaultOrigin> TryFill(PageKey key,
                                             std::span<uint8_t> out) = 0;

  // Observes a serviced fault (the predictor's input stream) and gives the
  // prefetcher the chance to issue speculative work. Called after the fault
  // completes, with the origin that serviced it.
  virtual void OnFault(PageKey key, FaultOrigin origin) = 0;

  // The page's compressed copy was invalidated (page dirtied, lost, or its
  // segment torn down); any buffered speculative image is stale.
  virtual void Invalidate(PageKey key) = 0;
};

}  // namespace compcache

#endif  // COMPCACHE_VM_PREFETCHER_H_
