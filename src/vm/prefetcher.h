// Interface the pager uses to consult a decompress-ahead prefetcher without
// depending on the engine that implements it (which lives in src/core and
// needs the ccache, the swap backend, and the disk).
#ifndef COMPCACHE_VM_PREFETCHER_H_
#define COMPCACHE_VM_PREFETCHER_H_

#include <span>

#include "vm/page_key.h"

namespace compcache {

class PagePrefetcher {
 public:
  virtual ~PagePrefetcher() = default;

  // If `key` sits in the prefetch buffer, fills `out` with its bytes (charging
  // copy time, plus any wait for the speculative work to finish on the
  // background timeline), consumes the entry, and returns true. Returns false
  // on a buffer miss, or when the buffered copy turns out unusable (the entry
  // is discarded and `out` holds no page).
  virtual bool TryFill(PageKey key, std::span<uint8_t> out) = 0;

  // Observes a serviced fault (the predictor's input stream) and gives the
  // prefetcher the chance to issue speculative work. Called after the fault
  // completes; `from_swap` says a demand swap read serviced it, so the
  // prefetcher can batch the adjacent blocks behind it.
  virtual void OnFault(PageKey key, bool from_swap) = 0;

  // The page's compressed copy was invalidated (page dirtied, lost, or its
  // segment torn down); any buffered speculative image is stale.
  virtual void Invalidate(PageKey key) = 0;
};

}  // namespace compcache

#endif  // COMPCACHE_VM_PREFETCHER_H_
