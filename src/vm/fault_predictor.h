// Fault-stream predictor for the decompress-ahead prefetcher: a per-segment
// stride detector.
//
// It captures the thrasher's (and any scan's) linear walks: two consecutive
// equal strides within a segment confirm a stream, and the prefetcher then
// extrapolates it. A stream without a confirmed stride predicts nothing —
// guesses off a stride rarely pay on a fault stream (Zipf traffic, the
// service benches), and each one costs a buffer frame and a ring copy.
#ifndef COMPCACHE_VM_FAULT_PREDICTOR_H_
#define COMPCACHE_VM_FAULT_PREDICTOR_H_

#include <cstdint>
#include <unordered_map>

#include "vm/page_key.h"

namespace compcache {

class FaultPredictor {
 public:
  // Feeds one fault into its segment's stride state.
  void RecordFault(PageKey key);

  // The confirmed stride of `segment`'s fault stream — the page delta its last
  // three faults repeated — or 0 when no stream is confirmed. Its sign is the
  // walk's direction.
  int64_t ConfirmedStride(uint32_t segment) const {
    const auto it = streams_.find(segment);
    return it != streams_.end() && it->second.confirmed ? it->second.delta : 0;
  }

 private:
  // Per-segment stride stream: last fault page, last delta, confirmation.
  struct Stream {
    uint32_t last_page = 0;
    int64_t delta = 0;
    bool has_last = false;
    bool confirmed = false;
  };

  std::unordered_map<uint32_t, Stream> streams_;
};

}  // namespace compcache

#endif  // COMPCACHE_VM_FAULT_PREDICTOR_H_
