#include "vm/fault_predictor.h"

namespace compcache {

void FaultPredictor::RecordFault(PageKey key) {
  // Two equal consecutive deltas within a segment confirm a stream.
  Stream& stream = streams_[key.segment];
  if (stream.has_last) {
    const int64_t delta = static_cast<int64_t>(key.page) - static_cast<int64_t>(stream.last_page);
    if (delta != 0 && delta == stream.delta) {
      stream.confirmed = true;
    } else {
      stream.delta = delta;
      stream.confirmed = false;
    }
  }
  stream.last_page = key.page;
  stream.has_last = true;
}

}  // namespace compcache
