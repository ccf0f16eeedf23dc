// Result of a backing-store I/O operation, threaded from the disk device up
// through the file system and the swap backends so that no layer has to assume
// the layer below is perfect.
//
//   kOk      — the operation completed (possibly after internal retries).
//   kFailed  — a transient error persisted through the retry policy; no data
//              was transferred (reads) or the on-disk state is unchanged for
//              the failed portion (writes).
//   kCorrupt — the bytes were transferred but failed checksum verification.
//              Latent corruption is silent at the device level by design; only
//              layers that store checksums (swap backends, the compression
//              cache) can return this.
#ifndef COMPCACHE_UTIL_IO_STATUS_H_
#define COMPCACHE_UTIL_IO_STATUS_H_

#include <cstdint>

namespace compcache {

enum class IoStatus : uint8_t {
  kOk = 0,
  kFailed,
  kCorrupt,
};

}  // namespace compcache

#endif  // COMPCACHE_UTIL_IO_STATUS_H_
