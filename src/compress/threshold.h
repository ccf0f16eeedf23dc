// The keep-compressed threshold.
//
// Paper, section 5.2: "98% of the pages compressed less than 4:3, the threshold for
// keeping them in compressed format. Thus the time to compress these pages was
// wasted effort." A page is only worth keeping compressed when the compressed copy
// is enough smaller than the original; 4:3 means compressed size must be at most
// 3/4 of the page.
#ifndef COMPCACHE_COMPRESS_THRESHOLD_H_
#define COMPCACHE_COMPRESS_THRESHOLD_H_

#include <cstdint>

#include "util/assert.h"

namespace compcache {

class CompressionThreshold {
 public:
  // ratio_num : ratio_den is the minimum acceptable original:compressed ratio.
  // The paper's default is 4:3.
  constexpr CompressionThreshold(uint32_t ratio_num = 4, uint32_t ratio_den = 3)
      : num_(ratio_num), den_(ratio_den) {
    CC_EXPECTS(ratio_num >= ratio_den);
    CC_EXPECTS(ratio_den > 0);
  }

  // True when a page of original_size that compressed to compressed_size should be
  // kept in compressed format.
  constexpr bool KeepCompressed(uint64_t original_size, uint64_t compressed_size) const {
    // original / compressed >= num / den  <=>  original * den >= compressed * num.
    return original_size * den_ >= compressed_size * num_;
  }

  // Largest acceptable compressed size for a page of the given original size.
  constexpr uint64_t MaxAcceptable(uint64_t original_size) const {
    return original_size * den_ / num_;
  }

  constexpr double ratio() const {
    return static_cast<double>(num_) / static_cast<double>(den_);
  }

  constexpr bool operator==(const CompressionThreshold&) const = default;

 private:
  uint32_t num_;
  uint32_t den_;
};

}  // namespace compcache

#endif  // COMPCACHE_COMPRESS_THRESHOLD_H_
