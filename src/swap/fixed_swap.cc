#include "swap/fixed_swap.h"

#include <string>

#include "util/assert.h"
#include "util/audit.h"
#include "util/checksum.h"
#include "util/units.h"

namespace compcache {

FixedSwapLayout::FixedSwapLayout(FileSystem* fs) : fs_(fs) { CC_EXPECTS(fs_ != nullptr); }

FileId FixedSwapLayout::SwapFileFor(uint32_t segment) {
  const auto it = swap_files_.find(segment);
  if (it != swap_files_.end()) {
    return it->second;
  }
  const FileId id = fs_->Create("swap.seg" + std::to_string(segment));
  swap_files_.emplace(segment, id);
  return id;
}

IoStatus FixedSwapLayout::WritePage(PageKey key, std::span<const uint8_t> page) {
  CC_EXPECTS(page.size() == kPageSize);
  if (fs_->Write(SwapFileFor(key.segment), static_cast<uint64_t>(key.page) * kPageSize,
                 page) != IoStatus::kOk) {
    ++io_failures_;
    return IoStatus::kFailed;
  }
  written_[key] = Crc32(page);
  ++pages_written_;
  return IoStatus::kOk;
}

IoStatus FixedSwapLayout::ReadPage(PageKey key, std::span<uint8_t> out) {
  CC_EXPECTS(out.size() == kPageSize);
  const auto it = written_.find(key);
  CC_EXPECTS(it != written_.end());
  if (fs_->Read(SwapFileFor(key.segment), static_cast<uint64_t>(key.page) * kPageSize, out) !=
      IoStatus::kOk) {
    ++io_failures_;
    return IoStatus::kFailed;
  }
  ++pages_read_;
  if (it->second != 0 && Crc32(out) != it->second) {
    ++checksum_mismatches_;
    return IoStatus::kCorrupt;
  }
  return IoStatus::kOk;
}

void FixedSwapLayout::RegisterAuditChecks(InvariantAuditor* auditor) {
  CC_EXPECTS(auditor != nullptr);
  // The fixed mapping has no allocator to conserve; the auditable fact is
  // that every recorded page's segment has a swap file to read it back from.
  // (No comparison against pages_written_: ResetStats zeroes the counter while
  // the recorded copies legitimately persist.)
  auditor->Register("swap.fixed", "recorded-pages", [this]() -> std::optional<std::string> {
    for (const auto& [key, crc] : written_) {
      if (!swap_files_.contains(key.segment)) {
        return "segment " + std::to_string(key.segment) +
               " has recorded pages but no swap file";
      }
    }
    return std::nullopt;
  });
}

void FixedSwapLayout::BindMetrics(MetricRegistry* registry) {
  CC_EXPECTS(registry != nullptr);
  registry->RegisterCounterGauge("swap.fixed.pages_written",
                                 [this] { return static_cast<double>(pages_written_); });
  registry->RegisterCounterGauge("swap.fixed.pages_read",
                                 [this] { return static_cast<double>(pages_read_); });
  registry->RegisterGauge("swap.fixed.live_pages",
                          [this] { return static_cast<double>(written_.size()); });
}

}  // namespace compcache
