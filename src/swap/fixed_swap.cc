#include "swap/fixed_swap.h"

#include <algorithm>
#include <string>
#include <vector>

#include "util/assert.h"
#include "util/audit.h"
#include "util/wire.h"

namespace compcache {

FixedSwapLayout::FixedSwapLayout(FileSystem* fs, Options options)
    : fs_(fs), options_(options) {
  CC_EXPECTS(fs_ != nullptr);
  if (options_.durable) {
    journal_ = std::make_unique<SwapJournal>(fs_, "swap.journal");
  }
}

FileId FixedSwapLayout::SwapFileFor(uint32_t segment) {
  const auto it = swap_files_.find(segment);
  if (it != swap_files_.end()) {
    return it->second;
  }
  const FileId id = fs_->OpenOrCreate("swap.seg" + std::to_string(segment));
  swap_files_.emplace(segment, id);
  return id;
}

IoStatus FixedSwapLayout::WriteBatch(std::span<const SwapPageImage> pages) {
  // No clustering is possible: each page lives at its own fixed offset, so every
  // page is its own write (a partial-block one for a compressed image — the
  // rejected design's whole problem).
  IoStatus status = IoStatus::kOk;
  for (const SwapPageImage& img : pages) {
    CC_EXPECTS(!img.bytes.empty());
    CC_EXPECTS(img.bytes.size() <= kPageSize);  // one fixed page-sized slot each
    const StoredImage next = StoredImage::Of(img);
    if (journal_ != nullptr) {
      // Intent *before* data: the overwrite destroys the previous image in
      // place, so Mount() needs both generations' metadata to classify the
      // slot after a crash. An absent previous image encodes as all zeros.
      std::vector<uint8_t> payload;
      wire::PutU32(payload, img.key.segment);
      wire::PutU32(payload, img.key.page);
      const auto prev = images_.find(img.key);
      wire::PutU8(payload, prev != images_.end() ? 1 : 0);
      (prev != images_.end() ? prev->second : StoredImage{0, false, 0, 0}).Encode(payload);
      next.Encode(payload);
      if (journal_->Append(kRecIntent, payload) != IoStatus::kOk) {
        // Without a durable intent the overwrite must not start: the old slot
        // stays untouched and authoritative.
        status = IoStatus::kFailed;
        continue;
      }
    }
    if (fs_->Write(SwapFileFor(img.key.segment), OffsetOf(img.key), img.bytes) !=
        IoStatus::kOk) {
      // This page's slot is unchanged (or partially stale — the checksum would
      // catch that at read time); the old record stays authoritative.
      status = IoStatus::kFailed;
      continue;
    }
    images_[img.key] = next;
    ++stats_.pages_written;
    stats_.payload_bytes_written += img.bytes.size();
  }
  return status;
}

CompressedSwapBackend::ReadResult FixedSwapLayout::ReadPage(PageKey key,
                                                            bool /*collect_coresidents*/) {
  const auto it = images_.find(key);
  CC_EXPECTS(it != images_.end());
  ReadResult result;
  // The request is for just the image's bytes; the file system still moves
  // whole blocks underneath. No coresidents ever: each block holds one page.
  const std::span<uint8_t> buf = ReadBuffer(it->second.byte_size);
  if (fs_->Read(SwapFileFor(key.segment), OffsetOf(key), buf) != IoStatus::kOk) {
    result.status = IoStatus::kFailed;
    return result;
  }
  TakeImage(it->second, buf, 0, result);
  result.blocks_read = 1;
  ++stats_.pages_read;
  return result;
}

void FixedSwapLayout::Invalidate(PageKey key) {
  if (journal_ != nullptr && images_.contains(key)) {
    std::vector<uint8_t> payload;
    wire::PutU32(payload, key.segment);
    wire::PutU32(payload, key.page);
    // On an append failure the in-memory release still happens; replay would
    // resurrect the page, which recovery then treats as part of the durable
    // prefix.
    (void)journal_->Append(kRecFree, payload);
  }
  images_.erase(key);
}

CompressedSwapBackend::MountStats FixedSwapLayout::Mount() {
  MountStats mount;
  if (journal_ == nullptr) {
    return mount;
  }
  CC_EXPECTS(images_.empty());

  // Fold the journal down to each key's newest record: a free record means the
  // slot is durably absent; an intent record means the slot holds the new
  // image, the previous one, or a torn mix — resolved below by reading it.
  struct LastIntent {
    bool prev_present = false;
    StoredImage prev;
    StoredImage next;
  };
  std::unordered_map<PageKey, LastIntent, PageKeyHash> intents;
  const auto replay = journal_->Replay([&](uint8_t type, std::span<const uint8_t> payload) {
    wire::Reader r(payload);
    PageKey key;
    key.segment = r.U32();
    key.page = r.U32();
    if (type == kRecIntent) {
      LastIntent li;
      li.prev_present = r.U8() != 0;
      li.prev = StoredImage::Decode(r);
      li.next = StoredImage::Decode(r);
      if (r.ok()) {
        intents[key] = li;
      }
    } else if (type == kRecFree) {
      if (r.ok()) {
        intents.erase(key);
      }
    }
  });
  mount.journal_replays = replay.records;
  if (replay.torn) {
    ++mount.torn_writes_detected;
  }

  std::vector<uint8_t> buf;
  for (const auto& [key, li] : intents) {
    const bool next_sane = li.next.byte_size > 0 && li.next.byte_size <= kPageSize;
    const bool prev_sane =
        li.prev_present && li.prev.byte_size > 0 && li.prev.byte_size <= kPageSize;
    if (!next_sane && !prev_sane) {
      ++mount.pages_dropped;
      ++mount.torn_writes_detected;
      continue;
    }
    buf.assign(std::max(next_sane ? li.next.byte_size : 0u,
                        prev_sane ? li.prev.byte_size : 0u),
               0);
    const bool read_ok =
        fs_->Read(SwapFileFor(key.segment), OffsetOf(key), buf) == IoStatus::kOk;
    if (read_ok && next_sane && li.next.SliceFrom(buf, 0).verified) {
      images_[key] = li.next;  // the overwrite completed
      continue;
    }
    if (read_ok && prev_sane && li.prev.SliceFrom(buf, 0).verified) {
      images_[key] = li.prev;  // the overwrite never started
      ++mount.torn_writes_detected;
      continue;
    }
    ++mount.pages_dropped;  // torn slot: neither generation survives
    ++mount.torn_writes_detected;
  }
  mount.pages_recovered = images_.size();
  return mount;
}

void FixedSwapLayout::ForEachPage(const std::function<void(PageKey)>& fn) const {
  for (const auto& [key, image] : images_) {
    fn(key);
  }
}

void FixedSwapLayout::RegisterAuditChecks(InvariantAuditor* auditor) {
  CC_EXPECTS(auditor != nullptr);
  // The layout has no free-space structures to conserve (slots are fixed), but
  // every stored size must be a plausible page image and its segment must have
  // a swap file to read it back from.
  auditor->Register("swap.fixed", "stored-sizes", [this]() -> std::optional<std::string> {
    for (const auto& [key, image] : images_) {
      if (image.byte_size == 0 || image.byte_size > kPageSize) {
        return "stored size " + std::to_string(image.byte_size) + " for segment " +
               std::to_string(key.segment) + " page " + std::to_string(key.page) +
               " is outside (0, page size]";
      }
      if (!swap_files_.contains(key.segment)) {
        return "segment " + std::to_string(key.segment) +
               " has stored pages but no swap file";
      }
    }
    return std::nullopt;
  });
}

void FixedSwapLayout::BindMetrics(MetricRegistry* registry) {
  CC_EXPECTS(registry != nullptr);
  registry->RegisterCounter("swap.fixed.pages_written", &stats_.pages_written);
  registry->RegisterCounter("swap.fixed.pages_read", &stats_.pages_read);
  registry->RegisterCounter("swap.fixed.payload_bytes_written", &stats_.payload_bytes_written);
  registry->RegisterGauge("swap.fixed.live_pages",
                          [this] { return static_cast<double>(images_.size()); });
}

}  // namespace compcache
