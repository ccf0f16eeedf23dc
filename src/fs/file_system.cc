#include "fs/file_system.h"

#include <algorithm>
#include <cstring>

#include "util/assert.h"

namespace compcache {

namespace {

// Whether a request starts on a block boundary and spans whole blocks: such
// requests move between the caller's span and the device without staging.
bool CoversWholeBlocks(uint64_t offset, size_t size) {
  return offset % kFsBlockSize == 0 && size % kFsBlockSize == 0;
}

}  // namespace

FileSystem::FileSystem(DiskDevice* disk, Options options) : disk_(disk), options_(options) {
  CC_EXPECTS(disk_ != nullptr);
}

FileId FileSystem::Create(std::string name) {
  files_.push_back(File{std::move(name), 0, {}, 0, 0});
  return FileId{static_cast<uint32_t>(files_.size() - 1)};
}

FileId FileSystem::OpenOrCreate(const std::string& name) {
  for (size_t i = 0; i < files_.size(); ++i) {
    if (files_[i].name == name) {
      return FileId{static_cast<uint32_t>(i)};
    }
  }
  return Create(name);
}

FsImage FileSystem::ExportImage() const {
  FsImage image;
  image.files.reserve(files_.size());
  for (const File& f : files_) {
    image.files.push_back(
        FsImage::FileImage{f.name, f.size, f.blocks, f.extent_cursor, f.extent_remaining});
  }
  image.next_free_disk_block = next_free_disk_block_;
  return image;
}

void FileSystem::ImportImage(const FsImage& image) {
  files_.clear();
  files_.reserve(image.files.size());
  for (const FsImage::FileImage& f : image.files) {
    files_.push_back(File{f.name, f.size, f.blocks, f.extent_cursor, f.extent_remaining});
  }
  next_free_disk_block_ = image.next_free_disk_block;
}

FileSystem::File& FileSystem::GetFile(FileId file) {
  CC_EXPECTS(file.valid() && file.value < files_.size());
  return files_[file.value];
}

const FileSystem::File& FileSystem::GetFile(FileId file) const {
  CC_EXPECTS(file.valid() && file.value < files_.size());
  return files_[file.value];
}

uint64_t FileSystem::FileSize(FileId file) const { return GetFile(file).size; }

uint64_t FileSystem::AllocateDiskBlock(File& f) {
  if (f.extent_remaining == 0) {
    // Carve a fresh extent from the global bump allocator. Extents keep one file's
    // blocks contiguous even when several files grow at once.
    f.extent_cursor = next_free_disk_block_;
    f.extent_remaining = kExtentBlocks;
    next_free_disk_block_ += kExtentBlocks;
    CC_ASSERT(next_free_disk_block_ * kFsBlockSize <= disk_->capacity());
  }
  const uint64_t block = f.extent_cursor;
  ++f.extent_cursor;
  --f.extent_remaining;
  return block;
}

uint64_t FileSystem::DiskBlockFor(FileId file, uint64_t file_block) {
  File& f = GetFile(file);
  while (f.blocks.size() <= file_block) {
    f.blocks.push_back(AllocateDiskBlock(f));
  }
  return f.blocks[file_block];
}

IoStatus FileSystem::TransferBlocks(File& f, uint64_t first_block, uint64_t block_count,
                                    uint8_t* read_into, const uint8_t* write_from) {
  CC_EXPECTS((read_into == nullptr) != (write_from == nullptr));
  // Materialize the block map for the whole range first.
  for (uint64_t b = first_block; b < first_block + block_count; ++b) {
    while (f.blocks.size() <= b) {
      f.blocks.push_back(AllocateDiskBlock(f));
    }
  }
  // Coalesce disk-contiguous runs into single device requests; this is what lets a
  // clustered 32 KB swap write cost one positioning delay instead of eight.
  uint64_t run_start = first_block;
  while (run_start < first_block + block_count) {
    uint64_t run_len = 1;
    while (run_start + run_len < first_block + block_count &&
           f.blocks[run_start + run_len] == f.blocks[run_start] + run_len) {
      ++run_len;
    }
    const uint64_t disk_offset = f.blocks[run_start] * kFsBlockSize;
    const uint64_t byte_len = run_len * kFsBlockSize;
    const uint64_t buf_offset = (run_start - first_block) * kFsBlockSize;
    IoStatus status;
    if (read_into != nullptr) {
      status = disk_->Read(disk_offset, std::span<uint8_t>(read_into + buf_offset, byte_len));
    } else {
      status =
          disk_->Write(disk_offset, std::span<const uint8_t>(write_from + buf_offset, byte_len));
    }
    if (status != IoStatus::kOk) {
      return status;
    }
    run_start += run_len;
  }
  return IoStatus::kOk;
}

IoStatus FileSystem::Read(FileId file, uint64_t offset, std::span<uint8_t> out) {
  if (out.empty()) {
    return IoStatus::kOk;
  }
  File& f = GetFile(file);
  ++stats_.direct_reads;
  stats_.bytes_requested_read += out.size();

  const uint64_t first_block = offset / kFsBlockSize;
  const uint64_t last_block = (offset + out.size() - 1) / kFsBlockSize;
  const uint64_t block_count = last_block - first_block + 1;

  if (CoversWholeBlocks(offset, out.size())) {
    // The device requests are the same as through staging; the bytes land in
    // the caller's span directly.
    const IoStatus status = TransferBlocks(f, first_block, block_count, out.data(), nullptr);
    if (status == IoStatus::kOk) {
      stats_.bytes_transferred_read += out.size();
    }
    return status;
  }
  // Whole-block semantics: the device moves full blocks regardless of how little
  // the caller asked for.
  std::vector<uint8_t> staging(block_count * kFsBlockSize);
  const IoStatus status = TransferBlocks(f, first_block, block_count, staging.data(), nullptr);
  if (status != IoStatus::kOk) {
    return status;
  }
  stats_.bytes_transferred_read += staging.size();

  const uint64_t skip = offset - first_block * kFsBlockSize;
  std::memcpy(out.data(), staging.data() + skip, out.size());
  return IoStatus::kOk;
}

IoStatus FileSystem::Write(FileId file, uint64_t offset, std::span<const uint8_t> data) {
  if (data.empty()) {
    return IoStatus::kOk;
  }
  File& f = GetFile(file);
  ++stats_.direct_writes;
  stats_.bytes_requested_written += data.size();

  const uint64_t first_block = offset / kFsBlockSize;
  const uint64_t last_block = (offset + data.size() - 1) / kFsBlockSize;
  const uint64_t block_count = last_block - first_block + 1;
  const uint64_t skip = offset - first_block * kFsBlockSize;

  if (options_.allow_partial_block_write) {
    // Ablation mode: the modified file system writes exactly the bytes requested.
    for (uint64_t b = first_block; b <= last_block; ++b) {
      while (f.blocks.size() <= b) {
        f.blocks.push_back(AllocateDiskBlock(f));
      }
    }
    // Issue as one request per disk-contiguous run at byte granularity.
    uint64_t pos = 0;
    while (pos < data.size()) {
      const uint64_t abs = offset + pos;
      const uint64_t b = abs / kFsBlockSize;
      const uint64_t within = abs % kFsBlockSize;
      uint64_t len = std::min<uint64_t>(kFsBlockSize - within, data.size() - pos);
      // Extend across physically adjacent blocks.
      uint64_t bb = b;
      while (pos + len < data.size() && bb + 1 <= last_block &&
             f.blocks[bb + 1] == f.blocks[bb] + 1) {
        const uint64_t more = std::min<uint64_t>(kFsBlockSize, data.size() - pos - len);
        len += more;
        ++bb;
        if (more < kFsBlockSize) {
          break;
        }
      }
      const IoStatus status = disk_->Write(f.blocks[b] * kFsBlockSize + within,
                                           std::span<const uint8_t>(data.data() + pos, len));
      if (status != IoStatus::kOk) {
        return status;
      }
      stats_.bytes_transferred_written += len;
      pos += len;
    }
    f.size = std::max(f.size, offset + data.size());
    return IoStatus::kOk;
  }

  if (CoversWholeBlocks(offset, data.size())) {
    // Nothing to preserve around the request, so it goes to the device from
    // the caller's span: the same requests as through staging.
    const IoStatus status = TransferBlocks(f, first_block, block_count, nullptr, data.data());
    if (status != IoStatus::kOk) {
      return status;
    }
    stats_.bytes_transferred_written += data.size();
    f.size = std::max(f.size, offset + data.size());
    return IoStatus::kOk;
  }

  // Sprite semantics: stage whole blocks. Partially covered blocks whose existing
  // contents are valid must be read first (read-modify-write). A partial block at
  // or beyond end-of-file needs no read — there is nothing valid to preserve
  // (this is the paper's "exception of the last block in a file").
  std::vector<uint8_t> staging(block_count * kFsBlockSize, 0);

  const bool head_partial = skip != 0;
  const uint64_t end_within = (offset + data.size()) - last_block * kFsBlockSize;
  const bool tail_partial = end_within != kFsBlockSize;

  auto block_has_valid_tail = [&](uint64_t block) {
    // Valid data beyond our write exists if the file extends past the write's end
    // within this block.
    return f.size > offset + data.size() && f.size > block * kFsBlockSize;
  };
  auto block_has_valid_head = [&](uint64_t block) {
    return f.size > block * kFsBlockSize;
  };

  if (head_partial && block_has_valid_head(first_block)) {
    std::vector<uint8_t> old(kFsBlockSize);
    if (TransferBlocks(f, first_block, 1, old.data(), nullptr) != IoStatus::kOk) {
      return IoStatus::kFailed;  // RMW read failed: nothing was written
    }
    ++stats_.rmw_reads;
    stats_.bytes_transferred_read += kFsBlockSize;
    std::memcpy(staging.data(), old.data(), kFsBlockSize);
  }
  if (tail_partial && block_has_valid_tail(last_block) &&
      !(block_count == 1 && head_partial && block_has_valid_head(first_block))) {
    std::vector<uint8_t> old(kFsBlockSize);
    if (TransferBlocks(f, last_block, 1, old.data(), nullptr) != IoStatus::kOk) {
      return IoStatus::kFailed;  // RMW read failed: nothing was written
    }
    ++stats_.rmw_reads;
    stats_.bytes_transferred_read += kFsBlockSize;
    std::memcpy(staging.data() + (block_count - 1) * kFsBlockSize, old.data(), kFsBlockSize);
  }

  std::memcpy(staging.data() + skip, data.data(), data.size());
  const IoStatus status = TransferBlocks(f, first_block, block_count, nullptr, staging.data());
  if (status != IoStatus::kOk) {
    return status;
  }
  stats_.bytes_transferred_written += staging.size();

  f.size = std::max(f.size, offset + data.size());
  return IoStatus::kOk;
}

void FileSystem::BindMetrics(MetricRegistry* registry) {
  CC_EXPECTS(registry != nullptr);
  registry->RegisterCounter("fs.direct_reads", &stats_.direct_reads);
  registry->RegisterCounter("fs.direct_writes", &stats_.direct_writes);
  registry->RegisterCounter("fs.rmw_reads", &stats_.rmw_reads);
  registry->RegisterCounter("fs.bytes_requested_read", &stats_.bytes_requested_read);
  registry->RegisterCounter("fs.bytes_requested_written", &stats_.bytes_requested_written);
  registry->RegisterCounter("fs.bytes_transferred_read", &stats_.bytes_transferred_read);
  registry->RegisterCounter("fs.bytes_transferred_written", &stats_.bytes_transferred_written);
}

}  // namespace compcache
