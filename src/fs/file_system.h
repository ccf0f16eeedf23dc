// Block-structured file system over a DiskDevice, reproducing the Sprite transfer
// semantics the paper depends on (section 4.3):
//
//   * "the file system enforces transfers in multiples of a whole file system
//     block", except the last block of a file;
//   * "If part of a block is written then the file system reads the old contents
//     and overwrites the part just written before writing the whole block back" —
//     a 2 KB write becomes a 4 KB read plus a 4 KB write;
//   * "a request to read 2 Kbytes within a 4-Kbyte block would result in the file
//     system reading all 4 Kbytes".
//
// `allow_partial_block_write` implements the paper's proposed alternative ("modify
// the file system to overwrite part of a file system block on disk without reading
// the remainder") for the ablation benchmark.
#ifndef COMPCACHE_FS_FILE_SYSTEM_H_
#define COMPCACHE_FS_FILE_SYSTEM_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "disk/disk_device.h"
#include "util/metrics.h"
#include "util/units.h"

namespace compcache {

struct FileId {
  uint32_t value = UINT32_MAX;
  bool valid() const { return value != UINT32_MAX; }
  friend bool operator==(FileId, FileId) = default;
};

// Snapshot of the file system's metadata: name table, sizes, block maps, and
// the allocator cursor. FS metadata is durable by fiat in the simulator — a
// real Sprite-style FS journals its inodes separately from file data — so
// crash recovery clones this snapshot alongside the surviving disk image and
// the swap backends' own durable formats carry the interesting state.
struct FsImage {
  struct FileImage {
    std::string name;
    uint64_t size = 0;
    std::vector<uint64_t> blocks;
    uint64_t extent_cursor = 0;
    uint64_t extent_remaining = 0;
  };
  std::vector<FileImage> files;
  uint64_t next_free_disk_block = 0;
};

struct FsStats {
  uint64_t direct_reads = 0;
  uint64_t direct_writes = 0;
  uint64_t rmw_reads = 0;  // extra whole-block reads forced by partial writes
  uint64_t bytes_requested_read = 0;
  uint64_t bytes_requested_written = 0;
  uint64_t bytes_transferred_read = 0;   // includes whole-block rounding
  uint64_t bytes_transferred_written = 0;
};

class FileSystem {
 public:
  struct Options {
    bool allow_partial_block_write = false;
  };

  FileSystem(DiskDevice* disk, Options options);
  explicit FileSystem(DiskDevice* disk) : FileSystem(disk, Options{}) {}

  FileId Create(std::string name);
  // Returns the existing file named `name` or creates it. Recovery mounts use
  // this so a backend re-attaches to its durable files instead of shadowing
  // them with fresh ones.
  FileId OpenOrCreate(const std::string& name);

  // Metadata snapshot/restore for crash recovery (see FsImage).
  FsImage ExportImage() const;
  void ImportImage(const FsImage& image);

  // Direct (uncached) I/O with whole-block semantics. Offsets and lengths are
  // arbitrary; the implementation rounds transfers to block boundaries as the
  // semantics above require. This is the path the VM backing store uses.
  // A device failure (retries exhausted under fault injection) surfaces as
  // kFailed: `out` is unspecified for a failed read; a failed write leaves the
  // file size unchanged and may have stored only a prefix of the request.
  [[nodiscard]] IoStatus Read(FileId file, uint64_t offset, std::span<uint8_t> out);
  [[nodiscard]] IoStatus Write(FileId file, uint64_t offset, std::span<const uint8_t> data);

  uint64_t FileSize(FileId file) const;

  // Disk block number backing the given file block (allocating it if needed) —
  // exposed so the buffer cache and tests can reason about physical placement.
  uint64_t DiskBlockFor(FileId file, uint64_t file_block);

  const FsStats& stats() const { return stats_; }
  DiskDevice* disk() { return disk_; }

  // Publishes counters as "fs.*" gauges.
  void BindMetrics(MetricRegistry* registry);

 private:
  // New blocks for a file are allocated from per-file extents of this many
  // blocks, keeping a file's block run mostly contiguous on disk.
  static constexpr uint32_t kExtentBlocks = 64;

  struct File {
    std::string name;
    uint64_t size = 0;
    std::vector<uint64_t> blocks;  // file block index -> disk block number
    uint64_t extent_cursor = 0;    // next unused block within the current extent
    uint64_t extent_remaining = 0;
  };

  File& GetFile(FileId file);
  const File& GetFile(FileId file) const;
  uint64_t AllocateDiskBlock(File& f);

  // Reads/writes a run of file blocks, coalescing disk-contiguous runs into single
  // device requests. Stops at the first failed run and returns its status.
  IoStatus TransferBlocks(File& f, uint64_t first_block, uint64_t block_count,
                          uint8_t* read_into, const uint8_t* write_from);

  DiskDevice* disk_;
  Options options_;
  std::vector<File> files_;
  uint64_t next_free_disk_block_ = 0;
  FsStats stats_;
};

}  // namespace compcache

#endif  // COMPCACHE_FS_FILE_SYSTEM_H_
