#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "disk/disk_device.h"
#include "fs/file_system.h"
#include "sim/clock.h"
#include "util/rng.h"
#include "util/trace.h"
#include "util/units.h"

namespace compcache {
namespace {

class FsTest : public ::testing::Test {
 protected:
  FsTest()
      : device_(&clock_, std::make_unique<SeekDiskModel>(), SimDuration::Micros(500)),
        fs_(&device_) {}

  Clock clock_;
  DiskDevice device_;
  FileSystem fs_;
};

TEST_F(FsTest, WholeBlockWriteNoRmw) {
  const FileId f = fs_.Create("a");
  std::vector<uint8_t> block(kFsBlockSize, 0x5A);
  ASSERT_EQ(fs_.Write(f, 0, block), IoStatus::kOk);
  EXPECT_EQ(fs_.stats().rmw_reads, 0u);
  EXPECT_EQ(fs_.stats().bytes_transferred_written, kFsBlockSize);
}

TEST_F(FsTest, PartialWriteOfExistingBlockTriggersRmw) {
  const FileId f = fs_.Create("a");
  std::vector<uint8_t> block(kFsBlockSize, 0x11);
  ASSERT_EQ(fs_.Write(f, 0, block), IoStatus::kOk);

  // Paper section 4.3: "if a page were compressed from 4 Kbytes to 2 Kbytes, a
  // 2-Kbyte write would result in a 4-Kbyte read and a 4-Kbyte write".
  std::vector<uint8_t> half(kFsBlockSize / 2, 0x22);
  ASSERT_EQ(fs_.Write(f, 0, half), IoStatus::kOk);
  EXPECT_EQ(fs_.stats().rmw_reads, 1u);
  EXPECT_EQ(fs_.stats().bytes_transferred_written, 2u * kFsBlockSize);

  // Content must merge correctly.
  std::vector<uint8_t> out(kFsBlockSize);
  ASSERT_EQ(fs_.Read(f, 0, out), IoStatus::kOk);
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i < kFsBlockSize / 2 ? 0x22 : 0x11) << i;
  }
}

TEST_F(FsTest, PartialWriteBeyondEofSkipsRead) {
  // "with the exception of the last block in a file": nothing valid beyond EOF,
  // so the first partial write of a fresh block needs no read.
  const FileId f = fs_.Create("a");
  std::vector<uint8_t> half(kFsBlockSize / 2, 0x33);
  ASSERT_EQ(fs_.Write(f, 0, half), IoStatus::kOk);
  EXPECT_EQ(fs_.stats().rmw_reads, 0u);
}

TEST_F(FsTest, PartialReadTransfersWholeBlock) {
  const FileId f = fs_.Create("a");
  std::vector<uint8_t> block(kFsBlockSize, 0x44);
  ASSERT_EQ(fs_.Write(f, 0, block), IoStatus::kOk);
  const FsStats before = fs_.stats();

  std::vector<uint8_t> out(100);
  ASSERT_EQ(fs_.Read(f, 50, out), IoStatus::kOk);
  // "a request to read 2 Kbytes within a 4-Kbyte block would result in the file
  // system reading all 4 Kbytes".
  EXPECT_EQ(fs_.stats().bytes_transferred_read - before.bytes_transferred_read, kFsBlockSize);
  EXPECT_EQ(fs_.stats().bytes_requested_read - before.bytes_requested_read, 100u);
}

TEST_F(FsTest, PartialBlockWriteModeSkipsRmw) {
  FileSystem::Options options;
  options.allow_partial_block_write = true;
  FileSystem fs2(&device_, options);
  const FileId f = fs2.Create("a");
  std::vector<uint8_t> block(kFsBlockSize, 0x11);
  ASSERT_EQ(fs2.Write(f, 0, block), IoStatus::kOk);
  std::vector<uint8_t> half(kFsBlockSize / 2, 0x22);
  ASSERT_EQ(fs2.Write(f, 0, half), IoStatus::kOk);
  EXPECT_EQ(fs2.stats().rmw_reads, 0u);
  EXPECT_EQ(fs2.stats().bytes_transferred_written, kFsBlockSize + kFsBlockSize / 2);

  std::vector<uint8_t> out(kFsBlockSize);
  ASSERT_EQ(fs2.Read(f, 0, out), IoStatus::kOk);
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i < kFsBlockSize / 2 ? 0x22 : 0x11) << i;
  }
}

TEST_F(FsTest, FileBlocksAreContiguousOnDisk) {
  const FileId f = fs_.Create("a");
  const uint64_t first = fs_.DiskBlockFor(f, 0);
  for (uint64_t b = 1; b < 32; ++b) {
    EXPECT_EQ(fs_.DiskBlockFor(f, b), first + b);
  }
}

TEST_F(FsTest, InterleavedFilesStayContiguousWithinExtents) {
  const FileId a = fs_.Create("a");
  const FileId b = fs_.Create("b");
  // Alternate growth; within an extent each file must remain contiguous.
  for (uint64_t i = 0; i < 16; ++i) {
    fs_.DiskBlockFor(a, i);
    fs_.DiskBlockFor(b, i);
  }
  for (uint64_t i = 1; i < 16; ++i) {
    EXPECT_EQ(fs_.DiskBlockFor(a, i), fs_.DiskBlockFor(a, 0) + i);
    EXPECT_EQ(fs_.DiskBlockFor(b, i), fs_.DiskBlockFor(b, 0) + i);
  }
}

TEST_F(FsTest, MultiBlockWriteCoalescesIntoOneDiskOp) {
  const FileId f = fs_.Create("a");
  std::vector<uint8_t> data(8 * kFsBlockSize, 0x77);
  const uint64_t ops_before = device_.stats().write_ops;
  ASSERT_EQ(fs_.Write(f, 0, data), IoStatus::kOk);
  EXPECT_EQ(device_.stats().write_ops, ops_before + 1);  // one coalesced request
}

// Requests that cover whole blocks move between the caller's span and the
// device without staging. The device still sees one request per
// disk-contiguous run, the same requests as a staged request over the same
// blocks, and the fs.* counts are the same. A partial-block write still reads
// the blocks it only partly covers before writing them back.
TEST_F(FsTest, WholeBlockRequestsIssueTheStagedRequests) {
  const FileId a = fs_.Create("a");
  const FileId b = fs_.Create("b");
  // a's blocks 62-66 straddle two extents with one of b's between them.
  fs_.DiskBlockFor(a, 63);
  fs_.DiskBlockFor(b, 0);
  ASSERT_NE(fs_.DiskBlockFor(a, 64), fs_.DiskBlockFor(a, 63) + 1);

  Rng rng(31);
  std::vector<uint8_t> data(5 * kFsBlockSize);
  for (auto& byte : data) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  const uint64_t first = 62 * kFsBlockSize;
  DiskStats disk = device_.stats();
  FsStats fs = fs_.stats();
  ASSERT_EQ(fs_.Write(a, first, data), IoStatus::kOk);
  EXPECT_EQ(device_.stats().write_ops - disk.write_ops, 2u);  // one per contiguous run
  EXPECT_EQ(device_.stats().bytes_written - disk.bytes_written, data.size());
  EXPECT_EQ(device_.stats().read_ops, disk.read_ops);  // nothing to preserve
  EXPECT_EQ(fs_.stats().direct_writes - fs.direct_writes, 1u);
  EXPECT_EQ(fs_.stats().rmw_reads, fs.rmw_reads);
  EXPECT_EQ(fs_.stats().bytes_requested_written - fs.bytes_requested_written, data.size());
  EXPECT_EQ(fs_.stats().bytes_transferred_written - fs.bytes_transferred_written, data.size());
  EXPECT_EQ(fs_.FileSize(a), first + data.size());

  // The whole-block read, then a staged read of the same blocks one byte in
  // from each end: the device sees the same requests.
  EventTracer tracer(64);
  device_.SetTracer(&tracer);
  struct Requests {
    std::vector<std::pair<uint64_t, uint64_t>> reads;  // disk offset, bytes
    uint64_t transferred = 0;
  };
  const auto read = [&](uint64_t offset, size_t size) {
    tracer.Clear();
    const FsStats f = fs_.stats();
    std::vector<uint8_t> out(size);
    EXPECT_EQ(fs_.Read(a, offset, out), IoStatus::kOk);
    const auto from = data.begin() + static_cast<ptrdiff_t>(offset - first);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), from));
    EXPECT_EQ(fs_.stats().direct_reads - f.direct_reads, 1u);
    EXPECT_EQ(fs_.stats().bytes_requested_read - f.bytes_requested_read, size);
    Requests requests;
    tracer.ForEach([&](const TraceEvent& e) {
      EXPECT_EQ(e.kind, TraceEventKind::kDiskRead);
      requests.reads.emplace_back(e.a, e.b);
    });
    requests.transferred = fs_.stats().bytes_transferred_read - f.bytes_transferred_read;
    return requests;
  };
  const Requests whole = read(first, data.size());
  const Requests staged = read(first + 1, data.size() - 2);
  EXPECT_EQ(whole.reads.size(), 2u);  // one per contiguous run
  EXPECT_EQ(whole.reads, staged.reads);
  EXPECT_EQ(whole.transferred, data.size());
  EXPECT_EQ(staged.transferred, data.size());
  device_.SetTracer(nullptr);

  // Partial head and tail blocks: each is read before the write.
  std::vector<uint8_t> patch(3 * kFsBlockSize, 0xC3);
  disk = device_.stats();
  fs = fs_.stats();
  ASSERT_EQ(fs_.Write(a, first + 100, patch), IoStatus::kOk);
  EXPECT_EQ(fs_.stats().rmw_reads - fs.rmw_reads, 2u);
  EXPECT_EQ(device_.stats().read_ops - disk.read_ops, 2u);
  EXPECT_EQ(device_.stats().write_ops - disk.write_ops, 2u);
  EXPECT_EQ(fs_.stats().bytes_transferred_written - fs.bytes_transferred_written,
            4 * kFsBlockSize);
  std::copy(patch.begin(), patch.end(), data.begin() + 100);
  std::vector<uint8_t> out(data.size());
  ASSERT_EQ(fs_.Read(a, first, out), IoStatus::kOk);
  EXPECT_EQ(out, data);
}

TEST_F(FsTest, FileSizeTracksWrites) {
  const FileId f = fs_.Create("a");
  EXPECT_EQ(fs_.FileSize(f), 0u);
  std::vector<uint8_t> data(1000, 1);
  ASSERT_EQ(fs_.Write(f, 0, data), IoStatus::kOk);
  EXPECT_EQ(fs_.FileSize(f), 1000u);
  ASSERT_EQ(fs_.Write(f, 5000, data), IoStatus::kOk);
  EXPECT_EQ(fs_.FileSize(f), 6000u);
}

TEST_F(FsTest, UnalignedMultiBlockRoundTrip) {
  const FileId f = fs_.Create("a");
  Rng rng(9);
  std::vector<uint8_t> data(3 * kFsBlockSize + 123);
  for (auto& byte : data) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  ASSERT_EQ(fs_.Write(f, 777, data), IoStatus::kOk);
  std::vector<uint8_t> out(data.size());
  ASSERT_EQ(fs_.Read(f, 777, out), IoStatus::kOk);
  EXPECT_EQ(out, data);
}

// Property test: a random sequence of writes and reads at arbitrary offsets
// always matches a plain in-memory shadow copy.
TEST_F(FsTest, RandomOpsMatchShadow) {
  const FileId f = fs_.Create("shadow");
  const size_t file_span = 64 * 1024;
  std::vector<uint8_t> shadow(file_span, 0);
  uint64_t logical_size = 0;
  Rng rng(12345);

  for (int op = 0; op < 300; ++op) {
    const uint64_t offset = rng.Below(file_span - 1);
    const uint64_t max_len = std::min<uint64_t>(file_span - offset, 10'000);
    const uint64_t len = 1 + rng.Below(max_len);
    if (rng.Chance(0.6)) {
      std::vector<uint8_t> data(len);
      for (auto& byte : data) {
        byte = static_cast<uint8_t>(rng.Next());
      }
      ASSERT_EQ(fs_.Write(f, offset, data), IoStatus::kOk);
      std::copy(data.begin(), data.end(), shadow.begin() + static_cast<ptrdiff_t>(offset));
      logical_size = std::max(logical_size, offset + len);
    } else if (logical_size > 0) {
      const uint64_t read_off = rng.Below(logical_size);
      const uint64_t read_len = 1 + rng.Below(std::min<uint64_t>(logical_size - read_off,
                                                                 8'000));
      std::vector<uint8_t> out(read_len);
      ASSERT_EQ(fs_.Read(f, read_off, out), IoStatus::kOk);
      for (uint64_t i = 0; i < read_len; ++i) {
        ASSERT_EQ(out[i], shadow[read_off + i]) << "offset " << read_off + i;
      }
    }
  }
}

}  // namespace
}  // namespace compcache
