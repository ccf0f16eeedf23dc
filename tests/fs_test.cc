#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "disk/disk_device.h"
#include "fs/file_system.h"
#include "sim/clock.h"
#include "util/rng.h"
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
