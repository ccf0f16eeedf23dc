#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "swap/clustered_swap.h"
#include "swap/fixed_swap.h"
#include "swap/lfs_swap.h"
#include "tests/test_util.h"
#include "util/audit.h"
#include "util/checksum.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/units.h"

namespace compcache {
namespace {

class SwapTest : public ::testing::Test {
 protected:
  SwapTest()
      : device_(&clock_, std::make_unique<SeekDiskModel>(), SimDuration::Micros(500)),
        fs_(&device_) {}

  std::vector<uint8_t> MakeBytes(size_t n, uint64_t seed) {
    Rng rng(seed);
    std::vector<uint8_t> data(n);
    for (auto& b : data) {
      b = static_cast<uint8_t>(rng.Next());
    }
    return data;
  }

  SwapPageImage MakeImage(PageKey key, size_t n, uint64_t seed) {
    SwapPageImage img;
    img.key = key;
    img.bytes = MakeBytes(n, seed);
    img.is_compressed = true;
    img.original_size = kPageSize;
    img.checksum = Crc32(img.bytes);
    return img;
  }

  // A whole uncompressed page, as the unmodified machine pages out.
  SwapPageImage MakeRawImage(PageKey key, uint64_t seed) {
    SwapPageImage img = MakeImage(key, kPageSize, seed);
    img.is_compressed = false;
    return img;
  }

  // Flips one stored byte of `file` at `offset`, then reads `key` back: the
  // layout must return it as corrupt and count exactly one mismatch.
  void ExpectFlippedByteCaught(CompressedSwapBackend& swap, PageKey key,
                               const std::string& file, uint64_t offset) {
    const FileId id = fs_.OpenOrCreate(file);
    std::vector<uint8_t> byte(1);
    ASSERT_EQ(fs_.Read(id, offset, byte), IoStatus::kOk);
    byte[0] ^= 0x40;
    ASSERT_EQ(fs_.Write(id, offset, byte), IoStatus::kOk);
    const uint64_t before = swap.checksum_mismatches();
    EXPECT_EQ(swap.ReadPage(key, false).status, IoStatus::kCorrupt) << file;
    EXPECT_EQ(swap.checksum_mismatches(), before + 1) << file;
  }

  Clock clock_;
  DiskDevice device_;
  FileSystem fs_;
};

// ---------- FixedSwapLayout, raw pages (the unmodified machine) ----------

TEST_F(SwapTest, FixedRoundTrip) {
  FixedSwapLayout swap(&fs_);
  const SwapPageImage img = MakeRawImage(PageKey{0, 5}, 1);
  EXPECT_FALSE(swap.Contains(img.key));
  ASSERT_EQ(swap.WriteBatch(std::span<const SwapPageImage>(&img, 1)), IoStatus::kOk);
  EXPECT_TRUE(swap.Contains(img.key));
  auto r = swap.ReadPage(img.key, false);
  EXPECT_EQ(r.status, IoStatus::kOk);
  EXPECT_FALSE(r.is_compressed);
  EXPECT_EQ(r.bytes, img.bytes);
}

TEST_F(SwapTest, FixedMappingIsStable) {
  FixedSwapLayout swap(&fs_);
  const SwapPageImage v1 = MakeRawImage(PageKey{0, 7}, 2);
  const SwapPageImage v2 = MakeRawImage(PageKey{0, 7}, 3);
  swap.WriteBatch(std::span<const SwapPageImage>(&v1, 1));
  const FsStats before = fs_.stats();
  const uint64_t write_ops = device_.stats().write_ops;
  swap.WriteBatch(std::span<const SwapPageImage>(&v2, 1));  // overwrites in place
  // A raw page covers its whole block: one block write, no read-modify-write.
  EXPECT_EQ(device_.stats().write_ops, write_ops + 1);
  EXPECT_EQ(fs_.stats().bytes_transferred_written - before.bytes_transferred_written, kFsBlockSize);
  EXPECT_EQ(fs_.stats().rmw_reads, before.rmw_reads);
  EXPECT_EQ(swap.ReadPage(v2.key, false).bytes, v2.bytes);
}

TEST_F(SwapTest, FixedSegmentsGetSeparateFiles) {
  FixedSwapLayout swap(&fs_);
  const std::vector<SwapPageImage> batch{MakeRawImage(PageKey{0, 0}, 4),
                                         MakeRawImage(PageKey{1, 0}, 5)};
  swap.WriteBatch(batch);
  EXPECT_EQ(swap.ReadPage(PageKey{0, 0}, false).bytes, batch[0].bytes);
  EXPECT_EQ(swap.ReadPage(PageKey{1, 0}, false).bytes, batch[1].bytes);
  EXPECT_EQ(fs_.FileSize(fs_.OpenOrCreate("swap.seg0")), kPageSize);
  EXPECT_EQ(fs_.FileSize(fs_.OpenOrCreate("swap.seg1")), kPageSize);
}

// ---------- ClusteredSwapLayout ----------

TEST_F(SwapTest, ClusteredBatchRoundTrip) {
  ClusteredSwapLayout swap(&fs_);
  std::vector<SwapPageImage> batch;
  for (uint32_t i = 0; i < 8; ++i) {
    batch.push_back(MakeImage(PageKey{0, i}, 700 + i * 100, 10 + i));
  }
  swap.WriteBatch(batch);
  EXPECT_EQ(swap.stats().batches_written, 1u);
  EXPECT_EQ(swap.live_pages(), 8u);

  for (uint32_t i = 0; i < 8; ++i) {
    auto result = swap.ReadPage(PageKey{0, i}, /*collect_coresidents=*/false);
    EXPECT_EQ(result.bytes, batch[i].bytes) << i;
    EXPECT_TRUE(result.is_compressed);
    EXPECT_EQ(result.original_size, kPageSize);
  }
}

TEST_F(SwapTest, ClusteredBatchIsOneDiskWrite) {
  ClusteredSwapLayout swap(&fs_);
  std::vector<SwapPageImage> batch;
  for (uint32_t i = 0; i < 20; ++i) {
    batch.push_back(MakeImage(PageKey{0, i}, 1000, 30 + i));
  }
  const uint64_t ops_before = device_.stats().write_ops;
  swap.WriteBatch(batch);
  // One clustered operation: coalesced by the file system into one disk request.
  EXPECT_EQ(device_.stats().write_ops, ops_before + 1);
}

TEST_F(SwapTest, FragmentPadding) {
  ClusteredSwapLayout swap(&fs_);
  // A 700-byte page occupies one whole 1 KB fragment.
  std::vector<SwapPageImage> batch{MakeImage(PageKey{0, 0}, 700, 40),
                                   MakeImage(PageKey{0, 1}, 1500, 41)};
  swap.WriteBatch(batch);
  // 1 + 2 fragments -> one 4 KB block.
  EXPECT_EQ(swap.stats().fragment_bytes_written, kFsBlockSize);
  EXPECT_EQ(swap.stats().payload_bytes_written, 2200u);
}

TEST_F(SwapTest, CoresidentsReturned) {
  ClusteredSwapLayout swap(&fs_);
  std::vector<SwapPageImage> batch;
  for (uint32_t i = 0; i < 4; ++i) {
    batch.push_back(MakeImage(PageKey{0, i}, 900, 50 + i));  // 4 x 1 frag = 1 block
  }
  swap.WriteBatch(batch);
  auto result = swap.ReadPage(PageKey{0, 1}, /*collect_coresidents=*/true);
  EXPECT_EQ(result.coresidents.size(), 3u);  // the other three share the block
  for (const auto& co : result.coresidents) {
    EXPECT_NE(co.key, (PageKey{0, 1}));
    EXPECT_EQ(co.bytes, batch[co.key.page].bytes);
  }
}

TEST_F(SwapTest, RewriteObsoletesOldLocationAndReusesBlocks) {
  ClusteredSwapLayout swap(&fs_);
  // Fill one batch of 4 single-fragment pages (one block).
  std::vector<SwapPageImage> batch;
  for (uint32_t i = 0; i < 4; ++i) {
    batch.push_back(MakeImage(PageKey{0, i}, 1000, 60 + i));
  }
  swap.WriteBatch(batch);
  const uint64_t end_after_first = swap.end_block();

  // Rewrite all four pages: the old block becomes garbage and is reused for the
  // next batch instead of extending the file.
  std::vector<SwapPageImage> batch2;
  for (uint32_t i = 0; i < 4; ++i) {
    batch2.push_back(MakeImage(PageKey{0, i}, 1000, 70 + i));
  }
  swap.WriteBatch(batch2);
  EXPECT_EQ(swap.free_blocks(), 1u);  // first block fully dead

  std::vector<SwapPageImage> batch3;
  for (uint32_t i = 10; i < 14; ++i) {
    batch3.push_back(MakeImage(PageKey{0, i}, 1000, 80 + i));
  }
  swap.WriteBatch(batch3);
  EXPECT_EQ(swap.end_block(), end_after_first + 1);  // batch3 reused the dead block
  EXPECT_GT(swap.stats().blocks_reused, 0u);

  // Current copies read back correctly.
  for (uint32_t i = 0; i < 4; ++i) {
    auto r = swap.ReadPage(PageKey{0, i}, false);
    EXPECT_EQ(r.bytes, batch2[i].bytes);
  }
}

TEST_F(SwapTest, InvalidateFreesFragments) {
  ClusteredSwapLayout swap(&fs_);
  std::vector<SwapPageImage> batch;
  for (uint32_t i = 0; i < 4; ++i) {
    batch.push_back(MakeImage(PageKey{0, i}, 1000, 90 + i));
  }
  swap.WriteBatch(batch);
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(swap.Contains(PageKey{0, i}));
    swap.Invalidate(PageKey{0, i});
    EXPECT_FALSE(swap.Contains(PageKey{0, i}));
  }
  EXPECT_EQ(swap.free_blocks(), 1u);
  EXPECT_EQ(swap.live_pages(), 0u);
}

TEST_F(SwapTest, SpanningDisallowedKeepsPagesWithinBlocks) {
  ClusteredSwapLayout::Options options;
  options.allow_block_spanning = false;
  ClusteredSwapLayout swap(&fs_, options);

  // 3-fragment pages: with spanning disallowed, each must start at a block
  // boundary (3 frags never fit twice in a 4-frag block), costing padding.
  std::vector<SwapPageImage> batch;
  for (uint32_t i = 0; i < 4; ++i) {
    batch.push_back(MakeImage(PageKey{0, i}, 2500, 100 + i));
  }
  swap.WriteBatch(batch);
  // 4 pages x 1 block each (vs 3 blocks if spanning were allowed).
  EXPECT_EQ(swap.stats().fragment_bytes_written, 4u * kFsBlockSize);

  for (uint32_t i = 0; i < 4; ++i) {
    auto r = swap.ReadPage(PageKey{0, i}, false);
    EXPECT_EQ(r.bytes, batch[i].bytes);
    EXPECT_EQ(r.blocks_read, 1u);  // never two blocks for one page
  }
}

TEST_F(SwapTest, SpanningAllowedPacksTighter) {
  ClusteredSwapLayout swap(&fs_);
  std::vector<SwapPageImage> batch;
  for (uint32_t i = 0; i < 4; ++i) {
    batch.push_back(MakeImage(PageKey{0, i}, 2500, 100 + i));  // 3 frags each
  }
  swap.WriteBatch(batch);
  EXPECT_EQ(swap.stats().fragment_bytes_written, 3u * kFsBlockSize);  // 12 frags

  // Some page now spans two blocks, making its fault an 8 KB read ("a 4-Kbyte
  // read becomes an 8-Kbyte one").
  bool any_two_block_read = false;
  for (uint32_t i = 0; i < 4; ++i) {
    auto r = swap.ReadPage(PageKey{0, i}, false);
    EXPECT_EQ(r.bytes, batch[i].bytes);
    any_two_block_read |= r.blocks_read == 2;
  }
  EXPECT_TRUE(any_two_block_read);
}

TEST_F(SwapTest, RawUncompressedImages) {
  ClusteredSwapLayout swap(&fs_);
  SwapPageImage img;
  img.key = PageKey{2, 9};
  img.bytes = MakeBytes(kPageSize, 123);
  img.is_compressed = false;
  img.original_size = kPageSize;
  img.checksum = Crc32(img.bytes);
  swap.WriteBatch(std::span<const SwapPageImage>(&img, 1));
  auto r = swap.ReadPage(img.key, false);
  EXPECT_FALSE(r.is_compressed);
  EXPECT_EQ(r.bytes, img.bytes);
}

TEST_F(SwapTest, ManyBatchesStressWithShadow) {
  ClusteredSwapLayout swap(&fs_);
  Rng rng(321);
  std::unordered_map<uint32_t, std::vector<uint8_t>> shadow;
  uint64_t seed = 1000;
  for (int round = 0; round < 30; ++round) {
    std::vector<SwapPageImage> batch;
    const size_t count = 1 + rng.Below(10);
    for (size_t i = 0; i < count; ++i) {
      const uint32_t page = static_cast<uint32_t>(rng.Below(40));
      if (std::any_of(batch.begin(), batch.end(),
                      [&](const auto& b) { return b.key.page == page; })) {
        continue;
      }
      auto img = MakeImage(PageKey{0, page}, 300 + rng.Below(3700), ++seed);
      shadow[page] = img.bytes;
      batch.push_back(std::move(img));
    }
    if (!batch.empty()) {
      swap.WriteBatch(batch);
    }
    // Random invalidation.
    if (rng.Chance(0.3) && !shadow.empty()) {
      const uint32_t page = static_cast<uint32_t>(rng.Below(40));
      if (shadow.contains(page)) {
        swap.Invalidate(PageKey{0, page});
        shadow.erase(page);
      }
    }
  }
  for (const auto& [page, bytes] : shadow) {
    auto r = swap.ReadPage(PageKey{0, page}, true);
    EXPECT_EQ(r.bytes, bytes) << page;
    // Coresidents must themselves be current copies.
    for (const auto& co : r.coresidents) {
      ASSERT_TRUE(shadow.contains(co.key.page));
      EXPECT_EQ(co.bytes, shadow.at(co.key.page));
    }
  }
}

TEST_F(SwapTest, ClusteredCorruptCoresidentIsDroppedAndCounted) {
  ClusteredSwapLayout swap(&fs_);
  MetricRegistry registry;
  swap.BindMetrics(&registry);

  // Four single-fragment pages sharing one block.
  std::vector<SwapPageImage> batch;
  for (uint32_t i = 0; i < 4; ++i) {
    batch.push_back(MakeImage(PageKey{0, i}, 900, 700 + i));
  }
  swap.WriteBatch(batch);

  // Corrupt page 2's fragment on disk (fragment i sits at offset i * 1 KB).
  const FileId file = fs_.OpenOrCreate("cswap");
  const std::vector<uint8_t> garbage(16, 0xAB);
  ASSERT_EQ(fs_.Write(file, 2 * kSwapFragmentSize + 64, garbage), IoStatus::kOk);

  // A demand read of page 0 collects the block's coresidents: the corrupt one
  // must be dropped (never seeding the ccache with a bad image) and counted.
  auto r = swap.ReadPage(PageKey{0, 0}, /*collect_coresidents=*/true);
  ASSERT_EQ(r.status, IoStatus::kOk);
  EXPECT_EQ(r.bytes, batch[0].bytes);
  EXPECT_EQ(r.coresidents.size(), 2u);
  for (const auto& co : r.coresidents) {
    EXPECT_NE(co.key.page, 2u);
  }
  EXPECT_EQ(swap.coresidents_dropped(), 1u);
  EXPECT_EQ(registry.GaugeValue("swap.clustered.coresidents_dropped"), 1.0);

  // The on-disk copy stays; a direct fault on the page reports the corruption
  // through the full recovery ladder rather than silently.
  auto direct = swap.ReadPage(PageKey{0, 2}, /*collect_coresidents=*/false);
  EXPECT_EQ(direct.status, IoStatus::kCorrupt);

  // Counter-gauge rebase parity, like every other swap.clustered.* counter.
  registry.Rebase();
  EXPECT_EQ(registry.GaugeValue("swap.clustered.coresidents_dropped"), 0.0);
}

TEST_F(SwapTest, ClusteredReadaheadBoundedAtDeviceEnd) {
  // Satellite audit: the widening bound min(readahead_blocks,
  // end_block_ - 1 - last_block) must never underflow or read past the file's
  // high-water mark, even with an absurd window and a fault on the last
  // allocatable block.
  ClusteredSwapLayout::Options options;
  options.readahead_blocks = ~uint64_t{0};  // pathological: widen "forever"
  ClusteredSwapLayout swap(&fs_, options);

  // Three batches of four single-fragment pages: blocks 0, 1, 2.
  std::vector<std::vector<SwapPageImage>> batches;
  for (uint32_t b = 0; b < 3; ++b) {
    std::vector<SwapPageImage> batch;
    for (uint32_t i = 0; i < 4; ++i) {
      batch.push_back(MakeImage(PageKey{0, b * 4 + i}, 900, 800 + b * 4 + i));
    }
    swap.WriteBatch(batch);
    batches.push_back(std::move(batch));
  }
  ASSERT_EQ(swap.end_block(), 3u);

  // Fault on a page in the LAST block: end_block_ - 1 - last_block == 0, so
  // the read must stay a single block with no widening.
  auto last = swap.ReadPage(PageKey{0, 9}, /*collect_coresidents=*/true);
  ASSERT_EQ(last.status, IoStatus::kOk);
  EXPECT_EQ(last.bytes, batches[2][1].bytes);
  EXPECT_EQ(last.blocks_read, 1u);
  EXPECT_EQ(last.coresidents.size(), 3u);
  EXPECT_EQ(swap.stats().readahead_blocks_read, 0u);

  // Fault on the FIRST block: widening is clamped to the file extent (2 extra
  // blocks), returning every other live page as a coresident.
  auto first = swap.ReadPage(PageKey{0, 0}, /*collect_coresidents=*/true);
  ASSERT_EQ(first.status, IoStatus::kOk);
  EXPECT_EQ(first.blocks_read, 3u);
  EXPECT_EQ(first.coresidents.size(), 11u);
  EXPECT_EQ(swap.stats().readahead_blocks_read, 2u);
  for (const auto& co : first.coresidents) {
    EXPECT_EQ(co.bytes, batches[co.key.page / 4][co.key.page % 4].bytes);
  }
}

// ---------- FixedSwapLayout, compressed pages (the paper's rejected alternative) ----------

TEST_F(SwapTest, FixedCompressedRoundTrip) {
  FixedSwapLayout swap(&fs_);
  SwapPageImage img = MakeImage(PageKey{0, 3}, 2000, 500);
  swap.WriteBatch(std::span<const SwapPageImage>(&img, 1));
  EXPECT_TRUE(swap.Contains(img.key));
  auto r = swap.ReadPage(img.key, true);
  EXPECT_EQ(r.bytes, img.bytes);
  EXPECT_TRUE(r.coresidents.empty());  // one page per slot: never any freebies
}

TEST_F(SwapTest, FixedCompressedPartialWriteTriggersRmw) {
  FixedSwapLayout swap(&fs_);
  // Prime the page's block with a full write, then rewrite smaller: the second
  // write is partial, so Sprite semantics force a read-modify-write.
  const SwapPageImage full = MakeRawImage(PageKey{0, 0}, 501);
  swap.WriteBatch(std::span<const SwapPageImage>(&full, 1));
  const FsStats before = fs_.stats();

  SwapPageImage small = MakeImage(PageKey{0, 0}, 2048, 502);
  swap.WriteBatch(std::span<const SwapPageImage>(&small, 1));
  // Paper: "a 2-Kbyte write would result in a 4-Kbyte read and a 4-Kbyte write".
  EXPECT_EQ(fs_.stats().rmw_reads - before.rmw_reads, 1u);
  EXPECT_EQ(fs_.stats().bytes_transferred_written - before.bytes_transferred_written, kFsBlockSize);

  auto r = swap.ReadPage(PageKey{0, 0}, false);
  EXPECT_EQ(r.bytes, small.bytes);
}

TEST_F(SwapTest, FixedCompressedKeepsFixedMapping) {
  FixedSwapLayout swap(&fs_);
  std::vector<SwapPageImage> batch;
  for (uint32_t p = 0; p < 4; ++p) {
    batch.push_back(MakeImage(PageKey{0, p}, 1000 + p * 300, 510 + p));
  }
  swap.WriteBatch(batch);
  // Rewrite page 1; the others must be untouched (no relocation, no GC).
  SwapPageImage redo = MakeImage(PageKey{0, 1}, 900, 520);
  swap.WriteBatch(std::span<const SwapPageImage>(&redo, 1));
  for (uint32_t p = 0; p < 4; ++p) {
    auto r = swap.ReadPage(PageKey{0, p}, false);
    EXPECT_EQ(r.bytes, p == 1 ? redo.bytes : batch[p].bytes) << p;
  }
}

TEST_F(SwapTest, FixedCompressedInvalidate) {
  FixedSwapLayout swap(&fs_);
  SwapPageImage img = MakeImage(PageKey{2, 7}, 1500, 530);
  swap.WriteBatch(std::span<const SwapPageImage>(&img, 1));
  swap.Invalidate(img.key);
  EXPECT_FALSE(swap.Contains(img.key));
}

// ---------- read verification, every layout ----------

// A byte flipped on disk behind a layout's back must surface as kCorrupt and
// one counted mismatch, whichever layout stored the image.
TEST_F(SwapTest, EveryLayoutCatchesAFlippedStoredByte) {
  {
    ClusteredSwapLayout swap(&fs_);
    const SwapPageImage img = MakeImage(PageKey{0, 0}, 1500, 540);
    swap.WriteBatch(std::span<const SwapPageImage>(&img, 1));
    ExpectFlippedByteCaught(swap, img.key, "cswap", 100);
  }
  {
    FixedSwapLayout swap(&fs_);
    const std::vector<SwapPageImage> batch{MakeRawImage(PageKey{3, 0}, 541),
                                           MakeImage(PageKey{3, 1}, 1500, 542)};
    swap.WriteBatch(batch);
    ExpectFlippedByteCaught(swap, batch[0].key, "swap.seg3", 100);
    ExpectFlippedByteCaught(swap, batch[1].key, "swap.seg3", kPageSize + 100);
  }
  {
    LfsSwapLayout::Options options;
    options.segment_blocks = 4;
    options.log_segments = 16;
    LfsSwapLayout swap(&fs_, nullptr, options);
    std::vector<SwapPageImage> images;
    for (uint32_t i = 0; i < 12; ++i) {  // 12 x 2 KB: segment 0 fills and flushes
      images.push_back(MakeImage(PageKey{0, i}, 2048, 550 + i));
    }
    swap.WriteBatch(images);
    ASSERT_GT(swap.stats().segments_written, 0u);
    ExpectFlippedByteCaught(swap, images[0].key, "lfs_swap", 100);
    EXPECT_EQ(swap.stats().reads_from_buffer, 0u);  // the read hit the disk
  }
}


// A block is free when none of its fragments is live, and free_runs() counts
// maximal runs of free blocks, so freed neighbors coalesce. Allocation is first
// fit by address: the lowest-addressed free run long enough, prefix taken.
TEST_F(SwapTest, ClusteredFreeRunsCoalesceAndAllocateFirstFit) {
  ClusteredSwapLayout swap(&fs_);
  // 4096-byte images occupy exactly one block (4 fragments), so block-level
  // layout is fully controlled by batch order.
  const auto write_one_block_pages = [&](uint32_t first_key, uint32_t count) {
    std::vector<SwapPageImage> batch;
    for (uint32_t i = 0; i < count; ++i) {
      batch.push_back(MakeImage(PageKey{0, first_key + i}, 4096, 3000 + first_key + i));
    }
    ASSERT_EQ(swap.WriteBatch(batch), IoStatus::kOk);
  };

  write_one_block_pages(0, 6);  // pages 0..5 at blocks 0..5
  ASSERT_EQ(swap.end_block(), 6u);
  ASSERT_EQ(swap.free_blocks(), 0u);

  // Free blocks 1,2,3 (one run after coalescing) and block 5 (its own run).
  for (const uint32_t p : {1u, 2u, 3u, 5u}) {
    swap.Invalidate(PageKey{0, p});
  }
  EXPECT_EQ(swap.free_blocks(), 4u);
  EXPECT_EQ(swap.free_runs(), 2u);

  // Two blocks fit in the run at block 1: first fit takes its prefix.
  const uint64_t reused_before = swap.stats().blocks_reused;
  write_one_block_pages(10, 2);  // pages 10,11 at blocks 1,2
  EXPECT_EQ(swap.stats().blocks_reused, reused_before + 2);
  EXPECT_EQ(swap.end_block(), 6u);  // no append
  EXPECT_EQ(swap.free_blocks(), 2u);  // block 3 and block 5 remain
  EXPECT_EQ(swap.free_runs(), 2u);

  // Three blocks fit in no remaining run: the file grows instead.
  const uint64_t appended_before = swap.stats().blocks_appended;
  write_one_block_pages(20, 3);  // pages 20..22 at blocks 6..8
  EXPECT_EQ(swap.stats().blocks_appended, appended_before + 3);
  EXPECT_EQ(swap.end_block(), 9u);

  // Freeing blocks 1 then 2 merges left and right into one run {1,2,3}.
  swap.Invalidate(PageKey{0, 10});
  EXPECT_EQ(swap.free_runs(), 3u);  // {1}, {3}, {5}
  swap.Invalidate(PageKey{0, 11});
  EXPECT_EQ(swap.free_runs(), 2u);  // {1,2,3}, {5}
  EXPECT_EQ(swap.free_blocks(), 4u);

  // Everything still live reads back intact.
  for (const uint32_t p : {0u, 4u, 20u, 21u, 22u}) {
    auto r = swap.ReadPage(PageKey{0, p}, false);
    EXPECT_EQ(r.bytes, MakeBytes(4096, 3000 + p)) << p;
  }
}

// ---------- LfsSwapLayout ----------

TEST_F(SwapTest, LfsRoundTripThroughBufferAndDisk) {
  LfsSwapLayout::Options options;
  options.segment_blocks = 4;  // 16 KB segments: flushes happen quickly
  options.log_segments = 32;
  LfsSwapLayout swap(&fs_, nullptr, options);

  std::vector<SwapPageImage> images;
  for (uint32_t i = 0; i < 24; ++i) {
    images.push_back(MakeImage(PageKey{0, i}, 1800 + (i % 5) * 300, 600 + i));
  }
  swap.WriteBatch(images);
  for (const auto& img : images) {
    ASSERT_TRUE(swap.Contains(img.key));
    auto r = swap.ReadPage(img.key, false);
    EXPECT_EQ(r.bytes, img.bytes) << img.key.page;
  }
  EXPECT_GT(swap.stats().segments_written, 0u);   // most pages hit the disk
  EXPECT_GT(swap.stats().reads_from_buffer, 0u);  // the newest came from the buffer
}

TEST_F(SwapTest, LfsSegmentWriteIsOneBigDiskOp) {
  LfsSwapLayout::Options options;
  options.segment_blocks = 8;  // 32 KB segments
  options.log_segments = 32;
  LfsSwapLayout swap(&fs_, nullptr, options);

  const uint64_t ops_before = device_.stats().write_ops;
  std::vector<SwapPageImage> images;
  for (uint32_t i = 0; i < 16; ++i) {  // 16 x 2 KB = one full segment
    images.push_back(MakeImage(PageKey{0, i}, 2048, 700 + i));
  }
  swap.WriteBatch(images);
  EXPECT_EQ(device_.stats().write_ops, ops_before + 1);  // one sequential segment write
}

TEST_F(SwapTest, LfsCleanerCopiesLiveDataAndFreesSegments) {
  LfsSwapLayout::Options options;
  options.segment_blocks = 2;  // tiny 8 KB segments
  options.log_segments = 12;
  options.clean_threshold = 4;
  LfsSwapLayout swap(&fs_, nullptr, options);

  // Keep rewriting a small set of pages: old copies become garbage spread over
  // many segments, forcing the cleaner to run and copy the live remainder.
  std::unordered_map<uint32_t, std::vector<uint8_t>> shadow;
  uint64_t seed = 800;
  for (int round = 0; round < 40; ++round) {
    std::vector<SwapPageImage> batch;
    for (uint32_t p = 0; p < 6; ++p) {
      auto img = MakeImage(PageKey{0, p}, 1500 + 100 * (p % 3), ++seed);
      shadow[p] = img.bytes;
      batch.push_back(std::move(img));
    }
    swap.WriteBatch(batch);
  }
  EXPECT_GT(swap.stats().segments_cleaned, 0u);
  EXPECT_GE(swap.free_segments(), options.clean_threshold);
  for (const auto& [page, bytes] : shadow) {
    auto r = swap.ReadPage(PageKey{0, page}, false);
    EXPECT_EQ(r.bytes, bytes) << page;
  }
}

// The cleaner picks the closed segment with the least live data. Segments 0..2
// are filled and then thinned to distinct live counts; segment 1 is left with
// exactly one live page, so a correct greedy pick copies exactly one page.
TEST_F(SwapTest, LfsCleanerStillPicksLeastLiveSegment) {
  LfsSwapLayout::Options options;
  options.segment_blocks = 2;  // 8 KB segments: 4 images of 2 KB each
  options.log_segments = 8;
  options.clean_threshold = 4;
  LfsSwapLayout swap(&fs_, nullptr, options);

  // Pages 0-3 fill segment 0, 4-7 segment 1, 8-11 segment 2 (each flush opens
  // the next segment). After this, segments 4-7 are free: no cleaning yet.
  std::unordered_map<uint32_t, std::vector<uint8_t>> shadow;
  std::vector<SwapPageImage> batch;
  for (uint32_t p = 0; p < 12; ++p) {
    auto img = MakeImage(PageKey{0, p}, 2048, 1000 + p);
    shadow[p] = img.bytes;
    batch.push_back(std::move(img));
  }
  swap.WriteBatch(batch);
  ASSERT_EQ(swap.free_segments(), 4u);
  ASSERT_EQ(swap.stats().segments_cleaned, 0u);

  // Thin the segments to distinct live byte counts:
  //   segment 0: 4 live (8192), segment 1: 1 live (2048), segment 2: 3 (6144).
  for (const uint32_t p : {4u, 5u, 6u, 8u}) {
    swap.Invalidate(PageKey{0, p});
    shadow.erase(p);
  }

  // Four more pages fill segment 3; its flush drops free segments to 3, below
  // the threshold, and the cleaner runs once. The least-live closed segment is
  // segment 1, whose single live page (page 7) is the only copy made.
  batch.clear();
  for (uint32_t p = 100; p < 104; ++p) {
    auto img = MakeImage(PageKey{0, p}, 2048, 1100 + p);
    shadow[p] = img.bytes;
    batch.push_back(std::move(img));
  }
  swap.WriteBatch(batch);

  EXPECT_EQ(swap.stats().segments_cleaned, 1u);
  EXPECT_EQ(swap.stats().live_pages_copied, 1u);
  EXPECT_EQ(swap.free_segments(), options.clean_threshold);
  for (const auto& [page, bytes] : shadow) {
    auto r = swap.ReadPage(PageKey{0, page}, false);
    EXPECT_EQ(r.bytes, bytes) << page;
  }
}

// A flush opens the lowest-numbered free segment. One batch frees two
// zero-live victims, segments 0 and 2 in that order; the next flush fills
// segment 0 and leaves segment 2's stale bytes on disk.
TEST_F(SwapTest, LfsFlushReopensLowestFreeSegment) {
  LfsSwapLayout::Options options;
  options.segment_blocks = 2;  // 8 KB segments: 4 images of 2 KB each
  options.log_segments = 8;
  options.clean_threshold = 4;
  LfsSwapLayout swap(&fs_, nullptr, options);

  std::unordered_map<uint32_t, std::vector<uint8_t>> shadow;
  const auto write = [&](uint32_t first, uint32_t count) {
    std::vector<SwapPageImage> batch;
    for (uint32_t p = first; p < first + count; ++p) {
      batch.push_back(MakeImage(PageKey{0, p}, 2048, 1200 + p));
      shadow[p] = batch.back().bytes;
    }
    ASSERT_EQ(swap.WriteBatch(batch), IoStatus::kOk);
  };
  // Invalidates the four pages first..first+3, which fill one segment.
  const auto drop_segment = [&](uint32_t first) {
    for (uint32_t p = first; p < first + 4; ++p) {
      swap.Invalidate(PageKey{0, p});
      shadow.erase(p);
    }
  };
  // The first 2 KB of segment `s` in the log file.
  const auto segment_head = [&](uint32_t s) {
    std::vector<uint8_t> head(2048);
    EXPECT_EQ(fs_.Read(fs_.OpenOrCreate("lfs_swap"), uint64_t{s} * 8192, head), IoStatus::kOk);
    return head;
  };

  write(0, 12);  // pages 0-3, 4-7 and 8-11 fill segments 0-2; segment 3 opens
  drop_segment(0);
  drop_segment(8);
  // Pages 100-107 fill segments 3 and 4, leaving two free segments; the
  // cleaner frees the zero-live segments 0 and 2 and copies nothing.
  write(100, 8);
  ASSERT_EQ(swap.stats().segments_cleaned, 2u);
  ASSERT_EQ(swap.stats().live_pages_copied, 0u);
  ASSERT_EQ(swap.free_segments(), 4u);

  // Segments 1 and 3 go empty too, so the next cleaning copies nothing either.
  // Pages 200-203 fill segment 5; its flush opens segment 0, which pages
  // 204-207 fill.
  drop_segment(4);
  drop_segment(100);
  write(200, 8);
  ASSERT_EQ(swap.stats().segments_cleaned, 4u);
  ASSERT_EQ(swap.stats().live_pages_copied, 0u);
  EXPECT_EQ(segment_head(0), shadow[204]);
  EXPECT_EQ(segment_head(2), MakeBytes(2048, 1200 + 8));  // stale page 8
  for (const auto& [page, bytes] : shadow) {
    EXPECT_EQ(swap.ReadPage(PageKey{0, page}, false).bytes, bytes) << page;
  }
}

// Durable mode: a cleaned victim's summary stays replayable until a checkpoint
// captures its re-appended pages, so the victim stays out of free_segments()
// until then. The first cleaning attempt fails to read the victim; the second
// cleans it but can neither flush nor checkpoint; the third batch's
// checkpoint frees it.
TEST_F(SwapTest, LfsDurableVictimWaitsForACheckpoint) {
  FaultInjector injector(/*seed=*/1);
  LfsSwapLayout::Options options;
  options.segment_blocks = 2;  // one 4 KB data block plus the summary block
  options.log_segments = 8;
  options.clean_threshold = 4;
  options.durable = true;
  LfsSwapLayout swap(&fs_, nullptr, options);
  InvariantAuditor auditor;
  swap.RegisterAuditChecks(&auditor);
  auditor.set_abort_on_violation(false);
  device_.SetFaultInjector(&injector);

  std::unordered_map<uint32_t, std::vector<uint8_t>> shadow;
  const auto write = [&](uint32_t first, uint32_t count) {
    std::vector<SwapPageImage> batch;
    for (uint32_t p = first; p < first + count; ++p) {
      batch.push_back(MakeImage(PageKey{0, p}, 1024, 1300 + p));
      shadow[p] = batch.back().bytes;
    }
    return swap.WriteBatch(batch);
  };

  ASSERT_EQ(write(0, 12), IoStatus::kOk);  // pages 0-11 fill segments 0-2
  ASSERT_EQ(swap.free_segments(), 4u);
  for (uint32_t p = 0; p < 3; ++p) {  // segment 0 keeps only page 3
    swap.Invalidate(PageKey{0, p});
    shadow.erase(p);
  }

  // Pages 100-103 fill segment 3; the cleaner picks segment 0 and cannot read it.
  injector.SetSchedule(FaultSite::kDiskRead, FaultSchedule{1.0, {}});
  ASSERT_EQ(write(100, 4), IoStatus::kOk);
  ASSERT_EQ(swap.stats().segments_cleaned, 0u);
  ASSERT_EQ(swap.free_segments(), 3u);

  // Now the read works and every write fails: page 3 moves into the open
  // buffer beside page 200 and segment 0 is cleaned, but neither the flush
  // nor the checkpoint reaches the disk.
  injector.SetSchedule(FaultSite::kDiskRead, FaultSchedule{});
  injector.SetSchedule(FaultSite::kDiskWrite, FaultSchedule{1.0, {}});
  const uint64_t checkpoints = swap.stats().checkpoints_written;
  ASSERT_EQ(write(200, 1), IoStatus::kOk);
  EXPECT_EQ(swap.stats().segments_cleaned, 1u);
  EXPECT_EQ(swap.stats().live_pages_copied, 1u);
  EXPECT_EQ(swap.stats().checkpoints_written, checkpoints);
  EXPECT_EQ(swap.free_segments(), 3u);  // cleaned, not yet free
  EXPECT_EQ(auditor.RunAll(), 0u);

  // Writes work again: the batch flushes segment 4, which takes a free
  // segment, and the checkpoint after it returns segment 0.
  injector.SetSchedule(FaultSite::kDiskWrite, FaultSchedule{});
  ASSERT_EQ(write(300, 1), IoStatus::kOk);
  EXPECT_GT(swap.stats().checkpoints_written, checkpoints);
  EXPECT_EQ(swap.free_segments(), 3u);
  EXPECT_EQ(auditor.RunAll(), 0u);
  device_.SetFaultInjector(nullptr);
  for (const auto& [page, bytes] : shadow) {
    EXPECT_EQ(swap.ReadPage(PageKey{0, page}, false).bytes, bytes) << page;
  }
}

TEST_F(SwapTest, LfsChargesBufferMemory) {
  TestFrameSource frames(256);
  const size_t used_before = frames.pool().used_frames();
  LfsSwapLayout::Options options;
  options.segment_blocks = 16;
  LfsSwapLayout swap(&fs_, &frames, options);
  EXPECT_EQ(frames.pool().used_frames(), used_before + 16);
}

TEST_F(SwapTest, LfsCoresidentsFromSegmentBlocks) {
  LfsSwapLayout::Options options;
  options.segment_blocks = 4;
  options.log_segments = 16;
  LfsSwapLayout swap(&fs_, nullptr, options);
  std::vector<SwapPageImage> images;
  for (uint32_t i = 0; i < 8; ++i) {
    images.push_back(MakeImage(PageKey{0, i}, 900, 900 + i));  // ~4 per block
  }
  swap.WriteBatch(images);
  // Force a flush so reads hit the disk path.
  std::vector<SwapPageImage> filler;
  for (uint32_t i = 100; i < 120; ++i) {
    filler.push_back(MakeImage(PageKey{0, i}, 2000, 950 + i));
  }
  swap.WriteBatch(filler);

  auto r = swap.ReadPage(PageKey{0, 1}, true);
  EXPECT_EQ(r.bytes, images[1].bytes);
  EXPECT_FALSE(r.coresidents.empty());
  for (const auto& co : r.coresidents) {
    EXPECT_EQ(co.bytes, images[co.key.page].bytes);
  }
}

}  // namespace
}  // namespace compcache
