#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "compress/pagegen.h"
#include "core/machine.h"
#include "tests/test_util.h"
#include "util/checksum.h"
#include "util/rng.h"
#include "vm/heap.h"

namespace compcache {
namespace {

std::vector<uint8_t> MakePageBytes(ContentClass content, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> page(kPageSize);
  FillPage(page, content, rng);
  return page;
}

class PagerModeTest : public ::testing::TestWithParam<bool> {};  // param: use ccache

TEST_P(PagerModeTest, ZeroFillFirstTouch) {
  Machine machine(SmallConfig(GetParam()));
  Heap heap = machine.NewHeap(64 * kPageSize);
  std::vector<uint8_t> out(kPageSize);
  heap.ReadBytes(0, out);
  for (const uint8_t b : out) {
    ASSERT_EQ(b, 0);
  }
  EXPECT_EQ(machine.pager().stats().faults_zero_fill, 1u);
}

// The pool hands frames out as their last owner left them, so a zero-fill
// fault must zero its own frame.
TEST_P(PagerModeTest, ZeroFillFaultOnARecycledFrameReadsZeros) {
  MachineConfig config = SmallConfig(GetParam());
  config.charge_metadata_overhead = false;  // no frame sits unwritten for life
  Machine machine(config);
  FramePool& pool = machine.frame_pool();
  const uint64_t frames = pool.total_frames();

  // Random pages through twice the pool: every frame ends up holding data.
  Heap old_heap = machine.NewHeap(2 * frames * kPageSize);
  for (uint64_t p = 0; p < 2 * frames; ++p) {
    old_heap.WriteBytes(p * kPageSize, MakePageBytes(ContentClass::kRandom, 300 + p));
  }
  const auto all_zero = [](std::span<const uint8_t> bytes) {
    return std::all_of(bytes.begin(), bytes.end(), [](uint8_t b) { return b == 0; });
  };
  for (uint32_t f = 0; f < frames; ++f) {
    ASSERT_FALSE(all_zero(pool.Data(FrameId{f}))) << "frame " << f << " never held data";
  }

  const uint64_t zero_fills_before = machine.pager().stats().faults_zero_fill;
  Heap fresh = machine.NewHeap(frames * kPageSize);
  std::vector<uint8_t> out(kPageSize);
  for (uint64_t p = 0; p < frames; ++p) {
    fresh.ReadBytes(p * kPageSize, out);
    ASSERT_TRUE(all_zero(out)) << "first touch of page " << p;
  }
  EXPECT_EQ(machine.pager().stats().faults_zero_fill - zero_fills_before, frames);
  machine.pager().CheckInvariants();
}

TEST_P(PagerModeTest, DataSurvivesHeavyPaging) {
  // Working set 2x memory: every page must round-trip through the paging
  // hierarchy (compression cache and/or swap) unchanged.
  Machine machine(SmallConfig(GetParam(), 2 * kMiB));
  const uint64_t pages = (4 * kMiB) / kPageSize;
  Heap heap = machine.NewHeap(pages * kPageSize);

  std::vector<std::vector<uint8_t>> shadow(pages);
  Rng rng(1);
  for (uint64_t p = 0; p < pages; ++p) {
    const ContentClass content =
        p % 3 == 0 ? ContentClass::kRandom
                   : (p % 3 == 1 ? ContentClass::kRepetitiveText : ContentClass::kSparseNumeric);
    shadow[p] = MakePageBytes(content, 100 + p);
    heap.WriteBytes(p * kPageSize, shadow[p]);
  }
  machine.pager().CheckInvariants();

  std::vector<uint8_t> out(kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    heap.ReadBytes(p * kPageSize, out);
    ASSERT_EQ(out, shadow[p]) << "page " << p;
  }
  machine.pager().CheckInvariants();
  EXPECT_GT(machine.pager().stats().faults, pages);
}

TEST_P(PagerModeTest, RandomAccessPatternMatchesShadow) {
  Machine machine(SmallConfig(GetParam(), 2 * kMiB));
  const uint64_t pages = 1024;  // 4 MB vs 2 MB memory
  Heap heap = machine.NewHeap(pages * kPageSize);
  std::vector<uint32_t> shadow(pages, 0);
  Rng rng(17);

  for (int op = 0; op < 20'000; ++op) {
    const uint64_t p = rng.Below(pages);
    const uint64_t addr = p * kPageSize + (p % 512) * 8;
    if (rng.Chance(0.5)) {
      shadow[p] = static_cast<uint32_t>(rng.Next());
      heap.Store<uint32_t>(addr, shadow[p]);
    } else {
      ASSERT_EQ(heap.Load<uint32_t>(addr), shadow[p]) << "page " << p;
    }
  }
  machine.pager().CheckInvariants();
}

TEST_P(PagerModeTest, MultipleSegmentsAreIndependent) {
  Machine machine(SmallConfig(GetParam()));
  Heap a = machine.NewHeap(32 * kPageSize);
  Heap b = machine.NewHeap(32 * kPageSize);
  a.Store<uint64_t>(0, 0x1111);
  b.Store<uint64_t>(0, 0x2222);
  EXPECT_EQ(a.Load<uint64_t>(0), 0x1111u);
  EXPECT_EQ(b.Load<uint64_t>(0), 0x2222u);
}

TEST_P(PagerModeTest, DeterministicAcrossRuns) {
  auto run_once = [&] {
    Machine machine(SmallConfig(GetParam(), 2 * kMiB));
    Heap heap = machine.NewHeap(3 * kMiB);
    Rng rng(5);
    for (int op = 0; op < 5000; ++op) {
      const uint64_t addr = rng.Below(heap.size_bytes() - 8);
      if (rng.Chance(0.5)) {
        heap.Store<uint32_t>(addr, static_cast<uint32_t>(rng.Next()));
      } else {
        (void)heap.Load<uint32_t>(addr);
      }
    }
    return machine.clock().Now().nanos();
  };
  EXPECT_EQ(run_once(), run_once());
}

std::string ModeName(const ::testing::TestParamInfo<bool>& info) {
  return info.param ? "cc" : "std";
}

INSTANTIATE_TEST_SUITE_P(BothModes, PagerModeTest, ::testing::Bool(), ModeName);

// ---------- mode-specific behaviour ----------

TEST(PagerCcTest, SequentialReReadServedFromCcache) {
  Machine machine(SmallConfig(true, 2 * kMiB));
  const uint64_t pages = (3 * kMiB) / kPageSize;
  Heap heap = machine.NewHeap(pages * kPageSize);

  std::vector<uint8_t> page = MakePageBytes(ContentClass::kSparseNumeric, 1);
  for (uint64_t p = 0; p < pages; ++p) {
    heap.WriteBytes(p * kPageSize, page);
  }
  // Re-read sequentially: faults should hit the compression cache, and with
  // everything fitting compressed, there should be no disk reads at all.
  const uint64_t disk_reads_before = machine.disk().stats().read_ops;
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t p = 0; p < pages; ++p) {
      (void)heap.Load<uint32_t>(p * kPageSize);
    }
  }
  EXPECT_GT(machine.pager().stats().faults_from_ccache, 0u);
  EXPECT_EQ(machine.disk().stats().read_ops, disk_reads_before);
}

TEST(PagerCcTest, WriteInvalidatesCachedCopy) {
  Machine machine(SmallConfig(true));
  Heap heap = machine.NewHeap(8 * kPageSize);
  std::vector<uint8_t> page = MakePageBytes(ContentClass::kRepetitiveText, 2);
  heap.WriteBytes(0, page);

  // Force the page into the compression cache, then fault it back.
  while (machine.pager().resident_pages() > 0) {
    if (!machine.pager().ReleaseOldest()) {
      break;
    }
  }
  ASSERT_TRUE(machine.ccache()->Contains(PageKey{0, 0}));
  const uint64_t invalidations_before = machine.ccache()->stats().invalidations;

  heap.Store<uint32_t>(0, 0xDEAD);  // fault in + dirty
  EXPECT_EQ(machine.ccache()->stats().invalidations, invalidations_before + 1);
  EXPECT_FALSE(machine.ccache()->Contains(PageKey{0, 0}));
  machine.pager().CheckInvariants();
}

TEST(PagerCcTest, CleanReReadKeepsCachedCopy) {
  Machine machine(SmallConfig(true));
  Heap heap = machine.NewHeap(8 * kPageSize);
  heap.WriteBytes(0, MakePageBytes(ContentClass::kRepetitiveText, 3));

  while (machine.pager().resident_pages() > 0 && machine.pager().ReleaseOldest()) {
  }
  ASSERT_TRUE(machine.ccache()->Contains(PageKey{0, 0}));

  (void)heap.Load<uint32_t>(0);  // read-only fault
  // "The compressed pages are retained in memory ... in the expectation that they
  // will be accessed again soon": a read fault keeps the compressed copy.
  EXPECT_TRUE(machine.ccache()->Contains(PageKey{0, 0}));

  // Evicting the still-clean page is free: no compression, no I/O.
  const uint64_t compressions = machine.ccache()->stats().pages_compressed;
  const uint64_t clean_drops = machine.pager().stats().evictions_clean_drop;
  ASSERT_TRUE(machine.pager().ReleaseOldest());
  EXPECT_EQ(machine.ccache()->stats().pages_compressed, compressions);
  EXPECT_EQ(machine.pager().stats().evictions_clean_drop, clean_drops + 1);
}

TEST(PagerCcTest, IncompressiblePagesBypassCache) {
  Machine machine(SmallConfig(true, 2 * kMiB));
  const uint64_t pages = (3 * kMiB) / kPageSize;
  Heap heap = machine.NewHeap(pages * kPageSize);
  Rng rng(4);
  std::vector<uint8_t> page(kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    FillPage(page, ContentClass::kRandom, rng);
    heap.WriteBytes(p * kPageSize, page);
  }
  EXPECT_GT(machine.pager().stats().evictions_raw_swap, 0u);
  EXPECT_EQ(machine.pager().stats().evictions_compressed, 0u);
  EXPECT_GT(machine.ccache()->stats().pages_rejected, 0u);
  machine.pager().CheckInvariants();
}

// A dirty all-zero page leaves as the compression cache's one-byte zero-page
// image: the cleaner writes it back, the ring drops it, and the fault reads it
// back from swap as zeros, on every compressed layout.
TEST(PagerCcTest, DirtyZeroPageComesBackFromSwapAsZeros) {
  for (const CompressedSwapKind kind :
       {CompressedSwapKind::kClustered, CompressedSwapKind::kFixedOffset,
        CompressedSwapKind::kLfs}) {
    SCOPED_TRACE(static_cast<int>(kind));
    // LFS wires its 128-frame segment buffer out of the pool.
    const uint64_t memory =
        kind == CompressedSwapKind::kLfs ? 2 * kMiB + 128 * kPageSize : 2 * kMiB;
    MachineConfig config = SmallConfig(true, memory);
    config.compressed_swap = kind;
    Machine machine(config);
    const uint32_t pages = (6 * kMiB) / kPageSize;
    Segment* segment = machine.pager().CreateSegment(pages);
    const PageKey key{segment->id(), 0};
    (void)machine.pager().Access(*segment, 0, /*write=*/true);  // dirty, all zeros

    Rng rng(9);
    std::vector<uint8_t> page(kPageSize);
    for (uint32_t p = 1; p < pages && segment->page(0).state != PageState::kSwapped; ++p) {
      FillPage(page, ContentClass::kText, rng);
      const auto frame = machine.pager().Access(*segment, p, /*write=*/true);
      std::copy(page.begin(), page.end(), frame.begin());
    }
    ASSERT_EQ(segment->page(0).state, PageState::kSwapped);
    EXPECT_GT(machine.ccache()->stats().zero_pages, 0u);
    EXPECT_TRUE(IsZeroPageMarker(machine.compressed_swap()->ReadPage(key, false).bytes));

    const uint64_t from_swap = machine.pager().stats().faults_from_swap;
    const auto back = machine.pager().Access(*segment, 0, /*write=*/false);
    EXPECT_TRUE(std::all_of(back.begin(), back.end(), [](uint8_t b) { return b == 0; }));
    EXPECT_EQ(machine.pager().stats().faults_from_swap, from_swap + 1);
    EXPECT_EQ(machine.RunAudit(), 0u);
  }
}

TEST(PagerStdTest, EvictionWritesSynchronously) {
  Machine machine(SmallConfig(false, 2 * kMiB));
  const uint64_t pages = (3 * kMiB) / kPageSize;
  Heap heap = machine.NewHeap(pages * kPageSize);
  std::vector<uint8_t> page = MakePageBytes(ContentClass::kText, 5);
  for (uint64_t p = 0; p < pages; ++p) {
    heap.WriteBytes(p * kPageSize, page);
  }
  EXPECT_GT(machine.pager().stats().evictions_std_write, 0u);
  EXPECT_GT(machine.fixed_swap()->stats().pages_written, 0u);
  EXPECT_EQ(machine.pager().stats().evictions_compressed, 0u);
}

TEST(PagerStdTest, CleanPagesDropFree) {
  Machine machine(SmallConfig(false, 2 * kMiB));
  const uint64_t pages = (3 * kMiB) / kPageSize;
  Heap heap = machine.NewHeap(pages * kPageSize);
  std::vector<uint8_t> page = MakePageBytes(ContentClass::kText, 6);
  for (uint64_t p = 0; p < pages; ++p) {
    heap.WriteBytes(p * kPageSize, page);
  }
  // Second sequential pass is read-only: evictions of re-read pages need no
  // write (a valid swap copy exists).
  const uint64_t writes_after_init = machine.fixed_swap()->stats().pages_written;
  for (uint64_t p = 0; p < pages; ++p) {
    (void)heap.Load<uint32_t>(p * kPageSize);
  }
  EXPECT_GT(machine.pager().stats().evictions_clean_drop, 0u);
  // Only the pages dirtied at init that had not yet been paged out can add
  // writes; re-read pages must not.
  EXPECT_LE(machine.fixed_swap()->stats().pages_written, writes_after_init + pages);
}

TEST(PagerLruTest, LruVictimIsOldest) {
  Machine machine(SmallConfig(false));
  Heap heap = machine.NewHeap(4 * kPageSize);
  // Touch pages 0..3 in order, then re-touch 0: the LRU victim must be page 1.
  for (uint32_t p = 0; p < 4; ++p) {
    heap.Store<uint32_t>(p * kPageSize, p);
  }
  (void)heap.Load<uint32_t>(0);
  ASSERT_TRUE(machine.pager().ReleaseOldest());
  EXPECT_EQ(machine.pager().GetSegment(0)->page(1).state, PageState::kSwapped);
  EXPECT_EQ(machine.pager().GetSegment(0)->page(0).state, PageState::kResident);
}

TEST(PagerLruTest, VictimSkipsPinnedAndAdvisedPagesAtTheLruFront) {
  Machine machine(SmallConfig(false));
  Heap heap = machine.NewHeap(6 * kPageSize);
  for (uint32_t p = 0; p < 6; ++p) {
    heap.Store<uint32_t>(p * kPageSize, p);
  }
  // LRU order 0..5. Page 0 is pinned as if mid-fault; pages 1 and 2 carry the
  // advisory. The victim is the first page that is neither: page 3.
  Pager& pager = machine.pager();
  Segment& segment = *heap.segment();
  segment.page(0).pinned = true;
  pager.Advise(segment, 1, 2, /*pin=*/true);
  const auto resident = [&](std::initializer_list<uint32_t> pages) {
    for (const uint32_t p : pages) {
      EXPECT_EQ(segment.page(p).state, PageState::kResident) << "page " << p;
    }
  };
  ASSERT_TRUE(pager.ReleaseOldest());
  EXPECT_EQ(segment.page(3).state, PageState::kSwapped);
  resident({0, 1, 2, 4, 5});

  // While any unpinned page lacks the advisory, advised pages stay.
  ASSERT_TRUE(pager.ReleaseOldest());
  EXPECT_EQ(segment.page(4).state, PageState::kSwapped);
  resident({0, 1, 2, 5});

  // Once every unpinned page is advised, the oldest advised page goes; the
  // pinned page never does.
  pager.Advise(segment, 5, 1, /*pin=*/true);
  ASSERT_TRUE(pager.ReleaseOldest());
  EXPECT_EQ(segment.page(1).state, PageState::kSwapped);
  resident({0, 2, 5});
  ASSERT_TRUE(pager.ReleaseOldest());
  ASSERT_TRUE(pager.ReleaseOldest());
  resident({0});
  EXPECT_FALSE(pager.ReleaseOldest());
  segment.page(0).pinned = false;
  pager.CheckInvariants();
}

// ---------- CheckInvariants runs the registered audit checks ----------

TEST(PagerDeathTest, CheckInvariantsAbortsOnASwappedPageWithoutItsCopy) {
  Machine machine(SmallConfig(false));
  Heap heap = machine.NewHeap(8 * kPageSize);
  heap.Store<uint32_t>(0, 1);
  ASSERT_TRUE(machine.pager().ReleaseOldest());
  PageEntry& entry = heap.segment()->page(0);
  ASSERT_EQ(entry.state, PageState::kSwapped);
  machine.pager().CheckInvariants();  // healthy

  entry.has_backing_copy = false;
  EXPECT_DEATH(machine.pager().CheckInvariants(), "page-states");
  entry.has_backing_copy = true;
  machine.pager().CheckInvariants();
}

TEST(PagerDeathTest, CheckInvariantsAbortsOnAnUnclaimedBackendCopy) {
  Machine machine(SmallConfig(true));
  Heap heap = machine.NewHeap(8 * kPageSize);
  heap.Store<uint32_t>(0, 1);
  machine.pager().CheckInvariants();  // healthy

  // Page 5 was never touched, yet the backend now holds a copy of it: a leak.
  SwapPageImage img;
  img.key = PageKey{heap.segment()->id(), 5};
  img.bytes = MakePageBytes(ContentClass::kRandom, 7);
  img.is_compressed = false;
  img.checksum = Crc32(img.bytes);
  ASSERT_EQ(machine.compressed_swap()->WriteBatch(std::span<const SwapPageImage>(&img, 1)),
            IoStatus::kOk);
  EXPECT_DEATH(machine.pager().CheckInvariants(), "swap-coherent");
  machine.compressed_swap()->Invalidate(img.key);
  machine.pager().CheckInvariants();
}

}  // namespace
}  // namespace compcache
