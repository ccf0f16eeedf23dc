#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <span>
#include <vector>

#include "ccache/compression_cache.h"
#include "compress/lzrw1.h"
#include "compress/pagegen.h"
#include "tests/test_util.h"
#include "util/checksum.h"
#include "util/rng.h"

namespace compcache {
namespace {

// Records cache events for inspection.
class EventRecorder : public CcacheEvents {
 public:
  void OnEntryCleaned(PageKey key) override { cleaned.push_back(key); }
  void OnEntryDropped(PageKey key) override { dropped.push_back(key); }
  void OnEntryLost(PageKey key) override { lost.push_back(key); }

  std::vector<PageKey> cleaned;
  std::vector<PageKey> dropped;
  std::vector<PageKey> lost;
};

// A clustered layout that, while `failing`, persists the first image of each
// batch and then reports kFailed: a write that died part way through.
class PartialWriteSwap : public ClusteredSwapLayout {
 public:
  using ClusteredSwapLayout::ClusteredSwapLayout;

  IoStatus WriteBatch(std::span<const SwapPageImage> pages) override {
    if (!failing) {
      return ClusteredSwapLayout::WriteBatch(pages);
    }
    EXPECT_EQ(ClusteredSwapLayout::WriteBatch(pages.first(1)), IoStatus::kOk);
    return IoStatus::kFailed;
  }

  bool failing = false;
};

class CcacheTest : public ::testing::Test {
 protected:
  explicit CcacheTest(size_t max_slots = 64, size_t pool_frames = 256)
      : device_(&clock_, std::make_unique<SeekDiskModel>(), SimDuration::Micros(500)),
        fs_(&device_),
        swap_(&fs_),
        frames_(pool_frames) {
    CcacheOptions options;
    options.max_slots = max_slots;
    cache_ = std::make_unique<CompressionCache>(&clock_, &costs_, &frames_, &codec_, &swap_,
                                                &events_, options);
  }

  std::vector<uint8_t> MakePage(ContentClass content, uint64_t seed) {
    Rng rng(seed);
    std::vector<uint8_t> page(kPageSize);
    FillPage(page, content, rng);
    return page;
  }

  Clock clock_;
  CostModel costs_;
  DiskDevice device_;
  FileSystem fs_;
  PartialWriteSwap swap_;
  TestFrameSource frames_;
  Lzrw1 codec_;
  EventRecorder events_;
  std::unique_ptr<CompressionCache> cache_;
};

TEST_F(CcacheTest, InsertAndFaultInRoundTrip) {
  const auto page = MakePage(ContentClass::kRepetitiveText, 1);
  const PageKey key{0, 0};
  EXPECT_TRUE(cache_->CompressAndInsert(key, page, /*dirty=*/true));
  EXPECT_TRUE(cache_->Contains(key));
  cache_->CheckInvariants();

  std::vector<uint8_t> out(kPageSize);
  EXPECT_EQ(cache_->FaultIn(key, out), CcacheFaultResult::kHit);
  EXPECT_EQ(out, page);
  EXPECT_EQ(cache_->stats().fault_hits, 1u);
}

TEST_F(CcacheTest, ThresholdRejectsIncompressible) {
  const auto page = MakePage(ContentClass::kRandom, 2);
  EXPECT_FALSE(cache_->CompressAndInsert(PageKey{0, 0}, page, true));
  EXPECT_FALSE(cache_->Contains(PageKey{0, 0}));
  EXPECT_EQ(cache_->stats().pages_rejected, 1u);
  EXPECT_EQ(cache_->stats().pages_compressed, 1u);  // effort was still spent
}

TEST_F(CcacheTest, CompressionChargesTime) {
  const auto page = MakePage(ContentClass::kRepetitiveText, 3);
  const SimTime before = clock_.Now();
  cache_->CompressAndInsert(PageKey{0, 0}, page, true);
  const SimDuration spent = clock_.Now() - before;
  EXPECT_GE(spent.nanos(), costs_.CompressCost(kPageSize).nanos());
}

TEST_F(CcacheTest, ZeroPageFastPathSkipsCodecAndCrc) {
  // An all-zero page is kept via the marker fast path: only the word-wise scan
  // is charged (no codec time), no ring payload is stored, and fault-in
  // zero-fills without decompression.
  const std::vector<uint8_t> page(kPageSize, 0);
  const PageKey key{0, 7};
  const SimTime before = clock_.Now();
  EXPECT_TRUE(cache_->CompressAndInsert(key, page, /*dirty=*/true));
  EXPECT_EQ((clock_.Now() - before).nanos(), costs_.ZeroScanCost(kPageSize).nanos());
  EXPECT_EQ(cache_->stats().zero_pages, 1u);
  EXPECT_EQ(cache_->stats().pages_compressed, 0u);  // codec never ran
  const auto info = cache_->EntryInfoFor(key);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->payload_size, 0u);
  cache_->CheckInvariants();

  std::vector<uint8_t> out(kPageSize, 0xAB);
  EXPECT_EQ(cache_->FaultIn(key, out), CcacheFaultResult::kHit);
  EXPECT_EQ(out, page);
  EXPECT_EQ(cache_->stats().zero_fault_hits, 1u);
}

TEST_F(CcacheTest, FaultInMissingReturnsMiss) {
  std::vector<uint8_t> out(kPageSize);
  EXPECT_EQ(cache_->FaultIn(PageKey{9, 9}, out), CcacheFaultResult::kMiss);
}

TEST_F(CcacheTest, InvalidateRemovesFromIndex) {
  const auto page = MakePage(ContentClass::kZero, 4);
  const PageKey key{0, 1};
  cache_->CompressAndInsert(key, page, true);
  cache_->Invalidate(key);
  EXPECT_FALSE(cache_->Contains(key));
  std::vector<uint8_t> out(kPageSize);
  EXPECT_EQ(cache_->FaultIn(key, out), CcacheFaultResult::kMiss);
  cache_->CheckInvariants();
}

TEST_F(CcacheTest, InvalidateMissingIsNoop) {
  cache_->Invalidate(PageKey{3, 3});
  EXPECT_EQ(cache_->stats().invalidations, 0u);
}

TEST_F(CcacheTest, ManyInsertsWrapTheRing) {
  // 64-slot ring = 256 KB; insert far more than fits so the ring wraps and head
  // reclamation runs. All dirty data must reach the backing store before frames
  // die, so nothing is ever lost.
  std::unordered_map<uint32_t, std::vector<uint8_t>> shadow;
  for (uint32_t i = 0; i < 600; ++i) {
    const auto page = MakePage(ContentClass::kRepetitiveText, 100 + i);
    const PageKey key{0, i};
    if (cache_->CompressAndInsert(key, page, /*dirty=*/true)) {
      shadow[i] = page;
    }
    if (i % 37 == 0) {
      cache_->CheckInvariants();
    }
  }
  cache_->CheckInvariants();
  EXPECT_LE(cache_->mapped_frames(), 64u);

  // Every page is either still in the cache or was cleaned to swap.
  std::vector<uint8_t> out(kPageSize);
  for (const auto& [page_index, page] : shadow) {
    const PageKey key{0, page_index};
    if (cache_->FaultIn(key, out) == CcacheFaultResult::kHit) {
      EXPECT_EQ(out, page) << page_index;
    } else {
      ASSERT_TRUE(swap_.Contains(key)) << page_index;
      auto r = swap_.ReadPage(key, false);
      ASSERT_TRUE(r.is_compressed);
      std::vector<uint8_t> decompressed(kPageSize);
      codec_.Decompress(r.bytes, decompressed);
      EXPECT_EQ(decompressed, page) << page_index;
    }
  }
}

TEST_F(CcacheTest, ReleaseOldestFreesAFrameAndFiresEvents) {
  for (uint32_t i = 0; i < 16; ++i) {
    cache_->CompressAndInsert(PageKey{0, i}, MakePage(ContentClass::kText, 200 + i), true);
  }
  const size_t mapped_before = cache_->mapped_frames();
  ASSERT_GT(mapped_before, 0u);
  const size_t pool_used_before = frames_.pool().used_frames();

  EXPECT_TRUE(cache_->ReleaseOldest());
  EXPECT_LT(cache_->mapped_frames(), mapped_before);
  EXPECT_LT(frames_.pool().used_frames(), pool_used_before);
  // Dirty entries overlapping the head frame were cleaned then dropped.
  EXPECT_FALSE(events_.cleaned.empty());
  EXPECT_FALSE(events_.dropped.empty());
  for (const PageKey key : events_.dropped) {
    EXPECT_FALSE(cache_->Contains(key));
    EXPECT_TRUE(swap_.Contains(key));  // the copy survived on backing store
  }
  cache_->CheckInvariants();
}

TEST_F(CcacheTest, ReleaseOldestOnEmptyReturnsFalse) {
  EXPECT_FALSE(cache_->ReleaseOldest());
}

TEST_F(CcacheTest, OldestAgeTracksHeadEntry) {
  EXPECT_EQ(cache_->OldestAge(), UINT64_MAX);
  clock_.Advance(SimDuration::Seconds(1));
  cache_->CompressAndInsert(PageKey{0, 0}, MakePage(ContentClass::kZero, 5), true);
  const uint64_t age0 = cache_->OldestAge();
  EXPECT_LE(age0, static_cast<uint64_t>(clock_.Now().nanos()));
  clock_.Advance(SimDuration::Seconds(1));
  cache_->CompressAndInsert(PageKey{0, 1}, MakePage(ContentClass::kZero, 6), true);
  EXPECT_EQ(cache_->OldestAge(), age0);  // head unchanged
}

TEST_F(CcacheTest, CleanerWritesDirtyBatches) {
  for (uint32_t i = 0; i < 32; ++i) {
    cache_->CompressAndInsert(PageKey{0, i}, MakePage(ContentClass::kText, 300 + i), true);
  }
  const uint64_t cleaned_before = cache_->stats().entries_cleaned;
  // Tight memory (free frames below target) with a dirty head triggers cleaning.
  cache_->RunCleaner(/*pool_free_frames=*/0);
  EXPECT_GT(cache_->stats().entries_cleaned, cleaned_before);
  // Cleaned entries stay in the ring but now have backing copies.
  for (const PageKey key : events_.cleaned) {
    EXPECT_TRUE(cache_->Contains(key));
    EXPECT_TRUE(swap_.Contains(key));
  }
  cache_->CheckInvariants();
}

TEST_F(CcacheTest, CleanerIdlesWhenMemoryIsPlentiful) {
  for (uint32_t i = 0; i < 8; ++i) {
    cache_->CompressAndInsert(PageKey{0, i}, MakePage(ContentClass::kText, 400 + i), true);
  }
  cache_->RunCleaner(/*pool_free_frames=*/1000);
  EXPECT_EQ(cache_->stats().entries_cleaned, 0u);
}

TEST_F(CcacheTest, FlushDirtyWritesEverything) {
  for (uint32_t i = 0; i < 20; ++i) {
    cache_->CompressAndInsert(PageKey{0, i}, MakePage(ContentClass::kText, 500 + i), true);
  }
  cache_->FlushDirty();
  for (uint32_t i = 0; i < 20; ++i) {
    if (cache_->Contains(PageKey{0, i})) {
      EXPECT_TRUE(swap_.Contains(PageKey{0, i})) << i;
    }
  }
  // Flushing again is a no-op.
  const uint64_t cleaned = cache_->stats().entries_cleaned;
  cache_->FlushDirty();
  EXPECT_EQ(cache_->stats().entries_cleaned, cleaned);
}

TEST_F(CcacheTest, InsertCompressedCleanFromSwapImage) {
  // Simulates the fault path: a compressed image read from backing store is
  // inserted clean.
  const auto page = MakePage(ContentClass::kRepetitiveText, 7);
  std::vector<uint8_t> compressed(codec_.MaxCompressedSize(kPageSize));
  const size_t c = codec_.Compress(page, compressed);
  compressed.resize(c);

  const PageKey key{1, 2};
  cache_->InsertCompressedClean(key, compressed, kPageSize, Crc32(compressed));
  EXPECT_TRUE(cache_->Contains(key));
  EXPECT_EQ(cache_->stats().inserted_from_swap, 1u);

  std::vector<uint8_t> out(kPageSize);
  EXPECT_EQ(cache_->FaultIn(key, out), CcacheFaultResult::kHit);
  EXPECT_EQ(out, page);

  // Clean entries are dropped on reclamation without any swap write.
  const uint64_t swap_writes = swap_.stats().pages_written;
  EXPECT_TRUE(cache_->ReleaseOldest());
  EXPECT_EQ(swap_.stats().pages_written, swap_writes);
  EXPECT_FALSE(cache_->Contains(key));
}

TEST_F(CcacheTest, DecompressImageChargesTime) {
  const auto page = MakePage(ContentClass::kZero, 8);
  std::vector<uint8_t> compressed(codec_.MaxCompressedSize(kPageSize));
  const size_t c = codec_.Compress(page, compressed);
  compressed.resize(c);
  const SimTime before = clock_.Now();
  std::vector<uint8_t> out(kPageSize);
  EXPECT_TRUE(cache_->DecompressImage(compressed, out));
  EXPECT_EQ(out, page);
  EXPECT_GE((clock_.Now() - before).nanos(), costs_.DecompressCost(kPageSize).nanos());
}


class AdaptiveCcacheTest : public CcacheTest {
 protected:
  AdaptiveCcacheTest() : CcacheTest() {
    CcacheOptions options;
    options.max_slots = 64;
    options.adaptive.enabled = true;
    options.adaptive.window = 16;
    options.adaptive.disable_at_reject_rate = 0.9;
    options.adaptive.probe_interval = 8;
    cache_ = std::make_unique<CompressionCache>(&clock_, &costs_, &frames_, &codec_, &swap_,
                                                &events_, options);
  }
};

TEST_F(AdaptiveCcacheTest, DisablesAfterSustainedRejection) {
  for (uint32_t i = 0; i < 16; ++i) {
    EXPECT_FALSE(cache_->CompressAndInsert(PageKey{0, i},
                                           MakePage(ContentClass::kRandom, 700 + i), true));
  }
  EXPECT_EQ(cache_->stats().adaptive_disables, 1u);

  // Now compression attempts are skipped: only the (cheap) zero-page scan is
  // charged — the codec, which is what "effort" means here, never runs.
  const SimTime before = clock_.Now();
  EXPECT_FALSE(cache_->CompressAndInsert(PageKey{0, 100},
                                         MakePage(ContentClass::kRandom, 800), true));
  EXPECT_EQ((clock_.Now() - before).nanos(), costs_.ZeroScanCost(kPageSize).nanos());
  EXPECT_GT(cache_->stats().adaptive_skips, 0u);
}

TEST_F(AdaptiveCcacheTest, ProbeReenablesWhenWorkloadChanges) {
  for (uint32_t i = 0; i < 16; ++i) {
    cache_->CompressAndInsert(PageKey{0, i}, MakePage(ContentClass::kRandom, 700 + i), true);
  }
  ASSERT_EQ(cache_->stats().adaptive_disables, 1u);

  // Feed compressible pages; within a probe interval the cache must resume.
  uint32_t inserted = 0;
  for (uint32_t i = 0; i < 32; ++i) {
    if (cache_->CompressAndInsert(PageKey{1, i},
                                  MakePage(ContentClass::kRepetitiveText, 900 + i), true)) {
      ++inserted;
    }
  }
  EXPECT_EQ(cache_->stats().adaptive_reenables, 1u);
  EXPECT_GT(inserted, 16u);  // once re-enabled, pages are kept again
}

TEST_F(AdaptiveCcacheTest, StaysEnabledOnCompressibleWork) {
  for (uint32_t i = 0; i < 64; ++i) {
    cache_->CompressAndInsert(PageKey{0, i}, MakePage(ContentClass::kRepetitiveText, 50 + i),
                              true);
  }
  EXPECT_EQ(cache_->stats().adaptive_disables, 0u);
  EXPECT_EQ(cache_->stats().adaptive_skips, 0u);
}

// The cleaner answers from a first-dirty cursor. Head reclamation can drop the
// very entry the cursor points at; a dirty entry appended afterwards must
// still end the clean prefix, and the cleaner must find it.
TEST_F(CcacheTest, DirtyAppendAfterHeadReclaimDropsTheCursorEntryEndsTheCleanPrefix) {
  const PageKey head{0, 0};
  ASSERT_TRUE(cache_->CompressAndInsert(head, MakePage(ContentClass::kText, 700), true));
  for (uint32_t i = 1; i <= 6; ++i) {
    ScratchArena::Scope scope(cache_->arena());
    const auto outcome = cache_->CompressPage(MakePage(ContentClass::kText, 700 + i));
    ASSERT_TRUE(outcome.keep && !outcome.zero);
    cache_->InsertCompressedClean(PageKey{0, i}, outcome.bytes, kPageSize, Crc32(outcome.bytes));
  }
  cache_->CheckInvariants();  // the cursor now rests on the dirty head entry

  ASSERT_TRUE(cache_->ReleaseOldest());  // writes the head entry, then drops it
  ASSERT_FALSE(cache_->Contains(head));
  ASSERT_EQ(events_.cleaned.size(), 1u);
  ASSERT_EQ(events_.cleaned[0].page, head.page);
  cache_->CheckInvariants();  // nothing dirty is left

  const PageKey late{0, 99};
  ASSERT_TRUE(cache_->CompressAndInsert(late, MakePage(ContentClass::kText, 799), true));
  cache_->CheckInvariants();
  cache_->RunCleaner(/*pool_free_frames=*/0);  // a short clean prefix: write it
  EXPECT_EQ(events_.cleaned.back().page, late.page);
  EXPECT_FALSE(cache_->EntryInfoFor(late)->dirty);
  cache_->CheckInvariants();
}

// Property test: random operation sequences keep invariants and never lose data.
TEST_F(CcacheTest, RandomOperationsKeepInvariants) {
  Rng rng(777);
  std::unordered_map<uint32_t, std::vector<uint8_t>> latest;  // page -> current bytes
  std::set<uint32_t> in_cache_or_swap;

  for (int op = 0; op < 800; ++op) {
    const uint32_t page_index = static_cast<uint32_t>(rng.Below(96));
    const PageKey key{0, page_index};
    const double action = rng.NextDouble();
    if (action < 0.5) {
      // (Re)insert with fresh contents: invalidate any stale copies first, like
      // the pager does for dirtied pages.
      cache_->Invalidate(key);
      swap_.Invalidate(key);
      const auto page = MakePage(rng.Chance(0.2) ? ContentClass::kShuffledWords
                                                 : ContentClass::kRepetitiveText,
                                 10'000 + static_cast<uint64_t>(op));
      if (cache_->CompressAndInsert(key, page, true)) {
        latest[page_index] = page;
        in_cache_or_swap.insert(page_index);
      } else {
        latest.erase(page_index);
        in_cache_or_swap.erase(page_index);
      }
    } else if (action < 0.7) {
      std::vector<uint8_t> out(kPageSize);
      if (cache_->FaultIn(key, out) == CcacheFaultResult::kHit) {
        ASSERT_TRUE(latest.contains(page_index));
        EXPECT_EQ(out, latest.at(page_index));
      }
    } else if (action < 0.85) {
      cache_->RunCleaner(static_cast<size_t>(rng.Below(32)));
    } else {
      cache_->ReleaseOldest();
    }
    // Every operation: the cleaner-verdict audit holds the first-dirty cursor
    // to a full scan after each clean, invalidation and head reclaim.
    cache_->CheckInvariants();
  }

  // Every tracked page is recoverable from cache or swap.
  std::vector<uint8_t> out(kPageSize);
  for (const uint32_t page_index : in_cache_or_swap) {
    const PageKey key{0, page_index};
    if (cache_->FaultIn(key, out) == CcacheFaultResult::kHit) {
      EXPECT_EQ(out, latest.at(page_index));
    } else {
      ASSERT_TRUE(swap_.Contains(key)) << page_index;
      auto r = swap_.ReadPage(key, false);
      std::vector<uint8_t> decompressed(kPageSize);
      codec_.Decompress(r.bytes, decompressed);
      EXPECT_EQ(decompressed, latest.at(page_index)) << page_index;
    }
  }
}

// --- write-back failures -----------------------------------------------------

// Every entry of `keys` that is still cached has the given dirty bit.
void ExpectCachedDirty(const CompressionCache& cache, const std::vector<PageKey>& keys,
                       bool dirty) {
  for (const PageKey key : keys) {
    if (const auto info = cache.EntryInfoFor(key); info.has_value()) {
      EXPECT_EQ(info->dirty, dirty) << key.page;
    }
  }
}

class WriteFailureCcacheTest : public CcacheTest {
 protected:
  WriteFailureCcacheTest() {
    for (uint32_t i = 0; i < 24; ++i) {
      const PageKey key{0, i};
      EXPECT_TRUE(cache_->CompressAndInsert(key, MakePage(ContentClass::kText, 600 + i),
                                            /*dirty=*/true));
      keys_.push_back(key);
    }
    swap_.failing = true;
  }

  // No key has a backend copy: the image the double persisted before failing
  // was discarded with the rest of its batch.
  void ExpectNoBackendCopies() {
    EXPECT_GT(swap_.stats().pages_written, 0u) << "the double never persisted an image";
    for (const PageKey key : keys_) {
      EXPECT_FALSE(swap_.Contains(key)) << key.page;
    }
  }

  std::vector<PageKey> keys_;
};

TEST_F(WriteFailureCcacheTest, CleanerAndFlushLeaveEntriesDirty) {
  cache_->RunCleaner(/*pool_free_frames=*/0);
  EXPECT_EQ(cache_->stats().write_batch_failures, 1u);
  cache_->FlushDirty();  // stops at the first failed batch instead of spinning
  EXPECT_EQ(cache_->stats().write_batch_failures, 2u);

  EXPECT_EQ(cache_->live_entries(), keys_.size());
  ExpectCachedDirty(*cache_, keys_, /*dirty=*/true);
  EXPECT_EQ(cache_->stats().entries_cleaned, 0u);
  EXPECT_TRUE(events_.cleaned.empty());
  ExpectNoBackendCopies();
  cache_->CheckInvariants();
}

TEST_F(WriteFailureCcacheTest, ReleaseOldestReportsDirtyHeadEntriesLost) {
  ASSERT_TRUE(cache_->ReleaseOldest());
  EXPECT_EQ(cache_->stats().write_batch_failures, 1u);
  ASSERT_FALSE(events_.lost.empty());
  EXPECT_EQ(cache_->stats().entries_lost, events_.lost.size());
  EXPECT_TRUE(events_.dropped.empty());
  for (const PageKey key : events_.lost) {
    EXPECT_FALSE(cache_->Contains(key)) << key.page;
  }
  ExpectNoBackendCopies();
  cache_->CheckInvariants();

  // Once writes succeed again, FlushDirty cleans everything still cached.
  swap_.failing = false;
  cache_->FlushDirty();
  EXPECT_EQ(cache_->live_entries(), keys_.size() - events_.lost.size());
  ExpectCachedDirty(*cache_, keys_, /*dirty=*/false);
  EXPECT_EQ(events_.cleaned.size(), cache_->live_entries());
  for (const PageKey key : events_.cleaned) {
    EXPECT_TRUE(swap_.Contains(key)) << key.page;
  }
  cache_->CheckInvariants();
}

// --- CheckInvariants ---------------------------------------------------------

using CcacheDeathTest = CcacheTest;

TEST_F(CcacheDeathTest, CheckInvariantsAbortsOnSkewedLiveBytes) {
  ASSERT_TRUE(cache_->CompressAndInsert(PageKey{0, 0},
                                        MakePage(ContentClass::kText, 1), /*dirty=*/true));
  cache_->CheckInvariants();  // healthy
  cache_->CorruptLiveBytesForTest(/*slot=*/0, +1);  // the ring starts in slot 0
  EXPECT_DEATH(cache_->CheckInvariants(), "occupancy");
  cache_->CorruptLiveBytesForTest(/*slot=*/0, -1);
  cache_->CheckInvariants();
}

TEST_F(CcacheDeathTest, CheckInvariantsAbortsOnAliasedIndexKey) {
  ASSERT_TRUE(cache_->CompressAndInsert(PageKey{0, 0},
                                        MakePage(ContentClass::kText, 2), /*dirty=*/true));
  cache_->CheckInvariants();  // healthy
  cache_->AliasIndexKeyForTest(PageKey{0, 0}, PageKey{0, 99});
  EXPECT_DEATH(cache_->CheckInvariants(), "index-coherent");
  cache_->RemoveIndexKeyForTest(PageKey{0, 99});
  cache_->CheckInvariants();
}

}  // namespace
}  // namespace compcache
