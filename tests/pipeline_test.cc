// Async pipelined I/O: stride detection, write-behind completion order
// and backpressure/barrier semantics, and — the load-bearing gate —
// the differential check that a pipeline at depth 1 with prefetch off is
// byte- and counter-identical to the synchronous machine.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "compress/pagegen.h"
#include "core/machine.h"
#include "disk/disk_device.h"
#include "disk/disk_model.h"
#include "fs/file_system.h"
#include "sim/clock.h"
#include "swap/clustered_swap.h"
#include "swap/write_behind_backend.h"
#include "tests/test_util.h"
#include "util/checksum.h"
#include "util/rng.h"
#include "vm/heap.h"

namespace compcache {
namespace {

// --- stride detection --------------------------------------------------------

// A pipelined machine with prefetch off: OnFault only feeds the engine's
// per-segment stride streams.
MachineConfig ObservingPipeline() {
  MachineConfig config = MachineConfig::WithCompressionCache(2 * kMiB);
  config.pipeline.enabled = true;
  return config;
}

TEST(StrideDetectionTest, TwoEqualStridesConfirmAStream) {
  Machine machine(ObservingPipeline());
  PipelineEngine& p = *machine.pipeline();
  p.OnFault(PageKey{1, 10}, /*from_swap=*/false);
  EXPECT_EQ(p.ConfirmedStride(1), 0);
  p.OnFault(PageKey{1, 12}, /*from_swap=*/false);
  EXPECT_EQ(p.ConfirmedStride(1), 0);  // one stride seen, not yet confirmed
  p.OnFault(PageKey{1, 14}, /*from_swap=*/false);
  EXPECT_EQ(p.ConfirmedStride(1), 2);
  p.OnFault(PageKey{1, 17}, /*from_swap=*/false);  // a different delta drops the confirmation
  EXPECT_EQ(p.ConfirmedStride(1), 0);
  EXPECT_EQ(p.ConfirmedStride(2), 0);  // segments keep separate streams
}

TEST(StrideDetectionTest, BackwardStrideConfirmsANegativeDelta) {
  Machine machine(ObservingPipeline());
  PipelineEngine& p = *machine.pipeline();
  p.OnFault(PageKey{2, 50}, /*from_swap=*/false);
  p.OnFault(PageKey{2, 47}, /*from_swap=*/false);
  p.OnFault(PageKey{2, 44}, /*from_swap=*/false);
  EXPECT_EQ(p.ConfirmedStride(2), -3);
}

TEST(StrideDetectionTest, NeverPredictsThePageJustFaulted) {
  Machine machine(ObservingPipeline());
  PipelineEngine& p = *machine.pipeline();
  // A zero delta never confirms, so the page just faulted is never a guess.
  for (int i = 0; i < 6; ++i) {
    p.OnFault(PageKey{1, 4}, /*from_swap=*/false);
  }
  EXPECT_EQ(p.ConfirmedStride(1), 0);
}

// --- write-behind backend (unit level) ---------------------------------------

struct WriteBehindStack {
  explicit WriteBehindStack(uint32_t depth)
      : device(&clock, std::make_unique<SeekDiskModel>(), SimDuration::Micros(500)),
        fs(&device),
        backend(std::make_unique<ClusteredSwapLayout>(&fs, ClusteredSwapLayout::Options{}),
                &clock, depth) {}

  SwapPageImage MakeImage(uint32_t page, size_t bytes) {
    SwapPageImage img;
    img.key = PageKey{1, page};
    img.bytes.resize(bytes);
    for (size_t i = 0; i < bytes; ++i) {
      img.bytes[i] = static_cast<uint8_t>((page + i) & 0xff);
    }
    img.is_compressed = true;
    img.original_size = kPageSize;
    img.checksum = Crc32(img.bytes);
    return img;
  }

  Clock clock;
  DiskDevice device;
  FileSystem fs;
  WriteBehindBackend backend;
};

TEST(WriteBehindTest, SubmitReturnsWithoutWaitingBelowDepth) {
  WriteBehindStack s(/*depth=*/2);
  const SimTime before = s.clock.Now();
  std::vector<SwapPageImage> batch{s.MakeImage(0, 1024), s.MakeImage(1, 900)};
  ASSERT_EQ(s.backend.WriteBatch(batch), IoStatus::kOk);
  // One batch in flight, below the depth bound: the app clock did not wait for
  // the disk, but the device time was accrued on the deferred timeline.
  EXPECT_EQ(s.clock.Now(), before);
  EXPECT_EQ(s.backend.inflight_batches(), 1u);
  EXPECT_EQ(s.backend.stats().batches_submitted, 1u);
  EXPECT_EQ(s.backend.stats().backpressure_stalls, 0u);
  EXPECT_GT(s.backend.stats().deferred_io_time, SimDuration{});
  EXPECT_TRUE(s.backend.InFlight(PageKey{1, 0}));
  EXPECT_TRUE(s.backend.Contains(PageKey{1, 0}));  // metadata commits at submit
}

TEST(WriteBehindTest, BackpressureStallsWhenQueueIsFull) {
  WriteBehindStack s(/*depth=*/2);
  std::vector<SwapPageImage> b1{s.MakeImage(0, 1024)};
  std::vector<SwapPageImage> b2{s.MakeImage(1, 1024)};
  ASSERT_EQ(s.backend.WriteBatch(b1), IoStatus::kOk);
  const SimTime before = s.clock.Now();
  ASSERT_EQ(s.backend.WriteBatch(b2), IoStatus::kOk);
  // The second submit found the queue full and waited out the oldest batch.
  EXPECT_GT(s.clock.Now(), before);
  EXPECT_EQ(s.backend.stats().backpressure_stalls, 1u);
  EXPECT_EQ(s.backend.stats().batches_completed, 1u);
  EXPECT_EQ(s.backend.inflight_batches(), 1u);
}

TEST(WriteBehindTest, DepthOneIsSynchronous) {
  WriteBehindStack s(/*depth=*/1);
  std::vector<SwapPageImage> batch{s.MakeImage(0, 1024)};
  ASSERT_EQ(s.backend.WriteBatch(batch), IoStatus::kOk);
  // Depth 1 waits out its own disk time before returning: nothing in flight.
  EXPECT_EQ(s.backend.inflight_batches(), 0u);
  EXPECT_EQ(s.backend.stats().batches_completed, 1u);
  EXPECT_FALSE(s.backend.InFlight(PageKey{1, 0}));
}

TEST(WriteBehindTest, ReadOfInFlightPageTakesTheBarrier) {
  WriteBehindStack s(/*depth=*/4);
  std::vector<SwapPageImage> batch{s.MakeImage(7, 1500)};
  ASSERT_EQ(s.backend.WriteBatch(batch), IoStatus::kOk);
  ASSERT_TRUE(s.backend.InFlight(PageKey{1, 7}));
  const SimTime before = s.clock.Now();
  const auto result = s.backend.ReadPage(PageKey{1, 7}, /*collect_coresidents=*/false);
  ASSERT_EQ(result.status, IoStatus::kOk);
  EXPECT_EQ(result.bytes, batch[0].bytes);
  EXPECT_GT(s.clock.Now(), before);  // waited for the write to land first
  EXPECT_EQ(s.backend.stats().barrier_stalls, 1u);
  EXPECT_FALSE(s.backend.InFlight(PageKey{1, 7}));
}

TEST(WriteBehindTest, ReadOfSettledPageTakesNoBarrier) {
  WriteBehindStack s(/*depth=*/4);
  std::vector<SwapPageImage> b1{s.MakeImage(0, 1024)};
  ASSERT_EQ(s.backend.WriteBatch(b1), IoStatus::kOk);
  s.backend.Drain(/*advance_clock=*/true);
  EXPECT_EQ(s.backend.inflight_batches(), 0u);
  const auto result = s.backend.ReadPage(PageKey{1, 0}, false);
  ASSERT_EQ(result.status, IoStatus::kOk);
  EXPECT_EQ(s.backend.stats().barrier_stalls, 0u);
}

TEST(WriteBehindTest, DrainRetiresEverything) {
  WriteBehindStack s(/*depth=*/8);
  for (uint32_t i = 0; i < 5; ++i) {
    std::vector<SwapPageImage> batch{s.MakeImage(i, 800 + i * 100)};
    ASSERT_EQ(s.backend.WriteBatch(batch), IoStatus::kOk);
  }
  EXPECT_EQ(s.backend.inflight_batches(), 5u);
  s.backend.Drain(/*advance_clock=*/true);
  EXPECT_EQ(s.backend.inflight_batches(), 0u);
  EXPECT_EQ(s.backend.stats().batches_completed, 5u);
  // The clock landed on the last completion; all deferred work is paid for.
  EXPECT_GE(s.clock.Now().nanos(), s.backend.stats().deferred_io_time.nanos());
}

// A layout whose batches finish after scripted device times, so a batch
// submitted later can finish before an earlier one (as over a tier stack).
// It stores nothing and reports each batch's time to the clock's background
// window; reads return an empty image.
class ScriptedSwap : public CompressedSwapBackend {
 public:
  ScriptedSwap(Clock* clock, std::vector<SimDuration> times)
      : clock_(clock), times_(std::move(times)) {}

  IoStatus WriteBatch(std::span<const SwapPageImage>) override {
    const SimDuration time = times_.at(next_++);
    clock_->ReportBackgroundIo(clock_->Now() + time, time);
    return IoStatus::kOk;
  }
  bool Contains(PageKey) const override { return false; }
  ReadResult ReadPage(PageKey, bool) override { return ReadResult{}; }
  void Invalidate(PageKey) override {}
  void ForEachPage(const std::function<void(PageKey)>&) const override {}
  void RegisterAuditChecks(InvariantAuditor*) override {}
  void BindMetrics(MetricRegistry*) override {}

 private:
  Clock* clock_;
  std::vector<SimDuration> times_;
  size_t next_ = 0;
};

// A batch submitted later that finishes earlier retires first, and a read of
// its page waits for that batch alone, not for the earlier one still in flight.
TEST(WriteBehindTest, BatchesRetireInCompletionOrder) {
  Clock clock;
  const std::vector<SimDuration> times{SimDuration::Micros(1000), SimDuration::Micros(300)};
  WriteBehindBackend backend(std::make_unique<ScriptedSwap>(&clock, times), &clock, /*depth=*/4);
  const PageKey early{1, 1};
  const PageKey late{1, 2};
  std::vector<SwapPageImage> b1(1);
  b1[0].key = early;
  std::vector<SwapPageImage> b2(1);
  b2[0].key = late;
  ASSERT_EQ(backend.WriteBatch(b1), IoStatus::kOk);  // finishes at 1000 us
  ASSERT_EQ(backend.WriteBatch(b2), IoStatus::kOk);  // finishes at 300 us
  ASSERT_EQ(backend.inflight_batches(), 2u);

  backend.ReadPage(late, /*collect_coresidents=*/false);
  EXPECT_EQ(clock.Now(), SimTime::FromNanos(300'000));
  EXPECT_EQ(backend.stats().barrier_stalls, 1u);
  EXPECT_EQ(backend.stats().batches_completed, 1u);
  EXPECT_FALSE(backend.InFlight(late));
  EXPECT_TRUE(backend.InFlight(early));

  backend.Drain(/*advance_clock=*/true);
  EXPECT_EQ(clock.Now(), SimTime::FromNanos(1'000'000));
  EXPECT_EQ(backend.stats().batches_completed, 2u);
}

// --- differential gate: depth 1 + prefetch off == synchronous machine --------

void RunThrash(Heap& heap, int passes) {
  Rng rng(42);
  std::vector<uint8_t> page(kPageSize);
  const uint64_t pages = heap.size_bytes() / kPageSize;
  for (int pass = 0; pass < passes; ++pass) {
    for (uint64_t p = 0; p < pages; ++p) {
      FillPage(page,
               p % 5 == 0 ? ContentClass::kRandom
                          : p % 2 == 0 ? ContentClass::kSparseNumeric
                                       : ContentClass::kText,
               rng);
      heap.WriteBytes(p * kPageSize, page);
    }
  }
}

struct PipelineRun {
  uint64_t page_hash = 0;
  std::map<std::string, double> snapshot;
};

PipelineRun RunOne(CompressedSwapKind kind, const PipelineOptions& pipeline) {
  // LFS wires its 128-frame segment buffer out of the pool at construction;
  // pad its pool so usable frames match the other layouts (same trick as the
  // backend differential test).
  const uint64_t memory =
      kind == CompressedSwapKind::kLfs ? 2 * kMiB + 128 * kPageSize : 2 * kMiB;
  MachineConfig config = MachineConfig::WithCompressionCache(memory);
  config.compressed_swap = kind;
  config.pipeline = pipeline;
  Machine machine(config);
  Heap heap = machine.NewHeap(4 * kMiB);
  RunThrash(heap, 2);
  machine.DrainPipeline();

  PipelineRun run;
  for (const auto& [name, value] : machine.metrics().Snapshot()) {
    run.snapshot[name] = value;
  }
  run.page_hash = HashTouchedPages(machine);
  return run;
}

TEST(PipelineDifferentialTest, DepthOneNoPrefetchMatchesSyncMachine) {
  for (const CompressedSwapKind kind :
       {CompressedSwapKind::kClustered, CompressedSwapKind::kFixedOffset,
        CompressedSwapKind::kLfs}) {
    SCOPED_TRACE(static_cast<int>(kind));
    PipelineOptions off;  // pipeline disabled entirely
    PipelineOptions degenerate;
    degenerate.enabled = true;
    degenerate.write_behind_depth = 1;
    degenerate.prefetch = false;
    const PipelineRun sync = RunOne(kind, off);
    const PipelineRun piped = RunOne(kind, degenerate);

    EXPECT_EQ(piped.page_hash, sync.page_hash);
    ASSERT_GT(sync.snapshot.at("vm.faults_from_swap"), 0.0)
        << "workload never reached the backing store; the gate is vacuous";
    // Every metric the synchronous machine publishes must be bit-equal on the
    // degenerate pipelined one (which additionally publishes pipeline.* /
    // prefetch.* / arbiter.prefetch.* — all allowed to exist, none compared).
    // audit.checks is structural, not behavioral: the pipelined machine
    // registers the pipeline/prefetch invariants on top of the common set.
    for (const auto& [name, value] : sync.snapshot) {
      if (name == "audit.checks") {
        continue;
      }
      ASSERT_TRUE(piped.snapshot.contains(name)) << "pipelined machine lacks " << name;
      EXPECT_EQ(piped.snapshot.at(name), value)
          << name << " diverges at depth 1: sync=" << value
          << " pipelined=" << piped.snapshot.at(name);
    }
    // And the degenerate queue never actually overlapped anything.
    EXPECT_EQ(piped.snapshot.at("pipeline.inflight"), 0.0);
    EXPECT_EQ(piped.snapshot.at("prefetch.issued"), 0.0);
  }
}

TEST(PipelineDifferentialTest, DeepQueueOverlapsDiskWithAppCpu) {
  PipelineOptions off;
  PipelineOptions deep;
  deep.enabled = true;
  deep.write_behind_depth = 8;
  const PipelineRun sync = RunOne(CompressedSwapKind::kClustered, off);
  const PipelineRun piped = RunOne(CompressedSwapKind::kClustered, deep);

  // Same bytes, same faults — strictly less virtual time: the batch device
  // time that the synchronous machine serialized now overlaps compression.
  EXPECT_EQ(piped.page_hash, sync.page_hash);
  EXPECT_EQ(piped.snapshot.at("vm.faults"), sync.snapshot.at("vm.faults"));
  EXPECT_GT(piped.snapshot.at("pipeline.batches_submitted"), 0.0);
  EXPECT_LT(piped.snapshot.at("clock.now_ns"), sync.snapshot.at("clock.now_ns"));
}

// --- machine-level prefetch --------------------------------------------------

TEST(PipelineMachineTest, SequentialThrashHitsThePrefetchBuffer) {
  MachineConfig config = MachineConfig::WithCompressionCache(2 * kMiB);
  config.pipeline.enabled = true;
  config.pipeline.write_behind_depth = 4;
  config.pipeline.prefetch = true;
  config.pipeline.prefetch_buffer_pages = 8;
  config.pipeline.prefetch_per_fault = 2;
  config.pipeline.fault_batch_window = 2;
  Machine machine(config);
  machine.auditor().set_abort_on_violation(false);

  Heap heap = machine.NewHeap(6 * kMiB);
  std::vector<uint8_t> page(kPageSize);
  Rng rng(7);
  const uint64_t pages = heap.size_bytes() / kPageSize;
  for (int pass = 0; pass < 3; ++pass) {
    for (uint64_t p = 0; p < pages; ++p) {
      FillPage(page, ContentClass::kSparseNumeric, rng);
      heap.WriteBytes(p * kPageSize, page);
    }
  }
  machine.DrainPipeline();

  const auto& ps = machine.pipeline()->stats();
  const auto& vs = machine.pager().stats();
  EXPECT_GT(vs.faults_from_swap, 0u) << "workload never thrashed";
  EXPECT_GT(ps.issued, 0u);
  EXPECT_GT(ps.hits, 0u) << "a linear walk should be stride-predictable";
  EXPECT_GT(ps.batched, 0u) << "swap faults should coalesce adjacent reads";
  EXPECT_EQ(vs.faults_prefetch_hit, ps.hits);
  // Drained: every issue is resolved and the conservation equation closes.
  EXPECT_EQ(ps.issued, ps.hits + ps.misses);
  EXPECT_EQ(machine.pipeline()->buffered_frames(), 0u);
  EXPECT_EQ(machine.write_behind()->inflight_batches(), 0u);
  EXPECT_EQ(machine.RunAudit(), 0u);
}

// Only a confirmed stride is extrapolated. A walk that repeats the same
// order every pass, but whose fault deltas alternate (-1, +3, -1, +3, ...),
// never confirms one, so every guess comes from fault batching.
TEST(PipelineMachineTest, UnconfirmedStrideIssuesNoGuesses) {
  MachineConfig config = MachineConfig::WithCompressionCache(2 * kMiB);
  config.pipeline.enabled = true;
  config.pipeline.write_behind_depth = 4;
  config.pipeline.prefetch = true;
  config.pipeline.prefetch_per_fault = 2;
  config.pipeline.fault_batch_window = 2;
  Machine machine(config);

  Heap heap = machine.NewHeap(6 * kMiB);
  const uint64_t pages = heap.size_bytes() / kPageSize;
  std::vector<uint8_t> page(kPageSize);
  Rng rng(7);
  for (int pass = 0; pass < 3; ++pass) {
    for (uint64_t base = 0; base < pages; base += 2) {
      for (const uint64_t p : {base + 1, base}) {
        if (pass == 0) {
          FillPage(page, ContentClass::kSparseNumeric, rng);
          heap.WriteBytes(p * kPageSize, page);
        } else {
          heap.ReadBytes(p * kPageSize, page);
        }
      }
    }
  }
  machine.DrainPipeline();

  // Every access faults, so the fault stream is the walk itself.
  ASSERT_EQ(machine.pager().stats().faults, 3 * pages);
  const PrefetchStats& ps = machine.pipeline()->stats();
  EXPECT_EQ(ps.issued, ps.batched);
  EXPECT_EQ(machine.RunAudit(), 0u);
}

// A prefetch hit delivers the page's exact bytes: seeded content is written
// once, then read over sequential read-only passes that the stride predictor
// follows, and every page read is compared byte for byte with its
// regenerated content.
TEST(PipelineMachineTest, PrefetchHitsDeliverExactBytes) {
  MachineConfig config = MachineConfig::WithCompressionCache(2 * kMiB);
  config.pipeline.enabled = true;
  config.pipeline.write_behind_depth = 4;
  config.pipeline.prefetch = true;
  config.pipeline.prefetch_per_fault = 2;
  config.pipeline.fault_batch_window = 2;
  Machine machine(config);
  machine.auditor().set_abort_on_violation(false);

  Heap heap = machine.NewHeap(6 * kMiB);
  const uint64_t pages = heap.size_bytes() / kPageSize;
  // Zero pages take the image-free path; random ones are never kept compressed.
  const auto content = [](uint64_t p) {
    if (p % 7 == 0) {
      return ContentClass::kZero;
    }
    if (p % 5 == 0) {
      return ContentClass::kRandom;
    }
    return p % 2 == 0 ? ContentClass::kSparseNumeric : ContentClass::kText;
  };
  constexpr uint64_t kSeed = 17;
  std::vector<uint8_t> page(kPageSize);
  Rng rng(kSeed);
  for (uint64_t p = 0; p < pages; ++p) {
    FillPage(page, content(p), rng);
    heap.WriteBytes(p * kPageSize, page);
  }

  std::vector<uint8_t> out(kPageSize);
  uint64_t mismatches = 0;
  for (int pass = 0; pass < 3; ++pass) {
    Rng regen(kSeed);
    for (uint64_t p = 0; p < pages; ++p) {
      FillPage(page, content(p), regen);
      heap.ReadBytes(p * kPageSize, out);
      if (out != page) {
        ++mismatches;
      }
    }
  }
  machine.DrainPipeline();

  EXPECT_GT(machine.metrics().GaugeValue("prefetch.hits"), 0.0)
      << "sequential read passes should be stride-predictable";
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(machine.RunAudit(), 0u);
}

// The CRC check runs when a page is issued, not when it is hit: a ring entry
// whose payload fails its checksum never enters the buffer, and its demand
// fault rediscovers the damage on the section-12 ladder. The control case (no
// flipped bit) shows the same stride does buffer the page.
TEST(PipelineMachineTest, CorruptRingEntryIsNeverBuffered) {
  for (const bool corrupt : {false, true}) {
    SCOPED_TRACE(corrupt ? "corrupt" : "control");
    MachineConfig config = MachineConfig::WithCompressionCache(2 * kMiB);
    config.pipeline.enabled = true;
    config.pipeline.prefetch = true;
    config.pipeline.prefetch_per_fault = 1;
    Machine machine(config);
    machine.auditor().set_abort_on_violation(false);

    Heap heap = machine.NewHeap(4 * kMiB);
    const auto pages = static_cast<uint32_t>(heap.size_bytes() / kPageSize);
    std::vector<std::vector<uint8_t>> reference(pages, std::vector<uint8_t>(kPageSize));
    Rng rng(29);
    for (uint32_t p = 0; p < pages; ++p) {
      FillPage(reference[p], ContentClass::kRepetitiveText, rng);
      heap.WriteBytes(uint64_t{p} * kPageSize, reference[p]);
    }
    // Clean entries: the damaged page keeps a valid backing copy.
    CompressionCache& ccache = *machine.ccache();
    ccache.FlushDirty();

    // The youngest run of four cached pages, far from the ring's head: the
    // walk faults the first three and the confirmed stride names the fourth.
    const uint32_t segment = heap.segment()->id();
    const auto cached = [&](uint32_t p) { return ccache.Contains(PageKey{segment, p}); };
    const auto walkable = [&](uint32_t t) {
      return cached(t) && cached(t - 1) && cached(t - 2) && cached(t - 3);
    };
    uint32_t target = pages - 1;
    while (target >= 3 && !walkable(target)) {
      --target;
    }
    ASSERT_GE(target, 3u) << "no run of cached pages to walk";
    const PageKey key{segment, target};
    if (corrupt) {
      // Bit 1 of the container byte: the image can neither match its CRC nor
      // decode.
      ccache.CorruptPayloadBitForTest(key, 1);
    }

    PipelineEngine& engine = *machine.pipeline();
    std::vector<uint8_t> out(kPageSize);
    for (uint32_t p = target - 3; p < target; ++p) {
      heap.ReadBytes(uint64_t{p} * kPageSize, out);
      ASSERT_EQ(out, reference[p]) << "page " << p;
      if (corrupt) {
        EXPECT_FALSE(engine.buffered(key)) << "after faulting page " << p;
      }
    }
    ASSERT_EQ(engine.ConfirmedStride(segment), 1);
    ASSERT_TRUE(cached(target)) << "the target left the ring before its fault";
    EXPECT_EQ(engine.buffered(key), !corrupt);

    const VmStats before = machine.pager().stats();
    const uint64_t misses_before = engine.stats().misses;
    heap.ReadBytes(uint64_t{target} * kPageSize, out);
    EXPECT_EQ(out, reference[target]);
    const VmStats& vm = machine.pager().stats();
    EXPECT_EQ(vm.faults - before.faults, 1u);
    EXPECT_EQ(vm.faults_prefetch_hit - before.faults_prefetch_hit, corrupt ? 0u : 1u);
    EXPECT_EQ(engine.stats().misses - misses_before, 0u);
    EXPECT_FALSE(engine.buffered(key));
    EXPECT_EQ(vm.pages_recovered - before.pages_recovered, corrupt ? 1u : 0u);
    EXPECT_EQ(vm.pages_lost, 0u);
    EXPECT_EQ(ccache.stats().checksum_mismatches, corrupt ? 1u : 0u);

    machine.DrainPipeline();
    const PrefetchStats& ps = engine.stats();
    EXPECT_EQ(ps.issued, ps.hits + ps.misses);
    EXPECT_EQ(machine.RunAudit(), 0u);
  }
}

// A confirmed stride is extrapolated along the walk: once the faults at
// last - 2s, last - s and last confirm stride s, the engine tries last + s,
// last + 2s, ... in order, at most twice prefetch_per_fault candidates, and
// buffers the first prefetch_per_fault that sit compressed in the ccache. A
// resident candidate (here last + s, read before the walk) is skipped without
// being counted, and a candidate below page 0 ends the walk. Covers a stride
// other than 1, a descending walk, and the low end of the page range.
TEST(PipelineMachineTest, ConfirmedStrideIsExtrapolatedAlongTheWalk) {
  struct Walk {
    int64_t stride;
    int64_t last;                   // the fault that confirms the stride
    std::vector<int64_t> buffered;  // the pages the extrapolation issues
  };
  for (const Walk& walk : {Walk{2, 404, {408, 410}}, Walk{-3, 600, {594, 591}},
                           Walk{-3, 6, {0}}}) {
    SCOPED_TRACE("stride " + std::to_string(walk.stride) + " last " + std::to_string(walk.last));
    MachineConfig config = MachineConfig::WithCompressionCache(2 * kMiB);
    config.pipeline.enabled = true;
    config.pipeline.prefetch = true;
    config.pipeline.prefetch_per_fault = 2;
    Machine machine(config);
    machine.auditor().set_abort_on_violation(false);

    // Written in page order, so the oldest pages sit compressed in the ccache
    // and the newest stay resident.
    Heap heap = machine.NewHeap(4 * kMiB);
    const uint64_t pages = heap.size_bytes() / kPageSize;
    std::vector<uint8_t> page(kPageSize);
    Rng rng(31);
    for (uint64_t p = 0; p < pages; ++p) {
      FillPage(page, ContentClass::kRepetitiveText, rng);
      heap.WriteBytes(p * kPageSize, page);
    }
    const uint32_t segment = heap.segment()->id();
    const auto key = [&](int64_t p) { return PageKey{segment, static_cast<uint32_t>(p)}; };
    const auto read = [&](int64_t p) {
      heap.ReadBytes(static_cast<uint64_t>(p) * kPageSize, page);
    };

    PipelineEngine& engine = *machine.pipeline();
    read(walk.last + walk.stride);
    for (int64_t k = 2; k >= 0; --k) {
      read(walk.last - k * walk.stride);
    }
    ASSERT_EQ(engine.ConfirmedStride(segment), walk.stride);
    EXPECT_FALSE(engine.buffered(key(walk.last + walk.stride)));
    for (const int64_t p : walk.buffered) {
      EXPECT_TRUE(engine.buffered(key(p))) << "page " << p;
    }
    EXPECT_EQ(engine.buffered_frames(), walk.buffered.size());
    EXPECT_EQ(engine.stats().issued, walk.buffered.size());
    EXPECT_EQ(machine.RunAudit(), 0u);
  }
}

// A full prefetch buffer gives up its oldest guess. With room for two and
// three guesses per fault, the fault that confirms stride 1 at `last` tries
// last + 1, last + 2 and last + 3, all compressed: the third issue evicts the
// first, counted as a miss, and leaves the second and third buffered.
TEST(PipelineMachineTest, FullBufferEvictsItsOldestGuess) {
  MachineConfig config = MachineConfig::WithCompressionCache(2 * kMiB);
  config.pipeline.enabled = true;
  config.pipeline.prefetch = true;
  config.pipeline.prefetch_buffer_pages = 2;
  config.pipeline.prefetch_per_fault = 3;
  Machine machine(config);
  machine.auditor().set_abort_on_violation(false);

  // Written in page order, so the oldest pages sit compressed in the ccache.
  Heap heap = machine.NewHeap(4 * kMiB);
  const uint64_t pages = heap.size_bytes() / kPageSize;
  std::vector<uint8_t> page(kPageSize);
  Rng rng(31);
  for (uint64_t p = 0; p < pages; ++p) {
    FillPage(page, ContentClass::kRepetitiveText, rng);
    heap.WriteBytes(p * kPageSize, page);
  }
  const uint32_t segment = heap.segment()->id();
  const auto key = [&](int64_t p) { return PageKey{segment, static_cast<uint32_t>(p)}; };
  const int64_t last = 404;
  for (int64_t p = last - 2; p <= last + 3; ++p) {
    ASSERT_TRUE(machine.ccache()->Contains(key(p))) << "page " << p;
  }

  PipelineEngine& engine = *machine.pipeline();
  for (int64_t p = last - 2; p <= last; ++p) {
    heap.ReadBytes(static_cast<uint64_t>(p) * kPageSize, page);
  }
  ASSERT_EQ(engine.ConfirmedStride(segment), 1);
  EXPECT_EQ(engine.stats().issued, 3u);
  EXPECT_EQ(engine.stats().misses, 1u);
  EXPECT_FALSE(engine.buffered(key(last + 1)));
  EXPECT_TRUE(engine.buffered(key(last + 2)));
  EXPECT_TRUE(engine.buffered(key(last + 3)));
  EXPECT_EQ(engine.buffered_frames(), 2u);
  EXPECT_EQ(machine.RunAudit(), 0u);
}

TEST(PipelineMachineTest, PipelinedRunsAreDeterministic) {
  const auto run = [] {
    MachineConfig config = MachineConfig::WithCompressionCache(2 * kMiB);
    config.pipeline.enabled = true;
    config.pipeline.write_behind_depth = 4;
    config.pipeline.prefetch = true;
    config.pipeline.prefetch_per_fault = 2;
    config.pipeline.fault_batch_window = 1;
    Machine machine(config);
    Heap heap = machine.NewHeap(4 * kMiB);
    RunThrash(heap, 2);
    machine.DrainPipeline();
    PipelineRun r;
    for (const auto& [name, value] : machine.metrics().Snapshot()) {
      r.snapshot[name] = value;
    }
    r.page_hash = HashTouchedPages(machine);
    return r;
  };
  const PipelineRun a = run();
  const PipelineRun b = run();
  EXPECT_EQ(a.page_hash, b.page_hash);
  ASSERT_EQ(a.snapshot.size(), b.snapshot.size());
  for (const auto& [name, value] : a.snapshot) {
    EXPECT_EQ(b.snapshot.at(name), value) << name << " is nondeterministic";
  }
}

}  // namespace
}  // namespace compcache
