// Fault injection and graceful degradation: the injector replays
// deterministically, the disk's retry policy absorbs transient errors, and the
// paging stack recovers from (or contains) corruption — a lost page aborts the
// owning segment, never the machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "apps/gold.h"
#include "apps/sort.h"
#include "apps/thrasher.h"
#include "compress/pagegen.h"
#include "core/machine.h"
#include "disk/disk_device.h"
#include "disk/disk_model.h"
#include "tests/test_util.h"
#include "util/checksum.h"
#include "util/fault.h"
#include "util/rng.h"
#include "vm/heap.h"

namespace compcache {
namespace {

// ---------- FaultInjector ----------

TEST(FaultInjectorTest, SameSeedReplaysIdentically) {
  FaultInjector a(7);
  FaultInjector b(7);
  FaultSchedule schedule;
  schedule.probability = 0.3;
  a.SetSchedule(FaultSite::kDiskRead, schedule);
  b.SetSchedule(FaultSite::kDiskRead, schedule);

  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.ShouldFault(FaultSite::kDiskRead), b.ShouldFault(FaultSite::kDiskRead))
        << "op " << i;
  }
  EXPECT_EQ(a.injected(FaultSite::kDiskRead), b.injected(FaultSite::kDiskRead));
  EXPECT_GT(a.injected(FaultSite::kDiskRead), 100u);  // ~300 expected
  EXPECT_LT(a.injected(FaultSite::kDiskRead), 500u);
}

TEST(FaultInjectorTest, NthOpSchedulesFireExactlyOnNamedOps) {
  FaultInjector injector(1);
  FaultSchedule schedule;
  schedule.fail_ops = {10, 3, 5};  // unsorted on purpose; SetSchedule sorts
  injector.SetSchedule(FaultSite::kDiskWrite, schedule);

  std::vector<uint64_t> fired;
  for (uint64_t op = 1; op <= 12; ++op) {
    if (injector.ShouldFault(FaultSite::kDiskWrite)) {
      fired.push_back(op);
    }
  }
  EXPECT_EQ(fired, (std::vector<uint64_t>{3, 5, 10}));
  EXPECT_EQ(injector.ops(FaultSite::kDiskWrite), 12u);
  EXPECT_EQ(injector.injected(FaultSite::kDiskWrite), 3u);
  EXPECT_EQ(injector.total_injected(), 3u);
}

TEST(FaultInjectorTest, SitesHaveIndependentStreams) {
  // Enabling a schedule at one site must not perturb another site's sequence.
  FaultSchedule write_schedule;
  write_schedule.probability = 0.5;

  FaultInjector lone(42);
  lone.SetSchedule(FaultSite::kDiskWrite, write_schedule);

  FaultInjector busy(42);
  busy.SetSchedule(FaultSite::kDiskWrite, write_schedule);
  FaultSchedule read_schedule;
  read_schedule.probability = 0.5;
  busy.SetSchedule(FaultSite::kDiskRead, read_schedule);

  for (int i = 0; i < 500; ++i) {
    busy.ShouldFault(FaultSite::kDiskRead);  // interleaved draws on another site
    ASSERT_EQ(lone.ShouldFault(FaultSite::kDiskWrite),
              busy.ShouldFault(FaultSite::kDiskWrite))
        << "op " << i;
  }
}

TEST(FaultInjectorTest, EmptyScheduleNeverFaults) {
  FaultInjector injector(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.ShouldFault(FaultSite::kSectorCorruption));
  }
  EXPECT_EQ(injector.total_injected(), 0u);
  EXPECT_EQ(injector.ops(FaultSite::kSectorCorruption), 100u);
}

// ---------- DiskDevice retry policy ----------

class DiskRetryTest : public ::testing::Test {
 protected:
  DiskRetryTest() : disk_(&clock_, std::make_unique<SeekDiskModel>(), SimDuration::Micros(500)) {}

  Clock clock_;
  DiskDevice disk_;
  FaultInjector injector_{17};
};

TEST_F(DiskRetryTest, TransientReadErrorIsRetriedAndSucceeds) {
  std::vector<uint8_t> data(kPageSize);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31);
  }
  ASSERT_EQ(disk_.Write(0, data), IoStatus::kOk);

  FaultSchedule schedule;
  schedule.fail_ops = {1};
  injector_.SetSchedule(FaultSite::kDiskRead, schedule);
  disk_.SetFaultInjector(&injector_);

  std::vector<uint8_t> out(kPageSize, 0);
  EXPECT_EQ(disk_.Read(0, out), IoStatus::kOk);
  EXPECT_EQ(0, std::memcmp(out.data(), data.data(), data.size()));
  EXPECT_EQ(disk_.stats().read_retries, 1u);
  EXPECT_EQ(disk_.stats().reads_exhausted, 0u);
  EXPECT_GT(disk_.stats().retry_backoff_time.nanos(), 0);
}

TEST_F(DiskRetryTest, PersistentReadErrorExhaustsRetries) {
  std::vector<uint8_t> data(kPageSize, 0xAB);
  ASSERT_EQ(disk_.Write(0, data), IoStatus::kOk);

  FaultSchedule schedule;
  schedule.probability = 1.0;
  injector_.SetSchedule(FaultSite::kDiskRead, schedule);
  disk_.SetFaultInjector(&injector_);
  RetryPolicy policy;
  policy.max_attempts = 4;
  disk_.SetRetryPolicy(policy);

  std::vector<uint8_t> out(kPageSize, 0xCD);
  EXPECT_EQ(disk_.Read(0, out), IoStatus::kFailed);
  // Nothing is copied on failure: the caller's buffer is untouched.
  EXPECT_EQ(out[0], 0xCD);
  EXPECT_EQ(disk_.stats().reads_exhausted, 1u);
  EXPECT_EQ(disk_.stats().read_retries, 3u);  // max_attempts - 1 backoffs
}

TEST_F(DiskRetryTest, TransientWriteErrorIsRetriedAndSucceeds) {
  FaultSchedule schedule;
  schedule.fail_ops = {1};
  injector_.SetSchedule(FaultSite::kDiskWrite, schedule);
  disk_.SetFaultInjector(&injector_);

  std::vector<uint8_t> data(kPageSize, 0x5A);
  EXPECT_EQ(disk_.Write(0, data), IoStatus::kOk);
  EXPECT_EQ(disk_.stats().write_retries, 1u);
  EXPECT_EQ(disk_.stats().writes_exhausted, 0u);

  std::vector<uint8_t> out(kPageSize, 0);
  ASSERT_EQ(disk_.Read(0, out), IoStatus::kOk);
  EXPECT_EQ(0, std::memcmp(out.data(), data.data(), data.size()));
}

TEST_F(DiskRetryTest, SectorCorruptionSilentlyFlipsOneStoredBit) {
  FaultSchedule schedule;
  schedule.fail_ops = {1};
  injector_.SetSchedule(FaultSite::kSectorCorruption, schedule);
  disk_.SetFaultInjector(&injector_);

  std::vector<uint8_t> data(kPageSize, 0xFF);
  ASSERT_EQ(disk_.Write(0, data), IoStatus::kOk);

  // The device has no checksums by design: the read "succeeds" with bad bytes.
  std::vector<uint8_t> out(kPageSize, 0);
  ASSERT_EQ(disk_.Read(0, out), IoStatus::kOk);
  size_t flipped_bits = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    flipped_bits += static_cast<size_t>(__builtin_popcount(out[i] ^ data[i]));
  }
  EXPECT_EQ(flipped_bits, 1u);
}

// ---------- Machine-level recovery ----------

TEST(MachineFaultTest, CorruptCleanEntryIsRecoveredFromBackingStore) {
  MachineConfig config = MachineConfig::WithCompressionCache(2 * kMiB);
  config.trace_capacity = 64 * 1024;  // large enough to keep the recovery events
  Machine machine(config);
  const uint64_t heap_bytes = 4 * kMiB;
  Heap heap = machine.NewHeap(heap_bytes);
  const uint64_t pages = heap_bytes / kPageSize;

  Rng rng(11);
  std::vector<uint8_t> page(kPageSize);
  std::vector<std::vector<uint8_t>> reference(pages);
  for (uint64_t p = 0; p < pages; ++p) {
    FillPage(page, ContentClass::kRepetitiveText, rng);
    heap.WriteBytes(p * kPageSize, page);
    reference[p] = page;
  }
  // Every compressed entry becomes clean — a valid copy now exists on the
  // backing store, so any in-memory corruption is recoverable.
  machine.ccache()->FlushDirty();

  Segment* segment = heap.segment();
  size_t corrupted = 0;
  for (uint64_t p = 0; p < pages; ++p) {
    const PageKey key{segment->id(), static_cast<uint32_t>(p)};
    const auto info = machine.ccache()->EntryInfoFor(key);
    if (info.has_value()) {
      machine.ccache()->CorruptPayloadBitForTest(key, (p * 131) % (info->payload_size * 8));
      ++corrupted;
    }
  }
  ASSERT_GT(corrupted, 0u);

  std::vector<uint8_t> out(kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    heap.ReadBytes(p * kPageSize, out);
    ASSERT_EQ(0, std::memcmp(out.data(), reference[p].data(), kPageSize)) << "page " << p;
  }

  const VmStats& vm = machine.pager().stats();
  EXPECT_GT(vm.pages_recovered, 0u);
  EXPECT_EQ(vm.pages_lost, 0u);
  EXPECT_EQ(vm.segments_aborted, 0u);
  EXPECT_FALSE(segment->aborted());
  EXPECT_GT(machine.ccache()->stats().checksum_mismatches, 0u);
  EXPECT_EQ(machine.metrics().GaugeValue("fault.pages_recovered"),
            static_cast<double>(vm.pages_recovered));
  machine.pager().CheckInvariants();
  machine.ccache()->CheckInvariants();

  // Recovery left a trace: at least one checksum_mismatch then page_recovered.
  const std::string jsonl = machine.tracer()->ToJsonl();
  EXPECT_NE(jsonl.find("checksum_mismatch"), std::string::npos);
  EXPECT_NE(jsonl.find("page_recovered"), std::string::npos);
}

TEST(MachineFaultTest, CorruptDirtyEntryAbortsOnlyTheOwningSegment) {
  Machine machine(MachineConfig::WithCompressionCache(2 * kMiB));
  Heap victim = machine.NewHeap(4 * kMiB);
  Heap bystander = machine.NewHeap(512 * kKiB);
  const uint64_t victim_pages = victim.size_bytes() / kPageSize;
  const uint64_t bystander_pages = bystander.size_bytes() / kPageSize;

  Rng rng(23);
  std::vector<uint8_t> page(kPageSize);
  std::vector<std::vector<uint8_t>> bystander_ref(bystander_pages);
  for (uint64_t p = 0; p < bystander_pages; ++p) {
    FillPage(page, ContentClass::kSparseNumeric, rng);
    bystander.WriteBytes(p * kPageSize, page);
    bystander_ref[p] = page;
  }
  std::vector<std::vector<uint8_t>> victim_ref(victim_pages);
  for (uint64_t p = 0; p < victim_pages; ++p) {
    FillPage(page, ContentClass::kRepetitiveText, rng);
    victim.WriteBytes(p * kPageSize, page);
    victim_ref[p] = page;
  }

  // Corrupt dirty compressed entries: their only copy is the damaged one, so
  // faulting them in must lose the page — and poison only the victim segment.
  size_t corrupted = 0;
  for (uint64_t p = 0; p < victim_pages && corrupted < 8; ++p) {
    const PageKey key{victim.segment()->id(), static_cast<uint32_t>(p)};
    const auto info = machine.ccache()->EntryInfoFor(key);
    if (info.has_value() && info->dirty) {
      machine.ccache()->CorruptPayloadBitForTest(key, (p * 17) % (info->payload_size * 8));
      ++corrupted;
    }
  }
  ASSERT_GT(corrupted, 0u);

  std::vector<uint8_t> out(kPageSize);
  const std::vector<uint8_t> zeros(kPageSize, 0);
  uint64_t zero_pages = 0;
  for (uint64_t p = 0; p < victim_pages; ++p) {
    victim.ReadBytes(p * kPageSize, out);
    if (std::memcmp(out.data(), zeros.data(), kPageSize) == 0) {
      ++zero_pages;
    } else {
      ASSERT_EQ(0, std::memcmp(out.data(), victim_ref[p].data(), kPageSize))
          << "page " << p << " is neither intact nor zeroed";
    }
  }

  const VmStats& vm = machine.pager().stats();
  EXPECT_GT(vm.pages_lost, 0u);
  EXPECT_LE(vm.pages_lost, corrupted);
  EXPECT_EQ(vm.segments_aborted, 1u);
  EXPECT_TRUE(victim.segment()->aborted());
  EXPECT_FALSE(bystander.segment()->aborted());
  EXPECT_GE(zero_pages, vm.pages_lost);  // lost pages read as zeros, never garbage

  // The machine keeps servicing the unaffected segment with correct data.
  for (uint64_t p = 0; p < bystander_pages; ++p) {
    bystander.ReadBytes(p * kPageSize, out);
    ASSERT_EQ(0, std::memcmp(out.data(), bystander_ref[p].data(), kPageSize)) << "page " << p;
  }
  machine.pager().CheckInvariants();
  machine.ccache()->CheckInvariants();
}

// A swapped page whose read exhausts every retry is lost: it reads as zeros,
// and its dead swap copy goes with it, so the backend no longer holds the key
// and every invariant still holds.
TEST(MachineFaultTest, LostSwapPageDropsItsDeadCopy) {
  MachineConfig config = MachineConfig::WithCompressionCache(2 * kMiB);
  config.fault_injection.enabled = true;  // no schedule yet: nothing faults
  Machine machine(config);
  Heap heap = machine.NewHeap(8 * kMiB);
  const uint64_t pages = heap.size_bytes() / kPageSize;
  Rng rng(5);
  std::vector<uint8_t> page(kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    FillPage(page, ContentClass::kSparseNumeric, rng);
    heap.WriteBytes(p * kPageSize, page);
  }
  const uint32_t segment = heap.segment()->id();
  uint32_t lost = 0;
  while (lost < pages &&
         machine.pager().PeekEntry(PageKey{segment, lost})->state != PageState::kSwapped) {
    ++lost;
  }
  ASSERT_LT(lost, pages) << "no page reached swap";
  const PageKey key{segment, lost};
  ASSERT_TRUE(machine.compressed_swap()->Contains(key));

  FaultSchedule every_read;
  every_read.probability = 1.0;
  machine.fault_injector()->SetSchedule(FaultSite::kDiskRead, every_read);
  heap.ReadBytes(uint64_t{lost} * kPageSize, page);
  machine.fault_injector()->SetSchedule(FaultSite::kDiskRead, FaultSchedule{});

  EXPECT_EQ(page, std::vector<uint8_t>(kPageSize, 0));
  EXPECT_GT(machine.disk().stats().reads_exhausted, 0u);
  EXPECT_EQ(machine.pager().stats().pages_lost, 1u);
  EXPECT_EQ(machine.metrics().GaugeValue("vm.pages_lost"), 1.0);
  EXPECT_FALSE(machine.compressed_swap()->Contains(key));
  EXPECT_EQ(machine.RunAudit(), 0u);
}

// A fault from clustered swap seeds the ring with the image and the CRC the
// layout verified, without computing it again. The seeded entry then serves a
// fault, and a bit flipped in it is caught at the next one, which recovers the
// page from swap.
TEST(MachineFaultTest, SwapSeededRingEntryIsStillVerified) {
  Machine machine(MachineConfig::WithCompressionCache(2 * kMiB));
  ASSERT_NE(machine.clustered_swap(), nullptr);
  Heap heap = machine.NewHeap(6 * kMiB);
  const uint64_t pages = heap.size_bytes() / kPageSize;
  Rng rng(17);
  std::vector<std::vector<uint8_t>> reference(pages, std::vector<uint8_t>(kPageSize));
  for (uint64_t p = 0; p < pages; ++p) {
    FillPage(reference[p], ContentClass::kRepetitiveText, rng);
    heap.WriteBytes(p * kPageSize, reference[p]);
  }
  Segment* segment = heap.segment();
  uint32_t page = 0;
  while (page < pages && segment->page(page).state != PageState::kSwapped) {
    ++page;
  }
  ASSERT_LT(page, pages) << "no page reached swap";
  const PageKey key{segment->id(), page};
  const uint64_t address = uint64_t{page} * kPageSize;
  const VmStats& vm = machine.pager().stats();
  const MetricRegistry& metrics = machine.metrics();
  const auto evict = [&] {
    while (segment->page(page).state == PageState::kResident && machine.pager().ReleaseOldest()) {
    }
    ASSERT_EQ(segment->page(page).state, PageState::kCompressed);
  };
  std::vector<uint8_t> out(kPageSize);

  const uint64_t from_swap = vm.faults_from_swap;
  heap.ReadBytes(address, out);
  ASSERT_EQ(out, reference[page]);
  ASSERT_EQ(vm.faults_from_swap, from_swap + 1);
  ASSERT_TRUE(machine.ccache()->Contains(key));

  ASSERT_NO_FATAL_FAILURE(evict());
  const double mismatches = metrics.GaugeValue("ccache.checksum_mismatches");
  const uint64_t from_ccache = vm.faults_from_ccache;
  heap.ReadBytes(address, out);
  EXPECT_EQ(out, reference[page]);
  EXPECT_EQ(vm.faults_from_ccache, from_ccache + 1);
  EXPECT_EQ(metrics.GaugeValue("ccache.checksum_mismatches"), mismatches);

  ASSERT_NO_FATAL_FAILURE(evict());
  const auto info = machine.ccache()->EntryInfoFor(key);
  ASSERT_TRUE(info.has_value());
  machine.ccache()->CorruptPayloadBitForTest(key, info->payload_size * 4 + 3);
  const uint64_t recovered = vm.pages_recovered;
  heap.ReadBytes(address, out);
  EXPECT_EQ(metrics.GaugeValue("ccache.checksum_mismatches"), mismatches + 1);
  EXPECT_EQ(out, reference[page]);
  EXPECT_EQ(vm.pages_recovered, recovered + 1);
  EXPECT_EQ(vm.pages_lost, 0u);
  EXPECT_EQ(machine.RunAudit(), 0u);
}

// A coresident whose stored copy fails its CRC is dropped by the layout and
// never enters the ring: it stays on swap, where a fault on it meets the
// corruption itself.
TEST(MachineFaultTest, CorruptCoresidentNeverEntersTheRing) {
  Machine machine(MachineConfig::WithCompressionCache(2 * kMiB));
  ASSERT_NE(machine.clustered_swap(), nullptr);
  Heap heap = machine.NewHeap(6 * kMiB);
  const uint64_t pages = heap.size_bytes() / kPageSize;
  Rng rng(19);
  std::vector<uint8_t> page(kPageSize);
  for (uint64_t p = 0; p < pages; ++p) {
    FillPage(page, ContentClass::kSparseNumeric, rng);
    heap.WriteBytes(p * kPageSize, page);
  }
  // A swapped page whose blocks hold another swapped page.
  Segment* segment = heap.segment();
  CompressedSwapBackend& swap = *machine.compressed_swap();
  uint32_t demand = 0;
  SwapPageImage victim;
  for (; demand < pages && !victim.key.valid(); ++demand) {
    if (segment->page(demand).state != PageState::kSwapped) {
      continue;
    }
    for (SwapPageImage& co : swap.ReadPage(PageKey{segment->id(), demand}, true).coresidents) {
      if (segment->page(co.key.page).state == PageState::kSwapped) {
        victim = std::move(co);
        break;
      }
    }
  }
  ASSERT_TRUE(victim.key.valid()) << "no swapped page has a swapped coresident";
  --demand;

  // Flip one bit in the middle of the victim's stored image.
  FileSystem& fs = machine.fs();
  const FileId file = fs.OpenOrCreate("cswap");
  std::vector<uint8_t> contents(fs.FileSize(file));
  ASSERT_EQ(fs.Read(file, 0, contents), IoStatus::kOk);
  const auto at =
      std::search(contents.begin(), contents.end(), victim.bytes.begin(), victim.bytes.end());
  ASSERT_NE(at, contents.end());
  const uint64_t offset = static_cast<uint64_t>(at - contents.begin()) + victim.bytes.size() / 2;
  const uint8_t flipped[] = {static_cast<uint8_t>(contents[offset] ^ 0x10)};
  ASSERT_EQ(fs.Write(file, offset, flipped), IoStatus::kOk);

  const MetricRegistry& metrics = machine.metrics();
  const double dropped = metrics.GaugeValue("swap.clustered.coresidents_dropped");
  const uint64_t from_swap = machine.pager().stats().faults_from_swap;
  heap.ReadBytes(uint64_t{demand} * kPageSize, page);
  EXPECT_EQ(machine.pager().stats().faults_from_swap, from_swap + 1);
  EXPECT_EQ(metrics.GaugeValue("swap.clustered.coresidents_dropped"), dropped + 1);
  EXPECT_FALSE(machine.ccache()->Contains(victim.key));
  EXPECT_EQ(segment->page(victim.key.page).state, PageState::kSwapped);
  EXPECT_EQ(machine.RunAudit(), 0u);
}

// fault.checksum_mismatches counts every swap CRC failure whatever wraps the
// layout: on a pipelined machine the outermost backend is the write-behind
// decorator, which reads no image itself and forwards the layout's count.
TEST(MachineFaultTest, ChecksumGaugeCountsSwapMismatchesThroughWriteBehind) {
  for (const bool pipelined : {false, true}) {
    SCOPED_TRACE(pipelined ? "pipelined" : "synchronous");
    MachineConfig config = SmallConfig(true, 2 * kMiB);
    config.fault_injection.enabled = true;
    config.pipeline.enabled = pipelined;
    Machine machine(config);
    FaultSchedule corrupt;
    corrupt.probability = 0.5;
    machine.fault_injector()->SetSchedule(FaultSite::kSectorCorruption, corrupt);
    ThrasherOptions options;
    options.address_space_bytes = 8 * kMiB;
    options.write = true;
    options.passes = 2;
    Thrasher app(options);
    app.Run(machine);

    const uint64_t layout = machine.clustered_swap()->checksum_mismatches();
    EXPECT_GT(layout, 0u);
    EXPECT_EQ(machine.compressed_swap()->checksum_mismatches(), layout);
    EXPECT_EQ(machine.metrics().GaugeValue("fault.checksum_mismatches"),
              static_cast<double>(layout + machine.ccache()->stats().checksum_mismatches));
  }
}

// The fault.* injection counts are lifetime counters like retry.*: right
// after Machine::ResetStats() each reads 0, then its growth since the reset,
// and the monotonicity audit holds them.
TEST(MachineFaultTest, InjectionCountsRestartWithTheRegistry) {
  MachineConfig config = MachineConfig::WithCompressionCache(2 * kMiB);
  config.fault_injection.enabled = true;
  config.fault_injection.disk_read_error_rate = 0.05;
  config.fault_injection.disk_write_error_rate = 0.05;
  Machine machine(config);
  const MetricRegistry& metrics = machine.metrics();
  const FaultInjector& injector = *machine.fault_injector();
  ThrasherOptions options;
  options.address_space_bytes = 4 * kMiB;
  options.write = true;
  Thrasher before(options);
  before.Run(machine);
  const uint64_t read_errors = injector.injected(FaultSite::kDiskRead);
  const uint64_t write_errors = injector.injected(FaultSite::kDiskWrite);
  ASSERT_GT(write_errors, 0u);
  ASSERT_EQ(metrics.GaugeValue("fault.disk_write_errors"), static_cast<double>(write_errors));
  ASSERT_GT(metrics.GaugeValue("retry.write_retries"), 0.0);

  machine.ResetStats();
  EXPECT_EQ(metrics.GaugeValue("retry.write_retries"), 0.0);
  for (const char* name : {"fault.disk_read_errors", "fault.disk_write_errors",
                           "fault.sector_corruptions", "fault.codec_corruptions",
                           "fault.power_fails"}) {
    EXPECT_EQ(metrics.GaugeValue(name), 0.0) << name;
    EXPECT_TRUE(metrics.counter_gauge_names().contains(name)) << name;
  }

  Thrasher after(options);
  after.Run(machine);
  EXPECT_GT(injector.injected(FaultSite::kDiskWrite), write_errors);
  EXPECT_EQ(metrics.GaugeValue("fault.disk_read_errors"),
            static_cast<double>(injector.injected(FaultSite::kDiskRead) - read_errors));
  EXPECT_EQ(metrics.GaugeValue("fault.disk_write_errors"),
            static_cast<double>(injector.injected(FaultSite::kDiskWrite) - write_errors));
  EXPECT_EQ(machine.RunAudit(), 0u);
}

TEST(MachineFaultTest, GoldResultsIdenticalUnderTransientDiskFaults) {
  GoldOptions options;
  options.num_messages = 256;
  options.message_bytes = 512;
  options.dictionary_words = 2000;
  options.term_table_slots = 1 << 12;
  options.postings_bytes = 2 * kMiB;
  options.num_queries = 64;

  Machine clean(SmallConfig(true, 2 * kMiB));
  const GoldRunResult clean_result = RunGoldBenchmarks(clean, options);

  MachineConfig faulty_config = SmallConfig(true, 2 * kMiB);
  faulty_config.fault_injection.enabled = true;
  faulty_config.fault_injection.seed = 77;
  faulty_config.fault_injection.disk_read_error_rate = 0.02;
  faulty_config.fault_injection.disk_write_error_rate = 0.02;
  Machine faulty(faulty_config);
  const GoldRunResult faulty_result = RunGoldBenchmarks(faulty, options);

  // Transient errors are absorbed by the retry policy: identical answers.
  EXPECT_EQ(clean_result.create.tokens_indexed, faulty_result.create.tokens_indexed);
  EXPECT_EQ(clean_result.create.postings_touched, faulty_result.create.postings_touched);
  EXPECT_EQ(clean_result.cold.query_hits, faulty_result.cold.query_hits);
  EXPECT_EQ(clean_result.warm.query_hits, faulty_result.warm.query_hits);

  const DiskStats& ds = faulty.disk().stats();
  EXPECT_GT(ds.read_retries + ds.write_retries, 0u);
  EXPECT_EQ(ds.reads_exhausted, 0u);  // 0.02^4 per op: exhaustion is astronomical
  EXPECT_EQ(faulty.pager().stats().pages_lost, 0u);
  EXPECT_GT(faulty.fault_injector()->total_injected(), 0u);
  EXPECT_GT(faulty.metrics().GaugeValue("retry.read_retries") +
                faulty.metrics().GaugeValue("retry.write_retries"),
            0.0);
  // Retries cost real (virtual) time — degradation is gradual, not wrong.
  EXPECT_GT(faulty.clock().Now().nanos(), clean.clock().Now().nanos());
}

// Gold's corpus is one 2 MB file write, and each 4 KB block of it draws its own
// injected fault: at a 2% write error rate the whole-file request outlasts the
// disk's retries. The corpus must still land whole, or the index covers almost
// nothing.
TEST(MachineFaultTest, GoldIndexesItsWholeCorpusWhenTheCorpusWriteFails) {
  GoldOptions options;
  options.num_messages = 1024;
  options.message_bytes = 2048;
  options.postings_bytes = 6 * kMiB;
  const auto index = [&](Machine& machine) {
    GoldIndex engine(machine, options);
    engine.PrepareCorpus();
    return engine.RunCreate().tokens_indexed;
  };

  Machine clean(SmallConfig(true, 6 * kMiB));
  MachineConfig faulty_config = SmallConfig(true, 6 * kMiB);
  faulty_config.fault_injection.enabled = true;
  faulty_config.fault_injection.seed = 1993;
  faulty_config.fault_injection.disk_write_error_rate = 0.02;
  Machine faulty(faulty_config);

  const uint64_t clean_tokens = index(clean);
  const uint64_t faulty_tokens = index(faulty);
  EXPECT_GT(faulty.disk().stats().writes_exhausted, 0u);  // the whole-file write failed
  EXPECT_EQ(faulty_tokens, clean_tokens);
}

// Incompressible pages leave raw through the LFS segment buffer, whose 512 KB
// flush draws 128 block faults: at a 2% write error rate most flushes exhaust
// the disk's retries, and a reclaim round can see every victim's pageout
// refused. The machine retries with fresh faults instead of giving up, and
// no page is lost.
TEST(MachineFaultTest, RefusedPageoutsUnderLfsWriteFaultsAreRetried) {
  MachineConfig config = SmallConfig(true, 2 * kMiB + 128 * kPageSize);
  config.compressed_swap = CompressedSwapKind::kLfs;
  config.fault_injection.enabled = true;
  config.fault_injection.seed = 1993;
  config.fault_injection.disk_write_error_rate = 0.02;
  Machine machine(config);
  const uint64_t pages = 6 * kMiB / kPageSize;
  Heap heap = machine.NewHeap(pages * kPageSize);
  Rng rng(3);
  std::vector<uint8_t> page(kPageSize);
  std::vector<uint32_t> crcs(pages);
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t p = 0; p < pages; ++p) {
      FillPage(page, ContentClass::kRandom, rng);
      crcs[p] = Crc32(page);
      heap.WriteBytes(p * kPageSize, page);
    }
  }
  EXPECT_GT(machine.disk().stats().writes_exhausted, 0u);
  for (uint64_t p = 0; p < pages; ++p) {
    heap.ReadBytes(p * kPageSize, page);
    ASSERT_EQ(Crc32(page), crcs[p]) << "page " << p;
  }
  EXPECT_EQ(machine.pager().stats().pages_lost, 0u);
  EXPECT_EQ(machine.RunAudit(), 0u);
}

TEST(MachineFaultTest, SortSurvivesLatentCorruption) {
  MachineConfig config = SmallConfig(true, 1 * kMiB);  // starved: heavy ccache traffic
  config.fault_injection.enabled = true;
  config.fault_injection.seed = 5;
  config.fault_injection.codec_corruption_rate = 0.02;
  Machine machine(config);

  SortOptions options;
  options.text_bytes = 1 * kMiB;
  options.dictionary_words = 2000;
  TextSort app(options);
  app.Run(machine);

  const VmStats& vm = machine.pager().stats();
  // Every detected corruption was either recovered from the backing store or
  // accounted as a loss that aborted the owning segment — never silent garbage.
  EXPECT_GT(machine.ccache()->stats().checksum_mismatches, 0u);
  if (vm.pages_lost == 0) {
    EXPECT_TRUE(app.result().verified_sorted);
  } else {
    EXPECT_GE(vm.segments_aborted, 1u);
  }
  machine.pager().CheckInvariants();
  machine.ccache()->CheckInvariants();
}

// Direct coverage for SortOptions::tolerate_data_loss (previously exercised
// only through audit_soak --pipeline): when injected unrecoverable disk errors
// zero file blocks out from under the word scan, tolerate mode must neither
// trip the word-count assertion nor corrupt the words that survive.
TEST(MachineFaultTest, SortTolerateDataLossSortsWhatSurvives) {
  SortOptions options;
  options.variant = SortVariant::kRandom;
  options.text_bytes = 1 * kMiB;
  options.dictionary_words = 2000;

  // Baseline word census from a clean run with the same seed.
  Machine clean(SmallConfig(true, 2 * kMiB));
  TextSort clean_sort(options);
  clean_sort.Run(clean);
  ASSERT_TRUE(clean_sort.result().verified_sorted);
  const uint64_t clean_words = clean_sort.result().words;
  ASSERT_GT(clean_words, 0u);

  // Generous memory keeps the heap resident, so the injected read errors land
  // on file blocks (the tolerate path) rather than swapped pages.
  MachineConfig config = SmallConfig(true, 6 * kMiB);
  config.fault_injection.enabled = true;
  config.fault_injection.seed = 31;
  // High enough that some reads exhaust the 4-attempt retry budget and
  // surface deterministic zero blocks (0.35^4 ~ 1.5% of file reads).
  config.fault_injection.disk_read_error_rate = 0.35;
  Machine machine(config);
  machine.auditor().set_abort_on_violation(false);

  options.tolerate_data_loss = true;
  TextSort app(options);
  app.Run(machine);  // must not CC_ASSERT on the truncated census

  // Preconditions: the injection really was unrecoverable somewhere, and no
  // heap page was lost (so sortedness of the survivors is a hard requirement).
  ASSERT_GT(machine.disk().stats().reads_exhausted, 0u);
  ASSERT_EQ(machine.pager().stats().pages_lost, 0u);
  // Loss only ever shrinks the census, and the survivors are genuinely
  // sorted — the verify pass re-reads every adjacent pair through the heap.
  EXPECT_LE(app.result().words, clean_words);
  EXPECT_GT(app.result().words, 0u);
  EXPECT_TRUE(app.result().verified_sorted);
  machine.pager().CheckInvariants();
}

TEST(MachineFaultTest, ThrasherDegradesGraduallyAsErrorRateRises) {
  const auto run = [](double rate) {
    MachineConfig config = SmallConfig(true, 2 * kMiB);
    if (rate > 0.0) {
      config.fault_injection.enabled = true;
      config.fault_injection.seed = 13;
      config.fault_injection.disk_read_error_rate = rate;
      config.fault_injection.disk_write_error_rate = rate;
    }
    Machine machine(config);
    ThrasherOptions options;
    options.address_space_bytes = 3 * kMiB;
    options.write = true;
    options.passes = 2;
    Thrasher app(options);
    app.Run(machine);
    EXPECT_EQ(machine.pager().stats().pages_lost, 0u) << "rate " << rate;
    machine.pager().CheckInvariants();
    return app.result().elapsed.nanos();
  };

  const int64_t base = run(0.0);
  const int64_t light = run(1e-4);
  const int64_t heavy = run(1e-3);
  // No cliff: a 1e-3 error rate costs retries, not an order of magnitude.
  EXPECT_GE(light, base);
  EXPECT_GE(heavy, base);
  EXPECT_LT(heavy, base * 3 / 2);
}

TEST(MachineFaultTest, SeededScheduleReplaysIdenticalTraces) {
  const auto run = [] {
    MachineConfig config = SmallConfig(true, 2 * kMiB);
    config.trace_capacity = 16384;
    config.fault_injection.enabled = true;
    config.fault_injection.seed = 9;
    config.fault_injection.disk_read_error_rate = 0.01;
    config.fault_injection.disk_write_error_rate = 0.01;
    config.fault_injection.codec_corruption_rate = 0.01;
    // Guarantee at least one injection regardless of how many ops the workload
    // issues: the first disk write and the first codec fault-in always fault.
    config.fault_injection.fail_nth_disk_writes = {1};
    config.fault_injection.corrupt_nth_codec_ops = {1};
    Machine machine(config);
    Heap heap = machine.NewHeap(4 * kMiB);
    Rng rng(3);
    std::vector<uint8_t> page(kPageSize);
    for (int op = 0; op < 800; ++op) {
      const uint64_t p = rng.Below(heap.size_bytes() / kPageSize);
      if (rng.Chance(0.6)) {
        // A mix of compressible and threshold-failing pages keeps both the
        // ccache and the raw-swap disk path busy.
        FillPage(page, op % 3 == 0 ? ContentClass::kRandom : ContentClass::kSparseNumeric,
                 rng);
        heap.WriteBytes(p * kPageSize, page);
      } else {
        heap.ReadBytes(p * kPageSize, page);
      }
    }
    return machine.tracer()->ToJsonl();
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
  EXPECT_NE(first.find("fault_injected"), std::string::npos);
}

TEST(MachineFaultTest, DisabledByDefaultWithZeroFaultMetrics) {
  Machine machine(SmallConfig(true, 2 * kMiB));
  EXPECT_EQ(machine.fault_injector(), nullptr);
  Heap heap = machine.NewHeap(3 * kMiB);
  Rng rng(1);
  std::vector<uint8_t> page(kPageSize);
  for (int op = 0; op < 300; ++op) {
    FillPage(page, ContentClass::kRepetitiveText, rng);
    heap.WriteBytes(rng.Below(heap.size_bytes() / kPageSize) * kPageSize, page);
  }
  // The fault/retry schema is always published (stable bench JSON), all zero.
  EXPECT_EQ(machine.metrics().GaugeValue("fault.checksum_mismatches"), 0.0);
  EXPECT_EQ(machine.metrics().GaugeValue("fault.pages_recovered"), 0.0);
  EXPECT_EQ(machine.metrics().GaugeValue("fault.pages_lost"), 0.0);
  EXPECT_EQ(machine.metrics().GaugeValue("fault.segments_aborted"), 0.0);
  EXPECT_EQ(machine.metrics().GaugeValue("retry.read_retries"), 0.0);
  EXPECT_EQ(machine.metrics().GaugeValue("retry.reads_exhausted"), 0.0);
  EXPECT_EQ(machine.disk().stats().read_retries, 0u);
}

}  // namespace
}  // namespace compcache
