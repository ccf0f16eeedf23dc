#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>
#include <string>

#include "compress/pagegen.h"
#include "core/machine.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "vm/heap.h"

namespace compcache {
namespace {

TEST(MachineTest, MetadataChargedOnlyWithCcache) {
  Machine std_machine(SmallConfig(false));
  Machine cc_machine(SmallConfig(true));
  EXPECT_GT(cc_machine.metadata_frames(), std_machine.metadata_frames());
}

TEST(MachineTest, SegmentCreationChargesPageTableOverhead) {
  Machine machine(SmallConfig(true));
  const size_t before = machine.metadata_frames();
  // 4096 pages x 12 bytes = 48 KB = 12 frames.
  machine.NewHeap(4096 * kPageSize);
  EXPECT_GE(machine.metadata_frames(), before + 12);
}

TEST(MachineTest, MetadataChargeCanBeDisabled) {
  MachineConfig config = SmallConfig(true);
  config.charge_metadata_overhead = false;
  Machine machine(config);
  EXPECT_EQ(machine.metadata_frames(), 0u);
  machine.NewHeap(1024 * kPageSize);
  EXPECT_EQ(machine.metadata_frames(), 0u);
}

TEST(MachineTest, ReportListsEveryMetricFamily) {
  // Report() renders the registry, so it covers every family a bench's JSON
  // carries, all-zero families included, one line each.
  Machine machine(SmallConfig(true));
  Heap heap = machine.NewHeap(3 * kMiB);
  for (uint64_t p = 0; p < heap.size_bytes() / kPageSize; ++p) {
    heap.Store<uint32_t>(p * kPageSize, static_cast<uint32_t>(p));
  }
  const std::string report = "\n" + machine.Report();
  std::set<std::string> families;
  for (const auto& [name, value] : machine.metrics().Snapshot()) {
    families.insert(name.substr(0, name.find('.')));
  }
  for (const std::string& family : families) {
    EXPECT_NE(report.find("\n" + family + ":"), std::string::npos) << family;
  }
  EXPECT_EQ(static_cast<size_t>(std::count(report.begin(), report.end(), '\n')),
            families.size() + 1);
  // A non-zero entry is listed under its family as rest.of.name=value.
  const std::string faults = " faults=" + std::to_string(machine.pager().stats().faults) + " ";
  const size_t vm_line = report.find("\nvm:");
  ASSERT_NE(vm_line, std::string::npos);
  EXPECT_LT(report.find(faults, vm_line), report.find('\n', vm_line + 1));
}

TEST(MachineTest, ReportMentionsSubsystems) {
  Machine machine(SmallConfig(true));
  Heap heap = machine.NewHeap(16 * kPageSize);
  heap.Store<uint32_t>(0, 1);
  const std::string report = machine.Report();
  EXPECT_NE(report.find("vm:"), std::string::npos);
  EXPECT_NE(report.find("ccache:"), std::string::npos);
  EXPECT_NE(report.find("disk:"), std::string::npos);
  EXPECT_NE(report.find("arbiter:"), std::string::npos);
}

TEST(MachineTest, NetworkBackingWorks) {
  MachineConfig config = SmallConfig(false, 2 * kMiB);
  config.backing = BackingKind::kNetworkLink;
  Machine machine(config);
  Heap heap = machine.NewHeap(4 * kMiB);
  Rng rng(1);
  std::vector<uint8_t> page(kPageSize);
  std::vector<uint8_t> out(kPageSize);
  FillPage(page, ContentClass::kText, rng);
  for (uint64_t p = 0; p < heap.size_bytes() / kPageSize; ++p) {
    heap.WriteBytes(p * kPageSize, page);
  }
  heap.ReadBytes(0, out);
  EXPECT_EQ(out, page);
}

TEST(MachineTest, SlowerBackingWidensCcacheAdvantage) {
  // Paper section 1/6: the slower the backing store relative to the CPU, the more
  // the compression cache helps. Compare disk vs wireless for the same workload.
  auto run = [](BackingKind backing, bool use_cc) {
    MachineConfig config = SmallConfig(use_cc, 2 * kMiB);
    config.backing = backing;
    Machine machine(config);
    Heap heap = machine.NewHeap(3 * kMiB);
    Rng rng(2);
    std::vector<uint8_t> page(kPageSize);
    const SimTime start = machine.clock().Now();
    for (int pass = 0; pass < 3; ++pass) {
      for (uint64_t p = 0; p < heap.size_bytes() / kPageSize; ++p) {
        FillPage(page, ContentClass::kSparseNumeric, rng);
        heap.WriteBytes(p * kPageSize, page);
      }
    }
    return (machine.clock().Now() - start).nanos();
  };
  const double disk_speedup = static_cast<double>(run(BackingKind::kLocalDisk, false)) /
                              static_cast<double>(run(BackingKind::kLocalDisk, true));
  const double net_speedup = static_cast<double>(run(BackingKind::kNetworkLink, false)) /
                             static_cast<double>(run(BackingKind::kNetworkLink, true));
  EXPECT_GT(net_speedup, disk_speedup);
  EXPECT_GT(disk_speedup, 1.0);
}

TEST(MachineTest, ThresholdConfigurable) {
  MachineConfig config = SmallConfig(true, 2 * kMiB);
  config.threshold = CompressionThreshold(1, 1);  // keep anything not expanded
  Machine machine(config);
  Heap heap = machine.NewHeap(3 * kMiB);
  Rng rng(3);
  std::vector<uint8_t> page(kPageSize);
  for (uint64_t p = 0; p < heap.size_bytes() / kPageSize; ++p) {
    // Content that compresses to ~85-90% of a page: fails the default 4:3
    // threshold but is kept under 1:1 (random bytes with a zero run at the end).
    FillPage(page, ContentClass::kRandom, rng);
    std::fill(page.begin() + 7 * kPageSize / 8, page.end(), uint8_t{0});
    heap.WriteBytes(p * kPageSize, page);
  }
  EXPECT_GT(machine.pager().stats().evictions_compressed, 0u);
  EXPECT_EQ(machine.pager().stats().evictions_raw_swap, 0u);
}

TEST(MachineTest, CodecSelectable) {
  MachineConfig config = SmallConfig(true);
  config.codec = "rle";
  Machine machine(config);
  Heap heap = machine.NewHeap(16 * kPageSize);
  heap.Store<uint32_t>(0, 7);
  EXPECT_EQ(heap.Load<uint32_t>(0), 7u);
}

TEST(MachineTest, WedgeIsImpossibleUnderPureVmLoad) {
  // Fill memory entirely with dirty VM pages, then keep allocating: the eviction
  // path must always make progress (this regression-tests the frame-allocation
  // cycle fix).
  Machine machine(SmallConfig(true, 1 * kMiB));
  Heap heap = machine.NewHeap(4 * kMiB);
  Rng rng(5);
  std::vector<uint8_t> page(kPageSize);
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t p = 0; p < heap.size_bytes() / kPageSize; ++p) {
      FillPage(page, ContentClass::kRepetitiveText, rng);
      heap.WriteBytes(p * kPageSize, page);
    }
  }
  machine.pager().CheckInvariants();
  machine.ccache()->CheckInvariants();
}

TEST(MachineTest, BuffercacheCompetesForMemory) {
  // Heavy file traffic should populate the buffer cache; subsequent VM pressure
  // should shrink it via the arbiter.
  Machine machine(SmallConfig(false, 2 * kMiB));
  const FileId f = machine.fs().Create("big");
  std::vector<uint8_t> chunk(64 * kKiB, 0xAB);
  for (int i = 0; i < 16; ++i) {
    machine.buffer_cache().Write(f, static_cast<uint64_t>(i) * chunk.size(), chunk);
  }
  const size_t blocks_full = machine.buffer_cache().num_blocks();
  EXPECT_GT(blocks_full, 100u);

  Heap heap = machine.NewHeap(2 * kMiB);
  for (uint64_t p = 0; p < heap.size_bytes() / kPageSize; ++p) {
    heap.Store<uint32_t>(p * kPageSize, 1);
  }
  EXPECT_LT(machine.buffer_cache().num_blocks(), blocks_full);
}


TEST(MachineTest, FixedOffsetCompressedSwapWorks) {
  MachineConfig config = SmallConfig(true, 2 * kMiB);
  config.compressed_swap = CompressedSwapKind::kFixedOffset;
  Machine machine(config);
  Heap heap = machine.NewHeap(4 * kMiB);
  Rng rng(6);
  std::vector<uint8_t> page(kPageSize);
  std::vector<std::vector<uint8_t>> shadow;
  for (uint64_t p = 0; p < heap.size_bytes() / kPageSize; ++p) {
    FillPage(page, ContentClass::kRepetitiveText, rng);
    shadow.push_back(page);
    heap.WriteBytes(p * kPageSize, page);
  }
  std::vector<uint8_t> out(kPageSize);
  for (uint64_t p = 0; p < shadow.size(); ++p) {
    heap.ReadBytes(p * kPageSize, out);
    ASSERT_EQ(out, shadow[p]) << p;
  }
  EXPECT_EQ(machine.clustered_swap(), nullptr);  // the alternate layout is active
  machine.pager().CheckInvariants();
}

TEST(MachineTest, FixedOffsetLayoutIsSlowerThanClustered) {
  // Paper section 4.3: partial-block writes at fixed offsets pay a
  // read-modify-write per page-out; the clustered design exists to avoid it.
  auto run = [](CompressedSwapKind kind) {
    MachineConfig config = SmallConfig(true, 2 * kMiB);
    config.compressed_swap = kind;
    Machine machine(config);
    Heap heap = machine.NewHeap(8 * kMiB);
    Rng rng(7);
    std::vector<uint8_t> page(kPageSize);
    for (int pass = 0; pass < 2; ++pass) {
      for (uint64_t p = 0; p < heap.size_bytes() / kPageSize; ++p) {
        FillPage(page, ContentClass::kSparseNumeric, rng);
        heap.WriteBytes(p * kPageSize, page);
      }
    }
    return machine.clock().Now().nanos();
  };
  EXPECT_GT(run(CompressedSwapKind::kFixedOffset), run(CompressedSwapKind::kClustered));
}


TEST(MachineTest, CompressedFileCacheServesMissesInMemory) {
  // Paper section 6 extension: evicted file blocks stay compressed in memory and
  // re-reads decompress instead of hitting the disk.
  MachineConfig config = SmallConfig(true, 2 * kMiB);
  config.compress_file_cache = true;
  Machine machine(config);

  const FileId f = machine.fs().Create("data");
  Rng rng(11);
  std::vector<uint8_t> block(kFsBlockSize);
  // 3 MB of compressible file data: does not fit uncompressed, does compressed.
  const uint64_t blocks = (3 * kMiB) / kFsBlockSize;
  for (uint64_t b = 0; b < blocks; ++b) {
    FillPage(block, ContentClass::kRepetitiveText, rng);
    machine.buffer_cache().Write(f, b * kFsBlockSize, block);
  }
  machine.buffer_cache().FlushAll();

  // Re-read twice; verify contents against the file system's ground truth.
  std::vector<uint8_t> expected(kFsBlockSize);
  std::vector<uint8_t> got(kFsBlockSize);
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t b = 0; b < blocks; ++b) {
      machine.buffer_cache().Read(f, b * kFsBlockSize, got);
      ASSERT_EQ(machine.fs().Read(f, b * kFsBlockSize, expected), IoStatus::kOk);
      ASSERT_EQ(got, expected) << "block " << b;
    }
  }
  EXPECT_GT(machine.buffer_cache().stats().compressed_inserts, 0u);
  EXPECT_GT(machine.buffer_cache().stats().compressed_hits, 0u);
}

TEST(MachineTest, CompressedFileCacheReducesDiskReads) {
  auto disk_reads = [](bool compress_file_cache) {
    MachineConfig config = SmallConfig(true, 2 * kMiB);
    config.compress_file_cache = compress_file_cache;
    Machine machine(config);
    const FileId f = machine.fs().Create("data");
    Rng rng(12);
    std::vector<uint8_t> block(kFsBlockSize);
    const uint64_t blocks = (3 * kMiB) / kFsBlockSize;
    for (uint64_t b = 0; b < blocks; ++b) {
      FillPage(block, ContentClass::kRepetitiveText, rng);
      machine.buffer_cache().Write(f, b * kFsBlockSize, block);
    }
    machine.buffer_cache().FlushAll();
    const uint64_t before = machine.disk().stats().read_ops;
    std::vector<uint8_t> got(kFsBlockSize);
    for (int pass = 0; pass < 2; ++pass) {
      for (uint64_t b = 0; b < blocks; ++b) {
        machine.buffer_cache().Read(f, b * kFsBlockSize, got);
      }
    }
    return machine.disk().stats().read_ops - before;
  };
  EXPECT_LT(disk_reads(true), disk_reads(false) / 2);
}

TEST(MachineTest, CompressedFileCacheStaysCoherentUnderWrites) {
  MachineConfig config = SmallConfig(true, 2 * kMiB);
  config.compress_file_cache = true;
  Machine machine(config);
  const FileId f = machine.fs().Create("data");
  Rng rng(13);
  const uint64_t blocks = (3 * kMiB) / kFsBlockSize;
  std::vector<std::vector<uint8_t>> shadow(blocks, std::vector<uint8_t>(kFsBlockSize));
  for (uint64_t b = 0; b < blocks; ++b) {
    FillPage(shadow[b], ContentClass::kRepetitiveText, rng);
    machine.buffer_cache().Write(f, b * kFsBlockSize, shadow[b]);
  }
  // Random rewrites must invalidate stale compressed copies.
  std::vector<uint8_t> got(kFsBlockSize);
  for (int op = 0; op < 600; ++op) {
    const uint64_t b = rng.Below(blocks);
    if (rng.Chance(0.5)) {
      FillPage(shadow[b], ContentClass::kRepetitiveText, rng);
      machine.buffer_cache().Write(f, b * kFsBlockSize, shadow[b]);
    } else {
      machine.buffer_cache().Read(f, b * kFsBlockSize, got);
      ASSERT_EQ(got, shadow[b]) << "block " << b << " op " << op;
    }
  }
}


TEST(MachineTest, LfsSwapWorksEndToEnd) {
  MachineConfig config = SmallConfig(true, 2 * kMiB);
  config.compressed_swap = CompressedSwapKind::kLfs;
  Machine machine(config);
  Heap heap = machine.NewHeap(5 * kMiB);
  Rng rng(8);
  std::vector<uint8_t> page(kPageSize);
  std::vector<std::vector<uint8_t>> shadow;
  for (uint64_t p = 0; p < heap.size_bytes() / kPageSize; ++p) {
    FillPage(page, ContentClass::kRepetitiveText, rng);
    shadow.push_back(page);
    heap.WriteBytes(p * kPageSize, page);
  }
  std::vector<uint8_t> out(kPageSize);
  for (uint64_t p = 0; p < shadow.size(); ++p) {
    heap.ReadBytes(p * kPageSize, out);
    ASSERT_EQ(out, shadow[p]) << p;
  }
  machine.pager().CheckInvariants();
}

TEST(MachineTest, DroppedFileCacheEntriesLeaveThePagerAlone) {
  // With no heap every compression-cache entry holds a file block, so every
  // drop the pager hears of has a file key, which it ignores.
  MachineConfig config = SmallConfig(true, 2 * kMiB);
  config.compress_file_cache = true;
  Machine machine(config);
  const FileId f = machine.fs().Create("data");
  Rng rng(14);
  std::vector<uint8_t> block(kFsBlockSize);
  // 8 MB of text stays larger than the 2 MB machine once compressed.
  const uint64_t blocks = (8 * kMiB) / kFsBlockSize;
  for (uint64_t b = 0; b < blocks; ++b) {
    FillPage(block, ContentClass::kText, rng);
    machine.buffer_cache().Write(f, b * kFsBlockSize, block);
  }
  machine.buffer_cache().FlushAll();
  std::vector<uint8_t> expected(kFsBlockSize);
  for (int pass = 0; pass < 4 && machine.ccache()->stats().entries_dropped == 0; ++pass) {
    for (uint64_t b = 0; b < blocks; ++b) {
      machine.buffer_cache().Read(f, b * kFsBlockSize, block);
      ASSERT_EQ(machine.fs().Read(f, b * kFsBlockSize, expected), IoStatus::kOk);
      ASSERT_EQ(block, expected) << "block " << b;
    }
  }
  EXPECT_GT(machine.ccache()->stats().entries_dropped, 0u);
  EXPECT_EQ(machine.pager().num_segments(), 0u);
  EXPECT_EQ(machine.RunAudit(), 0u);
}

// One case per MachineConfig::Validate() rule, and per field of a rule that
// covers several: a config that breaks only that rule is refused under its
// name.
struct RuleCase {
  const char* rule;
  MachineConfig (*make)();
  const char* field = nullptr;  // names the case among its rule's cases
};

void PrintTo(const RuleCase& c, std::ostream* os) { *os << c.rule; }

TierSpec DeviceTier() {
  TierSpec spec;
  spec.name = "ssd";
  return spec;
}

// The unmodified machine with one ccache-only setting moved off its default.
template <typename Set>
MachineConfig StdWith(Set set) {
  MachineConfig c = SmallConfig(false);
  set(c);
  return c;
}

const RuleCase kRuleCases[] = {
    {"memory-below-32-pages", [] { return SmallConfig(true, 31 * kPageSize); }},
    {"pipeline-needs-ccache",
     [] {
       MachineConfig c = SmallConfig(false);
       c.pipeline.enabled = true;
       return c;
     }},
    {"tiers-need-ccache",
     [] {
       MachineConfig c = SmallConfig(false);
       c.tiers.tiers = {DeviceTier()};
       return c;
     }},
    {"durability-with-device-tiers",
     [] {
       MachineConfig c = SmallConfig(true);
       c.durability.enabled = true;
       c.tiers.tiers = {DeviceTier()};
       return c;
     }},
    {"write-behind-depth-zero",
     [] {
       MachineConfig c = SmallConfig(true);
       c.pipeline.enabled = true;
       c.pipeline.write_behind_depth = 0;
       return c;
     }},
    {"ccache-max-frames-below-4",
     [] {
       MachineConfig c = SmallConfig(true);
       c.ccache_max_frames = 3;
       return c;
     }},
    {"pipeline-fields-while-disabled",
     [] {
       MachineConfig c = SmallConfig(true);
       c.pipeline.prefetch = true;
       return c;
     }},
    {"fault-fields-while-disabled",
     [] {
       MachineConfig c = SmallConfig(true);
       c.fault_injection.disk_read_error_rate = 0.01;
       return c;
     }},
    {"ccache-settings-need-ccache",
     [] { return StdWith([](auto& c) { c.codec = "wk"; }); }, "codec"},
    {"ccache-settings-need-ccache",
     [] { return StdWith([](auto& c) { c.codec_hash_bits = 10; }); }, "codec_hash_bits"},
    {"ccache-settings-need-ccache",
     [] { return StdWith([](auto& c) { c.threshold = CompressionThreshold{2, 1}; }); },
     "threshold"},
    {"ccache-settings-need-ccache",
     [] { return StdWith([](auto& c) { c.compressed_swap = CompressedSwapKind::kLfs; }); },
     "compressed_swap"},
    {"ccache-settings-need-ccache",
     [] { return StdWith([](auto& c) { c.write_batch_bytes = 64 * kKiB; }); }, "write_batch_bytes"},
    {"ccache-settings-need-ccache",
     [] { return StdWith([](auto& c) { c.allow_block_spanning = false; }); },
     "allow_block_spanning"},
    {"ccache-settings-need-ccache",
     [] { return StdWith([](auto& c) { c.insert_coresidents = false; }); }, "insert_coresidents"},
    {"ccache-settings-need-ccache",
     [] { return StdWith([](auto& c) { c.biases.ccache = SimDuration::Seconds(1); }); },
     "biases_ccache"},
    {"ccache-settings-need-ccache",
     [] { return StdWith([](auto& c) { c.compress_file_cache = true; }); }, "compress_file_cache"},
    {"ccache-settings-need-ccache",
     [] { return StdWith([](auto& c) { c.adaptive_compression.enabled = true; }); },
     "adaptive_compression"},
    {"ccache-settings-need-ccache",
     [] { return StdWith([](auto& c) { c.ccache_max_frames = 64; }); }, "ccache_max_frames"},
};

std::string RuleParamName(const ::testing::TestParamInfo<RuleCase>& param) {
  std::string name = param.param.rule;
  if (param.param.field != nullptr) {
    name = name + "-" + param.param.field;
  }
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

class ValidateRuleTest : public ::testing::TestWithParam<RuleCase> {};

TEST_P(ValidateRuleTest, NamesTheBrokenRule) {
  const char* rule = GetParam().make().Validate();
  ASSERT_NE(rule, nullptr);
  EXPECT_STREQ(rule, GetParam().rule);
}

INSTANTIATE_TEST_SUITE_P(EveryRule, ValidateRuleTest, ::testing::ValuesIn(kRuleCases),
                         RuleParamName);

TEST(ValidateTest, AcceptsEachRuleBoundary) {
  EXPECT_EQ(SmallConfig(false).Validate(), nullptr);
  EXPECT_EQ(SmallConfig(true).Validate(), nullptr);
  EXPECT_EQ(SmallConfig(true, 32 * kPageSize).Validate(), nullptr);

  MachineConfig config = SmallConfig(true);
  config.ccache_max_frames = 4;
  EXPECT_EQ(config.Validate(), nullptr);

  config = SmallConfig(false);
  config.fault_injection.enabled = true;
  config.fault_injection.power_fail_nth_sectors = {9};
  EXPECT_EQ(config.Validate(), nullptr);

  config = SmallConfig(true);
  config.pipeline.enabled = true;
  config.pipeline.prefetch = true;
  EXPECT_EQ(config.Validate(), nullptr);
}

TEST(MachineDeathTest, RefusedConfigAbortsWithTheRuleName) {
  MachineConfig config = SmallConfig(true);
  config.pipeline.enabled = true;
  config.pipeline.write_behind_depth = 0;
  EXPECT_DEATH(Machine{config}, "write-behind-depth-zero");
}

}  // namespace
}  // namespace compcache
