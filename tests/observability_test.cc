// End-to-end checks that the observability layer reports the truth: every
// registry gauge must agree with the authoritative struct counter it mirrors,
// on a machine that actually exercised the paging hierarchy, and the event
// trace must be consistent with those counters.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "compress/pagegen.h"
#include "core/machine.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "vm/heap.h"

namespace compcache {
namespace {

// Thrash a heap at 2x physical memory so faults, evictions, compression,
// write-out, and arbitration all fire.
void RunPagingWorkload(Machine& machine) {
  const uint64_t pages = (4 * kMiB) / kPageSize;
  Heap heap = machine.NewHeap(pages * kPageSize);
  Rng rng(7);
  std::vector<uint8_t> page(kPageSize);
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t p = 0; p < pages; ++p) {
      FillPage(page, ContentClass::kSparseNumeric, rng);
      heap.WriteBytes(p * kPageSize, page);
    }
  }
}

double Metric(const Machine& machine, const std::string& name) {
  double out = 0;
  EXPECT_TRUE(machine.metrics().Lookup(name, &out)) << name;
  return out;
}

class ObservabilityModeTest : public ::testing::TestWithParam<bool> {};  // param: use ccache

TEST_P(ObservabilityModeTest, RegistryAgreesWithStructCounters) {
  MachineConfig config = SmallConfig(GetParam());
  config.trace_capacity = 1 << 16;
  Machine machine(config);
  RunPagingWorkload(machine);

  const VmStats& vm = machine.pager().stats();
  EXPECT_GT(vm.faults, 0u);
  EXPECT_GT(vm.evictions, 0u);

  const std::map<std::string, uint64_t> expected_vm = {
      {"vm.accesses", vm.accesses},
      {"vm.faults", vm.faults},
      {"vm.faults_zero_fill", vm.faults_zero_fill},
      {"vm.faults_from_ccache", vm.faults_from_ccache},
      {"vm.faults_from_swap", vm.faults_from_swap},
      {"vm.evictions", vm.evictions},
      {"vm.evictions_clean_drop", vm.evictions_clean_drop},
      {"vm.evictions_compressed", vm.evictions_compressed},
      {"vm.evictions_raw_swap", vm.evictions_raw_swap},
      {"vm.evictions_std_write", vm.evictions_std_write},
  };
  for (const auto& [name, value] : expected_vm) {
    EXPECT_EQ(Metric(machine, name), static_cast<double>(value)) << name;
  }

  const DiskStats& disk = machine.disk().stats();
  EXPECT_EQ(Metric(machine, "disk.read_ops"), static_cast<double>(disk.read_ops));
  EXPECT_EQ(Metric(machine, "disk.write_ops"), static_cast<double>(disk.write_ops));
  EXPECT_EQ(Metric(machine, "disk.bytes_written"), static_cast<double>(disk.bytes_written));

  EXPECT_EQ(Metric(machine, "clock.now_ns"),
            static_cast<double>(machine.clock().Now().nanos()));
  EXPECT_EQ(Metric(machine, "mem.total_frames"),
            static_cast<double>(machine.frame_pool().total_frames()));

  if (GetParam()) {
    const CcacheStats& cs = machine.ccache()->stats();
    EXPECT_GT(cs.pages_compressed, 0u);
    EXPECT_EQ(Metric(machine, "ccache.pages_compressed"),
              static_cast<double>(cs.pages_compressed));
    EXPECT_EQ(Metric(machine, "ccache.pages_kept"), static_cast<double>(cs.pages_kept));
    EXPECT_EQ(Metric(machine, "ccache.pages_rejected"),
              static_cast<double>(cs.pages_rejected));
    EXPECT_EQ(Metric(machine, "ccache.fault_hits"), static_cast<double>(cs.fault_hits));
    // The kept-ratio histogram takes one sample per kept page.
    EXPECT_EQ(Metric(machine, "ccache.kept_ratio_pct.count"),
              static_cast<double>(cs.pages_kept));
  } else {
    const FixedSwapStats& fs = machine.fixed_swap()->stats();
    EXPECT_GT(fs.pages_written, 0u);
    EXPECT_EQ(Metric(machine, "swap.fixed.pages_written"),
              static_cast<double>(fs.pages_written));
    EXPECT_EQ(Metric(machine, "swap.fixed.pages_read"), static_cast<double>(fs.pages_read));
    // The unmodified machine stores whole raw pages.
    EXPECT_EQ(Metric(machine, "swap.fixed.payload_bytes_written"),
              static_cast<double>(fs.pages_written * kPageSize));
    double live = 0;
    machine.fixed_swap()->ForEachPage([&](PageKey) { ++live; });
    EXPECT_EQ(Metric(machine, "swap.fixed.live_pages"), live);
  }

  // Arbiter gauges: the sum of per-consumer reclaims matches the structs.
  for (const auto& c : machine.arbiter().consumers()) {
    EXPECT_EQ(Metric(machine, "arbiter." + c.name + ".reclaims"),
              static_cast<double>(c.reclaims));
    EXPECT_EQ(Metric(machine, "arbiter." + c.name + ".refusals"),
              static_cast<double>(c.refusals));
  }
}

TEST_P(ObservabilityModeTest, FaultLatencyHistogramCountsEveryFault) {
  Machine machine(SmallConfig(GetParam()));
  RunPagingWorkload(machine);
  const VmStats& vm = machine.pager().stats();
  EXPECT_EQ(Metric(machine, "vm.fault_ns.count"), static_cast<double>(vm.faults));
  EXPECT_GT(Metric(machine, "vm.fault_ns.mean"), 0.0);
  EXPECT_LE(Metric(machine, "vm.fault_ns.p50"), Metric(machine, "vm.fault_ns.p99"));
}

TEST_P(ObservabilityModeTest, TraceFaultEventsMatchFaultCounter) {
  MachineConfig config = SmallConfig(GetParam());
  config.trace_capacity = 1 << 16;  // large enough that nothing is overwritten
  Machine machine(config);
  RunPagingWorkload(machine);

  ASSERT_NE(machine.tracer(), nullptr);
  const EventTracer& tracer = *machine.tracer();
  EXPECT_EQ(tracer.total_recorded(), static_cast<uint64_t>(tracer.size()))
      << "ring overflowed; enlarge trace_capacity for this test";

  uint64_t faults = 0;
  uint64_t evictions = 0;
  int64_t last_t = 0;
  tracer.ForEach([&](const TraceEvent& e) {
    EXPECT_GE(e.t_ns, last_t) << "trace must be time-ordered";
    last_t = e.t_ns;
    switch (e.kind) {
      case TraceEventKind::kFaultZeroFill:
      case TraceEventKind::kFaultFromCcache:
      case TraceEventKind::kFaultFromSwap:
        ++faults;
        break;
      case TraceEventKind::kEvictCleanDrop:
      case TraceEventKind::kEvictCompressed:
      case TraceEventKind::kEvictRawSwap:
      case TraceEventKind::kEvictStdWrite:
        ++evictions;
        break;
      default:
        break;
    }
  });
  const VmStats& vm = machine.pager().stats();
  EXPECT_EQ(faults, vm.faults);
  EXPECT_EQ(evictions, vm.evictions);
}

TEST_P(ObservabilityModeTest, TracingOffByDefault) {
  Machine machine(SmallConfig(GetParam()));
  EXPECT_EQ(machine.tracer(), nullptr);
}

INSTANTIATE_TEST_SUITE_P(StdAndCc, ObservabilityModeTest, ::testing::Bool());

TEST(ObservabilityTest, MetricsJsonIsValidObject) {
  Machine machine(SmallConfig(true));
  RunPagingWorkload(machine);
  const std::string json = machine.MetricsJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"vm.faults\""), std::string::npos);
  EXPECT_NE(json.find("\"ccache.pages_kept\""), std::string::npos);
  EXPECT_NE(json.find("\"disk.access_ns.p50\""), std::string::npos);
}

TEST(ObservabilityTest, TraceDumpsJsonl) {
  MachineConfig config = SmallConfig(true);
  // Large enough to retain the run's earliest events (the first zero-fill
  // faults) — a smaller ring would have overwritten them by the end.
  config.trace_capacity = 1 << 16;
  Machine machine(config);
  RunPagingWorkload(machine);

  ASSERT_NE(machine.tracer(), nullptr);
  const std::string jsonl = machine.tracer()->ToJsonl();
  EXPECT_NE(jsonl.find("\"event\":\"fault_zero_fill\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"event\":\"evict_compressed\""), std::string::npos);
}

}  // namespace
}  // namespace compcache
