// Scheduler subsystem tests: deterministic multiprogramming, per-process
// accounting exactness, ownership/time auditor checks, and pid attribution.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/compare.h"
#include "apps/gold.h"
#include "apps/sort.h"
#include "apps/thrasher.h"
#include "proc/scheduler.h"
#include "tests/test_util.h"

namespace compcache {
namespace {

// A three-way mix whose completion rounds are separated by well over 2x each
// (thrasher ~8 rounds, compare a few dozen, sort thousands), so the completion
// order is a property of the workloads, not of scheduling knife-edges. The
// thrasher's working set alone covers the 1 MiB machine, guaranteeing
// evictions and compressed-cache refaults.
ThrasherOptions MixThrasherOptions() {
  ThrasherOptions o;
  o.address_space_bytes = 1 * kMiB;
  o.write = true;
  o.passes = 2;
  return o;
}

CompareOptions MixCompareOptions() {
  CompareOptions o;
  o.rows = 256;
  o.band_width = 64;
  return o;
}

SortOptions MixSortOptions() {
  SortOptions o;
  o.variant = SortVariant::kPartial;
  o.text_bytes = 192 * kKiB;
  o.dictionary_words = 2048;
  return o;
}

struct MixOutcome {
  std::vector<uint32_t> completion;
  uint64_t heap_hash = 0;
  // Captured before the hash walk (hashing faults pages back in).
  VmStats vm;
  DiskStats disk;
  ProcStats per_proc[3];
  std::map<std::string, double> proc_gauges;
};

MixOutcome RunMix(MachineConfig config, SchedulerOptions sopts) {
  Machine machine(config);
  Scheduler sched(machine, sopts);
  sched.Spawn("thrash", std::make_unique<Thrasher>(MixThrasherOptions()));
  sched.Spawn("differ", std::make_unique<Compare>(MixCompareOptions()));
  sched.Spawn("sorter", std::make_unique<TextSort>(MixSortOptions()));
  sched.RunToCompletion();

  MixOutcome out;
  out.completion = sched.completion_order();
  out.vm = machine.pager().stats();
  out.disk = machine.disk().stats();
  for (uint32_t pid = 1; pid <= 3; ++pid) {
    out.per_proc[pid - 1] = sched.process(pid).stats();
  }
  for (const auto& [name, value] : machine.metrics().Snapshot()) {
    if (name.rfind("proc.", 0) == 0 || name.rfind("sched.", 0) == 0) {
      out.proc_gauges[name] = value;
    }
  }
  EXPECT_EQ(machine.RunAudit(), 0u);
  out.heap_hash = HashTouchedPages(machine);
  return out;
}

MachineConfig MixConfig(CompressedSwapKind kind) {
  MachineConfig config = SmallConfig(true, 1 * kMiB);
  config.compressed_swap = kind;
  return config;
}

TEST(SchedulerTest, DeterministicAcrossSwapBackends) {
  const MixOutcome clustered = RunMix(MixConfig(CompressedSwapKind::kClustered), {});
  const MixOutcome lfs = RunMix(MixConfig(CompressedSwapKind::kLfs), {});

  // The workloads compute the same data on any backend: byte-identical heaps,
  // and (for this well-separated mix) the same completion order.
  EXPECT_EQ(clustered.heap_hash, lfs.heap_hash);
  EXPECT_EQ(clustered.completion, lfs.completion);
  // Faults charged per process differ (different backing-store behavior), but
  // both runs attribute every fault: the sums match their own machine totals.
  for (const MixOutcome* out : {&clustered, &lfs}) {
    uint64_t fault_sum = 0;
    for (const ProcStats& s : out->per_proc) {
      fault_sum += s.faults;
    }
    EXPECT_EQ(fault_sum, out->vm.faults);
  }
}

TEST(SchedulerTest, RerunIsByteIdentical) {
  const MixOutcome a = RunMix(MixConfig(CompressedSwapKind::kClustered), {});
  const MixOutcome b = RunMix(MixConfig(CompressedSwapKind::kClustered), {});
  EXPECT_EQ(a.heap_hash, b.heap_hash);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.proc_gauges, b.proc_gauges);
  EXPECT_EQ(a.vm.faults, b.vm.faults);
  EXPECT_EQ(a.disk.read_ops, b.disk.read_ops);
}

TEST(SchedulerTest, QuantumDoesNotChangeComputedData) {
  SchedulerOptions fine;
  fine.quantum = SimDuration::Micros(1);
  SchedulerOptions coarse;
  coarse.quantum = SimDuration::Millis(1);

  const MixOutcome a = RunMix(MixConfig(CompressedSwapKind::kClustered), fine);
  const MixOutcome b = RunMix(MixConfig(CompressedSwapKind::kClustered), coarse);
  // Interleaving changes timing and fault patterns, never the bytes the apps
  // compute (App::Step contract).
  EXPECT_EQ(a.heap_hash, b.heap_hash);
  // The quantum really changed the schedule.
  EXPECT_GT(a.proc_gauges.at("sched.quanta"), b.proc_gauges.at("sched.quanta"));
}

TEST(SchedulerTest, PerProcessCountersSumToMachineTotals) {
  MachineConfig config = MixConfig(CompressedSwapKind::kClustered);
  config.audit_interval = 16;  // exercise the proc checks mid-run too
  const MixOutcome out = RunMix(config, {});

  uint64_t faults = 0, ccache_hits = 0, swap_faults = 0, disk_reads = 0, disk_writes = 0;
  for (const ProcStats& s : out.per_proc) {
    faults += s.faults;
    ccache_hits += s.compressed_hits;
    swap_faults += s.swap_faults;
    disk_reads += s.disk_reads;
    disk_writes += s.disk_writes;
  }
  EXPECT_EQ(faults, out.vm.faults);
  EXPECT_EQ(ccache_hits, out.vm.faults_from_ccache);
  EXPECT_EQ(swap_faults, out.vm.faults_from_swap);
  EXPECT_EQ(disk_reads, out.disk.read_ops);
  EXPECT_EQ(disk_writes, out.disk.write_ops);

  // The same sums hold through the metric registry (what bench JSON reports).
  const auto gauge_sum = [&out](const std::string& field) {
    double sum = 0;
    for (const char* name : {"thrash", "differ", "sorter"}) {
      sum += out.proc_gauges.at("proc." + std::string(name) + "." + field);
    }
    return static_cast<uint64_t>(sum);
  };
  EXPECT_EQ(gauge_sum("faults"), out.vm.faults);
  EXPECT_EQ(gauge_sum("compressed_hits"), out.vm.faults_from_ccache);
  EXPECT_EQ(gauge_sum("swap_faults"), out.vm.faults_from_swap);
  // A mix under memory pressure actually exercised the attribution paths.
  EXPECT_GT(out.vm.faults, 0u);
  EXPECT_GT(out.vm.faults_from_ccache, 0u);
}

// Machine::ResetStats rebases the whole registry, the scheduler's proc.*
// gauges included, so the per-process partition of the machine totals holds
// over the published metrics across a mid-run reset too.
TEST(SchedulerTest, PartitionHoldsAcrossAMidRunReset) {
  Machine machine(SmallConfig(true, 2 * kMiB));
  Scheduler sched(machine);
  ThrasherOptions thrasher;
  thrasher.address_space_bytes = 3 * kMiB;
  thrasher.write = true;
  thrasher.passes = 4;
  sched.Spawn("first", std::make_unique<Thrasher>(thrasher));
  sched.Spawn("second", std::make_unique<Thrasher>(thrasher));
  for (int q = 0; q < 40; ++q) {
    ASSERT_TRUE(sched.RunQuantum());
  }
  machine.ResetStats();
  sched.RunToCompletion();

  const MetricRegistry& m = machine.metrics();
  const auto proc_sum = [&m](const std::string& field) {
    return m.GaugeValue("proc.first." + field) + m.GaugeValue("proc.second." + field);
  };
  EXPECT_GT(m.GaugeValue("vm.faults"), 0.0);
  EXPECT_EQ(proc_sum("faults"), m.GaugeValue("vm.faults"));
  EXPECT_EQ(proc_sum("disk_reads"), m.GaugeValue("disk.read_ops"));
  EXPECT_EQ(machine.RunAudit(), 0u);
}

TEST(SchedulerTest, ChargedTimeNeverExceedsElapsed) {
  Machine machine(MixConfig(CompressedSwapKind::kClustered));
  Scheduler sched(machine);
  sched.Spawn("thrash", std::make_unique<Thrasher>(MixThrasherOptions()));
  sched.Spawn("differ", std::make_unique<Compare>(MixCompareOptions()));
  const SimTime start = machine.clock().Now();
  sched.RunToCompletion();
  const SimDuration elapsed = machine.clock().Now() - start;

  SimDuration charged;
  for (uint32_t pid = 1; pid <= 2; ++pid) {
    const ProcStats& s = sched.process(pid).stats();
    EXPECT_LE(s.run_time.nanos(), elapsed.nanos());
    EXPECT_LE(s.cpu_time.nanos(), s.run_time.nanos());
    charged += s.run_time;
  }
  EXPECT_LE(charged.nanos(), elapsed.nanos());
  // Sequential scheduling with no idle loop: all elapsed time is charged.
  EXPECT_EQ(charged.nanos(), elapsed.nanos());
  EXPECT_EQ(machine.RunAudit(), 0u);
}

TEST(SchedulerTest, PidStampedOnTraceEvents) {
  MachineConfig config = MixConfig(CompressedSwapKind::kClustered);
  config.trace_capacity = 16384;
  Machine machine(config);
  Scheduler sched(machine);
  sched.Spawn("thrash", std::make_unique<Thrasher>(MixThrasherOptions()));
  sched.Spawn("differ", std::make_unique<Compare>(MixCompareOptions()));
  sched.RunToCompletion();

  std::set<uint32_t> pids;
  machine.tracer()->ForEach([&pids](const TraceEvent& e) { pids.insert(e.pid); });
  EXPECT_TRUE(pids.contains(1));
  EXPECT_TRUE(pids.contains(2));
  for (const uint32_t pid : pids) {
    EXPECT_LE(pid, 2u);
  }
  EXPECT_NE(machine.tracer()->ToJsonl().find("\"pid\":1"), std::string::npos);
  // Outside any quantum the machine is back in kernel context.
  EXPECT_EQ(machine.current_process(), 0u);
}

TEST(SchedulerTest, TeardownOnExitReleasesEverything) {
  SchedulerOptions sopts;
  sopts.teardown_on_exit = true;
  Machine machine(MixConfig(CompressedSwapKind::kClustered));
  {
    Scheduler sched(machine, sopts);
    sched.Spawn("thrash", std::make_unique<Thrasher>(MixThrasherOptions()));
    sched.Spawn("sorter", std::make_unique<TextSort>(MixSortOptions()));
    sched.RunToCompletion();
    EXPECT_EQ(sched.live_processes(), 0u);
  }
  Pager& pager = machine.pager();
  EXPECT_GE(machine.pager().stats().segments_torn_down, 2u);
  for (size_t s = 0; s < pager.num_segments(); ++s) {
    EXPECT_TRUE(pager.GetSegment(static_cast<uint32_t>(s))->torn_down());
  }
  EXPECT_EQ(pager.resident_pages(), 0u);
  // Gauges registered by the (destroyed) scheduler still read final values —
  // the shutdown audit depends on this.
  EXPECT_GT(machine.metrics().GaugeValue("proc.thrash.faults"), 0.0);
  EXPECT_EQ(machine.RunAudit(), 0u);
}

TEST(SchedulerTest, RoundRobinAndCompletionOrder) {
  Machine machine(MixConfig(CompressedSwapKind::kClustered));
  Scheduler sched(machine);
  const uint32_t p1 = sched.Spawn("thrash", std::make_unique<Thrasher>(MixThrasherOptions()));
  const uint32_t p2 = sched.Spawn("differ", std::make_unique<Compare>(MixCompareOptions()));
  const uint32_t p3 = sched.Spawn("sorter", std::make_unique<TextSort>(MixSortOptions()));
  EXPECT_EQ(p1, 1u);
  EXPECT_EQ(p2, 2u);
  EXPECT_EQ(p3, 3u);
  sched.RunToCompletion();
  // The order is structural, not a timing knife-edge: the thrasher's few big
  // steps each exceed the quantum, so it finishes within ~8 rounds; compare
  // needs a few dozen rounds, sort thousands.
  const std::vector<uint32_t> expected{1, 2, 3};
  EXPECT_EQ(sched.completion_order(), expected);
  EXPECT_FALSE(sched.RunQuantum());
  EXPECT_EQ(machine.metrics().GaugeValue("sched.live"), 0.0);
  EXPECT_GT(machine.metrics().GaugeValue("sched.context_switches"), 0.0);
}

TEST(SchedulerTest, GoldMixAttributesCompressedHits) {
  GoldOptions gold;
  gold.num_messages = 256;
  gold.message_bytes = 512;
  gold.dictionary_words = 2048;
  gold.term_table_slots = 1 << 12;
  gold.postings_bytes = 512 * kKiB;
  gold.num_queries = 64;

  Machine machine(MixConfig(CompressedSwapKind::kClustered));
  Scheduler sched(machine);
  sched.Spawn("gold", std::make_unique<GoldApp>(gold));
  sched.Spawn("thrash", std::make_unique<Thrasher>(MixThrasherOptions()));
  sched.RunToCompletion();

  const ProcStats& g = sched.process(1).stats();
  EXPECT_GT(g.faults, 0u);
  EXPECT_EQ(g.faults, static_cast<uint64_t>(
                          machine.metrics().GaugeValue("proc.gold.faults")));
  const GoldApp& app = static_cast<const GoldApp&>(sched.process(1).app());
  EXPECT_GT(app.result().create.tokens_indexed, 0u);
  // Cold and warm batches run the identical query stream.
  EXPECT_EQ(app.result().cold.query_hits, app.result().warm.query_hits);
  EXPECT_EQ(machine.RunAudit(), 0u);
}

}  // namespace
}  // namespace compcache
