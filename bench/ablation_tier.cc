// Ablation: a compressed-SSD tier behind the compression cache (DRAM ->
// compressed DRAM -> compressed "SSD" -> disk) against the two degenerate
// ways to spend the same hardware.
//
// The split axis is the DRAM share of the compressed cache: how many pool
// frames the ccache ring may hold (the rest of DRAM serves the resident set).
// `dram=` is that ring cap, MachineConfig::ccache_max_frames; the ccache is
// the machine's only compressed-DRAM store. A large compressed-SSD tier sits
// below it: every ccache writeback lands there, and its LRU overflow goes on
// to the disk. The extremes bracket the design space:
//   all_dram   tiers disabled, uncapped ccache — the PR-9 machine, where
//              every compressed page the DRAM cannot hold pays a disk seek
//   all_ssd    a near-zero ccache cap, so virtually every compressed copy
//              lives behind the SSD cost model (500 us / 100 MB/s) instead
//              of DRAM
//
// Two workload axes:
//   thrash   fig3-style cyclic thrasher past the knee (working set whose
//            compressed image exceeds DRAM), clustered backend: the SSD tier
//            absorbs the overflow that all_dram ships to the seeking disk
//   kv       fig6 Zipfian KV service under memory pressure: skewed popularity
//            gives every level of the hierarchy a job — hot objects resident,
//            warm tail in compressed DRAM, cold tail on SSD, dregs on disk
//
// Headline metrics (validated by bench/check_bench_json.py): the KV frontier
// tier.frontier.best_ms / all_dram_ms / all_ssd_ms / best_split — an interior
// DRAM share must beat BOTH extremes, or the hierarchy earns nothing over a
// single-tier design.
//
//   --quick   one thrash size and the quick KV workload, for CI smoke runs
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "apps/kv_server.h"
#include "apps/thrasher.h"
#include "bench_json.h"
#include "core/machine.h"
#include "sweep_runner.h"

using namespace compcache;

namespace {

constexpr uint64_t kUserMemory = 6 * kMiB;
constexpr uint64_t kKvMemory = 5 * kMiB;
// The ~0% DRAM share: just enough ring to stage writebacks into the stack.
constexpr size_t kMinCcacheFrames = 16;

// DRAM shares of the pool granted to the ccache ring for the tiered cells.
// 0 marks the all-SSD extreme (kMinCcacheFrames); the all-DRAM extreme is a
// separate untiered cell.
const double kInteriorShares[] = {0.125, 0.25, 0.5};

struct Cell {
  std::string split;      // "all_dram", "all_ssd", or "dram=<share>"
  double share = -1.0;    // ccache share of the pool; -1 = untiered machine
};

MachineConfig TieredConfig(uint64_t memory_bytes, double share) {
  MachineConfig config = MachineConfig::WithCompressionCache(memory_bytes);
  if (share < 0.0) {
    return config;  // all_dram: today's untiered machine, uncapped ccache
  }
  TierSpec ssd;
  ssd.name = "ssd";
  ssd.capacity_bytes = 16 * kMiB;  // roomy: the disk is for cold dregs only
  // Cheap bulk flash: an order of magnitude slower than compressed DRAM and
  // an order faster than the seeking disk — the middle of the hierarchy.
  ssd.ssd_latency = SimDuration::Micros(500);
  ssd.ssd_bandwidth_bytes_per_sec = 100e6;
  config.tiers.tiers = {ssd};
  const size_t total_frames = memory_bytes / kPageSize;
  const size_t cap = static_cast<size_t>(share * static_cast<double>(total_frames));
  config.ccache_max_frames = cap < kMinCcacheFrames ? kMinCcacheFrames : cap;
  return config;
}

struct ThrashResult {
  double avg_access_ms = 0.0;
  uint64_t disk_reads = 0;
  uint64_t ssd_landings = 0;
  uint64_t violations = 0;
};

ThrashResult RunThrash(uint64_t address_space, double share) {
  MachineConfig config = TieredConfig(kUserMemory, share);
  Machine machine(config);
  ThrasherOptions options;
  options.address_space_bytes = address_space;
  options.write = true;
  options.passes = 2;
  options.content = ContentClass::kSparseNumeric;  // ~4:1 under LZRW1
  Thrasher app(options);
  app.Run(machine);

  ThrashResult result;
  result.avg_access_ms = app.result().AvgAccessMillis();
  result.disk_reads = machine.disk().stats().read_ops;
  if (machine.tier_stack() != nullptr) {
    result.ssd_landings = machine.metrics().GaugeValue("tier.ssd.landings");
  }
  result.violations = machine.RunAudit();
  return result;
}

struct KvResult {
  double mean_ms = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double ops_per_sec = 0.0;
  uint64_t requests = 0;
  uint64_t gets = 0;
  uint64_t sets = 0;
  uint64_t faults = 0;
  uint64_t compressed_hits = 0;
  uint64_t disk_reads = 0;
  uint64_t validation_failures = 0;
  uint64_t violations = 0;
  std::vector<std::pair<std::string, double>> metrics;
};

KvResult RunKv(double share, bool quick, bool snapshot_metrics) {
  MachineConfig config = TieredConfig(kKvMemory, share);
  Machine machine(config);
  KvServerOptions o;
  // The heap (4096 x 2 KB slots = 8 MiB) stays pressured against the 5 MiB
  // machine in both modes; quick only shortens the request stream.
  o.workload.num_keys = 4096;
  o.workload.zipf_s = 0.99;
  o.workload.get_fraction = 0.9;
  // Slower than fig6's open loop: the cells must differ by per-fault service
  // cost (where the page waited), not by which machine saturates first.
  o.workload.mean_interarrival = SimDuration::Micros(2000);
  o.num_requests = quick ? 6000 : 24000;
  o.slot_bytes = 2048;
  // ~4:1 under LZRW1 (numeric records, like the paper's thrasher data): a
  // stolen resident frame buys four warm compressed pages, which is the
  // compression cache's case for existing at all.
  o.value_content = ContentClass::kSparseNumeric;
  KvServer server(o);
  server.Run(machine);

  const KvServerResult& r = server.result();
  KvResult cell;
  cell.mean_ms = r.latency.mean() / 1e6;
  cell.p50_ns = r.latency.Percentile(50);
  cell.p99_ns = r.latency.Percentile(99);
  cell.ops_per_sec = r.OpsPerSec();
  cell.requests = r.requests;
  cell.gets = r.gets;
  cell.sets = r.sets;
  cell.faults = machine.pager().stats().faults;
  cell.compressed_hits = machine.pager().stats().faults_from_ccache;
  cell.disk_reads = machine.disk().stats().read_ops;
  cell.validation_failures = r.validation_failures;
  cell.violations = machine.RunAudit();
  if (snapshot_metrics) {
    cell.metrics = machine.metrics().Snapshot();
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }

  std::vector<Cell> cells;
  cells.push_back({"all_dram", -1.0});
  cells.push_back({"all_ssd", 0.0});
  for (const double share : kInteriorShares) {
    char label[32];
    std::snprintf(label, sizeof(label), "dram=%g", share);
    cells.push_back({label, share});
  }

  const std::vector<uint64_t> thrash_sizes_mb =
      quick ? std::vector<uint64_t>{24} : std::vector<uint64_t>{16, 24, 32};

  BenchReport report("ablation_tier", argc, argv);
  report.Config("user_memory_mb", kUserMemory / kMiB);
  report.Config("kv_memory_mb", kKvMemory / kMiB);
  report.Config("ssd_tier_mb", uint64_t{16});
  report.Config("quick", quick);

  std::printf("tier ablation: DRAM share of the compressed cache, SSD(16 MB) "
              "tier over the clustered disk\n\n");

  std::vector<std::function<ThrashResult()>> thrash_jobs;
  for (const uint64_t mb : thrash_sizes_mb) {
    for (const Cell& cell : cells) {
      const uint64_t bytes = mb * kMiB;
      const double share = cell.share;
      thrash_jobs.push_back([bytes, share] { return RunThrash(bytes, share); });
    }
  }
  std::vector<std::function<KvResult()>> kv_jobs;
  for (size_t c = 0; c < cells.size(); ++c) {
    const double share = cells[c].share;
    // The middle interior share contributes the metric snapshot, so the
    // tier.* counter families (and their conservation) land in the JSON.
    const bool snapshot = report.enabled() && share == kInteriorShares[1];
    kv_jobs.push_back([share, quick, snapshot] { return RunKv(share, quick, snapshot); });
  }
  const std::vector<ThrashResult> thrash =
      RunSweep(thrash_jobs, SweepThreadsFromArgs(argc, argv));
  const std::vector<KvResult> kv = RunSweep(kv_jobs, SweepThreadsFromArgs(argc, argv));

  uint64_t total_violations = 0;

  std::printf("thrash: cyclic working set on a %llu MB machine, avg ms/access\n",
              static_cast<unsigned long long>(kUserMemory / kMiB));
  std::printf("%10s", "size(MB)");
  for (const Cell& cell : cells) {
    std::printf(" %12s", cell.split.c_str());
  }
  std::printf("\n");
  size_t job = 0;
  for (const uint64_t mb : thrash_sizes_mb) {
    std::printf("%10llu", static_cast<unsigned long long>(mb));
    for (const Cell& cell : cells) {
      const ThrashResult& r = thrash[job++];
      total_violations += r.violations;
      std::printf(" %12.4f", r.avg_access_ms);
      report.AddRow()
          .Set("axis", std::string("thrash"))
          .Set("size_mb", mb)
          .Set("split", cell.split)
          .Set("avg_access_ms", r.avg_access_ms)
          .Set("disk_reads", r.disk_reads)
          .Set("ssd_landings", r.ssd_landings)
          .Set("violations", r.violations);
    }
    std::printf("\n");
  }

  std::printf("\nkv: Zipfian service on a %llu MB machine, mean request ms\n",
              static_cast<unsigned long long>(kKvMemory / kMiB));
  std::printf("%12s %10s %10s %10s %10s %10s %10s\n", "split", "mean_ms", "p99(us)",
              "kops/s", "faults", "cc_hits", "disk_rd");
  double all_dram_ms = 0.0;
  double all_ssd_ms = 0.0;
  double best_ms = 0.0;
  double best_split = -1.0;
  for (size_t c = 0; c < cells.size(); ++c) {
    const KvResult& r = kv[c];
    total_violations += r.violations;
    if (!r.metrics.empty()) {
      report.MergeMetrics(r.metrics);
    }
    if (cells[c].split == "all_dram") {
      all_dram_ms = r.mean_ms;
    } else if (cells[c].split == "all_ssd") {
      all_ssd_ms = r.mean_ms;
    } else if (best_split < 0.0 || r.mean_ms < best_ms) {
      best_ms = r.mean_ms;
      best_split = cells[c].share;
    }
    std::printf("%12s %10.4f %10.1f %10.2f %10llu %10llu %10llu\n", cells[c].split.c_str(),
                r.mean_ms, r.p99_ns / 1000.0, r.ops_per_sec / 1000.0,
                static_cast<unsigned long long>(r.faults),
                static_cast<unsigned long long>(r.compressed_hits),
                static_cast<unsigned long long>(r.disk_reads));
    report.AddRow()
        .Set("axis", std::string("kv"))
        .Set("split", cells[c].split)
        .Set("mean_ms", r.mean_ms)
        .Set("p50_ns", r.p50_ns)
        .Set("p99_ns", r.p99_ns)
        .Set("ops_per_sec", r.ops_per_sec)
        .Set("requests", r.requests)
        .Set("gets", r.gets)
        .Set("sets", r.sets)
        .Set("faults", r.faults)
        .Set("compressed_hits", r.compressed_hits)
        .Set("disk_reads", r.disk_reads)
        .Set("validation_failures", r.validation_failures)
        .Set("violations", r.violations);
  }

  // The crossover frontier the JSON validator gates on: some interior DRAM
  // share must beat both degenerate machines on the service workload.
  report.MergeMetrics({{"tier.frontier.best_ms", best_ms},
                       {"tier.frontier.all_dram_ms", all_dram_ms},
                       {"tier.frontier.all_ssd_ms", all_ssd_ms},
                       {"tier.frontier.best_split", best_split}});

  std::printf("\nfrontier: best interior dram=%g at %.4f ms vs all_dram %.4f ms, "
              "all_ssd %.4f ms\n",
              best_split, best_ms, all_dram_ms, all_ssd_ms);
  if (total_violations > 0) {
    std::printf("AUDIT VIOLATIONS: %llu\n",
                static_cast<unsigned long long>(total_violations));
    return 1;
  }
  const bool interior_wins = best_ms < all_dram_ms && best_ms < all_ssd_ms;
  if (!interior_wins) {
    std::printf("FRONTIER INVERTED: an extreme beat every interior split\n");
  }
  if (!report.WriteIfEnabled()) {
    return 1;
  }
  return interior_wins ? 0 : 1;
}
