// Invariant-audit soak: runs the real applications (gold, sort, thrasher)
// over every compressed swap backend, with and without fault injection, while
// the cross-subsystem auditor fires every few faults. A healthy simulator
// finishes with zero violations everywhere; any non-zero count names the
// subsystem/invariant in the row and fails the process, so CI treats audit
// drift as a hard error rather than a statistics blip.
//
//   --quick          smaller workloads for CI smoke runs
//   --faults=<rate>  per-attempt transient disk error probability for the
//                    fault-injected half of the matrix (default 0.02)
//   --pipeline       enable async pipelining (write-behind depth 4, prefetch,
//                    fault batching) across the grid, so the in-flight-page
//                    and prefetch-buffer conservation audits soak too
//   --tiers          run every machine over a two-SSD tier cascade, so the
//                    tier audits (residency coherence, per-tier occupancy and
//                    boundary flow conservation) soak alongside the rest
//   --json=<path>    machine-readable report (schema in DESIGN.md)
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "apps/gold.h"
#include "apps/sort.h"
#include "apps/thrasher.h"
#include "bench_json.h"
#include "core/machine.h"
#include "sweep_runner.h"

using namespace compcache;

namespace {

constexpr uint64_t kUserMemory = 6 * kMiB;
constexpr size_t kAuditInterval = 32;  // audit every 32 page faults

struct SoakResult {
  size_t audit_runs = 0;
  size_t violations = 0;
  uint64_t elapsed_ns = 0;  // the machine's virtual time after the drain
  uint64_t vm_faults = 0;   // vm.faults
  std::string first_violation;  // "subsystem/invariant: detail" of the first hit
  std::vector<std::pair<std::string, double>> metrics;
};

SoakResult Finish(Machine& machine, bool snapshot_metrics) {
  machine.DrainPipeline();  // no-op when pipelining is off
  machine.RunAudit();       // final sweep on top of the periodic ones
  SoakResult result;
  result.elapsed_ns = static_cast<uint64_t>(machine.clock().Now().nanos());
  result.vm_faults = machine.pager().stats().faults;
  result.audit_runs = machine.auditor().runs();
  result.violations = machine.auditor().total_violations();
  if (!machine.auditor().last_violations().empty()) {
    const auto& v = machine.auditor().last_violations().front();
    result.first_violation = v.subsystem + "/" + v.invariant + ": " + v.detail;
  }
  if (snapshot_metrics) {
    result.metrics = machine.metrics().Snapshot();
  }
  return result;
}

struct SoakMode {
  bool pipeline = false;
  bool tiers = false;
};

MachineConfig MakeConfig(CompressedSwapKind kind, double fault_rate, SoakMode mode) {
  MachineConfig config = MachineConfig::WithCompressionCache(kUserMemory);
  config.compressed_swap = kind;
  config.audit_interval = kAuditInterval;
  if (mode.pipeline) {
    config.pipeline.enabled = true;
    config.pipeline.write_behind_depth = 4;
    config.pipeline.prefetch = true;
    config.pipeline.fault_batch_window = 2;
  }
  if (mode.tiers) {
    TierSpec nvm;
    nvm.name = "nvm";
    nvm.capacity_bytes = 256 * kKiB;
    nvm.ssd_latency = SimDuration::Micros(20);
    TierSpec ssd;
    ssd.name = "ssd";
    ssd.capacity_bytes = 1 * kMiB;
    config.tiers.tiers = {nvm, ssd};
    // Cap the ccache ring so traffic actually flows through the stack.
    config.ccache_max_frames = 256;
  }
  if (fault_rate > 0.0) {
    config.fault_injection.enabled = true;
    config.fault_injection.seed = 1993;
    config.fault_injection.disk_read_error_rate = fault_rate;
    config.fault_injection.disk_write_error_rate = fault_rate;
  }
  return config;
}

// Violations are tallied (and reported below); aborting mid-sweep would
// discard the rest of the matrix.
void DisableAbort(Machine& machine) { machine.auditor().set_abort_on_violation(false); }

SoakResult RunGold(CompressedSwapKind kind, double fault_rate, bool quick, SoakMode mode,
                   bool snapshot) {
  Machine machine(MakeConfig(kind, fault_rate, mode));
  DisableAbort(machine);
  GoldOptions options;
  options.num_messages = quick ? 1024 : 4096;
  options.message_bytes = 2048;
  options.postings_bytes = quick ? 6 * kMiB : 12 * kMiB;
  options.num_queries = quick ? 256 : 1024;
  GoldIndex engine(machine, options);
  engine.PrepareCorpus();
  engine.RunCreate();
  engine.RunQueries();
  return Finish(machine, snapshot);
}

SoakResult RunSort(CompressedSwapKind kind, double fault_rate, bool quick, SoakMode mode,
                   bool snapshot) {
  Machine machine(MakeConfig(kind, fault_rate, mode));
  DisableAbort(machine);
  SortOptions options;
  options.variant = SortVariant::kRandom;
  options.text_bytes = quick ? 3 * kMiB : 6 * kMiB;
  // Injected unrecoverable faults may legitimately zero file blocks; the soak
  // cares about auditor invariants, not byte-exact app output.
  options.tolerate_data_loss = fault_rate > 0.0;
  TextSort app(options);
  app.Run(machine);
  return Finish(machine, snapshot);
}

SoakResult RunThrasher(CompressedSwapKind kind, double fault_rate, bool quick, SoakMode mode,
                       bool snapshot) {
  Machine machine(MakeConfig(kind, fault_rate, mode));
  DisableAbort(machine);
  ThrasherOptions options;
  options.address_space_bytes = quick ? 8 * kMiB : 16 * kMiB;
  options.write = true;
  options.passes = 2;
  Thrasher app(options);
  app.Run(machine);
  return Finish(machine, snapshot);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  SoakMode mode;
  double fault_rate = 0.02;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--pipeline") == 0) {
      mode.pipeline = true;
    } else if (std::strcmp(argv[i], "--tiers") == 0) {
      mode.tiers = true;
    } else if (std::strncmp(argv[i], "--faults=", 9) == 0) {
      fault_rate = std::strtod(argv[i] + 9, nullptr);
    }
  }

  const std::vector<std::pair<std::string, CompressedSwapKind>> backends = {
      {"clustered", CompressedSwapKind::kClustered},
      {"fixed_compressed", CompressedSwapKind::kFixedOffset},
      {"lfs", CompressedSwapKind::kLfs},
  };
  struct Workload {
    std::string name;
    SoakResult (*run)(CompressedSwapKind, double, bool, SoakMode, bool);
  };
  const std::vector<Workload> workloads = {
      {"gold", RunGold}, {"sort", RunSort}, {"thrasher", RunThrasher}};

  BenchReport report("audit_soak", argc, argv);
  report.Config("user_memory_mb", kUserMemory / kMiB);
  report.Config("audit_interval", uint64_t{kAuditInterval});
  report.Config("fault_rate", fault_rate);
  report.Config("quick", quick);
  report.Config("pipeline", mode.pipeline);
  report.Config("tiers", mode.tiers);

  std::printf("audit soak: %zu workloads x %zu backends x {clean, faults=%g}, "
              "audit every %zu faults%s%s\n\n",
              workloads.size(), backends.size(), fault_rate, kAuditInterval,
              mode.pipeline ? ", pipelining ON" : "",
              mode.tiers ? ", NVM+SSD tier cascade ON" : "");
  std::printf("%10s %18s %8s %10s %10s %10s %11s  %s\n", "workload", "backend", "faults",
              "elapsed_s", "vm_faults", "audit_runs", "violations", "first_violation");

  std::vector<std::function<SoakResult()>> jobs;
  for (const Workload& w : workloads) {
    for (const auto& [bname, kind] : backends) {
      for (const double rate : {0.0, fault_rate}) {
        // One representative snapshot: the most stressed configuration.
        const bool snapshot = report.enabled() && w.name == workloads.back().name &&
                              bname == backends.back().first && rate > 0.0;
        const auto run = w.run;
        const auto k = kind;
        jobs.push_back([run, k, rate, quick, mode, snapshot] {
          return run(k, rate, quick, mode, snapshot);
        });
      }
    }
  }
  const std::vector<SoakResult> results = RunSweep(jobs, SweepThreadsFromArgs(argc, argv));

  size_t total_violations = 0;
  size_t job = 0;
  for (const Workload& w : workloads) {
    for (const auto& [bname, kind] : backends) {
      for (const double rate : {0.0, fault_rate}) {
        const SoakResult& r = results[job++];
        total_violations += r.violations;
        if (!r.metrics.empty()) {
          report.MergeMetrics(r.metrics);
        }
        std::printf("%10s %18s %8g %10.3f %10llu %10zu %11zu  %s\n", w.name.c_str(),
                    bname.c_str(), rate, static_cast<double>(r.elapsed_ns) / 1e9,
                    static_cast<unsigned long long>(r.vm_faults), r.audit_runs, r.violations,
                    r.first_violation.c_str());
        report.AddRow()
            .Set("workload", w.name)
            .Set("backend", bname)
            .Set("fault_rate", rate)
            .Set("elapsed_ns", r.elapsed_ns)
            .Set("vm_faults", r.vm_faults)
            .Set("audit_runs", static_cast<uint64_t>(r.audit_runs))
            .Set("violations", static_cast<uint64_t>(r.violations));
      }
    }
  }

  // Top-level counter the JSON validator asserts on: any audit drift anywhere
  // in the matrix fails the artifact check as well as the process exit code.
  report.MergeMetrics({{"audit.violations", static_cast<double>(total_violations)}});

  std::printf("\ntotal violations: %zu\n", total_violations);
  const bool wrote = report.WriteIfEnabled();
  if (total_violations > 0) {
    return 1;
  }
  return wrote ? 0 : 1;
}
