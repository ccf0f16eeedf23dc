// Crash-recovery soak: sweeps crash density x compressed-swap backend. Each
// cell runs a deterministic eviction-heavy workload, crashes it at evenly
// spaced power-fail sector ordinals (one machine per crash point), boots a
// recovered machine over each surviving image, and checks the result three
// ways: the cross-subsystem invariant audit must be clean, every recovered page
// must read back as bytes the workload actually wrote (or zeros with the
// segment aborted — the lost ladder), and the recovery.* accounting must cover
// every touched page exactly once. Any violation or content mismatch fails the
// process, so CI treats crash-consistency drift as a hard error.
//
//   --quick       smaller workload and fewer crash points for CI smoke runs
//   --points=<n>  override the dense grid's crash points per cell
//   --json=<path> machine-readable report (schema in DESIGN.md)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "core/machine.h"
#include "sweep_runner.h"

using namespace compcache;

namespace {

constexpr uint64_t kUserMemory = 2 * kMiB;

struct CellResult {
  uint64_t crash_points = 0;
  uint64_t crashes = 0;  // crash points that actually fired (must equal above)
  RecoveryStats totals;  // summed over every recovered machine in the cell
  size_t violations = 0;
  uint64_t content_mismatches = 0;
  std::string first_violation;
  std::vector<std::pair<std::string, double>> metrics;  // representative snapshot
};

// Deterministic, never-all-zero page pattern: compressible first half (so
// pages flow through the compression cache) and random second half (so the
// LFS segment buffer fills and real disk traffic happens).
void FillPattern(std::span<uint8_t> page, uint32_t index, uint32_t version) {
  const size_t half = page.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    page[i] = static_cast<uint8_t>((index * 31 + version * 7 + i / 64) | 1);
  }
  Rng rng(uint64_t{index} * 131 + version);
  for (size_t i = half; i < page.size(); ++i) {
    page[i] = static_cast<uint8_t>(rng.Next());
  }
}

bool MatchesPattern(std::span<const uint8_t> page, uint32_t index, uint32_t version) {
  std::vector<uint8_t> expected(page.size());
  FillPattern(expected, index, version);
  return std::equal(page.begin(), page.end(), expected.begin());
}

bool IsAllZero(std::span<const uint8_t> page) {
  return std::all_of(page.begin(), page.end(), [](uint8_t b) { return b == 0; });
}

MachineConfig MakeConfig(CompressedSwapKind kind) {
  MachineConfig config = MachineConfig::WithCompressionCache(kUserMemory);
  config.compressed_swap = kind;
  config.durability.enabled = true;
  config.fault_injection.enabled = true;
  config.fault_injection.seed = 1993;
  return config;
}

// Two write passes over a working set larger than memory; versions[p] records
// the last version whose write completed before the crash (if any).
void Workload(Machine& machine, Segment* segment, uint32_t num_pages,
              std::vector<uint32_t>* versions) {
  for (uint32_t version = 1; version <= 2; ++version) {
    for (uint32_t p = 0; p < num_pages; ++p) {
      auto span = machine.pager().Access(*segment, p, /*write=*/true);
      FillPattern(span, p, version);
      (*versions)[p] = version;
    }
  }
}

CellResult RunCell(CompressedSwapKind kind, uint64_t points, uint32_t num_pages,
                   bool snapshot) {
  CellResult cell;
  cell.crash_points = points;

  // Dry run: expose the cell's power-fail crash points.
  uint64_t total_sectors = 0;
  {
    Machine machine(MakeConfig(kind));
    Segment* segment = machine.pager().CreateSegment(num_pages);
    std::vector<uint32_t> versions(num_pages, 0);
    Workload(machine, segment, num_pages, &versions);
    total_sectors = machine.fault_injector()->ops(FaultSite::kPowerFail);
  }
  if (total_sectors == 0) {
    cell.first_violation = "workload produced no disk writes";
    ++cell.violations;
    return cell;
  }

  for (uint64_t i = 0; i < points; ++i) {
    const uint64_t crash_sector = total_sectors * (i + 1) / (points + 1) + 1;
    MachineConfig config = MakeConfig(kind);
    config.fault_injection.power_fail_nth_sectors = {crash_sector};

    Machine machine(config);
    Segment* segment = machine.pager().CreateSegment(num_pages);
    std::vector<uint32_t> versions(num_pages, 0);
    bool crashed = false;
    try {
      Workload(machine, segment, num_pages, &versions);
    } catch (const PowerFailure&) {
      crashed = true;
    }
    if (!crashed) {
      continue;  // crash point past the end of the workload's writes
    }
    ++cell.crashes;

    auto recovered = Machine::Recover(machine);
    recovered->auditor().set_abort_on_violation(false);

    const RecoveryStats& stats = recovered->recovery_stats();
    cell.totals.mounts += stats.mounts;
    cell.totals.pages_recovered += stats.pages_recovered;
    cell.totals.pages_lost += stats.pages_lost;
    cell.totals.orphans_discarded += stats.orphans_discarded;
    cell.totals.journal_replays += stats.journal_replays;
    cell.totals.checkpoint_loads += stats.checkpoint_loads;
    cell.totals.torn_writes_detected += stats.torn_writes_detected;
    cell.totals.mount_ns += stats.mount_ns;

    const size_t cycle_violations = recovered->RunAudit();
    cell.violations += cycle_violations;
    if (cycle_violations > 0 && cell.first_violation.empty()) {
      const auto& v = recovered->auditor().last_violations().front();
      cell.first_violation = v.subsystem + "/" + v.invariant + ": " + v.detail;
    }

    // Differential content check: recovered bytes must be a version the
    // workload wrote, or zeros with the segment aborted (the lost ladder).
    Segment* rec_segment = recovered->pager().GetSegment(segment->id());
    for (uint32_t p = 0; p < num_pages; ++p) {
      if (rec_segment->page(p).state == PageState::kUntouched &&
          segment->page(p).state == PageState::kUntouched) {
        continue;
      }
      auto span = recovered->pager().Access(*rec_segment, p, /*write=*/false);
      if (IsAllZero(span)) {
        if (!rec_segment->aborted()) {
          ++cell.content_mismatches;
        }
        continue;
      }
      bool known = false;
      for (uint32_t v = 1; v <= versions[p] && !known; ++v) {
        known = MatchesPattern(span, p, v);
      }
      if (!known) {
        ++cell.content_mismatches;
      }
    }
    cell.violations += recovered->RunAudit();  // the content scan added traffic

    if (snapshot && i + 1 == points) {
      cell.metrics = recovered->metrics().Snapshot();
    }
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  uint64_t points_override = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--points=", 9) == 0) {
      points_override = std::strtoull(argv[i] + 9, nullptr, 10);
    }
  }

  // Large enough that even the LFS backend (508 KB in-memory segment buffer)
  // flushes real segments to disk in every cell.
  const uint32_t num_pages = quick ? 640 : 896;
  // Crash density axis: a sparse and a dense sampling of the same workload.
  std::vector<uint64_t> densities = quick ? std::vector<uint64_t>{2, 5}
                                          : std::vector<uint64_t>{4, 12};
  if (points_override > 0) {
    densities = {std::max<uint64_t>(1, points_override / 3), points_override};
  }

  const std::vector<std::pair<std::string, CompressedSwapKind>> backends = {
      {"clustered", CompressedSwapKind::kClustered},
      {"fixed_compressed", CompressedSwapKind::kFixedOffset},
      {"lfs", CompressedSwapKind::kLfs},
  };

  BenchReport report("crash_soak", argc, argv);
  report.Config("user_memory_mb", kUserMemory / kMiB);
  report.Config("num_pages", uint64_t{num_pages});
  report.Config("quick", quick);

  std::printf("crash soak: %zu backends x %zu crash densities, %u-page workload\n\n",
              backends.size(), densities.size(), num_pages);
  std::printf("%18s %7s %8s %10s %6s %9s %7s %11s %10s\n", "backend", "points", "crashes",
              "recovered", "lost", "replays", "torn", "mismatches", "violations");

  std::vector<std::function<CellResult()>> jobs;
  for (const auto& [bname, kind] : backends) {
    for (const uint64_t points : densities) {
      // One representative snapshot: the densest, most stressed cell.
      const bool snapshot =
          report.enabled() && bname == backends.back().first && points == densities.back();
      const auto k = kind;
      jobs.push_back(
          [k, points, num_pages, snapshot] { return RunCell(k, points, num_pages, snapshot); });
    }
  }
  const std::vector<CellResult> results = RunSweep(jobs, SweepThreadsFromArgs(argc, argv));

  RecoveryStats grid;
  size_t total_violations = 0;
  uint64_t total_mismatches = 0;
  uint64_t total_points = 0;
  uint64_t total_crashes = 0;
  size_t job = 0;
  std::string first_violation;
  for (const auto& [bname, kind] : backends) {
    for (size_t d = 0; d < densities.size(); ++d) {
      const CellResult& r = results[job++];
      total_violations += r.violations;
      total_mismatches += r.content_mismatches;
      total_points += r.crash_points;
      total_crashes += r.crashes;
      grid.mounts += r.totals.mounts;
      grid.pages_recovered += r.totals.pages_recovered;
      grid.pages_lost += r.totals.pages_lost;
      grid.orphans_discarded += r.totals.orphans_discarded;
      grid.journal_replays += r.totals.journal_replays;
      grid.checkpoint_loads += r.totals.checkpoint_loads;
      grid.torn_writes_detected += r.totals.torn_writes_detected;
      grid.mount_ns += r.totals.mount_ns;
      if (first_violation.empty()) {
        first_violation = r.first_violation;
      }
      if (!r.metrics.empty()) {
        report.MergeMetrics(r.metrics);
      }
      std::printf("%18s %7llu %8llu %10llu %6llu %9llu %7llu %11llu %10zu\n", bname.c_str(),
                  static_cast<unsigned long long>(r.crash_points),
                  static_cast<unsigned long long>(r.crashes),
                  static_cast<unsigned long long>(r.totals.pages_recovered),
                  static_cast<unsigned long long>(r.totals.pages_lost),
                  static_cast<unsigned long long>(r.totals.journal_replays),
                  static_cast<unsigned long long>(r.totals.torn_writes_detected),
                  static_cast<unsigned long long>(r.content_mismatches),
                  r.violations);
      report.AddRow()
          .Set("backend", bname)
          .Set("crash_points", r.crash_points)
          .Set("crashes", r.crashes)
          .Set("pages_recovered", r.totals.pages_recovered)
          .Set("pages_lost", r.totals.pages_lost)
          .Set("orphans_discarded", r.totals.orphans_discarded)
          .Set("journal_replays", r.totals.journal_replays)
          .Set("checkpoint_loads", r.totals.checkpoint_loads)
          .Set("torn_writes_detected", r.totals.torn_writes_detected)
          .Set("mount_ns", r.totals.mount_ns)
          .Set("content_mismatches", r.content_mismatches)
          .Set("violations", static_cast<uint64_t>(r.violations));
    }
  }

  // Grid totals override the representative snapshot's per-machine values so
  // the JSON validator asserts on the whole sweep (schema: recovery.* are
  // counters, audit.violations must be 0, crash_soak requires the full
  // recovery metric set).
  report.MergeMetrics({
      {"recovery.mounts", static_cast<double>(grid.mounts)},
      {"recovery.pages_recovered", static_cast<double>(grid.pages_recovered)},
      {"recovery.pages_lost", static_cast<double>(grid.pages_lost)},
      {"recovery.orphans_discarded", static_cast<double>(grid.orphans_discarded)},
      {"recovery.journal_replays", static_cast<double>(grid.journal_replays)},
      {"recovery.checkpoint_loads", static_cast<double>(grid.checkpoint_loads)},
      {"recovery.torn_writes_detected", static_cast<double>(grid.torn_writes_detected)},
      {"recovery.mount_ns", static_cast<double>(grid.mount_ns)},
      {"recovery.content_mismatches", static_cast<double>(total_mismatches)},
      {"audit.violations", static_cast<double>(total_violations)},
  });

  std::printf("\ncrash points fired: %llu / %llu, pages recovered: %llu, lost: %llu, "
              "mismatches: %llu, violations: %zu\n",
              static_cast<unsigned long long>(total_crashes),
              static_cast<unsigned long long>(total_points),
              static_cast<unsigned long long>(grid.pages_recovered),
              static_cast<unsigned long long>(grid.pages_lost),
              static_cast<unsigned long long>(total_mismatches), total_violations);
  if (!first_violation.empty()) {
    std::printf("first violation: %s\n", first_violation.c_str());
  }

  const bool wrote = report.WriteIfEnabled();
  if (total_violations > 0 || total_mismatches > 0 || total_crashes == 0 ||
      grid.pages_recovered == 0) {
    return 1;
  }
  return report.enabled() && !wrote ? 1 : 0;
}
