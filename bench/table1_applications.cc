// Table 1: "Application speedups."
//
// Runs each of the paper's application benchmarks on the unmodified system and on
// the compression-cache system and reports, per row:
//   time (std), time (CC), speedup, mean compression of kept pages (% of page),
//   and the fraction of compressed pages that failed the 4:3 threshold
//   ("uncompressible pages").
//
// Paper's rows, for reference (DECstation 5000/200, ~14 MB user memory, RZ57):
//   compare      16:14   6:04  2.68   31%   0.1%
//   isca         43:15  27:00  1.60   32%   1.7%
//   sort partial 13:32  10:24  1.30   30%    49%
//   gold create  14:03  15:38  0.90   59%    42%
//   gold cold    45:30  56:36  0.80   60%    10%
//   sort random  26:17  28:51  0.91   37%    98%
//   gold warm    35:56  49:00  0.73   52%   0.9%
//
// Working sets here are scaled down ~2x (with memory scaled the same way) so the
// whole table regenerates in minutes of host time; the memory-pressure ratios
// match the paper's. Absolute times differ from 1993 hardware; the *shape* —
// which applications win, which lose, and why — is the reproduction target.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "apps/compare.h"
#include "apps/gold.h"
#include "apps/isca.h"
#include "apps/sort.h"
#include "bench_json.h"
#include "core/machine.h"

using namespace compcache;

namespace {

constexpr uint64_t kUserMemory = 8 * kMiB;

// Set in main when --json is active; the compare CC run contributes the
// machine-wide metric snapshot (one representative machine, not all fourteen).
BenchReport* g_report = nullptr;

struct RowResult {
  SimDuration elapsed;
  double kept_ratio_pct = 0;      // mean compressed size of kept pages, % of page
  double uncompressible_pct = 0;  // pages failing 4:3, % of pages compressed
};

Machine MakeMachine(bool use_ccache) {
  MachineConfig config = use_ccache ? MachineConfig::WithCompressionCache(kUserMemory)
                                    : MachineConfig::Unmodified(kUserMemory);
  return Machine(config);
}

RowResult Finish(Machine& machine, SimDuration elapsed) {
  RowResult r;
  r.elapsed = elapsed;
  if (machine.ccache() != nullptr) {
    const auto& s = machine.ccache()->stats();
    r.kept_ratio_pct = machine.metrics().FindHistogram("ccache.kept_ratio_pct")->mean();
    r.uncompressible_pct = s.pages_compressed == 0
                               ? 0.0
                               : 100.0 * static_cast<double>(s.pages_rejected) /
                                     static_cast<double>(s.pages_compressed);
  }
  return r;
}

RowResult RunCompare(bool cc) {
  Machine machine = MakeMachine(cc);
  CompareOptions options;
  options.rows = 48 * 1024;
  options.band_width = 256;  // band = 12 MB of traceback cells vs 8 MB memory
  Compare app(options);
  app.Run(machine);
  if (cc && g_report != nullptr) {
    g_report->MergeMetrics(machine.metrics());
  }
  return Finish(machine, app.result().elapsed);
}

RowResult RunIsca(bool cc) {
  Machine machine = MakeMachine(cc);
  IscaOptions options;
  options.simulated_blocks = 1'300'000;      // ~10.4 MB directory
  options.cache_lines_per_proc = 32 * 1024;  // +2 MB of tag arrays
  options.references = 600'000;
  // The original was "both CPU-intensive and memory-intensive": a detailed
  // coherence simulator spends on the order of 10^4 instructions per reference
  // on a 25-MHz CPU.
  options.cpu_per_reference = SimDuration::Micros(500);
  IscaCacheSim app(options);
  app.Run(machine);
  return Finish(machine, app.result().elapsed);
}

RowResult RunSort(bool cc, SortVariant variant) {
  Machine machine = MakeMachine(cc);
  SortOptions options;
  options.variant = variant;
  options.text_bytes = 7 * kMiB;  // text + refs ~ 12.5 MB vs 8 MB memory
  TextSort app(options);
  app.Run(machine);
  return Finish(machine, app.result().elapsed);
}

struct GoldRows {
  RowResult create;
  RowResult cold;
  RowResult warm;
};

// Per-phase compression statistics are diffs of the machine-wide counters, since
// the three gold rows share one long-running engine (as in the paper, where cold
// and warm queries ran against the same index engine process).
RowResult GoldPhaseRow(Machine& machine, SimDuration elapsed, const CcacheStats& before) {
  RowResult r;
  r.elapsed = elapsed;
  if (machine.ccache() != nullptr) {
    const auto& s = machine.ccache()->stats();
    const uint64_t compressed = s.pages_compressed - before.pages_compressed;
    const uint64_t rejected = s.pages_rejected - before.pages_rejected;
    const uint64_t kept_orig = s.original_bytes_kept - before.original_bytes_kept;
    const uint64_t kept_comp = s.compressed_bytes_kept - before.compressed_bytes_kept;
    r.kept_ratio_pct = kept_orig == 0 ? 0.0
                                      : 100.0 * static_cast<double>(kept_comp) /
                                            static_cast<double>(kept_orig);
    r.uncompressible_pct =
        compressed == 0
            ? 0.0
            : 100.0 * static_cast<double>(rejected) / static_cast<double>(compressed);
  }
  return r;
}

GoldRows RunGold(bool cc) {
  Machine machine = MakeMachine(cc);
  GoldOptions options;
  options.num_messages = 8192;
  options.message_bytes = 2048;  // 16 MB corpus -> index ~1.5x memory
  options.term_table_slots = 1 << 17;
  options.postings_bytes = 16 * kMiB;
  options.num_queries = 3072;

  GoldIndex engine(machine, options);
  engine.PrepareCorpus();
  auto snapshot = [&] {
    return machine.ccache() != nullptr ? machine.ccache()->stats() : CcacheStats{};
  };

  GoldRows rows;
  CcacheStats before = snapshot();
  const GoldPhaseResult create = engine.RunCreate();
  rows.create = GoldPhaseRow(machine, create.elapsed, before);
  before = snapshot();
  const GoldPhaseResult cold = engine.RunQueries();
  rows.cold = GoldPhaseRow(machine, cold.elapsed, before);
  before = snapshot();
  const GoldPhaseResult warm = engine.RunQueries();
  rows.warm = GoldPhaseRow(machine, warm.elapsed, before);
  return rows;
}

void PrintRow(const std::string& name, const RowResult& std_row, const RowResult& cc_row,
              double paper_speedup) {
  const double speedup = static_cast<double>(std_row.elapsed.nanos()) /
                         static_cast<double>(cc_row.elapsed.nanos());
  std::printf("%-13s %9s %9s %8.2f %8.0f%% %10.1f%%   (paper: %.2f)\n", name.c_str(),
              std_row.elapsed.ToMinSec().c_str(), cc_row.elapsed.ToMinSec().c_str(), speedup,
              cc_row.kept_ratio_pct, cc_row.uncompressible_pct, paper_speedup);
  std::fflush(stdout);
  if (g_report != nullptr) {
    g_report->AddRow()
        .Set("application", name)
        .Set("std_seconds", std_row.elapsed.seconds())
        .Set("cc_seconds", cc_row.elapsed.seconds())
        .Set("speedup", speedup)
        .Set("kept_ratio_pct", cc_row.kept_ratio_pct)
        .Set("uncompressible_pct", cc_row.uncompressible_pct)
        .Set("paper_speedup", paper_speedup);
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("table1_applications", argc, argv);
  report.Config("user_memory_mb", kUserMemory / kMiB);
  report.Config("codec", std::string("lzrw1"));
  report.Config("disk", std::string("rz57"));
  g_report = &report;

  std::printf("Table 1: application speedups (%llu MB user memory, RZ57-class disk, LZRW1)\n\n",
              static_cast<unsigned long long>(kUserMemory / kMiB));
  std::printf("%-13s %9s %9s %8s %9s %11s\n", "application", "time(std)", "time(CC)", "speedup",
              "ratio(%)", "uncompr(%)");

  PrintRow("compare", RunCompare(false), RunCompare(true), 2.68);
  PrintRow("isca", RunIsca(false), RunIsca(true), 1.60);
  PrintRow("sort_partial", RunSort(false, SortVariant::kPartial),
           RunSort(true, SortVariant::kPartial), 1.30);

  const GoldRows gold_std = RunGold(false);
  const GoldRows gold_cc = RunGold(true);
  PrintRow("gold_create", gold_std.create, gold_cc.create, 0.90);
  PrintRow("gold_cold", gold_std.cold, gold_cc.cold, 0.80);
  PrintRow("sort_random", RunSort(false, SortVariant::kRandom),
           RunSort(true, SortVariant::kRandom), 0.91);
  PrintRow("gold_warm", gold_std.warm, gold_cc.warm, 0.73);

  std::printf("\nNote: 'ratio' and 'uncompr' come from the CC run's compression statistics;\n");
  std::printf("the std run performs no compression.\n");
  return report.WriteIfEnabled() ? 0 : 1;
}
