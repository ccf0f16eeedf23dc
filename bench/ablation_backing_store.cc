// Ablation: the backing-store interface (paper section 4.3).
//
// The paper weighs several designs for moving variable-sized compressed pages to
// disk and lands on 1 KB fragments written 32 KB at a time, with block spanning
// parameterized. This benchmark measures, on the beyond-memory thrashing regime
// (where backing-store traffic dominates):
//   * clustered write batch size (per-fault synchronous writes vs 8/32/128 KB);
//   * block spanning allowed vs disallowed, on pointer-array pages under the
//     WK codec: each kept image needs 3 fragments, so forbidding spanning pads
//     every second one (under LZRW1 each content class keeps its images at a
//     uniform 1 or 2 fragments, which never straddle a block, so nothing pads);
//   * the file system's partial-block write pathology vs the "modify the file
//     system" alternative (no read-modify-write);
//   * coresident insertion (the free pages that arrive in a block read) on vs off.
//
// --json=<path> writes one row per variant: its axis and label, the virtual
// elapsed_ns, and, for the clustered layout, that machine's allocator counters
// (blocks_reused, blocks_appended, free_blocks, free_runs, pages_read). The
// paper's design (clustered fragments, default options) publishes its full
// metric snapshot. That machine is also the 32 KB batch and coresidents-on
// variant; it runs once and prints under each of those axes.
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "apps/thrasher.h"
#include "bench_json.h"
#include "core/machine.h"
#include "sweep_runner.h"

using namespace compcache;

namespace {

constexpr uint64_t kUserMemory = 4 * kMiB;

struct RunResult {
  SimDuration elapsed;
  // The clustered layout's allocator state at the end of the run; absent for
  // the other layouts.
  bool clustered = false;
  ClusteredSwapStats swap;
  uint64_t free_blocks = 0;
  uint64_t free_runs = 0;
  std::vector<std::pair<std::string, double>> metrics;  // representative run only
};

RunResult Run(MachineConfig config, ContentClass content, bool snapshot_metrics) {
  Machine machine(std::move(config));
  ThrasherOptions options;
  options.address_space_bytes = 24 * kMiB;  // far beyond memory even compressed
  options.write = true;
  options.passes = 1;
  options.content = content;
  Thrasher app(options);
  app.Run(machine);
  RunResult result;
  result.elapsed = app.result().elapsed;
  if (const ClusteredSwapLayout* swap = machine.clustered_swap(); swap != nullptr) {
    result.clustered = true;
    result.swap = swap->stats();
    result.free_blocks = swap->free_blocks();
    result.free_runs = swap->free_runs();
  }
  if (snapshot_metrics) {
    result.metrics = machine.metrics().Snapshot();
  }
  return result;
}

// "  fixed offsets, modified fs:   " -> "fixed offsets, modified fs".
std::string Trimmed(const std::string& label) {
  const size_t first = label.find_first_not_of(' ');
  const size_t last = label.find_last_not_of(": ");
  return label.substr(first, last - first + 1);
}

MachineConfig Base() { return MachineConfig::WithCompressionCache(kUserMemory); }

}  // namespace

int main(int argc, char** argv) {
  std::printf("Ablation: backing-store interface (4 MB machine, 24 MB rw working set)\n\n");
  BenchReport report("ablation_backing_store", argc, argv);
  report.Config("user_memory_mb", kUserMemory / kMiB);
  report.Config("working_set_mb", uint64_t{24});
  report.Config("content", std::string("sparse_numeric"));
  report.Config("block_spanning_content",
                std::string(ContentClassName(ContentClass::kPointerArray)));
  report.Config("block_spanning_codec", std::string("wk"));

  // Every distinct machine is one sweep job; fan out once, then print the rows
  // in variant order, each from the job it names.
  std::vector<std::function<RunResult()>> jobs;
  const auto add_job = [&](MachineConfig config,
                           ContentClass content = ContentClass::kSparseNumeric,
                           bool snapshot = false) {
    jobs.push_back([config = std::move(config), content, snapshot] {
      return Run(config, content, snapshot);
    });
    return jobs.size() - 1;
  };
  struct Variant {
    const char* axis;
    std::string label;
    size_t job;
  };
  std::vector<Variant> variants;
  const size_t base = add_job(Base(), ContentClass::kSparseNumeric, /*snapshot=*/true);

  for (const uint32_t kb : {4u, 8u, 32u, 128u}) {
    MachineConfig config = Base();
    config.write_batch_bytes = kb * 1024;
    char label[32];
    std::snprintf(label, sizeof(label), "  %4u KB: ", kb);
    variants.push_back(
        {"write_batch", label, kb * 1024 == kSwapWriteBatch ? base : add_job(std::move(config))});
  }
  for (const bool spanning : {true, false}) {
    MachineConfig config = Base();
    config.codec = "wk";
    config.allow_block_spanning = spanning;
    variants.push_back({"block_spanning", spanning ? "  allowed:   " : "  forbidden: ",
                        add_job(std::move(config), ContentClass::kPointerArray)});
  }
  variants.push_back({"swap_layout", "  clustered fragments:               ", base});
  {
    MachineConfig config = Base();
    config.compressed_swap = CompressedSwapKind::kFixedOffset;
    variants.push_back(
        {"swap_layout", "  fixed offsets, Sprite fs (RMW):    ", add_job(std::move(config))});
  }
  {
    MachineConfig config = Base();
    config.compressed_swap = CompressedSwapKind::kFixedOffset;
    config.fs_options.allow_partial_block_write = true;
    variants.push_back(
        {"swap_layout", "  fixed offsets, modified fs:        ", add_job(std::move(config))});
  }
  {
    // Paper 4.3/5.1: paging into an LFS-style log gets the big sequential
    // writes but pays segment-cleaning copies and buffer memory.
    MachineConfig config = Base();
    config.compressed_swap = CompressedSwapKind::kLfs;
    variants.push_back(
        {"swap_layout", "  LFS-style log:                     ", add_job(std::move(config))});
  }
  for (const bool insert : {true, false}) {
    MachineConfig config = Base();
    config.insert_coresidents = insert;
    variants.push_back({"coresidents", insert ? "  on:        " : "  off:       ",
                        insert ? base : add_job(std::move(config))});
  }

  const std::vector<RunResult> results = RunSweep(jobs, SweepThreadsFromArgs(argc, argv));

  report.MergeMetrics(results[base].metrics);
  size_t i = 0;
  const auto print_next = [&] {
    const Variant& v = variants[i];
    const RunResult& r = results[v.job];
    std::printf("%s%s\n", v.label.c_str(), r.elapsed.ToMinSec().c_str());
    BenchReport::Row& row = report.AddRow();
    row.Set("axis", v.axis)
        .Set("label", Trimmed(v.label))
        .Set("elapsed_ns", static_cast<uint64_t>(r.elapsed.nanos()));
    if (r.clustered) {
      row.Set("blocks_reused", r.swap.blocks_reused)
          .Set("blocks_appended", r.swap.blocks_appended)
          .Set("free_blocks", r.free_blocks)
          .Set("free_runs", r.free_runs)
          .Set("pages_read", r.swap.pages_read);
    }
    ++i;
  };
  std::printf("write batch size (clustered fragments written per operation):\n");
  for (int n = 0; n < 4; ++n) {
    print_next();
  }
  std::printf("\nblock spanning (WK on pointer-array pages, 3 fragments each):\n");
  for (int n = 0; n < 2; ++n) {
    print_next();
  }
  std::printf(
      "\nswap layout (paper section 4.3's design alternatives):\n"
      "  clustered fragments is the paper's design; fixed-offset transfers just\n"
      "  the compressed bytes at the page's old location, which the Sprite file\n"
      "  system turns into a 4 KB read + 4 KB write per page (RMW); the\n"
      "  'modified fs' variant writes partial blocks without the read.\n");
  for (int n = 0; n < 4; ++n) {
    print_next();
  }
  std::printf("\ncoresident insertion (free pages in a fetched block):\n");
  for (int n = 0; n < 2; ++n) {
    print_next();
  }
  return report.WriteIfEnabled() ? 0 : 1;
}
