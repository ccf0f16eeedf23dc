// Ablation: the compression algorithm (paper section 3: "it should allow
// different compression algorithms to be used for different types of data, in
// order to get the best compression rates and/or throughput").
//
// Three measurements, covering every registered codec plus the adaptive
// per-page picker:
//
//   1. Host microbench: real (std::chrono) compress/decompress throughput and
//      the compression ratio over a fixed mixed corpus (sparse numeric, text,
//      pointer-array pages). These are the numbers the README codec table
//      quotes and the numbers that back the cost model's bandwidth parameters.
//   2. LZRW1 hash-table size (paper section 4.4): the same host microbench of
//      LZRW1 at 2^8 .. 2^18 table entries, trading table memory for ratio.
//   3. Simulated thrash sweep: the same 2x-memory thrashing workload run with
//      each codec over the three content classes, reporting *virtual* elapsed
//      time — where the byte-oriented LZRW1 fails the 4:3 threshold on
//      pointer arrays but the word-oriented WK keeps the pages in memory, and
//      FPC's small-integer classes crush the sparse numeric pages.
//
// --json=<path> writes one row per codec with ratio_pct, compress_mbps,
// decompress_mbps, and the three simulated cell times; the adaptive row also
// carries the probe's pick counts. One row per LZRW1 table size follows, with
// lzrw1_hash_bits, table_kib, ratio_pct and compress_mbps.
// bench/check_bench_json.py enforces the per-codec field set. --quick halves
// the work for smoke runs.
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "apps/thrasher.h"
#include "bench_json.h"
#include "compress/adaptive.h"
#include "compress/lzrw1.h"
#include "compress/pagegen.h"
#include "compress/registry.h"
#include "core/machine.h"
#include "sweep_runner.h"
#include "util/rng.h"

using namespace compcache;

namespace {

constexpr uint64_t kUserMemory = 4 * kMiB;
constexpr size_t kPagesPerClass = 32;

using WallClock = std::chrono::steady_clock;

double SecondsSince(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

struct ContentSpec {
  ContentClass cls;
  const char* name;  // row/metric suffix: lower_snake
  const char* label; // table header
};

constexpr ContentSpec kContents[] = {
    {ContentClass::kSparseNumeric, "sparse", "sparse numeric"},
    {ContentClass::kText, "text", "text"},
    {ContentClass::kPointerArray, "pointer", "pointer array"},
};
constexpr size_t kNumContents = std::size(kContents);

// The mixed corpus: kPagesPerClass pages per content class, deterministic.
std::vector<uint8_t> MakeCorpus() {
  std::vector<uint8_t> corpus(kNumContents * kPagesPerClass * kPageSize);
  for (size_t c = 0; c < kNumContents; ++c) {
    Rng rng(1000 + c);
    for (size_t p = 0; p < kPagesPerClass; ++p) {
      const size_t page = c * kPagesPerClass + p;
      FillPage(std::span<uint8_t>(corpus.data() + page * kPageSize, kPageSize),
               kContents[c].cls, rng);
    }
  }
  return corpus;
}

struct HostResult {
  double ratio_pct = 0;  // compressed/original over the whole mixed corpus
  std::array<double, kNumContents> ratio_by_class{};
  double compress_mbps = 0;
  double decompress_mbps = 0;
};

// Host throughput and ratio of one codec over the mixed corpus. The first
// full pass doubles as warm-up (scratch growth off the clock) and records the
// per-page compressed images the decompress timing replays.
HostResult MeasureHost(Codec& codec, const std::vector<uint8_t>& corpus, int reps) {
  const size_t pages = corpus.size() / kPageSize;
  HostResult r;

  std::vector<std::vector<uint8_t>> images(pages);
  std::array<uint64_t, kNumContents> class_out{};
  uint64_t total_out = 0;
  for (size_t p = 0; p < pages; ++p) {
    images[p].resize(codec.MaxCompressedSize(kPageSize));
    const auto src = std::span<const uint8_t>(corpus.data() + p * kPageSize, kPageSize);
    const size_t c = codec.Compress(src, images[p]);
    images[p].resize(c);
    class_out[p / kPagesPerClass] += c;
    total_out += c;
  }
  r.ratio_pct = 100.0 * static_cast<double>(total_out) /
                static_cast<double>(pages * kPageSize);
  for (size_t c = 0; c < kNumContents; ++c) {
    r.ratio_by_class[c] = 100.0 * static_cast<double>(class_out[c]) /
                          static_cast<double>(kPagesPerClass * kPageSize);
  }

  std::vector<uint8_t> out(codec.MaxCompressedSize(kPageSize));
  uint64_t sink = 0;  // keeps the timed loops observable
  const WallClock::time_point cstart = WallClock::now();
  for (int i = 0; i < reps; ++i) {
    for (size_t p = 0; p < pages; ++p) {
      const auto src = std::span<const uint8_t>(corpus.data() + p * kPageSize, kPageSize);
      sink += codec.Compress(src, out);
    }
  }
  const double csecs = SecondsSince(cstart);
  r.compress_mbps = static_cast<double>(reps) * static_cast<double>(pages * kPageSize) /
                    (1024.0 * 1024.0) / csecs;

  std::vector<uint8_t> page(kPageSize);
  const WallClock::time_point dstart = WallClock::now();
  for (int i = 0; i < reps; ++i) {
    for (size_t p = 0; p < pages; ++p) {
      codec.Decompress(images[p], page);
      sink += page[0];
    }
  }
  const double dsecs = SecondsSince(dstart);
  r.decompress_mbps = static_cast<double>(reps) * static_cast<double>(pages * kPageSize) /
                      (1024.0 * 1024.0) / dsecs;

  if (sink == 0) std::printf("(unreachable sink)\n");
  return r;
}

// One simulated thrashing machine: 4 MB of memory, 8 MB rw working set.
SimDuration RunSim(const std::string& codec, ContentClass content, int passes) {
  MachineConfig config = MachineConfig::WithCompressionCache(kUserMemory);
  config.codec = codec;
  Machine machine(config);
  ThrasherOptions options;
  options.address_space_bytes = 2 * kUserMemory;
  options.write = true;
  options.passes = passes;
  options.content = content;
  Thrasher app(options);
  app.Run(machine);
  return app.result().elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const int host_reps = quick ? 2 : 8;
  const int sim_passes = quick ? 1 : 2;

  BenchReport report("ablation_codec", argc, argv);
  report.Config("user_memory_mb", kUserMemory / kMiB);
  report.Config("corpus_pages_per_class", static_cast<uint64_t>(kPagesPerClass));
  report.Config("host_reps", static_cast<uint64_t>(host_reps));
  report.Config("sim_passes", static_cast<uint64_t>(sim_passes));
  report.Config("quick", quick);

  const std::vector<std::string> codecs = KnownCodecNames();
  const std::vector<uint8_t> corpus = MakeCorpus();

  // --- host microbench: ratio + real compress/decompress throughput ---
  std::printf("Codec suite: ratio and host throughput (%zu-page mixed corpus)\n\n",
              corpus.size() / kPageSize);
  std::printf("%-10s %9s %9s %9s %9s %12s %12s\n", "codec", "ratio%", "sparse%",
              "text%", "ptr%", "comp MB/s", "decomp MB/s");
  std::vector<HostResult> host(codecs.size());
  AdaptiveCodec adaptive;  // held here so the probe's pick counts survive
  for (size_t i = 0; i < codecs.size(); ++i) {
    if (codecs[i] == "adaptive") {
      host[i] = MeasureHost(adaptive, corpus, host_reps);
    } else {
      auto codec = MakeCodec(codecs[i]);
      host[i] = MeasureHost(*codec, corpus, host_reps);
    }
    const HostResult& h = host[i];
    std::printf("%-10s %9.1f %9.1f %9.1f %9.1f %12.1f %12.1f\n", codecs[i].c_str(),
                h.ratio_pct, h.ratio_by_class[0], h.ratio_by_class[1],
                h.ratio_by_class[2], h.compress_mbps, h.decompress_mbps);
  }
  std::printf("\nadaptive picks:");
  for (size_t k = 0; k < AdaptiveCodec::kNumPicks; ++k) {
    std::printf(" %s=%llu", AdaptiveCodec::PickName(static_cast<AdaptiveCodec::Pick>(k)),
                static_cast<unsigned long long>(adaptive.pick_counts()[k]));
  }
  std::printf("\n\n");

  // --- LZRW1 hash-table size: table memory against ratio (paper 4.4) ---
  constexpr unsigned kHashBits[] = {8, 10, 12, 14, 16, 18};
  std::printf("LZRW1 hash-table size (same corpus)\n\n");
  std::printf("%-10s %9s %9s %12s\n", "hash bits", "table KiB", "ratio%", "comp MB/s");
  std::vector<HostResult> by_bits;
  std::vector<size_t> table_kib;
  for (const unsigned bits : kHashBits) {
    Lzrw1 lzrw1(bits);
    by_bits.push_back(MeasureHost(lzrw1, corpus, host_reps));
    table_kib.push_back(lzrw1.hash_table_bytes() / 1024);
    std::printf("%-10u %9zu %9.1f %12.1f\n", bits, table_kib.back(), by_bits.back().ratio_pct,
                by_bits.back().compress_mbps);
  }
  std::printf("\n");

  // --- simulated thrash sweep: one independent machine per (codec, content)
  // cell, fanned across the pool; the table prints afterwards, in cell order.
  std::printf("Simulated thrashing (4 MB machine, 8 MB rw working set, %d pass%s)\n\n",
              sim_passes, sim_passes == 1 ? "" : "es");
  std::vector<std::function<SimDuration()>> jobs;
  for (const std::string& codec : codecs) {
    for (const ContentSpec& cell : kContents) {
      jobs.push_back(
          [&codec, content = cell.cls, sim_passes] { return RunSim(codec, content, sim_passes); });
    }
  }
  const std::vector<SimDuration> cells = RunSweep(jobs, SweepThreadsFromArgs(argc, argv));

  std::printf("%-10s", "codec");
  for (const ContentSpec& c : kContents) {
    std::printf(" %16s", c.label);
  }
  std::printf("\n");
  size_t cell = 0;
  for (const std::string& codec : codecs) {
    std::printf("%-10s", codec.c_str());
    for (size_t c = 0; c < kNumContents; ++c) {
      std::printf(" %16s", cells[cell++].ToMinSec().c_str());
    }
    std::printf("\n");
  }
  std::printf(
      "\nNo single codec dominates: WK keeps the pointer-array pages LZRW1 rejects;\n"
      "FPC wins on small-integer data; LZRW1 wins on text; the adaptive picker\n"
      "tracks the best of its members per content class.\n");

  // --- JSON: one row per codec; adaptive carries its pick counts ---
  for (size_t i = 0; i < codecs.size(); ++i) {
    const HostResult& h = host[i];
    BenchReport::Row& row = report.AddRow();
    row.Set("codec", codecs[i])
        .Set("ratio_pct", h.ratio_pct)
        .Set("compress_mbps", h.compress_mbps)
        .Set("decompress_mbps", h.decompress_mbps);
    for (size_t c = 0; c < kNumContents; ++c) {
      row.Set(std::string("ratio_") + kContents[c].name + "_pct", h.ratio_by_class[c]);
    }
    for (size_t c = 0; c < kNumContents; ++c) {
      row.Set(std::string("sim_") + kContents[c].name + "_ns",
              static_cast<uint64_t>(cells[i * kNumContents + c].nanos()));
    }
    if (codecs[i] == "adaptive") {
      for (size_t k = 0; k < AdaptiveCodec::kNumPicks; ++k) {
        row.Set(std::string("pick_") +
                    AdaptiveCodec::PickName(static_cast<AdaptiveCodec::Pick>(k)),
                adaptive.pick_counts()[k]);
      }
    }
    report.MergeMetrics(
        {{"wall_clock.compress_mbps." + codecs[i], host[i].compress_mbps},
         {"wall_clock.decompress_mbps." + codecs[i], host[i].decompress_mbps}});
  }
  for (size_t i = 0; i < std::size(kHashBits); ++i) {
    report.AddRow()
        .Set("lzrw1_hash_bits", static_cast<uint64_t>(kHashBits[i]))
        .Set("table_kib", static_cast<uint64_t>(table_kib[i]))
        .Set("ratio_pct", by_bits[i].ratio_pct)
        .Set("compress_mbps", by_bits[i].compress_mbps);
  }

  // A representative machine run with the adaptive codec, so the JSON
  // snapshot carries the ccache.* counters (and the auditor's clean bill)
  // alongside the throughput numbers.
  MachineConfig rep_config = MachineConfig::WithCompressionCache(kUserMemory);
  rep_config.codec = "adaptive";
  Machine rep(rep_config);
  ThrasherOptions rep_options;
  rep_options.address_space_bytes = 2 * kUserMemory;
  rep_options.write = true;
  rep_options.passes = 1;
  rep_options.content = ContentClass::kText;
  Thrasher rep_app(rep_options);
  rep_app.Run(rep);
  report.MergeMetrics(rep.metrics());

  return report.WriteIfEnabled() ? 0 : 1;
}
