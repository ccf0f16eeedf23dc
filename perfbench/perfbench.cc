// Repository benchmark for the compression-cache simulator.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE] [--short]
//
// Runs one workload on the public Machine/App API, single process and single
// thread. Each trial builds a fresh machine, populates and warms it (set-up,
// ending at Machine::ResetStats), then runs a fixed number of ops (the
// measured window). Trials cycle through several inputs derived from the seed
// until --seconds of wall time is used; a host figure is the best repeat of
// each input, then the median over inputs. Every repeat of an input must
// produce that input's virtual-time digest.
//
// --trace 0 reports the end-to-end host metrics. --trace 1 alternates
// untraced and traced trials, records phase/step/probe spans in memory
// (written to --trace-out at the end), times each layer's public functions in
// standalone probes, and reports the per-layer metrics. perfbench/README.md
// lists every metric, its clock, its layer and what should move it.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. The exit code is non-zero when the correctness gate fails.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/kv_server.h"
#include "apps/thrasher.h"
#include "compress/pagegen.h"
#include "compress/registry.h"
#include "core/machine.h"
#include "util/arena.h"
#include "util/checksum.h"

using namespace compcache;

namespace {

using HostClock = std::chrono::steady_clock;

double SecondsBetween(HostClock::time_point a, HostClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// CPU time of the calling thread (user + system). Host figures use it rather
// than wall time: on a shared machine wall time also counts the intervals in
// which the simulator was not scheduled at all.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------- workloads

enum class Kind { kThrash, kKv };

struct Workload {
  std::string name;
  uint64_t seed = 0;
  Kind kind = Kind::kThrash;
  MachineConfig config;
  ThrasherOptions thrash;
  KvServerOptions kv;
  ContentClass content = ContentClass::kSparseNumeric;
  const char* ops_name = "page touches";
  uint64_t warm_ops = 0;     // warm-up ops, part of set-up
  uint64_t measure_ops = 0;  // fixed op count of the measured window
  int inputs = 8;            // distinct inputs per untraced run (see SubSeed)
};

// Thrash workloads: the 6 MiB machine with sparse-numeric (~4:1) pages under
// LZRW1, clustered swap, no pipeline. One warm-up pass after population.
Workload Thrash(std::string name, bool write, uint64_t address_mib, int measure_passes,
                uint64_t seed) {
  Workload w;
  w.name = std::move(name);
  w.seed = seed;
  w.kind = Kind::kThrash;
  w.config = MachineConfig::WithCompressionCache(6 * kMiB);
  w.thrash.address_space_bytes = address_mib * kMiB;
  w.thrash.write = write;
  w.thrash.content = ContentClass::kSparseNumeric;
  w.thrash.seed = seed;
  w.thrash.passes = 1 + measure_passes;
  w.content = w.thrash.content;
  const uint64_t pages = w.thrash.address_space_bytes / kPageSize;
  w.warm_ops = pages;
  w.measure_ops = pages * static_cast<uint64_t>(measure_passes);
  return w;
}

// KV workload: 8 MiB machine, 4096 x 2 KiB slots, Zipf 0.99, 90/10 gets/sets,
// text values, open-loop arrivals 1 ms apart on average. The diurnal period and
// flash crowds are fixed in requests so that every window length sees the same
// traffic shape; the window holds whole diurnal periods. Write-behind depth 4
// and decompress-ahead are on. The warm-up covers the ~300k-request climb of
// the fault rate to its plateau.
Workload Kv(uint64_t seed, bool short_run) {
  Workload w;
  w.name = "kv_zipf";
  w.seed = seed;
  w.kind = Kind::kKv;
  w.ops_name = "requests";
  w.config = MachineConfig::WithCompressionCache(8 * kMiB);
  w.config.pipeline.enabled = true;
  w.config.pipeline.write_behind_depth = 4;
  w.config.pipeline.prefetch = true;
  w.config.pipeline.prefetch_buffer_pages = 8;
  w.config.pipeline.prefetch_per_fault = 1;
  w.config.pipeline.fault_batch_window = 2;
  KvServerOptions& o = w.kv;
  o.workload.num_keys = 4096;
  o.slot_bytes = 2048;
  o.workload.zipf_s = 0.99;
  o.workload.get_fraction = 0.9;
  o.workload.mean_interarrival = SimDuration::Micros(1000);
  o.workload.diurnal_period_requests = 12000;
  o.workload.diurnal_amplitude = 0.5;
  o.workload.flash_period_requests = 6000;
  o.workload.flash_len_requests = 600;
  o.workload.seed = seed;
  o.value_content = ContentClass::kText;
  w.content = o.value_content;
  // Multiples of the 64-request step and of the 12k-request diurnal period;
  // each half of the window holds four whole periods.
  w.warm_ops = short_run ? 24000 : 312000;
  w.measure_ops = short_run ? 24000 : 96000;
  // The key permutation a seed draws moves host cost per request by +-10%,
  // so a run averages over more of them than the thrashers need.
  w.inputs = 16;
  o.num_requests = w.warm_ops + w.measure_ops;
  return w;
}

// `short_run` shrinks the windows and the input count for the self-test.
std::optional<Workload> MakeWorkload(std::string_view name, uint64_t seed, bool short_run) {
  std::optional<Workload> w;
  if (name == "thrash_rw_ccache") {
    w = Thrash("thrash_rw_ccache", /*write=*/true, 8, short_run ? 2 : 20, seed);
  } else if (name == "thrash_ro_swap") {
    w = Thrash("thrash_ro_swap", /*write=*/false, 30, short_run ? 1 : 8, seed);
  } else if (name == "kv_zipf") {
    w = Kv(seed, short_run);
  }
  if (w && short_run) {
    w->inputs = 2;
  }
  return w;
}

// One trial's application: the Thrasher or the KvServer, stepped by the trial.
class TrialApp {
 public:
  explicit TrialApp(const Workload& w) {
    if (w.kind == Kind::kThrash) {
      thrasher_ = std::make_unique<Thrasher>(w.thrash);
    } else {
      kv_ = std::make_unique<KvServer>(w.kv);
    }
  }
  bool Step(Machine& m) { return thrasher_ ? thrasher_->Step(m) : kv_->Step(m); }
  uint64_t ops() const {
    return thrasher_ ? thrasher_->result().page_touches : kv_->result().requests;
  }
  uint64_t validation_failures() const { return kv_ ? kv_->result().validation_failures : 0; }

 private:
  std::unique_ptr<Thrasher> thrasher_;
  std::unique_ptr<KvServer> kv_;
};

// ------------------------------------------------------------------ metrics

using Snapshot = std::map<std::string, double>;

Snapshot Take(const Machine& m) {
  const auto flat = m.metrics().Snapshot();
  return Snapshot(flat.begin(), flat.end());
}

// Registry names the benchmark reads; a rename must fail the run, not read 0.
std::vector<std::string> RequiredNames(const Workload& w) {
  std::vector<std::string> names = {
      "clock.now_ns", "clock.cpu_ns", "clock.compress_ns", "clock.decompress_ns",
      "clock.copy_ns", "clock.io_ns", "vm.accesses", "vm.faults", "vm.faults_from_ccache",
      "vm.faults_from_swap", "vm.faults_prefetch_hit", "vm.faults_zero_fill", "vm.evictions",
      "vm.pages_lost", "ccache.pages_compressed", "ccache.pages_kept", "ccache.zero_pages",
      "ccache.fault_hits", "ccache.zero_fault_hits", "ccache.inserted_from_swap",
      "ccache.frames_mapped_peak", "ccache.original_bytes_kept", "ccache.compressed_bytes_kept",
      "swap.clustered.pages_read", "swap.clustered.pages_written",
      "swap.clustered.batches_written", "swap.clustered.readahead_blocks_read",
      "swap.clustered.coresident_pages_returned", "disk.read_ops", "disk.write_ops",
      "disk.busy_ns", "disk.queue_wait_ns"};
  if (w.config.pipeline.enabled) {
    for (const char* n : {"prefetch.issued", "prefetch.hits", "prefetch.misses",
                          "pipeline.stall_ns"}) {
      names.emplace_back(n);
    }
  }
  if (w.kind == Kind::kKv) {
    names.emplace_back("kv.requests");
  }
  return names;
}

double Get(const Snapshot& s, const std::string& name) {
  const auto it = s.find(name);
  return it == s.end() ? 0.0 : it->second;
}

// Power-of-two bucket counts of a LatencyHistogram, so that a window's
// distribution is the difference of two captures.
struct Buckets {
  std::array<double, LatencyHistogram::kNumBuckets> n{};
  double count = 0;
};

Buckets Capture(const LatencyHistogram* h) {
  Buckets b;
  if (h != nullptr) {
    for (size_t i = 0; i < b.n.size(); ++i) {
      b.n[i] = static_cast<double>(h->bucket_count(i));
      b.count += b.n[i];
    }
  }
  return b;
}

Buckets Minus(const Buckets& a, const Buckets& b) {
  Buckets d;
  for (size_t i = 0; i < d.n.size(); ++i) {
    d.n[i] = a.n[i] - b.n[i];
    d.count += d.n[i];
  }
  return d;
}

// Same estimate as LatencyHistogram::Percentile (linear inside the pow2 bucket
// holding the rank), without the clamp to the sampled min/max, which a window
// difference does not have.
double Percentile(const Buckets& b, double p) {
  if (b.count <= 0) {
    return 0.0;
  }
  const double rank = p / 100.0 * b.count;
  double cumulative = 0.0;
  for (size_t i = 0; i < b.n.size(); ++i) {
    if (b.n[i] <= 0) {
      continue;
    }
    if (cumulative + b.n[i] >= rank) {
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
      const double hi = std::ldexp(1.0, static_cast<int>(i));
      return lo + (rank - cumulative) / b.n[i] * (hi - lo);
    }
    cumulative += b.n[i];
  }
  return 0.0;
}

// ------------------------------------------------------------------ tracing

// Per-step deltas carried by every `step` span.
constexpr std::array<const char*, 12> kStepFields = {
    "faults_ccache", "faults_swap", "faults_prefetch", "faults_zero", "disk_reads",
    "disk_writes",   "prefetch_issued", "vt_cpu_ns",  "vt_compress_ns", "vt_decompress_ns",
    "vt_copy_ns",    "vt_io_ns"};
using StepCounters = std::array<int64_t, kStepFields.size()>;

StepCounters ReadStepCounters(Machine& m) {
  const VmStats& vm = m.pager().stats();
  const DiskStats& disk = m.disk().stats();
  const Clock& clock = m.clock();
  const int64_t issued =
      m.pipeline() != nullptr ? static_cast<int64_t>(m.pipeline()->stats().issued) : 0;
  return {static_cast<int64_t>(vm.faults_from_ccache),
          static_cast<int64_t>(vm.faults_from_swap),
          static_cast<int64_t>(vm.faults_prefetch_hit),
          static_cast<int64_t>(vm.faults_zero_fill),
          static_cast<int64_t>(disk.read_ops),
          static_cast<int64_t>(disk.write_ops),
          issued,
          clock.TimeIn(TimeCategory::kCpu).nanos(),
          clock.TimeIn(TimeCategory::kCompression).nanos(),
          clock.TimeIn(TimeCategory::kDecompression).nanos(),
          clock.TimeIn(TimeCategory::kCopy).nanos(),
          clock.TimeIn(TimeCategory::kIo).nanos()};
}

struct Span {
  std::string name;
  int parent = -1;  // index of the enclosing span, -1 for a root
  int trial = -1;   // trial number; -1 for probe spans
  int64_t start_ns = 0;  // host ns since the run started
  int64_t end_ns = 0;
  bool has_counters = false;
  StepCounters counters{};  // step spans: deltas over the step
  const char* probe_op = "";  // probe spans: the timed function
  double per_unit_ns = 0;     // probe spans: host ns per unit of work
  const char* unit = "";
};

// Spans kept in memory; written out once the run ends.
class SpanLog {
 public:
  explicit SpanLog(HostClock::time_point origin) : origin_(origin) {}

  int Open(std::string name, int parent, int trial) {
    Span s;
    s.name = std::move(name);
    s.parent = parent;
    s.trial = trial;
    s.start_ns = Now();
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id) { spans_[static_cast<size_t>(id)].end_ns = Now(); }
  Span& at(int id) { return spans_[static_cast<size_t>(id)]; }

  bool WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"trial\":%d,"
                   "\"start_ns\":%lld,\"end_ns\":%lld",
                   i, s.name.c_str(), s.parent, s.trial, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
      if (s.has_counters) {
        for (size_t k = 0; k < kStepFields.size(); ++k) {
          std::fprintf(f, ",\"%s\":%lld", kStepFields[k],
                       static_cast<long long>(s.counters[k]));
        }
      }
      if (s.unit[0] != '\0') {
        std::fprintf(f, ",\"op\":\"%s\",\"ns_per_%s\":%.6g", s.probe_op, s.unit,
                     s.per_unit_ns);
      }
      std::fprintf(f, "}\n");
    }
    return std::fclose(f) == 0;
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(HostClock::now() - origin_)
        .count();
  }
  HostClock::time_point origin_;
  std::vector<Span> spans_;
};

// -------------------------------------------------------------------- trial

struct Gate {
  size_t audit_violations = 0;
  uint64_t pages_lost = 0;
  uint64_t validation_failures = 0;
  bool prefetch_checked = false;
  uint64_t prefetch_issued = 0;  // whole trial, after DrainPipeline
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_misses = 0;
  bool names_ok = true;
  std::string missing_name;

  bool prefetch_ok() const {
    return !prefetch_checked || prefetch_hits + prefetch_misses == prefetch_issued;
  }
  bool ok() const {
    return names_ok && audit_violations == 0 && pages_lost == 0 && validation_failures == 0 &&
           prefetch_ok();
  }
};

struct Trial {
  double setup_s = 0;         // thread CPU seconds
  double measure_s = 0;       // thread CPU seconds
  std::map<std::string, double> vt;  // deterministic results of the measured window
  uint64_t digest = 0;
  Gate gate;
};

// Virtual (deterministic) results of one measured window. Host figures never
// enter this map: it feeds the digest.
std::map<std::string, double> Derive(const Workload& w, const Snapshot& setup_end,
                                     const Snapshot& start, const Snapshot& mid,
                                     const Snapshot& end, const Buckets& req,
                                     const Buckets& req_first, const Buckets& req_second,
                                     const Buckets& fault_window) {
  const auto d = [&](const std::string& n) { return Get(end, n) - Get(start, n); };
  const auto total = [&](const std::string& n) { return Get(setup_end, n) + d(n); };
  const double ops = static_cast<double>(w.measure_ops);
  std::map<std::string, double> v;

  const bool kv = w.kind == Kind::kKv;
  v["vt_access_ms"] = kv ? 0.0 : d("clock.now_ns") / 1e6 / ops;
  v["vt_req_p50_ms"] = kv ? Percentile(req, 50) / 1e6 : 0.0;
  v["vt_req_p99_ms"] = kv ? Percentile(req, 99) / 1e6 : 0.0;
  v["vt_req_p999_ms"] = kv ? Percentile(req, 99.9) / 1e6 : 0.0;
  v["vt_req_samples"] = kv ? req.count : 0.0;

  for (const char* c : {"cpu", "compress", "decompress", "copy", "io"}) {
    v[std::string("vt.") + c + "_ms"] = d(std::string("clock.") + c + "_ns") / 1e6;
  }
  v["vm.faults_per_op"] = d("vm.faults") / ops;
  v["vm.faults_from_ccache"] = d("vm.faults_from_ccache");
  v["vm.faults_from_swap"] = d("vm.faults_from_swap");
  v["vm.evictions"] = d("vm.evictions");
  v["vm.fault_vt_us_p50"] = Percentile(fault_window, 50) / 1e3;
  v["vm.fault_vt_us_p99"] = Percentile(fault_window, 99) / 1e3;

  v["ccache.fault_hits"] = d("ccache.fault_hits");
  v["ccache.pages_compressed"] = d("ccache.pages_compressed");
  v["ccache.frames_mapped_peak"] = Get(end, "ccache.frames_mapped_peak");
  // Content properties, over the whole trial (population + warm-up + window):
  // thrash_ro_swap compresses nothing inside its window.
  const double compressed = total("ccache.pages_compressed");
  v["ccache.kept_pct"] = compressed > 0 ? 100.0 * total("ccache.pages_kept") / compressed : 0.0;
  const double kept_bytes = total("ccache.compressed_bytes_kept");
  v["compress.ratio"] = kept_bytes > 0 ? total("ccache.original_bytes_kept") / kept_bytes : 0.0;

  for (const char* n : {"pages_read", "pages_written", "batches_written",
                        "readahead_blocks_read"}) {
    v[std::string("swap.clustered.") + n] = d(std::string("swap.clustered.") + n);
  }
  v["disk.read_ops"] = d("disk.read_ops");
  v["disk.write_ops"] = d("disk.write_ops");
  v["disk.busy_ms"] = d("disk.busy_ns") / 1e6;
  v["disk.queue_wait_ms"] = d("disk.queue_wait_ns") / 1e6;

  v["prefetch.issued"] = d("prefetch.issued");
  v["prefetch.hits"] = d("prefetch.hits");
  v["prefetch.hit_pct"] =
      v["prefetch.issued"] > 0 ? 100.0 * v["prefetch.hits"] / v["prefetch.issued"] : 0.0;
  v["pipeline.stall_ms"] = d("pipeline.stall_ns") / 1e6;

  double reclaims = 0;
  for (const auto& [name, value] : end) {
    if (name.starts_with("arbiter.") && name.ends_with(".reclaims")) {
      reclaims += value - Get(start, name);
    }
  }
  v["policy.arbiter_reclaims"] = reclaims;

  // Steady state: the two halves of the window must agree.
  const double f1 = Get(mid, "vm.faults") - Get(start, "vm.faults");
  const double f2 = Get(end, "vm.faults") - Get(mid, "vm.faults");
  v["steady.faults_per_op_drift"] = f1 > 0 ? std::fabs(f2 - f1) / f1 : 0.0;
  const double p1 = Percentile(req_first, 99);
  const double p2 = Percentile(req_second, 99);
  v["steady.p99_drift"] = kv && p1 > 0 ? std::fabs(p2 - p1) / p1 : 0.0;

  // Inputs of the host-share estimates (exact counts of calls into each layer
  // over the window). Kept here so the digest covers them too.
  v["calls.compress"] = d("ccache.pages_compressed") - d("ccache.zero_pages");
  v["calls.decompress_demand"] =
      d("vm.faults_from_ccache") - d("ccache.zero_fault_hits") + d("vm.faults_from_swap");
  v["calls.decompress_speculative"] = d("prefetch.issued");
  v["calls.checksum"] = (d("ccache.pages_kept") - d("ccache.zero_pages")) +
                        d("ccache.inserted_from_swap") +
                        (d("ccache.fault_hits") - d("ccache.zero_fault_hits")) +
                        d("prefetch.issued") + d("swap.clustered.pages_read") +
                        d("swap.clustered.coresident_pages_returned");
  const double kept_pages = total("ccache.pages_kept") - total("ccache.zero_pages");
  v["calls.checksum_bytes_per_call"] = kept_pages > 0 ? kept_bytes / kept_pages : 0.0;

  // Raw counters that only the digest reads.
  for (const char* n :
       {"clock.now_ns", "vm.accesses", "vm.faults", "vm.faults_zero_fill",
        "vm.faults_prefetch_hit", "ccache.pages_kept", "ccache.compressed_bytes_kept",
        "ccache.original_bytes_kept", "ccache.inserted_from_swap", "disk.busy_ns",
        "kv.requests", "kv.gets", "kv.sets", "kv.bytes_read", "kv.bytes_written",
        "kv.flash_requests"}) {
    v[std::string("raw.") + n] = d(n);
  }
  v["raw.setup.clock.now_ns"] = Get(setup_end, "clock.now_ns");
  v["raw.setup.ccache.compressed_bytes_kept"] = Get(setup_end, "ccache.compressed_bytes_kept");
  return v;
}

uint64_t Digest(const std::map<std::string, double>& v) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  char buf[160];
  for (const auto& [name, value] : v) {
    const int n = std::snprintf(buf, sizeof buf, "%s=%.17g;", name.c_str(), value);
    for (int i = 0; i < n; ++i) {
      h = (h ^ static_cast<uint8_t>(buf[i])) * 0x100000001b3ULL;
    }
  }
  return h;
}

// One trial. With `log` non-null every phase and App::Step is a span.
Trial RunTrial(const Workload& w, int trial_id, SpanLog* log) {
  Trial t;
  const double c0 = CpuSeconds();
  int trial_span = -1;
  int phase = -1;
  if (log != nullptr) {
    trial_span = log->Open("trial", -1, trial_id);
    phase = log->Open("setup", trial_span, trial_id);
  }

  Machine machine(w.config);
  machine.auditor().set_abort_on_violation(false);
  TrialApp app(w);

  const auto step = [&]() {
    if (log == nullptr) {
      return app.Step(machine);
    }
    const int id = log->Open("step", phase, trial_id);
    const StepCounters before = ReadStepCounters(machine);
    const bool done = app.Step(machine);
    const StepCounters after = ReadStepCounters(machine);
    log->Close(id);
    Span& s = log->at(id);
    s.has_counters = true;
    for (size_t k = 0; k < after.size(); ++k) {
      s.counters[k] = after[k] - before[k];
    }
    return done;
  };

  // Population runs until the first op; the warm-up then runs warm_ops ops.
  bool in_warmup = false;
  while (app.ops() < w.warm_ops) {
    if (log != nullptr && !in_warmup && app.ops() > 0) {
      log->Close(phase);
      phase = log->Open("warmup", trial_span, trial_id);
      in_warmup = true;
    }
    step();
  }
  const Snapshot setup_end = Take(machine);
  machine.ResetStats();
  const double c1 = CpuSeconds();
  t.setup_s = c1 - c0;
  if (log != nullptr) {
    log->Close(phase);
    phase = log->Open("measure", trial_span, trial_id);
  }

  const LatencyHistogram* req_hist = machine.metrics().FindHistogram("kv.request_ns");
  const LatencyHistogram* fault_hist = machine.metrics().FindHistogram("vm.fault_ns");
  const Snapshot start = Take(machine);
  const Buckets req_start = Capture(req_hist);
  const Buckets fault_start = Capture(fault_hist);
  const uint64_t mid_ops = w.warm_ops + w.measure_ops / 2;
  const uint64_t end_ops = w.warm_ops + w.measure_ops;
  while (app.ops() < mid_ops) {
    step();
  }
  const double c_mid = CpuSeconds();
  const Snapshot mid = Take(machine);
  const Buckets req_mid = Capture(req_hist);
  const double c_mid_done = CpuSeconds();
  while (app.ops() < end_ops) {
    step();
  }
  const double c2 = CpuSeconds();
  // The mid-window capture is bookkeeping, not workload time.
  t.measure_s = (c2 - c1) - (c_mid_done - c_mid);
  if (log != nullptr) {
    log->Close(phase);
  }
  const Snapshot end = Take(machine);
  const Buckets req_end = Capture(req_hist);
  const Buckets fault_end = Capture(fault_hist);

  // Correctness gate over the whole trial.
  machine.DrainPipeline();
  const Snapshot drained = Take(machine);
  Gate& g = t.gate;
  for (const std::string& n : RequiredNames(w)) {
    if (!drained.contains(n)) {
      g.names_ok = false;
      g.missing_name = n;
    }
  }
  g.audit_violations = machine.RunAudit();
  g.pages_lost = static_cast<uint64_t>(Get(setup_end, "vm.pages_lost") +
                                       Get(drained, "vm.pages_lost"));
  g.validation_failures = app.validation_failures();
  if (w.config.pipeline.enabled) {
    g.prefetch_checked = true;
    const auto total = [&](const char* n) {
      return static_cast<uint64_t>(Get(setup_end, n) + Get(drained, n));
    };
    g.prefetch_issued = total("prefetch.issued");
    g.prefetch_hits = total("prefetch.hits");
    g.prefetch_misses = total("prefetch.misses");
  }

  t.vt = Derive(w, setup_end, start, mid, end, Minus(req_end, req_start),
                Minus(req_mid, req_start), Minus(req_end, req_mid),
                Minus(fault_end, fault_start));
  t.digest = Digest(t.vt);
  if (log != nullptr) {
    log->Close(trial_span);
  }
  return t;
}

// ------------------------------------------------------------------- probes

// Host cost of each layer's public functions, timed on a standalone instance
// over a corpus of the workload's own content class, after two warm passes.
struct Probes {
  double compress_ns_per_page = 0;
  double decompress_ns_per_page = 0;
  double checksum_ns_per_kib = 0;
  double compress_page_ns = 0;  // CompressionCache::CompressPage
  double fillpage_ns = 0;       // FillPage, one 4 KiB page
};

constexpr size_t kCorpusPages = 128;
constexpr int kProbeBatches = 31;

// Probe results are folded into this so the timed calls cannot be elided.
volatile uint64_t g_probe_sink = 0;

// Pages laid out the way the workload lays them out: whole FillPage pages for
// the thrashers; two KvServer slots (16-byte header + text value + zero tail)
// per page for kv_zipf.
std::vector<std::vector<uint8_t>> Corpus(const Workload& w, uint64_t seed) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<std::vector<uint8_t>> pages(kCorpusPages, std::vector<uint8_t>(kPageSize, 0));
  for (auto& page : pages) {
    if (w.kind == Kind::kThrash) {
      FillPage(page, w.content, rng);
      continue;
    }
    KvWorkloadOptions value_sizes = w.kv.workload;
    value_sizes.max_value_bytes = std::min(value_sizes.max_value_bytes, w.kv.slot_bytes - 16);
    for (uint32_t off = 0; off + w.kv.slot_bytes <= kPageSize; off += w.kv.slot_bytes) {
      const uint32_t size = DrawLogNormalBytes(rng, value_sizes);
      const uint64_t key = rng.Next() % w.kv.workload.num_keys;
      const uint32_t version = 1;
      std::memcpy(page.data() + off, &key, sizeof key);
      std::memcpy(page.data() + off + 8, &version, sizeof version);
      std::memcpy(page.data() + off + 12, &size, sizeof size);
      FillPage(std::span<uint8_t>(page.data() + off + 16, size), w.content, rng);
    }
  }
  return pages;
}

// Runs `body` once per batch (after two warm runs) and returns the median host
// ns per unit, recording one probe.<layer> span per batch.
template <typename Body>
double ProbeBatches(SpanLog* log, const std::string& layer, const char* op, const char* unit,
                    double units, Body body) {
  body();
  body();
  std::vector<double> per_unit;
  for (int b = 0; b < kProbeBatches; ++b) {
    const int id = log->Open("probe." + layer, -1, -1);
    const auto t0 = HostClock::now();
    body();
    const double ns = std::chrono::duration<double, std::nano>(HostClock::now() - t0).count();
    log->Close(id);
    log->at(id).probe_op = op;
    log->at(id).per_unit_ns = ns / units;
    log->at(id).unit = unit;
    per_unit.push_back(ns / units);
  }
  return Median(per_unit);
}

Probes RunProbes(const Workload& w, uint64_t seed, SpanLog* log, bool* ok) {
  Probes p;
  const auto corpus = Corpus(w, seed);
  const double pages = static_cast<double>(corpus.size());
  std::unique_ptr<Codec> codec = MakeCodec(w.config.codec, w.config.codec_hash_bits);
  std::vector<std::vector<uint8_t>> images(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    images[i].resize(codec->MaxCompressedSize(kPageSize));
  }
  std::vector<size_t> sizes(corpus.size());
  uint64_t sink = 0;

  p.compress_ns_per_page = ProbeBatches(log, "compress", "Compress", "page", pages, [&] {
    for (size_t i = 0; i < corpus.size(); ++i) {
      sizes[i] = codec->Compress(corpus[i], images[i]);
    }
  });
  double image_bytes = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    images[i].resize(sizes[i]);
    image_bytes += static_cast<double>(sizes[i]);
  }

  std::vector<uint8_t> out(kPageSize);
  for (size_t i = 0; i < corpus.size(); ++i) {
    *ok = *ok && codec->TryDecompress(images[i], out) && out == corpus[i];
  }
  p.decompress_ns_per_page = ProbeBatches(log, "compress", "TryDecompress", "page", pages, [&] {
    for (const auto& image : images) {
      sink += codec->TryDecompress(image, out) ? out[0] : 1;
    }
  });
  p.checksum_ns_per_kib = ProbeBatches(log, "checksum", "Crc32", "kib", image_bytes / 1024.0, [&] {
    for (const auto& image : images) {
      sink += Crc32(image);
    }
  });

  Machine machine(w.config);
  CompressionCache* cc = machine.ccache();
  p.compress_page_ns = ProbeBatches(log, "ccache", "CompressPage", "page", pages, [&] {
    for (const auto& page : corpus) {
      ScratchArena::Scope scope(cc->arena());
      sink += cc->CompressPage(page).bytes.size();
    }
  });

  Rng rng(seed);
  std::vector<uint8_t> fill(kPageSize);
  p.fillpage_ns = ProbeBatches(log, "apps", "FillPage", "page", pages, [&] {
    for (size_t i = 0; i < corpus.size(); ++i) {
      FillPage(fill, w.content, rng);
      sink += fill[i % kPageSize];
    }
  });

  g_probe_sink = sink;
  return p;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool short_run = false;
  std::string trace_out;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--short") {
      a.short_run = true;
    } else if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      a.trace = std::string_view(argv[++i]) == "1";
    } else if (arg == "--trace-out" && has_value) {
      a.trace_out = argv[++i];
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || !(a.seconds > 0)) {
    return std::nullopt;
  }
  return a;
}

// Inputs of trial j derive from (seed, j mod Workload::inputs). One seed fixes
// one input (for kv_zipf, one key permutation, which alone moves the fault
// rate by +-12%); cycling several inputs per run keeps the host figures of two
// seeds comparable.
uint64_t SubSeed(uint64_t seed, int j) {
  return seed + static_cast<uint64_t>(j) * 0x9e3779b97f4a7c15ULL;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = ParseArgs(argc, argv);
  const std::optional<Workload> seed_input =
      args ? MakeWorkload(args->workload, args->seed, args->short_run) : std::nullopt;
  if (!seed_input) {
    std::fprintf(stderr,
                 "usage: perfbench --workload thrash_rw_ccache|thrash_ro_swap|kv_zipf "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE] [--short]\n");
    return 2;
  }
  // --trace 1 runs the seed's own input only.
  const int input_count = args->trace ? 1 : seed_input->inputs;
  std::vector<Workload> inputs;
  for (int j = 0; j < input_count; ++j) {
    inputs.push_back(*MakeWorkload(args->workload, SubSeed(args->seed, j), args->short_run));
  }
  const Workload& w = inputs.front();
  const auto run_start = HostClock::now();
  SpanLog log(run_start);

  // Untraced trials cycle through the inputs until the budget is spent (at
  // least one pass). With --trace 1, untraced and traced trials alternate, so
  // both see the same host conditions.
  std::vector<std::vector<Trial>> untraced(inputs.size());
  std::vector<Trial> traced;
  double trial_seconds = 0;
  for (int id = 0;; ++id) {
    const bool traced_turn = args->trace && id % 2 == 1;
    const size_t j = args->trace ? 0 : static_cast<size_t>(id) % inputs.size();
    const auto t0 = HostClock::now();
    Trial t = RunTrial(inputs[j], id, traced_turn ? &log : nullptr);
    (traced_turn ? traced : untraced[j]).push_back(std::move(t));
    trial_seconds = std::max(trial_seconds, SecondsBetween(t0, HostClock::now()));
    const bool have_min = !untraced.back().empty() && (!args->trace || !traced.empty());
    if (have_min && SecondsBetween(run_start, HostClock::now()) + trial_seconds > args->seconds) {
      break;
    }
  }

  // Gate: every trial clean; every repeat of an input has that input's digest.
  bool correct = true;
  uint64_t failed = 0;
  uint64_t attempted = 0;
  const auto tally = [&](const Trial& t, uint64_t expected_digest) {
    attempted += w.warm_ops + w.measure_ops;
    failed += t.gate.pages_lost + t.gate.validation_failures;
    if (!t.gate.ok() || t.digest != expected_digest) {
      correct = false;
      failed = std::max<uint64_t>(failed, 1);
    }
  };
  uint64_t run_digest = 0xcbf29ce484222325ULL;
  for (const std::vector<Trial>& repeats : untraced) {
    for (const Trial& t : repeats) {
      tally(t, repeats.front().digest);
    }
    run_digest = (run_digest ^ repeats.front().digest) * 0x100000001b3ULL;
  }
  for (const Trial& t : traced) {
    tally(t, untraced.front().front().digest);
  }
  const Trial& first = untraced.front().front();
  const Gate& g = first.gate;
  const std::map<std::string, double>& vt = first.vt;

  // Host figures: the best repeat of each input (interference on a shared
  // host only ever slows a trial down), then the median over inputs.
  std::vector<double> ops_per_s;
  std::vector<double> setup_s;
  std::vector<double> measure_s;
  for (const std::vector<Trial>& repeats : untraced) {
    double best_measure = repeats.front().measure_s;
    double best_setup = repeats.front().setup_s;
    for (const Trial& t : repeats) {
      best_measure = std::min(best_measure, t.measure_s);
      best_setup = std::min(best_setup, t.setup_s);
    }
    ops_per_s.push_back(static_cast<double>(w.measure_ops) / best_measure);
    setup_s.push_back(best_setup);
    measure_s.push_back(best_measure);
  }
  double traced_ops_per_s = 0;
  for (const Trial& t : traced) {
    traced_ops_per_s =
        std::max(traced_ops_per_s, static_cast<double>(w.measure_ops) / t.measure_s);
  }

  size_t trials = traced.size();
  for (const std::vector<Trial>& repeats : untraced) {
    trials += repeats.size();
  }
  std::printf("perfbench %s seed %llu: %zu trials (%zu traced) over %zu inputs, window %llu %s "
              "after %llu warm-up %s\n",
              w.name.c_str(), static_cast<unsigned long long>(args->seed), trials, traced.size(),
              inputs.size(), static_cast<unsigned long long>(w.measure_ops), w.ops_name,
              static_cast<unsigned long long>(w.warm_ops), w.ops_name);
  std::printf("gate: %s (audit violations %zu, vm.pages_lost %llu, kv validation failures %llu",
              correct ? "ok" : "FAILED", g.audit_violations,
              static_cast<unsigned long long>(g.pages_lost),
              static_cast<unsigned long long>(g.validation_failures));
  if (g.prefetch_checked) {
    std::printf(", prefetch hits %llu + misses %llu %s issued %llu",
                static_cast<unsigned long long>(g.prefetch_hits),
                static_cast<unsigned long long>(g.prefetch_misses),
                g.prefetch_ok() ? "==" : "!=", static_cast<unsigned long long>(g.prefetch_issued));
  }
  if (!g.names_ok) {
    std::printf(", missing metric %s", g.missing_name.c_str());
  }
  std::printf(") [first input; every trial is gated]\n");
  std::printf("error_rate: %.6g fraction (%llu failed / %llu ops attempted)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));
  std::printf("digest: %016llx (over %zu inputs; first input %016llx)\n",
              static_cast<unsigned long long>(run_digest), inputs.size(),
              static_cast<unsigned long long>(first.digest));

  const bool kv = w.kind == Kind::kKv;
  std::printf("inputs (input seed, digest, repeats, best ops/s, best setup_s, vm.faults_per_op, "
              "%s):\n", kv ? "vt_req_p99_ms" : "vt_access_ms");
  for (size_t j = 0; j < untraced.size(); ++j) {
    const Trial& t = untraced[j].front();
    std::printf("  %020llu %016llx %zu %.0f %.4f %.5f %.6f\n",
                static_cast<unsigned long long>(inputs[j].seed),
                static_cast<unsigned long long>(t.digest), untraced[j].size(), ops_per_s[j],
                setup_s[j], t.vt.at("vm.faults_per_op"),
                t.vt.at(kv ? "vt_req_p99_ms" : "vt_access_ms"));
  }

  // Steady state: the window's halves agree within each metric's tolerance.
  const bool steady = vt.at("steady.faults_per_op_drift") <= 0.10 &&
                      (!kv || vt.at("steady.p99_drift") <= 0.25);
  std::printf("steady: %s (first input: vm.faults_per_op halves differ by %.4f, limit 0.10",
              steady ? "yes" : "NO", vt.at("steady.faults_per_op_drift"));
  if (kv) {
    std::printf("; vt_req_p99_ms halves differ by %.4f, limit 0.25", vt.at("steady.p99_drift"));
  }
  std::printf(")\n");

  std::printf("end-to-end, virtual clock (first input; deterministic per seed):\n");
  if (kv) {
    std::printf("  vt_req_p50_ms   %.6f ms\n  vt_req_p99_ms   %.6f ms\n  vt_req_p999_ms  %.6f ms\n"
                "  (open-loop arrival to completion, %.0f requests in the window)\n",
                vt.at("vt_req_p50_ms"), vt.at("vt_req_p99_ms"), vt.at("vt_req_p999_ms"),
                vt.at("vt_req_samples"));
  } else {
    std::printf("  vt_access_ms    %.6f ms per page touch\n", vt.at("vt_access_ms"));
  }

  std::vector<Metric> metrics;
  if (!args->trace) {
    metrics = {{"ops_per_s", Median(ops_per_s), "ops/s"},
               {"setup_s", Median(setup_s), "s"},
               {"peak_rss_mb", PeakRssMiB(), "MiB"}};
    std::printf("end-to-end, host clock (best repeat per input, median over %zu inputs):\n",
                inputs.size());
  } else {
    bool probes_ok = true;
    const Probes p = RunProbes(w, args->seed, &log, &probes_ok);
    if (!probes_ok) {
      correct = false;
      failed = std::max<uint64_t>(failed, 1);
      std::printf("probe: codec round trip FAILED\n");
    }
    // Estimates: probe ns x exact call count / measured untraced window ns.
    const double window_ns = Median(measure_s) * 1e9;
    const auto share = [&](double ns) { return ns / window_ns; };
    const double compress_share = share(p.compress_ns_per_page * vt.at("calls.compress"));
    const double spec_share =
        share(p.decompress_ns_per_page * vt.at("calls.decompress_speculative"));
    const double decompress_share =
        share(p.decompress_ns_per_page * vt.at("calls.decompress_demand")) + spec_share;
    const double checksum_share =
        share(p.checksum_ns_per_kib * vt.at("calls.checksum") *
              vt.at("calls.checksum_bytes_per_call") / 1024.0);
    const double untraced_ops = Median(ops_per_s);
    const double traced_ops = traced_ops_per_s;
    metrics = {
        {"checksum.host_ns_per_kib", p.checksum_ns_per_kib, "ns/KiB"},
        {"checksum.host_share_est", checksum_share, "fraction"},
        {"compress.host_ns_per_page", p.compress_ns_per_page, "ns"},
        {"decompress.host_ns_per_page", p.decompress_ns_per_page, "ns"},
        {"compress.host_share_est", compress_share, "fraction"},
        {"decompress.host_share_est", decompress_share, "fraction"},
        {"compress.ratio", vt.at("compress.ratio"), "ratio"},
        {"vt.compress_ms", vt.at("vt.compress_ms"), "ms"},
        {"vt.decompress_ms", vt.at("vt.decompress_ms"), "ms"},
        {"ccache.fault_hits", vt.at("ccache.fault_hits"), "count"},
        {"ccache.pages_compressed", vt.at("ccache.pages_compressed"), "count"},
        {"ccache.kept_pct", vt.at("ccache.kept_pct"), "%"},
        {"ccache.frames_mapped_peak", vt.at("ccache.frames_mapped_peak"), "frames"},
        {"ccache.compress_page_host_ns", p.compress_page_ns, "ns"},
        {"vm.faults_per_op", vt.at("vm.faults_per_op"), "faults/op"},
        {"vm.faults_from_ccache", vt.at("vm.faults_from_ccache"), "count"},
        {"vm.faults_from_swap", vt.at("vm.faults_from_swap"), "count"},
        {"vm.evictions", vt.at("vm.evictions"), "count"},
        {"vm.fault_vt_us_p50", vt.at("vm.fault_vt_us_p50"), "us"},
        {"vm.fault_vt_us_p99", vt.at("vm.fault_vt_us_p99"), "us"},
        {"host.residual_share", 1.0 - compress_share - decompress_share - checksum_share,
         "fraction"},
        {"swap.clustered.pages_read", vt.at("swap.clustered.pages_read"), "count"},
        {"swap.clustered.pages_written", vt.at("swap.clustered.pages_written"), "count"},
        {"swap.clustered.batches_written", vt.at("swap.clustered.batches_written"), "count"},
        {"swap.clustered.readahead_blocks_read", vt.at("swap.clustered.readahead_blocks_read"),
         "count"},
        {"disk.read_ops", vt.at("disk.read_ops"), "count"},
        {"disk.write_ops", vt.at("disk.write_ops"), "count"},
        {"disk.busy_ms", vt.at("disk.busy_ms"), "ms"},
        {"disk.queue_wait_ms", vt.at("disk.queue_wait_ms"), "ms"},
        {"vt.io_ms", vt.at("vt.io_ms"), "ms"},
        {"prefetch.issued", vt.at("prefetch.issued"), "count"},
        {"prefetch.hits", vt.at("prefetch.hits"), "count"},
        {"prefetch.hit_pct", vt.at("prefetch.hit_pct"), "%"},
        {"prefetch.decompress_host_share_est", spec_share, "fraction"},
        {"pipeline.stall_ms", vt.at("pipeline.stall_ms"), "ms"},
        {"apps.fillpage_host_ns", p.fillpage_ns, "ns"},
        {"vt.cpu_ms", vt.at("vt.cpu_ms"), "ms"},
        {"vt.copy_ms", vt.at("vt.copy_ms"), "ms"},
        {"policy.arbiter_reclaims", vt.at("policy.arbiter_reclaims"), "count"},
        {"vt_access_ms", vt.at("vt_access_ms"), "ms"},
        {"vt_req_p50_ms", vt.at("vt_req_p50_ms"), "ms"},
        {"vt_req_p99_ms", vt.at("vt_req_p99_ms"), "ms"},
        {"vt_req_p999_ms", vt.at("vt_req_p999_ms"), "ms"},
        {"steady.faults_per_op_drift", vt.at("steady.faults_per_op_drift"), "fraction"},
        {"steady.p99_drift", vt.at("steady.p99_drift"), "fraction"},
        {"trace.ops_per_s", traced_ops, "ops/s"},
        {"trace.untraced_ops_per_s", untraced_ops, "ops/s"},
        {"trace.overhead_share", 1.0 - traced_ops / untraced_ops, "fraction"},
    };
    std::printf("probe method: standalone codec / Crc32 / CompressionCache / FillPage on %zu "
                "pages of the workload's content, 2 warm passes, median of %d batches\n",
                kCorpusPages, kProbeBatches);
    std::printf("*_est = probe ns x exact call count / median untraced window host ns "
                "(%.6g ns); estimates, not measured self time. Bases: compress calls %.0f, "
                "decompress calls %.0f demand + %.0f speculative, checksum calls %.0f x %.1f "
                "bytes\n",
                window_ns, vt.at("calls.compress"), vt.at("calls.decompress_demand"),
                vt.at("calls.decompress_speculative"), vt.at("calls.checksum"),
                vt.at("calls.checksum_bytes_per_call"));
    std::printf("prefetch.hit_pct base: %.0f hits / %.0f issued\n", vt.at("prefetch.hits"),
                vt.at("prefetch.issued"));
    std::printf("trace overhead: traced %.6g ops/s vs untraced %.6g ops/s\n", traced_ops,
                untraced_ops);
    if (!args->trace_out.empty() && !log.WriteJsonl(args->trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args->trace_out.c_str());
      return 1;
    }
    std::printf("per-layer (traced run):\n");
  }
  for (const Metric& m : metrics) {
    std::printf("  %-40s %.10g %s\n", m.name.c_str(), m.value, m.unit);
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
