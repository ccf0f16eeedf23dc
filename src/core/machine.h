// The Machine: wires together clock, disk, file system, buffer cache, frame pool,
// swap layouts, compression cache, pager, and arbiter into one simulated computer.
//
// Two canonical configurations reproduce the paper's two systems:
//   MachineConfig::Unmodified(mem)       — "std": Sprite with fixed-layout paging
//   MachineConfig::WithCompressionCache(mem) — "cc": Sprite plus the compression cache
#ifndef COMPCACHE_CORE_MACHINE_H_
#define COMPCACHE_CORE_MACHINE_H_

#include <memory>
#include <string>
#include <vector>

#include "ccache/compression_cache.h"
#include "compress/registry.h"
#include "disk/disk_device.h"
#include "fs/buffer_cache.h"
#include "fs/file_system.h"
#include "policy/memory_arbiter.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "util/audit.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "swap/clustered_swap.h"
#include "swap/fixed_swap.h"
#include "swap/lfs_swap.h"
#include "swap/write_behind_backend.h"
#include "tier/tier_stack.h"
#include "vm/frame_pool.h"
#include "vm/frame_source.h"
#include "vm/heap.h"
#include "vm/pager.h"
#include "vm/pipeline.h"

namespace compcache {

enum class BackingKind {
  kLocalDisk,    // RZ57-style seek disk (the paper's measured configuration)
  kNetworkLink,  // wireless page server (the paper's motivating configuration)
};

// Backing-store layout for compressed pages (paper section 4.3's alternatives).
// The unmodified machine always pages to the fixed-offset layout.
enum class CompressedSwapKind {
  kClustered,    // 1 KB fragments, 32 KB batches, GC — the paper's design
  kFixedOffset,  // fixed page offsets, partial-block writes — the rejected ideal
  kLfs,          // Sprite-LFS-style log with segment cleaning (paper 4.3/5.1)
};

// Deterministic fault-injection configuration. Disabled by default: no injector
// is constructed, no RNG is consumed, and every run is bit-identical to a build
// without this subsystem. Rates are per-operation probabilities; the `*_nth_*`
// lists name explicit 1-based operation ordinals for targeted tests. Schedules
// with no field here (sector corruption, read ordinals, power-fail rates) are
// set with FaultInjector::SetSchedule on Machine::fault_injector().
struct FaultInjectionOptions {
  bool enabled = false;
  uint64_t seed = 1;
  double disk_read_error_rate = 0.0;
  double disk_write_error_rate = 0.0;
  double codec_corruption_rate = 0.0;
  std::vector<uint64_t> fail_nth_disk_writes;
  std::vector<uint64_t> corrupt_nth_codec_ops;
  // Simulated power failure. Counted per 512-byte sector of attempted disk
  // writes; on trigger the disk keeps only a prefix of the in-flight request
  // (the final sector torn), throws PowerFailure, and fails every later I/O.
  std::vector<uint64_t> power_fail_nth_sectors;

  bool operator==(const FaultInjectionOptions&) const = default;
};

// Crash consistency: when enabled, the swap layout of either machine keeps
// durable on-disk metadata (a CRC'd intent journal for the clustered and
// fixed-offset layouts; segment summaries plus rotating checkpoints for LFS) so
// Machine::Recover can rebuild the swap state after a simulated power failure.
// Off by default — the journal costs extra small writes per mutation.
struct DurabilityOptions {
  bool enabled = false;
};

// Outcome of a Machine::Recover pass (published as "recovery.*" metrics).
struct RecoveryStats {
  uint64_t mounts = 0;                 // 1 on a recovered machine, else 0
  uint64_t pages_recovered = 0;        // touched pages whose image survived
  uint64_t pages_lost = 0;             // touched pages with no durable copy
  uint64_t orphans_discarded = 0;      // resurrected backend entries purged
  uint64_t journal_replays = 0;        // journal records / summaries applied
  uint64_t checkpoint_loads = 0;       // valid checkpoint slots adopted
  uint64_t torn_writes_detected = 0;   // CRC/frame damage found while mounting
  uint64_t mount_ns = 0;               // simulated time spent recovering
};

struct MachineConfig {
  // Physical memory available to user processes (the paper's machines exposed
  // ~6 MB or ~14 MB after the kernel's share).
  uint64_t user_memory_bytes = 14 * kMiB;

  bool use_compression_cache = true;

  // Any registry name; "adaptive" selects the per-page content-probe picker
  // (store/FPC/LZRW1 chosen per eviction).
  std::string codec = "lzrw1";
  unsigned codec_hash_bits = 12;  // 16 KB hash table, as measured in the paper

  CompressionThreshold threshold{4, 3};
  ArbiterBiases biases;
  uint32_t write_batch_bytes = kSwapWriteBatch;
  bool allow_block_spanning = true;
  bool insert_coresidents = true;
  CompressedSwapKind compressed_swap = CompressedSwapKind::kClustered;

  // Paper section 6 extension: keep evicted file-cache blocks compressed in the
  // compression cache too ("keep part or all of the file buffer cache in
  // compressed format in order to improve the cache hit rate").
  bool compress_file_cache = false;

  // Paper section 6 extension: adaptively disable compression when recent pages
  // have been overwhelmingly uncompressible.
  AdaptiveCompressionOptions adaptive_compression;

  BackingKind backing = BackingKind::kLocalDisk;
  NetworkLinkParams network_params;
  FileSystem::Options fs_options;
  CostModel costs;

  // Charge the paper's section-4.4 metadata against user memory (page-table
  // extension, codec hash table, extra kernel code, slot descriptors).
  bool charge_metadata_overhead = true;

  // Event-trace ring capacity; 0 disables tracing entirely (the default — no
  // per-event overhead is paid unless a capacity is configured).
  size_t trace_capacity = 0;

  // Run the cross-subsystem invariant audit every N serviced page faults
  // (0 = only at machine shutdown, which always audits). The CC_AUDIT_INTERVAL
  // environment variable, when set and non-empty, overrides this — so CI can
  // turn periodic auditing on for an entire test suite without code changes.
  size_t audit_interval = 0;

  // Robustness knobs: fault injection and durable swap metadata (crash
  // recovery). The disk retries with its default RetryPolicy. Page integrity
  // (a CRC-32C on every stored image, verified on every read) is always on.
  FaultInjectionOptions fault_injection;
  DurabilityOptions durability;

  // Async pipelined I/O: write-behind swap batches, decompress-ahead
  // prefetching, and fault batching. Requires use_compression_cache.
  PipelineOptions pipeline;

  // Flash-class device tiers interposed as an LRU cascade between the
  // compression cache and the configured disk layout; none are listed by
  // default. Listed tiers require use_compression_cache and are refused with
  // durability.
  TierOptions tiers;

  // Cap on compression-cache slots (frames the ccache ring may map): the
  // capacity of the machine's one compressed-DRAM store. 0 means every pool
  // frame is eligible — the historical behavior. Tier ablations use this as
  // the DRAM-share knob: a small cap sends writebacks into the device tiers
  // instead of keeping them in compressed DRAM.
  size_t ccache_max_frames = 0;

  // Returns nullptr when a machine can be built from this config, else the
  // name of the first rule it breaks; the Machine constructor aborts with that
  // name. The rules refuse unsafe combinations and inert ones (a setting that
  // would silently do nothing); DESIGN.md section 14 lists them.
  const char* Validate() const;

  static MachineConfig Unmodified(uint64_t memory_bytes) {
    MachineConfig config;
    config.user_memory_bytes = memory_bytes;
    config.use_compression_cache = false;
    return config;
  }

  static MachineConfig WithCompressionCache(uint64_t memory_bytes) {
    MachineConfig config;
    config.user_memory_bytes = memory_bytes;
    config.use_compression_cache = true;
    return config;
  }
};

class Machine : public FrameSource {
 public:
  explicit Machine(MachineConfig config);
  ~Machine() override;

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // Boots a new machine over the surviving disk image of a crashed one (the
  // crashed machine must have hit a simulated power failure). The new machine
  // shares the crashed one's configuration; it mounts the swap backend's
  // durable metadata, rebuilds every segment, restores pages whose images
  // survived as swapped-out, and routes the rest through the lost-page ladder
  // (zero-fill + segment abort). The crashed machine is left untouched and
  // should be destroyed afterwards.
  static std::unique_ptr<Machine> Recover(Machine& crashed);

  // Creates a heap segment of the given size (rounded up to whole pages),
  // charging CostModel::heap_cpu_per_access of CPU per access so every app in
  // a multiprogrammed mix pays the same rate. The two-argument form overrides
  // the per-access cost for apps that model unusual access widths.
  Heap NewHeap(uint64_t bytes);
  Heap NewHeap(uint64_t bytes, SimDuration cpu_per_access);

  // Process context for per-process attribution (the src/proc scheduler calls
  // this around each quantum): new segments are stamped with the pid and trace
  // events carry it. 0 = kernel / no process.
  void SetCurrentProcess(uint32_t pid);
  uint32_t current_process() const { return pager_->current_process(); }

  // --- component access ---
  Clock& clock() { return clock_; }
  const CostModel& costs() const { return config_.costs; }
  Pager& pager() { return *pager_; }
  FileSystem& fs() { return *fs_; }
  BufferCache& buffer_cache() { return *buffer_cache_; }
  DiskDevice& disk() { return *disk_; }
  MemoryArbiter& arbiter() { return arbiter_; }
  CompressionCache* ccache() { return ccache_.get(); }  // null in std mode
  // The backing store the pager pages to (outermost decorator included).
  CompressedSwapBackend* compressed_swap() { return cswap_.get(); }
  // Typed views of the configured swap layout, stored at construction
  // (exactly one is non-null; the std machine's is always fixed_swap()) — for
  // stats access without downcasting.
  ClusteredSwapLayout* clustered_swap() { return clustered_swap_; }
  FixedSwapLayout* fixed_swap() { return fixed_swap_; }
  LfsSwapLayout* lfs_swap() { return lfs_swap_; }
  // Non-null only when MachineConfig::pipeline.enabled; write_behind() is then
  // the same object as compressed_swap() (the decorator wraps the layout).
  WriteBehindBackend* write_behind() { return write_behind_; }
  // Non-null only when MachineConfig::tiers lists device tiers; the stack sits
  // between the write-behind decorator (when present) and the disk layout, so
  // the typed layout aliases above point at the stack's bottom backend.
  TierStack* tier_stack() { return tier_stack_; }
  PipelineEngine* pipeline() { return pipeline_.get(); }
  FramePool& frame_pool() { return pool_; }
  const MachineConfig& config() const { return config_; }
  // Per-machine scratch arena backing the compress/decompress hot path (shared
  // with the compression cache when one is configured). `heap_blocks()` is the
  // allocation-counting hook: constant across a workload means the hot path ran
  // heap-allocation-free in steady state.
  ScratchArena& scratch_arena() { return scratch_arena_; }

  // --- correctness ---
  // The cross-subsystem invariant auditor. Every subsystem registers its checks
  // at construction; RunAudit() executes them all (aborting on the first
  // violating run unless auditor().set_abort_on_violation(false)). Audits also
  // run every `audit_interval` faults and always once at destruction.
  InvariantAuditor& auditor() { return auditor_; }
  size_t RunAudit() { return auditor_.RunAll(); }

  // Restarts every published count (warmup discard): rebases the metric
  // registry, so each counter metric reads its growth from here and every
  // histogram and push counter restarts from zero, and restarts the ccache's
  // mapped-frames peak from the current mapping. Subsystem counters never
  // reset, and state — resident pages, cache contents, swap locations,
  // virtual time, fault-injection ordinals — is untouched. The metrics
  // monotonicity watermarks re-baseline so the auditor accepts the drop.
  void ResetStats();

  // --- observability ---
  // Every component's counters are registered here (as pull-mode gauges reading
  // the authoritative struct counters, so the registry can never drift).
  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }
  // Null unless MachineConfig::trace_capacity > 0.
  EventTracer* tracer() { return tracer_.get(); }
  // Null unless MachineConfig::fault_injection.enabled.
  FaultInjector* fault_injector() { return injector_.get(); }
  // Full metric snapshot as one JSON object, sorted by name.
  std::string MetricsJson() const { return metrics_.ToJson(); }

  // --- FrameSource ---
  FrameId AllocateFrame() override;
  std::optional<FrameId> TryAllocateFrame() override;
  void FreeFrame(FrameId id) override;
  std::span<uint8_t> FrameData(FrameId id) override;

  // Frames permanently consumed by metadata (section 4.4 accounting).
  size_t metadata_frames() const { return metadata_frames_; }

  // Quiesces the async pipeline: discards the prefetch buffer (counting the
  // entries as misses) and waits out every in-flight write-behind batch (no
  // clock advance after a power failure). Benches call this before taking a
  // metric snapshot so issued == hits + misses and inflight == 0 hold over the
  // published counters. A no-op when pipelining is off.
  void DrainPipeline();

  // Human-readable rendering of the metric registry: one line per metric
  // family (the name's first dotted component, e.g. "vm:"), listing the
  // family's non-zero entries as `rest.of.name=value` in MetricsJson()'s number
  // format.
  std::string Report() const;

  // Zeros on a machine that was not produced by Recover().
  const RecoveryStats& recovery_stats() const { return recovery_; }

 private:
  // `recover_from` non-null: adopt its disk image + file-system metadata before
  // the backends are constructed, then run RecoverFrom() once wiring is done.
  Machine(MachineConfig config, Machine* recover_from);
  void RecoverFrom(Machine& crashed);
  void ChargeMetadataBytes(uint64_t bytes);

  void BindAllMetrics();
  void RegisterAuditChecks();

  MachineConfig config_;
  Clock clock_;
  MetricRegistry metrics_;
  InvariantAuditor auditor_;
  size_t audit_interval_ = 0;      // resolved from config + CC_AUDIT_INTERVAL
  size_t faults_since_audit_ = 0;
  // Last value seen per counter-kind metric; the "counters-monotone" check
  // fails when any of them moves backwards between audits.
  std::map<std::string, double> counter_watermarks_;
  ScratchArena scratch_arena_;
  std::unique_ptr<EventTracer> tracer_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<Codec> codec_;
  std::unique_ptr<DiskDevice> disk_;
  std::unique_ptr<FileSystem> fs_;
  FramePool pool_;
  MemoryArbiter arbiter_;
  std::unique_ptr<BufferCache> buffer_cache_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<CompressedSwapBackend> cswap_;
  // Typed aliases of the layout at the bottom of the cswap_ chain, set by the
  // construction switch; exactly one is non-null (asserted in Debug builds).
  ClusteredSwapLayout* clustered_swap_ = nullptr;
  FixedSwapLayout* fixed_swap_ = nullptr;
  LfsSwapLayout* lfs_swap_ = nullptr;
  // Alias of cswap_ when it is the write-behind decorator (pipeline enabled).
  WriteBehindBackend* write_behind_ = nullptr;
  // Alias into the cswap_ chain when MachineConfig::tiers lists device tiers.
  TierStack* tier_stack_ = nullptr;
  std::unique_ptr<CompressionCache> ccache_;

  uint64_t metadata_bytes_charged_ = 0;
  size_t metadata_frames_ = 0;
  RecoveryStats recovery_;
  // Declared last: its destructor returns the prefetch buffer's frames to
  // pool_, which (declared above) is destroyed after it.
  std::unique_ptr<PipelineEngine> pipeline_;
};

}  // namespace compcache

#endif  // COMPCACHE_CORE_MACHINE_H_
