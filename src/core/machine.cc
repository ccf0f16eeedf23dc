#include "core/machine.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "compress/lzrw1.h"
#include "util/assert.h"
#include "util/json.h"

namespace compcache {

namespace {

std::unique_ptr<BackingTimingModel> MakeTiming(const MachineConfig& config) {
  if (config.backing == BackingKind::kNetworkLink) {
    return std::make_unique<NetworkLinkModel>(config.network_params);
  }
  return std::make_unique<SeekDiskModel>();
}

// Runs before any member is built, so a refused config aborts with its rule's
// name and not with some component's precondition.
MachineConfig Validated(MachineConfig config) {
  if (const char* rule = config.Validate(); rule != nullptr) {
    AssertFail("MachineConfig::Validate", rule, __FILE__, __LINE__);
  }
  return config;
}

}  // namespace

const char* MachineConfig::Validate() const {
  if (user_memory_bytes < 32 * kPageSize) {
    return "memory-below-32-pages";
  }
  if (pipeline.enabled && !use_compression_cache) {
    return "pipeline-needs-ccache";
  }
  if (!tiers.tiers.empty() && !use_compression_cache) {
    return "tiers-need-ccache";
  }
  // SSD tiers are non-durable layouts on private devices that Recover never
  // copies and no mount reads, yet every writeback lands there first.
  if (durability.enabled && !tiers.tiers.empty()) {
    return "durability-with-device-tiers";
  }
  if (pipeline.write_behind_depth == 0) {
    return "write-behind-depth-zero";
  }
  // The ring keeps one page of slack so head and tail never share a slot.
  if (ccache_max_frames > 0 && ccache_max_frames < 4) {
    return "ccache-max-frames-below-4";
  }
  // Inert: settings that would silently do nothing.
  if (!pipeline.enabled && pipeline != PipelineOptions{}) {
    return "pipeline-fields-while-disabled";
  }
  if (!fault_injection.enabled && fault_injection != FaultInjectionOptions{}) {
    return "fault-fields-while-disabled";
  }
  // The unmodified machine has no compression cache, codec or compressed
  // layout (it pages raw to the fixed-offset layout), so it reads none of these.
  if (!use_compression_cache) {
    const MachineConfig defaults;
    if (codec != defaults.codec || codec_hash_bits != defaults.codec_hash_bits ||
        threshold != defaults.threshold || compressed_swap != defaults.compressed_swap ||
        write_batch_bytes != defaults.write_batch_bytes ||
        allow_block_spanning != defaults.allow_block_spanning ||
        insert_coresidents != defaults.insert_coresidents ||
        biases.ccache != defaults.biases.ccache ||
        compress_file_cache != defaults.compress_file_cache ||
        adaptive_compression != defaults.adaptive_compression ||
        ccache_max_frames != defaults.ccache_max_frames) {
      return "ccache-settings-need-ccache";
    }
  }
  return nullptr;
}

Machine::Machine(MachineConfig config) : Machine(std::move(config), nullptr) {}

std::unique_ptr<Machine> Machine::Recover(Machine& crashed) {
  MachineConfig config = crashed.config();
  // Explicit crash-point ordinals are positional from machine start; carried
  // over, the recovered machine's own recovery writes would re-fire the same
  // ordinal and crash again.
  config.fault_injection.power_fail_nth_sectors.clear();
  return std::unique_ptr<Machine>(new Machine(std::move(config), &crashed));
}

Machine::Machine(MachineConfig config, Machine* recover_from)
    : config_(Validated(std::move(config))),
      codec_(MakeCodec(config_.codec, config_.codec_hash_bits)),
      pool_(config_.user_memory_bytes / kPageSize) {
  disk_ = std::make_unique<DiskDevice>(&clock_, MakeTiming(config_),
                                       config_.costs.io_setup_overhead);
  if (config_.fault_injection.enabled) {
    const FaultInjectionOptions& fi = config_.fault_injection;
    injector_ = std::make_unique<FaultInjector>(fi.seed);
    injector_->SetSchedule(FaultSite::kDiskRead, {fi.disk_read_error_rate, {}});
    injector_->SetSchedule(FaultSite::kDiskWrite,
                           {fi.disk_write_error_rate, fi.fail_nth_disk_writes});
    injector_->SetSchedule(FaultSite::kCodecCorruption,
                           {fi.codec_corruption_rate, fi.corrupt_nth_codec_ops});
    injector_->SetSchedule(FaultSite::kPowerFail, {0.0, fi.power_fail_nth_sectors});
    disk_->SetFaultInjector(injector_.get());
  }
  fs_ = std::make_unique<FileSystem>(disk_.get(), config_.fs_options);
  if (recover_from != nullptr) {
    // Adopt the crashed machine's surviving disk image; file-system metadata
    // (names, sizes, block maps) is durable by fiat — see FileSystem::FsImage.
    CC_EXPECTS(recover_from->disk().power_failed());
    disk_->CopyContentsFrom(recover_from->disk());
    fs_->ImportImage(recover_from->fs().ExportImage());
  }
  buffer_cache_ = std::make_unique<BufferCache>(&clock_, &config_.costs, this, fs_.get());

  VmOptions vm_options;
  vm_options.insert_coresidents = config_.insert_coresidents;
  pager_ = std::make_unique<Pager>(&clock_, &config_.costs, this, vm_options);

  // The unmodified machine pages whole raw pages to the fixed-offset layout.
  const CompressedSwapKind swap_kind = config_.use_compression_cache
                                           ? config_.compressed_swap
                                           : CompressedSwapKind::kFixedOffset;
  std::unique_ptr<CompressedSwapBackend> inner;
  switch (swap_kind) {
    case CompressedSwapKind::kClustered: {
      // Fault batching rides the clustered layout's demand reads: the
      // pipeline's batch window becomes read widening (one disk op).
      auto layout = std::make_unique<ClusteredSwapLayout>(
          fs_.get(),
          ClusteredSwapLayout::Options{
              config_.allow_block_spanning, config_.durability.enabled,
              config_.pipeline.enabled ? uint64_t{config_.pipeline.fault_batch_window} : 0});
      clustered_swap_ = layout.get();
      inner = std::move(layout);
      break;
    }
    case CompressedSwapKind::kFixedOffset: {
      auto layout = std::make_unique<FixedSwapLayout>(
          fs_.get(), FixedSwapLayout::Options{config_.durability.enabled});
      fixed_swap_ = layout.get();
      inner = std::move(layout);
      break;
    }
    case CompressedSwapKind::kLfs: {
      // The LFS segment buffer takes its frames from the pool up front — the
      // "significant memory for buffers" the paper holds against this design.
      LfsSwapLayout::Options lfs_options;
      lfs_options.durable = config_.durability.enabled;
      auto layout = std::make_unique<LfsSwapLayout>(fs_.get(), this, lfs_options);
      lfs_swap_ = layout.get();
      inner = std::move(layout);
      break;
    }
  }
  if (!config_.tiers.tiers.empty()) {
    // Tier stack: the configured layout becomes the stack's bottom tier and
    // the flash-class device tiers sit in front of it, behind the same
    // CompressedSwapBackend contract.
    auto stack = std::make_unique<TierStack>(&clock_, std::move(inner), config_.tiers);
    tier_stack_ = stack.get();
    inner = std::move(stack);
  }
  if (config_.pipeline.enabled) {
    // Write-behind decorator: every layout write becomes a submitted
    // background batch; reads barrier on in-flight pages.
    auto behind = std::make_unique<WriteBehindBackend>(std::move(inner), &clock_,
                                                       config_.pipeline.write_behind_depth);
    write_behind_ = behind.get();
    cswap_ = std::move(behind);
  } else {
    cswap_ = std::move(inner);
  }
#ifndef NDEBUG
  // Layout identity: the typed alias must be the same object the owning
  // pointer (or its decorator) holds (guards against a future construction
  // path forgetting to set the alias).
  CompressedSwapBackend* layout_backend =
      write_behind_ != nullptr ? write_behind_->inner() : cswap_.get();
  if (tier_stack_ != nullptr) {
    CC_ASSERT(layout_backend == static_cast<CompressedSwapBackend*>(tier_stack_));
    layout_backend = tier_stack_->bottom_backend();
  }
  CC_ASSERT(static_cast<CompressedSwapBackend*>(clustered_swap_) == layout_backend ||
            static_cast<CompressedSwapBackend*>(fixed_swap_) == layout_backend ||
            static_cast<CompressedSwapBackend*>(lfs_swap_) == layout_backend);
  CC_ASSERT((clustered_swap_ != nullptr) + (fixed_swap_ != nullptr) + (lfs_swap_ != nullptr) ==
            1);
#endif

  if (config_.use_compression_cache) {
    CcacheOptions cc_options;
    cc_options.max_slots = config_.ccache_max_frames != 0 ? config_.ccache_max_frames
                                                          : pool_.total_frames();
    cc_options.adaptive = config_.adaptive_compression;
    cc_options.threshold = config_.threshold;
    cc_options.write_batch_bytes = config_.write_batch_bytes;
    cc_options.pool_free_target = std::max<size_t>(16, pool_.total_frames() / 64);
    ccache_ = std::make_unique<CompressionCache>(&clock_, &config_.costs, this, codec_.get(),
                                                 cswap_.get(), pager_.get(), cc_options);
    ccache_->SetArena(&scratch_arena_);
    if (injector_ != nullptr) {
      ccache_->SetFaultInjector(injector_.get());
    }
    if (config_.compress_file_cache) {
      buffer_cache_->SetCompressionCache(ccache_.get());
    }
    if (config_.pipeline.enabled) {
      pipeline_ = std::make_unique<PipelineEngine>(&clock_, &config_.costs, this, ccache_.get(),
                                                   pager_.get(), config_.pipeline);
      pager_->SetPipeline(pipeline_.get());
    }

    if (config_.charge_metadata_overhead) {
      // Section 4.4: the codec's hash table (16 KB as measured), the 22 KB of
      // extra kernel code, and 8 bytes per possible cache slot, all resident.
      uint64_t boot_bytes = 22 * kKiB + 8ull * cc_options.max_slots;
      if (const auto* lzrw = dynamic_cast<const Lzrw1*>(codec_.get()); lzrw != nullptr) {
        boot_bytes += lzrw->hash_table_bytes();
      } else {
        boot_bytes += 16 * kKiB;
      }
      ChargeMetadataBytes(boot_bytes);
    }
  }
  pager_->Attach(cswap_.get(), ccache_.get());

  // The buffer cache and pager publish the age of an LRU front that only moves
  // toward the present (evicting the front exposes a younger entry; touching
  // refreshes to now), so their ages are monotone and the auditor holds them to
  // it. The ccache is exempt: a fault hit refreshes the front entry's age in
  // place (ring position stays FIFO), so a later front can legitimately be
  // older than a previously published age.
  arbiter_.AddConsumer(
      "file_cache", [this] { return buffer_cache_->OldestAge(); },
      [this] { return buffer_cache_->ReleaseOldest(); }, config_.biases.file_cache,
      /*monotone_age=*/true);
  arbiter_.AddConsumer(
      "vm", [this] { return pager_->OldestAge(); },
      [this] { return pager_->ReleaseOldest(); }, config_.biases.vm,
      /*monotone_age=*/true);
  if (ccache_ != nullptr) {
    arbiter_.AddConsumer(
        "ccache", [this] { return ccache_->OldestAge(); },
        [this] { return ccache_->ReleaseOldest(); }, config_.biases.ccache,
        /*monotone_age=*/false);
  }
  if (pipeline_ != nullptr) {
    // Speculative frames compete at parity with resident VM pages: a buffered
    // prediction is a page expected to be referenced next, so it should not
    // be shredded the moment any consumer allocates — but a speculation that
    // has grown older than the oldest resident page is a stale guess and goes
    // first. Non-monotone: TryFill and Invalidate remove arbitrary entries,
    // so the front can jump around.
    arbiter_.AddConsumer(
        "prefetch", [this] { return pipeline_->OldestAge(); },
        [this] { return pipeline_->ReleaseOldest(); }, config_.biases.vm,
        /*monotone_age=*/false);
  }
  audit_interval_ = config_.audit_interval;
  if (const char* env = std::getenv("CC_AUDIT_INTERVAL"); env != nullptr && *env != '\0') {
    audit_interval_ = static_cast<size_t>(std::strtoull(env, nullptr, 10));
  }
  pager_->SetPostFaultHook([this] {
    if (ccache_ != nullptr) {
      ccache_->RunCleaner(pool_.free_frames());
    }
    // Audit after the cleaner so the checks see a quiescent machine: the fault
    // is fully serviced and no frame is mid-flight between subsystems.
    if (audit_interval_ > 0 && ++faults_since_audit_ >= audit_interval_) {
      faults_since_audit_ = 0;
      auditor_.RunAll();
    }
  });

  RegisterAuditChecks();
  BindAllMetrics();

  if (config_.trace_capacity > 0) {
    tracer_ = std::make_unique<EventTracer>(config_.trace_capacity);
    disk_->SetTracer(tracer_.get());
    if (injector_ != nullptr) {
      injector_->SetTracer(tracer_.get(), &clock_);
    }
    buffer_cache_->SetTracer(tracer_.get());
    pager_->SetTracer(tracer_.get());
    arbiter_.SetTracer(tracer_.get(), &clock_);
    if (ccache_ != nullptr) {
      ccache_->SetTracer(tracer_.get());
    }
    cswap_->SetTracer(tracer_.get());
  }

  if (recover_from != nullptr) {
    RecoverFrom(*recover_from);
  }
}

void Machine::RecoverFrom(Machine& crashed) {
  const uint64_t start_ns = clock_.Now().nanos();
  recovery_.mounts = 1;
  if (config_.durability.enabled) {
    const CompressedSwapBackend::MountStats mount = cswap_->Mount();
    recovery_.journal_replays = mount.journal_replays;
    recovery_.checkpoint_loads = mount.checkpoint_loads;
    recovery_.torn_writes_detected = mount.torn_writes_detected;
  }

  // Rebuild the address spaces: every old segment reappears under the same id.
  // A touched page whose image survived the mount resumes as swapped-out; the
  // rest are lost (zero-fill + segment abort, the existing degradation ladder).
  Pager& old_pager = crashed.pager();
  for (size_t sid = 0; sid < old_pager.num_segments(); ++sid) {
    Segment* old_seg = old_pager.GetSegment(static_cast<uint32_t>(sid));
    Segment* seg = pager_->CreateSegment(old_seg->num_pages());
    CC_ASSERT(seg->id() == old_seg->id());
    seg->set_owner_pid(old_seg->owner_pid());
    if (old_seg->torn_down()) {
      pager_->TeardownSegment(*seg);
      continue;
    }
    for (uint32_t p = 0; p < old_seg->num_pages(); ++p) {
      if (old_seg->page(p).state == PageState::kUntouched) {
        continue;
      }
      if (cswap_->Contains(PageKey{seg->id(), p})) {
        pager_->RestoreSwappedPage(*seg, p);
        ++recovery_.pages_recovered;
      } else {
        pager_->RestoreLostPage(*seg, p);
        ++recovery_.pages_lost;
      }
    }
  }

  // Purge resurrected backend entries no restored page claims (frees whose
  // journal record never became durable): they would otherwise trip the
  // vm <-> backing orphan audit and leak blocks.
  std::vector<PageKey> orphans;
  cswap_->ForEachPage([&](PageKey key) {
    bool claimed = false;
    if (!IsFileKey(key) && key.segment < pager_->num_segments()) {
      Segment* seg = pager_->GetSegment(key.segment);
      if (!seg->torn_down() && key.page < seg->num_pages()) {
        claimed = seg->page(key.page).state == PageState::kSwapped;
      }
    }
    if (!claimed) {
      orphans.push_back(key);
    }
  });
  for (const PageKey key : orphans) {
    cswap_->Invalidate(key);
  }
  recovery_.orphans_discarded = orphans.size();
  recovery_.mount_ns = clock_.Now().nanos() - start_ns;
}

void Machine::BindAllMetrics() {
  // Simulated-time breakdown.
  metrics_.RegisterGauge("clock.now_ns",
                         [this] { return static_cast<double>(clock_.Now().nanos()); });
  const auto time_in = [this](const char* name, TimeCategory category) {
    metrics_.RegisterGauge(name, [this, category] {
      return static_cast<double>(clock_.TimeIn(category).nanos());
    });
  };
  time_in("clock.cpu_ns", TimeCategory::kCpu);
  time_in("clock.compress_ns", TimeCategory::kCompression);
  time_in("clock.decompress_ns", TimeCategory::kDecompression);
  time_in("clock.copy_ns", TimeCategory::kCopy);
  time_in("clock.io_ns", TimeCategory::kIo);

  metrics_.RegisterGauge("mem.total_frames",
                         [this] { return static_cast<double>(pool_.total_frames()); });
  metrics_.RegisterGauge("mem.free_frames",
                         [this] { return static_cast<double>(pool_.free_frames()); });
  metrics_.RegisterGauge("mem.metadata_frames",
                         [this] { return static_cast<double>(metadata_frames_); });
  metrics_.RegisterGauge("mem.scratch_arena_blocks", [this] {
    return static_cast<double>(scratch_arena_.heap_blocks());
  });
  metrics_.RegisterGauge("mem.scratch_arena_bytes", [this] {
    return static_cast<double>(scratch_arena_.capacity());
  });

  if (injector_ != nullptr) {
    injector_->BindMetrics(&metrics_);
  }
  // Cross-layer integrity summary, always registered so bench JSON schemas are
  // stable whether or not faults are enabled.
  metrics_.RegisterCounterGauge("fault.checksum_mismatches", [this] {
    const uint64_t ccache = ccache_ != nullptr ? ccache_->stats().checksum_mismatches : 0;
    return static_cast<double>(ccache + cswap_->checksum_mismatches());
  });
  const VmStats& vm = pager_->stats();
  metrics_.RegisterCounter("fault.pages_recovered", &vm.pages_recovered);
  metrics_.RegisterCounter("fault.pages_lost", &vm.pages_lost);
  metrics_.RegisterCounter("fault.segments_aborted", &vm.segments_aborted);

  // Crash-recovery outcome, always registered for a stable bench JSON schema
  // (all-zero on machines that were not produced by Recover()).
  metrics_.RegisterCounter("recovery.mounts", &recovery_.mounts);
  metrics_.RegisterCounter("recovery.pages_recovered", &recovery_.pages_recovered);
  metrics_.RegisterCounter("recovery.pages_lost", &recovery_.pages_lost);
  metrics_.RegisterCounter("recovery.orphans_discarded", &recovery_.orphans_discarded);
  metrics_.RegisterCounter("recovery.journal_replays", &recovery_.journal_replays);
  metrics_.RegisterCounter("recovery.checkpoint_loads", &recovery_.checkpoint_loads);
  metrics_.RegisterCounter("recovery.torn_writes_detected", &recovery_.torn_writes_detected);
  metrics_.RegisterCounter("recovery.mount_ns", &recovery_.mount_ns);

  disk_->BindMetrics(&metrics_);
  fs_->BindMetrics(&metrics_);
  buffer_cache_->BindMetrics(&metrics_);
  pager_->BindMetrics(&metrics_);
  arbiter_.BindMetrics(&metrics_);
  if (ccache_ != nullptr) {
    ccache_->BindMetrics(&metrics_);
  }
  cswap_->BindMetrics(&metrics_);
  if (pipeline_ != nullptr) {
    pipeline_->BindMetrics(&metrics_);
  }
  auditor_.BindMetrics(&metrics_);
}

Machine::~Machine() {
  // Shutdown audit: every registered invariant must hold at end of life — this
  // is where leaked swap fragments, stranded frames, and drifted gauges have no
  // transient excuse left. A power-failed machine is exempt: the crash tore it
  // mid-operation by design, and Recover() audits the rebuilt state instead.
  if (!disk_->power_failed()) {
    auditor_.RunAll();
  }
  // The compression cache and buffer cache return their frames to the pool in
  // their destructors; destroy them before the pool (member order handles this —
  // pool_ is declared before them, so it is destroyed after).
}

void Machine::RegisterAuditChecks() {
  // Frame conservation across the whole machine: every physical frame is free,
  // resident (VM), a buffer-cache block, a mapped ccache slot, wired metadata,
  // an LFS segment buffer, or a prefetch-buffer entry — and nothing else.
  auditor_.Register("machine", "frame-conservation", [this]() -> std::optional<std::string> {
    const size_t total = pool_.total_frames();
    const size_t free = pool_.free_frames();
    const size_t resident = pager_->resident_pages();
    const size_t bcache = buffer_cache_->num_blocks();
    const size_t ccache = ccache_ != nullptr ? ccache_->mapped_frames() : 0;
    size_t lfs_buffer = 0;
    if (lfs_swap_ != nullptr) {
      lfs_buffer = lfs_swap_->buffer_frame_count();
    }
    const size_t prefetch = pipeline_ != nullptr ? pipeline_->buffered_frames() : 0;
    const size_t accounted = free + resident + bcache + ccache + metadata_frames_ +
                             lfs_buffer + prefetch;
    if (accounted != total) {
      return "pool holds " + std::to_string(total) + " frames but " +
             std::to_string(accounted) + " are accounted for (free " + std::to_string(free) +
             " + resident " + std::to_string(resident) + " + bcache " +
             std::to_string(bcache) + " + ccache " + std::to_string(ccache) +
             " + metadata " + std::to_string(metadata_frames_) + " + lfs buffer " +
             std::to_string(lfs_buffer) + " + prefetch " + std::to_string(prefetch) + ")";
    }
    return std::nullopt;
  });
  // Every counter-kind metric is non-decreasing between audits. ResetStats()
  // clears the watermarks so the registry's rebase is not a violation.
  auditor_.Register("metrics", "counters-monotone", [this]() -> std::optional<std::string> {
    for (const std::string& name : metrics_.counter_gauge_names()) {
      const double value = metrics_.GaugeValue(name);
      const auto [it, inserted] = counter_watermarks_.try_emplace(name, value);
      if (!inserted) {
        if (value < it->second) {
          return name + " moved backwards: " + std::to_string(it->second) + " -> " +
                 std::to_string(value);
        }
        it->second = value;
      }
    }
    return std::nullopt;
  });

  buffer_cache_->RegisterAuditChecks(&auditor_);
  pager_->RegisterAuditChecks(&auditor_);
  arbiter_.RegisterAuditChecks(&auditor_, &clock_);
  if (ccache_ != nullptr) {
    ccache_->RegisterAuditChecks(&auditor_);
  }
  cswap_->RegisterAuditChecks(&auditor_);
  if (pipeline_ != nullptr) {
    pipeline_->RegisterAuditChecks(&auditor_);
  }
}

void Machine::ResetStats() {
  metrics_.Rebase();
  if (ccache_ != nullptr) {
    ccache_->RestartPeak();
  }
  counter_watermarks_.clear();
}

void Machine::DrainPipeline() {
  if (pipeline_ != nullptr) {
    pipeline_->Flush();
  }
  if (write_behind_ != nullptr) {
    write_behind_->Drain(/*advance_clock=*/!disk_->power_failed());
  }
}

void Machine::ChargeMetadataBytes(uint64_t bytes) {
  metadata_bytes_charged_ += bytes;
  const size_t needed =
      static_cast<size_t>((metadata_bytes_charged_ + kPageSize - 1) / kPageSize);
  while (metadata_frames_ < needed) {
    (void)AllocateFrame();  // permanently consumed; intentionally never freed
    ++metadata_frames_;
  }
}

void Machine::SetCurrentProcess(uint32_t pid) {
  pager_->SetCurrentProcess(pid);
  if (tracer_ != nullptr) {
    tracer_->set_current_pid(pid);
  }
}

Heap Machine::NewHeap(uint64_t bytes) {
  return NewHeap(bytes, config_.costs.heap_cpu_per_access);
}

Heap Machine::NewHeap(uint64_t bytes, SimDuration cpu_per_access) {
  const size_t pages = static_cast<size_t>((bytes + kPageSize - 1) / kPageSize);
  Segment* segment = pager_->CreateSegment(pages);
  if (config_.charge_metadata_overhead) {
    // Section 4.4: 12 bytes per virtual page with the compression cache (8 of
    // them the cache's extension), 4 bytes in the unmodified system — resident
    // even for non-resident pages.
    ChargeMetadataBytes(pages * (config_.use_compression_cache ? 12 : 4));
  }
  return Heap(pager_.get(), segment, &clock_, cpu_per_access);
}

FrameId Machine::AllocateFrame() {
  int spins = 0;
  int refused = 0;
  while (true) {
    CC_ASSERT(++spins < 1'000'000 && "AllocateFrame livelock");
    if (const auto frame = pool_.TryAllocate(); frame.has_value()) {
      return *frame;
    }
    // Harvest ring slots whose compressed entries were all invalidated — they
    // are free memory — before reclaiming anything that holds live data.
    if (ccache_ != nullptr && ccache_->FreeOneDeadSlot()) {
      continue;
    }
    // Under injected disk faults every consumer can refuse because each
    // victim's write-out exhausted the disk's retries; a later round draws
    // fresh faults, so only a run of refusals is a wedge.
    if (!arbiter_.ReclaimOne() && ++refused >= 64) {
      std::fprintf(stderr, "machine wedged: no frames and nothing reclaimable\n");
      std::abort();
    }
  }
}

std::optional<FrameId> Machine::TryAllocateFrame() {
  if (const auto frame = pool_.TryAllocate(); frame.has_value()) {
    return frame;
  }
  // Dead ring slots are free memory nobody is using; harvesting one is not a
  // reclaim, so speculative allocation may take it.
  if (ccache_ != nullptr && ccache_->FreeOneDeadSlot()) {
    return pool_.TryAllocate();
  }
  return std::nullopt;
}

void Machine::FreeFrame(FrameId id) { pool_.Free(id); }

std::span<uint8_t> Machine::FrameData(FrameId id) { return pool_.Data(id); }

std::string Machine::Report() const {
  // Snapshot() is sorted by name, and a dotted name's first component only
  // holds characters that sort after '.', so each family is one run.
  const auto snapshot = metrics_.Snapshot();
  std::string out;
  std::string_view family;
  for (const auto& [name, value] : snapshot) {
    const std::string_view full = name;
    const size_t dot = full.find('.');
    if (full.substr(0, dot) != family) {
      family = full.substr(0, dot);
      out += out.empty() ? "" : "\n";
      out += family;
      out += ':';
    }
    if (value != 0.0) {
      out += ' ';
      out += full.substr(dot + 1);
      out += '=';
      out += JsonWriter().Number(value).str();
    }
  }
  out += '\n';
  return out;
}

}  // namespace compcache
