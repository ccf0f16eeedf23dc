// KV object-cache server whose object heap lives on simulated virtual memory:
// every key owns a fixed slot (16-byte header + payload) in one Heap segment,
// so gets and sets page through the Pager / compression-cache / swap stack and
// memory pressure shows up as request tail latency — the paper's "thrashing"
// reframed as the production system's "SLO violation".
//
// Requests come from the seeded open-loop KvWorkload (Zipfian popularity,
// get/set mix, log-normal sizes, diurnal ramps, flash crowds). The server is a
// Step()-able App: the request sequence and heap contents are pure functions
// of the options, so it composes with the round-robin scheduler and the async
// pipeline without perturbing outcomes. Per-request latency (completion minus
// open-loop arrival, queueing included) lands in the "<prefix>.request_ns"
// pow2 histogram plus the app-local copy in KvServerResult.
#ifndef COMPCACHE_APPS_KV_SERVER_H_
#define COMPCACHE_APPS_KV_SERVER_H_

#include <optional>
#include <vector>

#include "apps/app.h"
#include "apps/zipfian.h"
#include "compress/pagegen.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/time_types.h"

namespace compcache {

struct KvServerOptions {
  KvWorkloadOptions workload;
  uint64_t num_requests = 20000;
  // Fixed per-key slot: header + up to (slot_bytes - 16) payload bytes. The
  // workload's max_value_bytes is clamped to fit at construction.
  uint32_t slot_bytes = 2048;
  // Payload content class (drives the achievable compression ratio).
  ContentClass value_content = ContentClass::kText;
  // Parse/dispatch instructions per request, on top of heap-access costs.
  SimDuration cpu_per_request = SimDuration::Micros(2);
};

struct KvServerResult {
  uint64_t requests = 0;
  uint64_t gets = 0;
  uint64_t sets = 0;
  uint64_t flash_requests = 0;
  uint64_t bytes_read = 0;     // payload bytes served by gets
  uint64_t bytes_written = 0;  // payload bytes stored by sets
  // Header cross-checks that failed on a get (0 unless pages were lost).
  uint64_t validation_failures = 0;
  SimDuration setup_time;  // heap creation + initial population
  SimDuration elapsed;     // serve phase, virtual time
  LatencyHistogram latency;  // per-request ns, arrival to completion

  double OpsPerSec() const {
    return elapsed.nanos() > 0
               ? static_cast<double>(requests) / elapsed.seconds()
               : 0.0;
  }
};

class KvServer : public App {
 public:
  explicit KvServer(KvServerOptions options);

  std::string_view name() const override { return "kv_server"; }
  bool Step(Machine& machine) override;

  const KvServerResult& result() const { return result_; }

 private:
  enum class Phase { kCreate, kLoad, kServe, kDone };

  static constexpr uint32_t kHeaderBytes = 16;
  // Keys populated / requests served per Step (a quantum's minimum granularity;
  // the access sequence is unaffected).
  static constexpr uint64_t kLoadKeysPerStep = 128;
  static constexpr uint64_t kServeRequestsPerStep = 64;

  uint64_t SlotAddr(uint64_t key) const { return key * options_.slot_bytes; }
  void ServeOne(Machine& machine);
  void StoreValue(uint64_t key, uint32_t value_bytes);

  KvServerOptions options_;
  KvServerResult result_;

  Phase phase_ = Phase::kCreate;
  Machine* machine_ = nullptr;  // bound at first Step; must not change
  std::optional<Heap> heap_;
  KvWorkload workload_;
  Rng content_rng_{0};  // payload fill draws, separate from the request stream
  std::vector<uint8_t> io_buf_;  // one slot; each request uses its record's prefix
  // Host-side bookkeeping mirrored by the simulated heap, for get validation.
  std::vector<uint32_t> versions_;
  std::vector<uint32_t> sizes_;
  uint64_t load_cursor_ = 0;
  uint64_t served_ = 0;
  SimTime setup_start_;
  SimTime serve_start_;

  // Registry handles (bound at kCreate; registry-owned, so nothing dangles if
  // the app dies before the machine).
  LatencyHistogram* request_hist_ = nullptr;
  Counter* ctr_requests_ = nullptr;
  Counter* ctr_gets_ = nullptr;
  Counter* ctr_sets_ = nullptr;
  Counter* ctr_flash_ = nullptr;
  Counter* ctr_bytes_read_ = nullptr;
  Counter* ctr_bytes_written_ = nullptr;
  Counter* ctr_validation_failures_ = nullptr;
};

}  // namespace compcache

#endif  // COMPCACHE_APPS_KV_SERVER_H_
