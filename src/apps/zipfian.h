// Seeded open-loop request generator for the KV service workload: Zipfian key
// popularity (Gray et al.'s rejection-free sampler, as popularized by YCSB),
// a get/set mix, log-normal value sizes, a diurnal load ramp, and periodic
// hot-key flash crowds.
//
// Every quantity is a pure function of (options, request index, Rng stream):
// the generator never reads the simulated clock, so the request sequence — and
// therefore the heap contents it induces — is identical no matter how the
// consuming App's steps interleave with other processes. Arrival times are
// virtual-nanosecond offsets from the start of the serve phase; the open-loop
// consumer compares them against the clock it advances.
#ifndef COMPCACHE_APPS_ZIPFIAN_H_
#define COMPCACHE_APPS_ZIPFIAN_H_

#include <cstdint>

#include "util/rng.h"
#include "util/time_types.h"
#include "util/units.h"

namespace compcache {

// Zipfian rank sampler over [0, num_keys): rank 0 is the most popular key and
// P(rank) ~ 1 / (rank+1)^s. Requires 0 < s < 1 (the YCSB range; s -> 1 is
// near-degenerate single-key traffic, s -> 0 uniform).
class ZipfianGenerator {
 public:
  ZipfianGenerator(uint64_t num_keys, double s);

  uint64_t Sample(Rng& rng) const;

  uint64_t num_keys() const { return num_keys_; }
  double s() const { return s_; }

 private:
  uint64_t num_keys_;
  double s_;
  // Precomputed sampler constants (Gray et al., "Quickly generating
  // billion-record synthetic databases").
  double zetan_ = 0.0;   // generalized harmonic number H_{n,s}
  double theta_half_ = 0.0;  // 0.5^s
  double alpha_ = 0.0;   // 1 / (1 - s)
  double eta_ = 0.0;
};

// One generated request. Keys are ranks remapped through a seeded permutation
// so popularity is not correlated with heap address adjacency.
struct KvRequest {
  uint64_t key = 0;
  bool is_get = true;
  uint32_t value_bytes = 0;   // sets only; 0 for gets
  uint64_t arrival_ns = 0;    // offset from serve start (open loop)
  bool flash = false;         // part of a hot-key flash crowd window
};

struct KvWorkloadOptions {
  uint64_t num_keys = 4096;
  double zipf_s = 0.99;          // YCSB default skew
  double get_fraction = 0.9;     // remainder are sets
  // Log-normal value size: exp(N(log_mean, log_sigma)) clamped to
  // [min_value_bytes, max_value_bytes]. Defaults center near ~500 B with a
  // heavy right tail, the shape memcached-style object caches report.
  double value_log_mean = 6.2;
  double value_log_sigma = 0.8;
  uint32_t min_value_bytes = 16;
  uint32_t max_value_bytes = 4096;
  // Open-loop arrival process: exponential inter-arrival gaps around
  // mean_interarrival, modulated by a triangle-wave diurnal ramp with the
  // given period (in requests) and amplitude (peak rate = base * (1 + amp)).
  SimDuration mean_interarrival = SimDuration::Micros(400);
  uint64_t diurnal_period_requests = 0;  // 0 disables the ramp
  double diurnal_amplitude = 0.5;
  // Flash crowds: every flash_period requests, a window of flash_len requests
  // redirects flash_fraction of its traffic to one freshly drawn hot key.
  uint64_t flash_period_requests = 0;  // 0 disables flash crowds
  uint64_t flash_len_requests = 0;
  double flash_fraction = 0.7;
  uint64_t seed = 42;
};

// One clamped log-normal size draw (exp of an Irwin-Hall approximate normal) —
// shared by the workload's set sizes and the server's initial population.
uint32_t DrawLogNormalBytes(Rng& rng, const KvWorkloadOptions& options);

// Deterministic request stream. Construct once, then call Next() exactly
// `num_requests` times in order — request i consumes a fixed number of draws
// from the stream's private Rng, so the sequence is reproducible from the seed
// alone.
class KvWorkload {
 public:
  explicit KvWorkload(KvWorkloadOptions options);

  KvRequest Next();

  const KvWorkloadOptions& options() const { return options_; }

  // The seeded rank->key permutation (exposed for tests).
  uint64_t KeyForRank(uint64_t rank) const;

 private:
  uint32_t DrawValueBytes();
  // Triangle-wave diurnal rate multiplier >= 1/(1+amp), peak 1+amp.
  double RateMultiplier(uint64_t index) const;

  KvWorkloadOptions options_;
  ZipfianGenerator zipf_;
  Rng rng_;
  uint64_t index_ = 0;
  uint64_t next_arrival_ns_ = 0;
  // Affine cycle-walking permutation parameters drawn from the seed.
  uint64_t key_mult_ = 1;
  uint64_t key_add_ = 0;
  uint64_t key_mask_ = 0;
  // Current flash-crowd hot key (valid inside a window).
  uint64_t flash_key_ = 0;
  uint64_t flash_window_ = ~uint64_t{0};
};

}  // namespace compcache

#endif  // COMPCACHE_APPS_ZIPFIAN_H_
