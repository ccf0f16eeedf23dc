#include "apps/kv_server.h"

#include <algorithm>
#include <cstring>

#include "util/units.h"

namespace compcache {

namespace {

KvServerOptions Normalize(KvServerOptions options) {
  CC_EXPECTS(options.slot_bytes > 16 + options.workload.min_value_bytes);
  options.workload.max_value_bytes =
      std::min(options.workload.max_value_bytes, options.slot_bytes - 16);
  return options;
}

}  // namespace

KvServer::KvServer(KvServerOptions options)
    : options_(Normalize(std::move(options))),
      workload_(options_.workload),
      content_rng_(options_.workload.seed ^ 0xc0ffee) {
  CC_EXPECTS(options_.num_requests > 0);
}

void KvServer::StoreValue(uint64_t key, uint32_t value_bytes) {
  // The header and FillPage write every byte of the record.
  CC_EXPECTS(kHeaderBytes + value_bytes <= io_buf_.size());
  const std::span<uint8_t> record(io_buf_.data(), kHeaderBytes + value_bytes);
  const uint32_t version = versions_[key] + 1;
  std::memcpy(record.data(), &key, sizeof(key));
  std::memcpy(record.data() + 8, &version, sizeof(version));
  std::memcpy(record.data() + 12, &value_bytes, sizeof(value_bytes));
  FillPage(record.subspan(kHeaderBytes), options_.value_content, content_rng_);
  heap_->WriteBytes(SlotAddr(key), record);
  versions_[key] = version;
  sizes_[key] = value_bytes;
}

void KvServer::ServeOne(Machine& machine) {
  const KvRequest req = workload_.Next();
  Clock& clock = machine.clock();
  const SimTime arrival = serve_start_ + SimDuration::Nanos(static_cast<int64_t>(req.arrival_ns));
  if (clock.Now() < arrival) {
    // Open loop: the server sits idle until the next request arrives. When it
    // is behind instead, the gap is queueing delay and lands in the latency.
    clock.Advance(arrival - clock.Now());
  }
  clock.Advance(options_.cpu_per_request);

  const uint64_t key = req.key;
  if (req.is_get) {
    const uint32_t size = sizes_[key];
    heap_->ReadBytes(SlotAddr(key), std::span<uint8_t>(io_buf_.data(), kHeaderBytes + size));
    uint64_t stored_key = 0;
    uint32_t stored_version = 0;
    uint32_t stored_bytes = 0;
    std::memcpy(&stored_key, io_buf_.data(), sizeof(stored_key));
    std::memcpy(&stored_version, io_buf_.data() + 8, sizeof(stored_version));
    std::memcpy(&stored_bytes, io_buf_.data() + 12, sizeof(stored_bytes));
    if (stored_key != key || stored_version != versions_[key] || stored_bytes != size) {
      ++result_.validation_failures;
      ctr_validation_failures_->Inc();
    }
    ++result_.gets;
    result_.bytes_read += size;
    ctr_gets_->Inc();
    ctr_bytes_read_->Inc(size);
  } else {
    StoreValue(key, req.value_bytes);
    ++result_.sets;
    result_.bytes_written += req.value_bytes;
    ctr_sets_->Inc();
    ctr_bytes_written_->Inc(req.value_bytes);
  }
  if (req.flash) {
    ++result_.flash_requests;
    ctr_flash_->Inc();
  }
  ++result_.requests;
  ctr_requests_->Inc();

  const SimDuration latency = clock.Now() - arrival;
  const auto ns = static_cast<double>(latency.nanos());
  result_.latency.Observe(ns);
  request_hist_->Observe(ns);
}

bool KvServer::Step(Machine& machine) {
  CC_EXPECTS(machine_ == nullptr || machine_ == &machine);
  machine_ = &machine;

  switch (phase_) {
    case Phase::kCreate: {
      const uint64_t keys = options_.workload.num_keys;
      CC_EXPECTS(keys > 0);
      heap_.emplace(machine.NewHeap(keys * options_.slot_bytes));
      versions_.assign(keys, 0);
      sizes_.assign(keys, 0);
      io_buf_.resize(options_.slot_bytes);

      // Every server on a machine shares (aggregates into) the kv.* metrics.
      MetricRegistry& m = machine.metrics();
      request_hist_ = m.BindHistogram("kv.request_ns");
      ctr_requests_ = m.BindCounter("kv.requests");
      ctr_gets_ = m.BindCounter("kv.gets");
      ctr_sets_ = m.BindCounter("kv.sets");
      ctr_flash_ = m.BindCounter("kv.flash_requests");
      ctr_bytes_read_ = m.BindCounter("kv.bytes_read");
      ctr_bytes_written_ = m.BindCounter("kv.bytes_written");
      ctr_validation_failures_ = m.BindCounter("kv.validation_failures");

      setup_start_ = machine.clock().Now();
      phase_ = Phase::kLoad;
      return false;
    }

    case Phase::kLoad: {
      // Initial population: every key set once, so serve-phase gets always
      // find a value and working-set size is num_keys * slot from the start.
      const uint64_t end =
          std::min<uint64_t>(options_.workload.num_keys, load_cursor_ + kLoadKeysPerStep);
      for (; load_cursor_ < end; ++load_cursor_) {
        StoreValue(load_cursor_, DrawLogNormalBytes(content_rng_, options_.workload));
      }
      if (load_cursor_ == options_.workload.num_keys) {
        result_.setup_time = machine.clock().Now() - setup_start_;
        serve_start_ = machine.clock().Now();
        phase_ = Phase::kServe;
      }
      return false;
    }

    case Phase::kServe: {
      const uint64_t end = std::min(options_.num_requests, served_ + kServeRequestsPerStep);
      for (; served_ < end; ++served_) {
        ServeOne(machine);
      }
      if (served_ == options_.num_requests) {
        result_.elapsed = machine.clock().Now() - serve_start_;
        phase_ = Phase::kDone;
        return true;
      }
      return false;
    }

    case Phase::kDone:
      return true;
  }
  return true;  // unreachable
}

}  // namespace compcache
