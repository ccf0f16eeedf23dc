// The paper's motivating scenario (section 1): "mobile computers may communicate
// over slower wireless networks and run either diskless or with small, slower
// local disks. At the same time, however, the processors on mobile computers are
// steadily improving in speed."
//
// This example runs the same memory-hungry workload on three backing stores —
// a local RZ57-class disk, a ~2 Mbps wireless link to a page server, and a slower
// ~0.5 Mbps link — and shows the compression cache's advantage growing as the
// CPU/I-O disparity widens (the paper's section 6 prediction).
//
//   $ ./examples/mobile_paging
#include <cstdio>

#include "apps/thrasher.h"
#include "core/machine.h"

using namespace compcache;

namespace {

constexpr uint64_t kMemory = 6 * kMiB;

double RunOne(bool use_ccache, BackingKind backing, double bandwidth_bytes_per_sec) {
  MachineConfig config = use_ccache ? MachineConfig::WithCompressionCache(kMemory)
                                    : MachineConfig::Unmodified(kMemory);
  config.backing = backing;
  config.network_params.bandwidth_bytes_per_sec = bandwidth_bytes_per_sec;
  if (use_ccache && backing == BackingKind::kNetworkLink) {
    // The slower the backing store, the more a dropped compressed page costs to
    // refetch, so retain the cache harder (the paper's section-4.2 penalty is
    // environment-dependent).
    config.biases.ccache = SimDuration::Seconds(120);
  }

  Machine machine(config);
  ThrasherOptions options;
  options.address_space_bytes = 10 * kMiB;
  // Read-mostly, like the executables and read-shared data the Xerox PARC "tab"
  // scenario (paper section 2.2) would page over wireless.
  options.write = false;
  options.passes = 4;
  Thrasher app(options);
  app.Run(machine);
  return app.result().AvgAccessMillis();
}

void Compare(const char* label, BackingKind backing, double bandwidth) {
  const double std_ms = RunOne(false, backing, bandwidth);
  const double cc_ms = RunOne(true, backing, bandwidth);
  std::printf("%-28s %10.3f %10.3f %9.2fx\n", label, std_ms, cc_ms, std_ms / cc_ms);
}

}  // namespace

int main() {
  std::printf("Paging a 10 MB working set on a 6 MB mobile computer\n\n");
  std::printf("%-28s %10s %10s %10s\n", "backing store", "std ms/acc", "cc ms/acc", "speedup");
  Compare("local RZ57 disk", BackingKind::kLocalDisk, 0);
  Compare("wireless link, 2 Mbps", BackingKind::kNetworkLink, 250e3);
  Compare("wireless link, 0.5 Mbps", BackingKind::kNetworkLink, 62.5e3);
  std::printf(
      "\nThe slower the backing store relative to the CPU, the more on-line\n"
      "compression pays — the paper's case for compressed paging on mobile\n"
      "computers.\n");
  return 0;
}
