#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "disk/disk_device.h"
#include "disk/disk_model.h"
#include "sim/clock.h"
#include "util/rng.h"
#include "util/units.h"

namespace compcache {
namespace {

// ---------- SeekDiskModel ----------

TEST(SeekDiskModelTest, SequentialStreamingAvoidsPositioning) {
  SeekDiskParams params;
  SeekDiskModel disk(params);
  // Back-to-back sequential transfers with no host think-time stream at media
  // rate (no seek, ~no rotational wait).
  SimTime now;
  const SimDuration first = disk.Access(now, 0, 4096);
  now = now + first;
  const SimDuration second = disk.Access(now, 4096, 4096);
  const SimDuration transfer = SimDuration::ForBytes(4096, params.MediaBytesPerSec());
  EXPECT_LE(second.nanos(), transfer.nanos() + 1000);
}

TEST(SeekDiskModelTest, ThinkTimeCostsARotation) {
  SeekDiskParams params;
  SeekDiskModel disk(params);
  SimTime now;
  now = now + disk.Access(now, 0, 4096);
  // Host computes for 2 ms before asking for the next block: the platter has
  // moved on, so the access waits most of a revolution.
  now = now + SimDuration::Millis(2);
  const SimDuration second = disk.Access(now, 4096, 4096);
  const SimDuration rev = params.RevolutionTime();
  EXPECT_GT(second.nanos(), rev.nanos() / 2);
  EXPECT_LT(second.nanos(), rev.nanos() + rev.nanos() / 4);
}

TEST(SeekDiskModelTest, SeekGrowsWithDistance) {
  SeekDiskParams params;
  SeekDiskModel disk(params);
  SimTime now;
  // From position 0, a short hop vs a cross-surface hop.
  const SimDuration near = disk.Access(now, 10 * params.track_bytes, 4096);
  SeekDiskModel disk2(params);
  const SimDuration far = disk2.Access(now, params.capacity_bytes / 2, 4096);
  EXPECT_LT(near.nanos(), far.nanos());
}

TEST(SeekDiskModelTest, SeekCappedAtMax) {
  SeekDiskParams params;
  SeekDiskModel disk(params);
  SimTime now;
  const SimDuration cost = disk.Access(now, params.capacity_bytes - 4096, 4096);
  // seek <= max_seek, rotation <= one revolution, plus transfer.
  const SimDuration bound = params.max_seek + params.RevolutionTime() +
                            SimDuration::ForBytes(4096, params.MediaBytesPerSec());
  EXPECT_LE(cost.nanos(), bound.nanos());
}

TEST(SeekDiskModelTest, LargeTransfersAmortize) {
  SeekDiskParams params;
  // Per-byte cost of one 32 KB read must be well under 8x 4 KB reads with think
  // time between them.
  SeekDiskModel big(params);
  SimTime now;
  const SimDuration one_big = big.Access(now, params.capacity_bytes / 4, 32 * 1024);

  SeekDiskModel small(params);
  SimDuration total_small;
  SimTime t;
  uint64_t offset = params.capacity_bytes / 4;
  for (int i = 0; i < 8; ++i) {
    const SimDuration d = small.Access(t, offset, 4096);
    total_small += d;
    t = t + d + SimDuration::Millis(1);  // host think time
    offset += 4096;
  }
  EXPECT_LT(one_big.nanos() * 3, total_small.nanos());
}

TEST(SeekDiskModelTest, Deterministic) {
  SeekDiskParams params;
  SeekDiskModel a(params);
  SeekDiskModel b(params);
  Rng rng(3);
  SimTime now;
  for (int i = 0; i < 100; ++i) {
    const uint64_t offset = (rng.Below(1000)) * 4096;
    EXPECT_EQ(a.Access(now, offset, 4096).nanos(), b.Access(now, offset, 4096).nanos());
    now = now + SimDuration::Micros(rng.Below(5000));
  }
}

// ---------- NetworkLinkModel ----------

TEST(NetworkLinkModelTest, LatencyPlusBandwidth) {
  NetworkLinkParams params;
  params.round_trip_latency = SimDuration::Millis(10);
  params.bandwidth_bytes_per_sec = 1e6;
  NetworkLinkModel link(params);
  const SimDuration cost = link.Access(SimTime{}, 0, 1'000'000);
  EXPECT_EQ(cost.nanos(), SimDuration::Millis(10).nanos() + SimDuration::Seconds(1).nanos());
}

TEST(NetworkLinkModelTest, PositionIndependent) {
  NetworkLinkModel link{NetworkLinkParams{}};
  const SimDuration a = link.Access(SimTime{}, 0, 4096);
  const SimDuration b = link.Access(SimTime{}, 500 * kMiB, 4096);
  EXPECT_EQ(a.nanos(), b.nanos());
}

// ---------- DiskDevice ----------

class DiskDeviceTest : public ::testing::Test {
 protected:
  DiskDeviceTest()
      : device_(&clock_, std::make_unique<SeekDiskModel>(), SimDuration::Micros(500)) {}

  Clock clock_;
  DiskDevice device_;
};

TEST_F(DiskDeviceTest, ReadBackWhatWasWritten) {
  Rng rng(1);
  std::vector<uint8_t> data(10'000);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  ASSERT_EQ(device_.Write(12'345, data), IoStatus::kOk);
  std::vector<uint8_t> out(data.size());
  ASSERT_EQ(device_.Read(12'345, out), IoStatus::kOk);
  EXPECT_EQ(out, data);
}

TEST_F(DiskDeviceTest, UnwrittenReadsZero) {
  std::vector<uint8_t> out(4096, 0xFF);
  ASSERT_EQ(device_.Read(1 * kMiB, out), IoStatus::kOk);
  for (const uint8_t b : out) {
    EXPECT_EQ(b, 0);
  }
}

TEST_F(DiskDeviceTest, PartialOverwrite) {
  std::vector<uint8_t> base(8192, 0x11);
  ASSERT_EQ(device_.Write(0, base), IoStatus::kOk);
  std::vector<uint8_t> patch(100, 0x22);
  ASSERT_EQ(device_.Write(4000, patch), IoStatus::kOk);  // straddles a chunk boundary
  std::vector<uint8_t> out(8192);
  ASSERT_EQ(device_.Read(0, out), IoStatus::kOk);
  for (size_t i = 0; i < out.size(); ++i) {
    const uint8_t expected = (i >= 4000 && i < 4100) ? 0x22 : 0x11;
    ASSERT_EQ(out[i], expected) << i;
  }
}

TEST_F(DiskDeviceTest, AdvancesClockAndCountsStats) {
  const SimTime before = clock_.Now();
  std::vector<uint8_t> data(4096, 1);
  ASSERT_EQ(device_.Write(0, data), IoStatus::kOk);
  ASSERT_EQ(device_.Read(0, data), IoStatus::kOk);
  EXPECT_GT(clock_.Now().nanos(), before.nanos());
  EXPECT_EQ(device_.stats().read_ops, 1u);
  EXPECT_EQ(device_.stats().write_ops, 1u);
  EXPECT_EQ(device_.stats().bytes_read, 4096u);
  EXPECT_EQ(device_.stats().bytes_written, 4096u);
  EXPECT_GT(device_.stats().busy_time.nanos(), 0);
}

TEST_F(DiskDeviceTest, RegistryRebaseRestartsCountersAndLatencyHistogram) {
  MetricRegistry registry;
  device_.BindMetrics(&registry);
  std::vector<uint8_t> data(4096, 1);
  ASSERT_EQ(device_.Write(0, data), IoStatus::kOk);
  ASSERT_EQ(device_.Read(0, data), IoStatus::kOk);

  LatencyHistogram* hist = registry.FindHistogram("disk.access_ns");
  ASSERT_NE(hist, nullptr);
  ASSERT_EQ(hist->count(), 2u);

  // A bench warm-up discard must leave no stale observability state: the
  // published counters AND the latency histogram start over, while the
  // device's own counters keep counting.
  registry.Rebase();
  EXPECT_EQ(registry.GaugeValue("disk.write_ops"), 0.0);
  EXPECT_EQ(registry.GaugeValue("disk.read_ops"), 0.0);
  EXPECT_EQ(hist->count(), 0u);
  EXPECT_EQ(device_.stats().write_ops, 1u);

  ASSERT_EQ(device_.Read(0, data), IoStatus::kOk);
  EXPECT_EQ(registry.GaugeValue("disk.read_ops"), 1.0);
  EXPECT_EQ(device_.stats().read_ops, 2u);
  EXPECT_EQ(hist->count(), 1u);
}

}  // namespace
}  // namespace compcache
