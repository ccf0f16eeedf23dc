#include <gtest/gtest.h>

#include "sim/clock.h"
#include "sim/cost_model.h"

namespace compcache {
namespace {

TEST(ClockTest, AdvanceAccumulates) {
  Clock clock;
  clock.Advance(SimDuration::Millis(5));
  clock.Advance(SimDuration::Micros(250));
  EXPECT_EQ(clock.Now().nanos(), 5'250'000);
}

TEST(ClockTest, CategoriesTrackSeparately) {
  Clock clock;
  clock.Advance(SimDuration::Millis(1), TimeCategory::kCpu);
  clock.Advance(SimDuration::Millis(2), TimeCategory::kCompression);
  clock.Advance(SimDuration::Millis(3), TimeCategory::kIo);
  clock.Advance(SimDuration::Millis(4), TimeCategory::kCompression);
  EXPECT_EQ(clock.TimeIn(TimeCategory::kCpu).millis(), 1.0);
  EXPECT_EQ(clock.TimeIn(TimeCategory::kCompression).millis(), 6.0);
  EXPECT_EQ(clock.TimeIn(TimeCategory::kIo).millis(), 3.0);
  EXPECT_EQ(clock.TimeIn(TimeCategory::kDecompression).nanos(), 0);
  // Total equals the sum of the categories.
  EXPECT_EQ(clock.Now().nanos(), 10'000'000);
}

TEST(ClockTest, DefaultCategoryIsCpu) {
  Clock clock;
  clock.Advance(SimDuration::Micros(7));
  EXPECT_EQ(clock.TimeIn(TimeCategory::kCpu).nanos(), 7'000);
}

TEST(CostModelTest, DefaultRatiosMatchThePaper) {
  const CostModel costs;
  // Decompression about twice as fast as compression (Figure 1's caption).
  EXPECT_NEAR(costs.decompress_bytes_per_sec / costs.compress_bytes_per_sec, 2.0, 0.5);
  // Compression comfortably faster than the RZ57's ~2 MB/s media rate times
  // never holds... rather: a 4 KB page compresses in ~2 ms, far below the ~19 ms
  // positioned disk access it replaces.
  EXPECT_LT(costs.CompressCost(4096).millis(), 4.0);
}

TEST(CostModelTest, CostsScaleLinearly) {
  const CostModel costs;
  EXPECT_EQ(costs.CompressCost(8192).nanos(), 2 * costs.CompressCost(4096).nanos());
  EXPECT_EQ(costs.DecompressCost(8192).nanos(), 2 * costs.DecompressCost(4096).nanos());
  EXPECT_EQ(costs.CopyCost(8192).nanos(), 2 * costs.CopyCost(4096).nanos());
}

TEST(TimeCategoryTest, NamesAreStable) {
  EXPECT_STREQ(TimeCategoryName(TimeCategory::kCpu), "cpu");
  EXPECT_STREQ(TimeCategoryName(TimeCategory::kCompression), "compress");
  EXPECT_STREQ(TimeCategoryName(TimeCategory::kDecompression), "decompress");
  EXPECT_STREQ(TimeCategoryName(TimeCategory::kCopy), "copy");
  EXPECT_STREQ(TimeCategoryName(TimeCategory::kIo), "io");
}

}  // namespace
}  // namespace compcache
