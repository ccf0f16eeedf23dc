#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string_view>
#include <vector>

#include "util/checksum.h"
#include "util/intrusive_lru.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/time_types.h"

namespace compcache {
namespace {

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.Below(bound), bound);
    }
  }
}

TEST(RngTest, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.Below(1), 0u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.Range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BelowIsRoughlyUniform) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.Below(10)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 100);
  }
}

TEST(RngTest, ReseedReproduces) {
  Rng rng(42);
  const uint64_t first = rng.Next();
  rng.Next();
  rng.Seed(42);
  EXPECT_EQ(rng.Next(), first);
}

// ---------- RunningStats ----------

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.Add(42.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStatsTest, ResetClears) {
  RunningStats s;
  s.Add(5.0);
  s.Reset();
  EXPECT_EQ(s.count(), 0u);
}

// ---------- LruList ----------

struct Node {
  int id = 0;
  LruLink lru_link;
};

TEST(LruListTest, PushAndPopOrder) {
  LruList<Node> list;
  Node a{1, {}};
  Node b{2, {}};
  Node c{3, {}};
  list.PushMru(a);
  list.PushMru(b);
  list.PushMru(c);
  EXPECT_EQ(list.size(), 3u);
  EXPECT_EQ(list.PopLru()->id, 1);
  EXPECT_EQ(list.PopLru()->id, 2);
  EXPECT_EQ(list.PopLru()->id, 3);
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.PopLru(), nullptr);
}

TEST(LruListTest, TouchMovesToMru) {
  LruList<Node> list;
  Node a{1, {}};
  Node b{2, {}};
  Node c{3, {}};
  list.PushMru(a);
  list.PushMru(b);
  list.PushMru(c);
  list.Touch(a);
  EXPECT_EQ(list.Lru()->id, 2);
  EXPECT_EQ(list.Mru()->id, 1);
}

TEST(LruListTest, RemoveMiddle) {
  LruList<Node> list;
  Node a{1, {}};
  Node b{2, {}};
  Node c{3, {}};
  list.PushMru(a);
  list.PushMru(b);
  list.PushMru(c);
  list.Remove(b);
  EXPECT_EQ(list.size(), 2u);
  EXPECT_FALSE(list.Contains(b));
  EXPECT_EQ(list.PopLru()->id, 1);
  EXPECT_EQ(list.PopLru()->id, 3);
}

TEST(LruListTest, PushLruInsertsAtFront) {
  LruList<Node> list;
  Node a{1, {}};
  Node b{2, {}};
  list.PushMru(a);
  list.PushLru(b);
  EXPECT_EQ(list.Lru()->id, 2);
}

TEST(LruListTest, ForEachVisitsInLruOrder) {
  LruList<Node> list;
  Node nodes[5];
  for (int i = 0; i < 5; ++i) {
    nodes[i].id = i;
    list.PushMru(nodes[i]);
  }
  std::vector<int> order;
  list.ForEach([&](const Node& n) { order.push_back(n.id); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// ---------- CRC-32C ----------

// Bitwise reference: the definition of the reflected Castagnoli CRC.
uint32_t ReferenceCrc32cUpdate(uint32_t crc, std::span<const uint8_t> data) {
  for (const uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
  }
  return crc;
}

std::span<const uint8_t> AsBytes(std::string_view s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

TEST(Crc32Test, CastagnoliCheckValue) {
  EXPECT_EQ(Crc32(AsBytes("123456789")), 0xE3069283u);
}

TEST(Crc32Test, EveryPathMatchesReferenceAtEveryLengthAndAlignment) {
  Rng rng(0xC7C);
  std::vector<uint8_t> buf(4200 + 8);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  const bool hardware = internal::Crc32cHardwareAvailable();
  for (size_t align = 0; align < 8; ++align) {
    uint32_t want = 0xFFFFFFFFu;  // the reference register, one byte further per length
    for (size_t len = 0; len <= 4200; ++len) {
      const auto data = std::span<const uint8_t>(buf).subspan(align, len);
      if (len > 0) {
        want = ReferenceCrc32cUpdate(want, data.last(1));
      }
      ASSERT_EQ(internal::Crc32cBytewise(0xFFFFFFFFu, data), want)
          << "bytewise, align " << align << " len " << len;
      if (hardware) {
        ASSERT_EQ(internal::Crc32cHardware(0xFFFFFFFFu, data), want)
            << "sse4.2, align " << align << " len " << len;
      }
      const uint32_t final_crc = want ^ 0xFFFFFFFFu;
      ASSERT_EQ(Crc32(data), final_crc == 0 ? 1u : final_crc);
    }
  }
}

TEST(Crc32Test, TrueZeroCrcMapsToOne) {
  const uint8_t data[] = {0xab, 0x9b, 0xe0, 0x9b};
  ASSERT_EQ(ReferenceCrc32cUpdate(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu, 0u);
  EXPECT_EQ(Crc32(data), 1u);
}

// ---------- time types ----------

TEST(TimeTest, DurationArithmetic) {
  const SimDuration a = SimDuration::Millis(2);
  const SimDuration b = SimDuration::Micros(500);
  EXPECT_EQ((a + b).nanos(), 2'500'000);
  EXPECT_EQ((a - b).nanos(), 1'500'000);
  EXPECT_EQ((b * 4).nanos(), 2'000'000);
  EXPECT_LT(b, a);
}

TEST(TimeTest, ForBytes) {
  // 1 MB at 1 MB/s = 1 s.
  EXPECT_EQ(SimDuration::ForBytes(1'000'000, 1e6).nanos(), 1'000'000'000);
}

TEST(TimeTest, ToMinSec) {
  EXPECT_EQ(SimDuration::Seconds(974).ToMinSec(), "16:14");
  EXPECT_EQ(SimDuration::Seconds(60).ToMinSec(), "1:00");
  EXPECT_EQ(SimDuration::Seconds(5).ToMinSec(), "0:05");
}

TEST(TimeTest, TimePlusDuration) {
  const SimTime t = SimTime::FromNanos(100) + SimDuration::Nanos(50);
  EXPECT_EQ(t.nanos(), 150);
  EXPECT_EQ((t - SimTime::FromNanos(100)).nanos(), 50);
}

}  // namespace
}  // namespace compcache
