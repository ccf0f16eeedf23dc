#include <gtest/gtest.h>

#include "apps/compare.h"
#include "apps/gold.h"
#include "apps/isca.h"
#include "apps/sort.h"
#include "apps/thrasher.h"
#include "apps/wordgen.h"
#include "tests/test_util.h"

namespace compcache {
namespace {

// ---------- wordgen ----------

TEST(WordgenTest, DictionarySortedAndDistinct) {
  const auto dict = MakeDictionary(500, 1);
  ASSERT_EQ(dict.size(), 500u);
  for (size_t i = 1; i < dict.size(); ++i) {
    EXPECT_LT(dict[i - 1], dict[i]);
  }
}

TEST(WordgenTest, UnsortedCopiesReachTargetBytes) {
  const auto dict = MakeDictionary(100, 2);
  const auto words = MakeUnsortedCopies(dict, 10'000, 3);
  uint64_t bytes = 0;
  for (const auto& w : words) {
    bytes += w.size() + 1;
  }
  EXPECT_GE(bytes, 10'000u);
  EXPECT_LT(bytes, 11'000u);
}

TEST(WordgenTest, NearlySortedIsLocallyPerturbed) {
  const auto dict = MakeDictionary(100, 4);
  const auto words = MakeNearlySortedCopies(dict, 20'000, 8, 5);
  // Locally perturbed: most adjacent pairs still in order.
  size_t in_order = 0;
  for (size_t i = 1; i < words.size(); ++i) {
    if (words[i - 1] <= words[i]) {
      ++in_order;
    }
  }
  EXPECT_GT(in_order, words.size() * 6 / 10);
}

TEST(WordgenTest, Deterministic) {
  EXPECT_EQ(MakeDictionary(50, 9), MakeDictionary(50, 9));
  const auto dict = MakeDictionary(50, 9);
  EXPECT_EQ(MakeUnsortedCopies(dict, 1000, 3), MakeUnsortedCopies(dict, 1000, 3));
}

// ---------- thrasher ----------

TEST(ThrasherTest, FaultsOnEveryTouchWhenThrashing) {
  Machine machine(SmallConfig(false, 2 * kMiB));
  ThrasherOptions options;
  options.address_space_bytes = 4 * kMiB;  // 2x memory: LRU defeated
  options.write = false;
  options.passes = 2;
  Thrasher app(options);
  app.Run(machine);

  const uint64_t pages = options.address_space_bytes / kPageSize;
  EXPECT_EQ(app.result().page_touches, pages * 2);
  // Sequential cyclic sweep through 2x memory faults on every measured touch.
  EXPECT_GE(machine.pager().stats().faults, pages * 3 - 64);  // init + 2 passes
}

TEST(ThrasherTest, NoFaultsWhenWorkingSetFits) {
  Machine machine(SmallConfig(false, 4 * kMiB));
  ThrasherOptions options;
  options.address_space_bytes = 1 * kMiB;
  options.passes = 3;
  Thrasher app(options);
  app.Run(machine);
  const uint64_t pages = options.address_space_bytes / kPageSize;
  // Only the initial materialization faults.
  EXPECT_EQ(machine.pager().stats().faults, pages);
}

TEST(ThrasherTest, CcFasterThanStdWhenCompressedFits) {
  ThrasherOptions options;
  options.address_space_bytes = 3 * kMiB;
  options.write = true;
  options.passes = 2;

  Machine std_machine(SmallConfig(false, 2 * kMiB));
  Thrasher std_app(options);
  std_app.Run(std_machine);

  Machine cc_machine(SmallConfig(true, 2 * kMiB));
  Thrasher cc_app(options);
  cc_app.Run(cc_machine);

  EXPECT_LT(cc_app.result().elapsed.nanos(), std_app.result().elapsed.nanos());
}

TEST(ThrasherTest, IncompressibleContentIsSlowerWithCc) {
  ThrasherOptions options;
  options.address_space_bytes = 3 * kMiB;
  options.content = ContentClass::kRandom;  // defeats compression
  options.write = true;
  options.passes = 2;

  Machine std_machine(SmallConfig(false, 2 * kMiB));
  Thrasher std_app(options);
  std_app.Run(std_machine);

  Machine cc_machine(SmallConfig(true, 2 * kMiB));
  Thrasher cc_app(options);
  cc_app.Run(cc_machine);

  // Wasted compression effort: cc must not win (paper: sort random regressed).
  EXPECT_GE(cc_app.result().elapsed.nanos(), std_app.result().elapsed.nanos() * 9 / 10);
}

// ---------- compare ----------

TEST(CompareTest, ComputesPlausibleEditDistance) {
  Machine machine(SmallConfig(true, 4 * kMiB));
  CompareOptions options;
  options.rows = 2048;
  options.band_width = 64;
  options.mutation_rate = 0.0;  // identical strings
  Compare app(options);
  app.Run(machine);
  EXPECT_EQ(app.result().edit_distance, 0);
  EXPECT_EQ(app.result().cells_computed, 2048u * 64u);
}

TEST(CompareTest, MutationsRaiseDistance) {
  Machine machine(SmallConfig(true, 4 * kMiB));
  CompareOptions options;
  options.rows = 2048;
  options.band_width = 64;
  options.mutation_rate = 0.10;
  Compare app(options);
  app.Run(machine);
  EXPECT_GT(app.result().edit_distance, 0);
  EXPECT_LT(app.result().edit_distance, 2048);
}

TEST(CompareTest, DeterministicDistanceAcrossModes) {
  CompareOptions options;
  options.rows = 1024;
  options.band_width = 64;
  options.mutation_rate = 0.05;

  Machine std_machine(SmallConfig(false, 1 * kMiB));
  Compare std_app(options);
  std_app.Run(std_machine);

  Machine cc_machine(SmallConfig(true, 1 * kMiB));
  Compare cc_app(options);
  cc_app.Run(cc_machine);

  // Paging policy must never change results — only timing.
  EXPECT_EQ(std_app.result().edit_distance, cc_app.result().edit_distance);
}

// ---------- isca ----------

TEST(IscaTest, HitsPlusMissesEqualReferences) {
  Machine machine(SmallConfig(true, 2 * kMiB));
  IscaOptions options;
  options.simulated_blocks = 100'000;
  options.cache_lines_per_proc = 4096;
  options.references = 20'000;
  IscaCacheSim app(options);
  app.Run(machine);
  EXPECT_EQ(app.result().references, options.references);
  EXPECT_EQ(app.result().cache_hits + app.result().cache_misses, options.references);
  EXPECT_GT(app.result().cache_hits, 0u);
  EXPECT_GT(app.result().cache_misses, 0u);
}

TEST(IscaTest, WritesCauseInvalidations) {
  Machine machine(SmallConfig(true, 2 * kMiB));
  IscaOptions options;
  options.simulated_blocks = 20'000;
  options.cache_lines_per_proc = 4096;
  options.references = 40'000;
  options.locality = 0.95;
  options.region_blocks = 512;  // processors share regions often
  IscaCacheSim app(options);
  app.Run(machine);
  EXPECT_GT(app.result().invalidations, 0u);
}

TEST(IscaTest, DeterministicStatsAcrossModes) {
  IscaOptions options;
  options.simulated_blocks = 50'000;
  options.cache_lines_per_proc = 2048;
  options.references = 20'000;

  Machine a(SmallConfig(false, 1 * kMiB));
  IscaCacheSim app_a(options);
  app_a.Run(a);
  Machine b(SmallConfig(true, 1 * kMiB));
  IscaCacheSim app_b(options);
  app_b.Run(b);
  EXPECT_EQ(app_a.result().cache_hits, app_b.result().cache_hits);
  EXPECT_EQ(app_a.result().invalidations, app_b.result().invalidations);
}

// ---------- sort ----------

class SortModeTest : public ::testing::TestWithParam<std::tuple<bool, SortVariant>> {};

TEST_P(SortModeTest, SortsCorrectlyUnderPaging) {
  const auto& [use_cc, variant] = GetParam();
  Machine machine(SmallConfig(use_cc, 2 * kMiB));
  SortOptions options;
  options.variant = variant;
  options.text_bytes = 1 * kMiB;  // small but still >> test machine's comfort
  options.dictionary_words = 2000;
  TextSort app(options);
  app.Run(machine);
  EXPECT_TRUE(app.result().verified_sorted);
  EXPECT_GT(app.result().words, 50'000u);
  EXPECT_GT(app.result().comparisons, app.result().words);
}

std::string SortParamName(const ::testing::TestParamInfo<std::tuple<bool, SortVariant>>& info) {
  return std::string(std::get<0>(info.param) ? "cc" : "std") + "_" +
         (std::get<1>(info.param) == SortVariant::kRandom ? "random" : "partial");
}

INSTANTIATE_TEST_SUITE_P(
    Variants, SortModeTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(SortVariant::kRandom, SortVariant::kPartial)),
    SortParamName);

TEST(SortTest, PartialInputCompressesBetterThanRandom) {
  SortOptions options;
  options.text_bytes = 2 * kMiB;
  options.dictionary_words = 4000;

  options.variant = SortVariant::kRandom;
  Machine random_machine(SmallConfig(true, 1 * kMiB));
  TextSort random_app(options);
  random_app.Run(random_machine);

  options.variant = SortVariant::kPartial;
  Machine partial_machine(SmallConfig(true, 1 * kMiB));
  TextSort partial_app(options);
  partial_app.Run(partial_machine);

  const auto& random_stats = random_machine.ccache()->stats();
  const auto& partial_stats = partial_machine.ccache()->stats();
  const double random_reject_fraction =
      static_cast<double>(random_stats.pages_rejected) /
      static_cast<double>(random_stats.pages_compressed);
  const double partial_reject_fraction =
      static_cast<double>(partial_stats.pages_rejected) /
      static_cast<double>(partial_stats.pages_compressed);
  // The paper's contrast (98% vs 49% uncompressible) is between the two *text*
  // regimes; at this scale the sort's index pages dilute the reject fractions,
  // but the ordering must hold: no fewer rejects and clearly worse kept ratios
  // for the random input.
  EXPECT_GE(random_reject_fraction, partial_reject_fraction);
  const auto kept_ratio_pct = [](const Machine& m) {
    return m.metrics().FindHistogram("ccache.kept_ratio_pct")->mean();
  };
  EXPECT_GT(kept_ratio_pct(random_machine), kept_ratio_pct(partial_machine) + 10.0);
}

// ---------- gold ----------

TEST(GoldTest, IndexAnswersQueriesConsistently) {
  GoldOptions options;
  options.num_messages = 256;
  options.message_bytes = 512;
  options.dictionary_words = 2000;
  options.term_table_slots = 1 << 12;
  options.postings_bytes = 2 * kMiB;
  options.num_queries = 64;

  Machine machine(SmallConfig(true, 2 * kMiB));
  const GoldRunResult result = RunGoldBenchmarks(machine, options);
  EXPECT_EQ(result.create.tokens_indexed > 0, true);
  // Cold and warm run the identical query batch: identical answers.
  EXPECT_EQ(result.cold.query_hits, result.warm.query_hits);
  EXPECT_GT(result.cold.query_hits, 0u);
  // Warm must not be slower than cold by much — and both charged real time.
  EXPECT_GT(result.cold.elapsed.nanos(), 0);
  EXPECT_GT(result.warm.elapsed.nanos(), 0);
}

TEST(GoldTest, SameAnswersUnderBothMemorySystems) {
  GoldOptions options;
  options.num_messages = 128;
  options.message_bytes = 512;
  options.dictionary_words = 1000;
  options.term_table_slots = 1 << 12;
  options.postings_bytes = 1 * kMiB;
  options.num_queries = 32;

  Machine std_machine(SmallConfig(false, 1 * kMiB));
  const GoldRunResult std_result = RunGoldBenchmarks(std_machine, options);
  Machine cc_machine(SmallConfig(true, 1 * kMiB));
  const GoldRunResult cc_result = RunGoldBenchmarks(cc_machine, options);

  EXPECT_EQ(std_result.create.tokens_indexed, cc_result.create.tokens_indexed);
  EXPECT_EQ(std_result.cold.query_hits, cc_result.cold.query_hits);
  EXPECT_EQ(std_result.warm.query_hits, cc_result.warm.query_hits);
}


TEST(GoldTest, CompactPostingsSameAnswersSmallerIndex) {
  // Paper section 6: application-specific compression of the index's own data
  // structures. Varint delta postings must answer identically while using a
  // fraction of the postings memory.
  GoldOptions options;
  options.num_messages = 256;
  options.message_bytes = 512;
  options.dictionary_words = 2000;
  options.term_table_slots = 1 << 12;
  options.postings_bytes = 2 * kMiB;
  options.num_queries = 64;

  uint64_t hits[2];
  uint64_t bytes[2];
  for (const bool compact : {false, true}) {
    options.compact_postings = compact;
    Machine machine(SmallConfig(true, 2 * kMiB));
    GoldIndex engine(machine, options);
    engine.PrepareCorpus();
    engine.RunCreate();
    const GoldPhaseResult queries = engine.RunQueries();
    hits[compact] = queries.query_hits;
    bytes[compact] = engine.postings_bytes_used();
  }
  EXPECT_EQ(hits[0], hits[1]);
  EXPECT_LT(bytes[1], bytes[0] / 2);  // at least 2x denser
}

TEST(GoldTest, CompactPostingsSpeedUpPagedQueries) {
  // With the index ~3x smaller, a memory-starved query workload pages less.
  GoldOptions options;
  options.num_messages = 2048;
  options.message_bytes = 1024;
  options.dictionary_words = 4000;
  options.term_table_slots = 1 << 14;
  options.postings_bytes = 4 * kMiB;
  options.num_queries = 256;

  SimDuration times[2];
  for (const bool compact : {false, true}) {
    options.compact_postings = compact;
    Machine machine(SmallConfig(true, 1 * kMiB));
    GoldIndex engine(machine, options);
    engine.PrepareCorpus();
    engine.RunCreate();
    times[compact] = engine.RunQueries().elapsed;
  }
  EXPECT_LT(times[1].nanos(), times[0].nanos());
}

}  // namespace
}  // namespace compcache
