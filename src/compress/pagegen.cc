#include "compress/pagegen.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "compress/lzrw1.h"
#include "util/assert.h"

namespace compcache {

namespace {

// A compact English-like word pool. Word frequency follows a Zipf-ish pattern via
// the skewed index draw in AppendWordStream().
constexpr std::string_view kWords[] = {
    "the",      "of",       "and",      "to",        "in",       "that",    "is",
    "was",      "for",      "with",     "memory",    "page",     "cache",   "disk",
    "system",   "process",  "kernel",   "compress",  "store",    "block",   "file",
    "segment",  "virtual",  "physical", "bandwidth", "latency",  "buffer",  "fault",
    "thrash",   "cluster",  "fragment", "swap",      "backing",  "network", "mobile",
    "computer", "sprite",   "unix",     "workload",  "locality", "random",  "access",
    "pattern",  "ratio",    "speed",    "overhead",  "penalty",  "daemon",  "clean",
    "dirty",    "quarterly","rendezvous","ubiquitous","peripheral","asymmetric",
    "heuristic","threshold","algorithm","dictionary","sequential","magnitude",
    "executable","decompress","hierarchy","granularity",
};
constexpr size_t kNumWords = sizeof(kWords) / sizeof(kWords[0]);

// Every word with its trailing space fits one 16-byte store.
constexpr size_t kWordStore = 16;
static_assert(std::ranges::all_of(kWords,
                                  [](std::string_view w) { return w.size() < kWordStore; }));

struct alignas(kWordStore) PaddedWord {
  uint8_t bytes[kWordStore] = {};  // the word, one space, zero padding
  size_t length = 0;               // word plus space
};

constexpr std::array<PaddedWord, kNumWords> PadWords() {
  std::array<PaddedWord, kNumWords> table{};
  for (size_t i = 0; i < kNumWords; ++i) {
    const std::string_view w = kWords[i];
    for (size_t c = 0; c < w.size(); ++c) {
      table[i].bytes[c] = static_cast<uint8_t>(w[c]);
    }
    table[i].bytes[w.size()] = ' ';
    table[i].length = w.size() + 1;
  }
  return table;
}
constexpr std::array<PaddedWord, kNumWords> kPaddedWords = PadWords();

constexpr size_t kMaxRepeatWindow = 4;

// Space-separated words, truncated at the end of the page. With a repeat
// window, 60% of words re-use one of the last `repeat_window` fresh draws.
void AppendWordStream(std::span<uint8_t> page, Rng& rng, size_t repeat_window) {
  CC_EXPECTS(repeat_window <= kMaxRepeatWindow);
  uint8_t recent[kMaxRepeatWindow] = {};  // oldest first
  size_t recent_count = 0;
  const auto next_word = [&]() -> const PaddedWord& {
    if (recent_count > 0 && rng.Chance(0.6)) {
      return kPaddedWords[recent[rng.Below(recent_count)]];  // a recently used word
    }
    // Squaring a uniform draw skews toward low indices (frequent words).
    const double u = rng.NextDouble();
    const size_t idx =
        std::min(static_cast<size_t>(u * u * static_cast<double>(kNumWords)), kNumWords - 1);
    if (repeat_window > 0) {
      if (recent_count == repeat_window) {
        std::memmove(recent, recent + 1, repeat_window - 1);
        --recent_count;
      }
      recent[recent_count++] = static_cast<uint8_t>(idx);
    }
    return kPaddedWords[idx];
  };

  uint8_t* const out = page.data();
  const size_t size = page.size();
  size_t pos = 0;
  // Whole words: one 16-byte store each, the padding overwritten by the next.
  while (size - pos >= kWordStore) {
    const PaddedWord& w = next_word();
    std::memcpy(out + pos, w.bytes, kWordStore);
    pos += w.length;
  }
  // The tail: the last words byte by byte, cut off at the end of the page.
  while (pos < size) {
    const PaddedWord& w = next_word();
    for (size_t c = 0; c < w.length && pos < size; ++c) {
      out[pos++] = w.bytes[c];
    }
  }
}

}  // namespace

std::vector<ContentClass> AllContentClasses() {
  return {ContentClass::kZero,          ContentClass::kSparseNumeric,
          ContentClass::kRepetitiveText, ContentClass::kText,
          ContentClass::kShuffledWords,  ContentClass::kPointerArray,
          ContentClass::kRandom};
}

std::string_view ContentClassName(ContentClass c) {
  switch (c) {
    case ContentClass::kZero:
      return "zero";
    case ContentClass::kSparseNumeric:
      return "sparse_numeric";
    case ContentClass::kRepetitiveText:
      return "repetitive_text";
    case ContentClass::kText:
      return "text";
    case ContentClass::kShuffledWords:
      return "shuffled_words";
    case ContentClass::kPointerArray:
      return "pointer_array";
    case ContentClass::kRandom:
      return "random";
  }
  return "unknown";
}

void FillPage(std::span<uint8_t> page, ContentClass cls, Rng& rng) {
  switch (cls) {
    case ContentClass::kZero:
      std::memset(page.data(), 0, page.size());
      return;
    case ContentClass::kSparseNumeric: {
      std::memset(page.data(), 0, page.size());
      // Scatter small int32 values over ~1/4 of the slots.
      const size_t slots = page.size() / 4;
      for (size_t i = 0; i < slots; ++i) {
        if (rng.Chance(0.25)) {
          const auto v = static_cast<uint32_t>(rng.Below(4096));
          std::memcpy(page.data() + i * 4, &v, sizeof(v));
        }
      }
      return;
    }
    case ContentClass::kRepetitiveText:
      AppendWordStream(page, rng, /*repeat_window=*/4);
      return;
    case ContentClass::kText:
      AppendWordStream(page, rng, /*repeat_window=*/0);
      return;
    case ContentClass::kShuffledWords: {
      // Distinct word-like strings of near-random letters emulate the unsorted
      // many-distinct-strings regime of the paper's `sort random` input, where 98%
      // of pages fell below the 4:3 threshold: text-shaped (lowercase words with
      // separators) but with almost no within-page string repetition for LZRW1's
      // single-probe matcher to find.
      size_t pos = 0;
      while (pos < page.size()) {
        const size_t len = 4 + rng.Below(8);
        for (size_t i = 0; i < len && pos < page.size(); ++i) {
          page[pos++] = static_cast<uint8_t>('a' + rng.Below(26));
        }
        if (pos < page.size()) {
          page[pos++] = ' ';
        }
      }
      return;
    }
    case ContentClass::kPointerArray: {
      // Word-aligned addresses into a 16 KB hot structure (a linked data
      // structure's page as the VM sees it): upper bits cluster, low bits vary.
      const uint32_t base = 0x10000000u + static_cast<uint32_t>(rng.Below(1 << 20)) * 4096;
      for (size_t w = 0; w + 4 <= page.size(); w += 4) {
        const uint32_t pointer = base + static_cast<uint32_t>(rng.Below(1 << 14));
        std::memcpy(page.data() + w, &pointer, 4);
      }
      for (size_t i = page.size() & ~size_t{3}; i < page.size(); ++i) {
        page[i] = 0;
      }
      return;
    }
    case ContentClass::kRandom:
      for (auto& b : page) {
        b = static_cast<uint8_t>(rng.Next());
      }
      return;
  }
}

namespace internal {

std::span<const std::string_view> TextWords() { return kWords; }

}  // namespace internal

double MeasureLzrw1Ratio(std::span<const uint8_t> data) {
  CC_EXPECTS(!data.empty());
  Lzrw1 codec;
  std::vector<uint8_t> out(codec.MaxCompressedSize(data.size()));
  const size_t c = codec.Compress(data, out);
  return static_cast<double>(data.size()) / static_cast<double>(c);
}

}  // namespace compcache
