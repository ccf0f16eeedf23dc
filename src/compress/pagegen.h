// Synthetic page-content generators spanning the compressibility spectrum the
// paper encountered: roughly 4:1 for the thrasher's pages, ~3:1 for compare/isca,
// ~2:1 for gold's index, and ~1:1 for randomly ordered text. Tests and benchmarks
// draw page images from these classes so that the codecs are always exercised on
// realistic data rather than canned strings.
#ifndef COMPCACHE_COMPRESS_PAGEGEN_H_
#define COMPCACHE_COMPRESS_PAGEGEN_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace compcache {

enum class ContentClass {
  kZero,            // zero-filled (fresh heap): compresses extremely well
  kSparseNumeric,   // int32 array, mostly zeros and small values: ~4:1
  kRepetitiveText,  // text with heavy within-page word repetition: ~3:1
  kText,            // ordinary English-like text: ~2:1
  kShuffledWords,   // dictionary words in random order, little repetition: near 1:1 under LZRW1
  kPointerArray,    // word-aligned pointers into a hot region: poor under LZRW1, good under WK
  kRandom,          // PRNG bytes: incompressible
};

// All classes, for parameterized tests.
std::vector<ContentClass> AllContentClasses();
std::string_view ContentClassName(ContentClass c);

// Fills `page` with content of the given class. Deterministic given the Rng state.
void FillPage(std::span<uint8_t> page, ContentClass cls, Rng& rng);

namespace internal {

// The word pool the text classes draw from, most frequent first. Exposed so
// tests can hold FillPage to a byte-at-a-time reference.
std::span<const std::string_view> TextWords();

}  // namespace internal

// Measures the LZRW1 compression ratio (original/compressed) of a buffer.
double MeasureLzrw1Ratio(std::span<const uint8_t> data);

}  // namespace compcache

#endif  // COMPCACHE_COMPRESS_PAGEGEN_H_
