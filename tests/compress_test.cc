#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "ccache/compression_cache.h"
#include "compress/adaptive.h"
#include "compress/codec.h"
#include "compress/lzrw1.h"
#include "compress/lzrw1a.h"
#include "compress/pagegen.h"
#include "compress/registry.h"
#include "compress/rle.h"
#include "compress/store.h"
#include "compress/wk.h"
#include "compress/threshold.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"

namespace compcache {
namespace {

std::vector<uint8_t> RoundTrip(Codec& codec, const std::vector<uint8_t>& input) {
  std::vector<uint8_t> compressed(codec.MaxCompressedSize(input.size()));
  const size_t c = codec.Compress(input, compressed);
  EXPECT_LE(c, codec.MaxCompressedSize(input.size()));
  compressed.resize(c);
  std::vector<uint8_t> output(input.size());
  const size_t d = codec.Decompress(compressed, output);
  EXPECT_EQ(d, input.size());
  return output;
}

// ---------- parameterized round-trip sweep: codec x content x size ----------

using RoundTripParam = std::tuple<std::string, ContentClass, size_t>;

class CodecRoundTripTest : public ::testing::TestWithParam<RoundTripParam> {};

TEST_P(CodecRoundTripTest, LosslessRoundTrip) {
  const auto& [codec_name, content, size] = GetParam();
  auto codec = MakeCodec(codec_name);
  Rng rng(static_cast<uint64_t>(size) * 31 + static_cast<uint64_t>(content));
  std::vector<uint8_t> input(size);
  if (!input.empty()) {
    FillPage(input, content, rng);
  }
  EXPECT_EQ(RoundTrip(*codec, input), input);
}

std::vector<RoundTripParam> AllRoundTripParams() {
  std::vector<RoundTripParam> params;
  for (const auto& name : KnownCodecNames()) {
    for (const ContentClass content : AllContentClasses()) {
      for (const size_t size : {size_t{1}, size_t{2}, size_t{3}, size_t{15}, size_t{16},
                                size_t{17}, size_t{100}, size_t{1024}, size_t{4096},
                                size_t{4097}, size_t{16384}}) {
        params.emplace_back(name, content, size);
      }
    }
  }
  return params;
}

std::string RoundTripParamName(const ::testing::TestParamInfo<RoundTripParam>& info) {
  const auto& [name, content, size] = info.param;
  return name + "_" + std::string(ContentClassName(content)) + "_" + std::to_string(size);
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecRoundTripTest,
                         ::testing::ValuesIn(AllRoundTripParams()), RoundTripParamName);

// ---------- expansion bound ----------

class CodecBoundTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CodecBoundTest, NeverExceedsMaxCompressedSize) {
  auto codec = MakeCodec(GetParam());
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t size = 1 + rng.Below(8192);
    std::vector<uint8_t> input(size);
    for (auto& b : input) {
      b = static_cast<uint8_t>(rng.Next());
    }
    std::vector<uint8_t> out(codec->MaxCompressedSize(size));
    const size_t c = codec->Compress(input, out);
    EXPECT_LE(c, codec->MaxCompressedSize(size));
    // Random data must fall back to the raw container: at most size + 1 bytes.
    EXPECT_LE(c, size + 1);
  }
}

TEST_P(CodecBoundTest, EmptyInput) {
  auto codec = MakeCodec(GetParam());
  std::vector<uint8_t> out(codec->MaxCompressedSize(0));
  const size_t c = codec->Compress({}, out);
  EXPECT_GE(c, 1u);
  std::vector<uint8_t> empty;
  EXPECT_EQ(codec->Decompress(std::span<const uint8_t>(out.data(), c), empty), 0u);
}

std::string BoundParamName(const ::testing::TestParamInfo<std::string>& info) {
  return info.param;
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecBoundTest, ::testing::ValuesIn(KnownCodecNames()),
                         BoundParamName);

// ---------- zero-page fast-path properties ----------

// Edge-content round trips the fast-path work leans on: all-zero pages (the
// fast path itself), single-value pages (near-degenerate codec input), and
// incompressible pages (raw-container fallback) across every codec.
class CodecEdgeContentTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CodecEdgeContentTest, ZeroSingleValueAndIncompressiblePagesRoundTrip) {
  auto codec = MakeCodec(GetParam());
  std::vector<std::vector<uint8_t>> pages;
  pages.emplace_back(kPageSize, uint8_t{0});
  for (const uint8_t value : {uint8_t{0x01}, uint8_t{0xAB}, uint8_t{0xFF}}) {
    pages.emplace_back(kPageSize, value);
  }
  Rng rng(2026);
  std::vector<uint8_t> random_page(kPageSize);
  FillPage(random_page, ContentClass::kRandom, rng);
  pages.push_back(std::move(random_page));
  for (const auto& page : pages) {
    EXPECT_EQ(RoundTrip(*codec, page), page) << "first byte " << int(page[0]);
  }
}

// The zero-page marker is the compression cache's format, not a codec's: the
// cache decodes it before any codec runs, and every codec refuses it.
TEST_P(CodecEdgeContentTest, RejectsZeroPageMarker) {
  auto codec = MakeCodec(GetParam());
  const uint8_t marker[] = {kContainerZeroPage};
  std::vector<uint8_t> out(kPageSize);
  EXPECT_FALSE(codec->TryDecompress(marker, out));
}

// Ratio classes on structured word patterns. Every codec must round trip all
// three pages; the FPC and adaptive assertions pin which *class* of output
// size each produces — catching a codec that silently degrades to its
// fallback on the pattern it exists to exploit, or one that claims
// compression on content it cannot represent.
TEST_P(CodecEdgeContentTest, RatioClassesOnStructuredPatterns) {
  const std::string name = GetParam();
  auto codec = MakeCodec(name);
  const auto compressed_size = [&](const std::vector<uint8_t>& page) {
    std::vector<uint8_t> buf(codec->MaxCompressedSize(page.size()));
    buf.resize(codec->Compress(page, buf));
    std::vector<uint8_t> out(page.size());
    EXPECT_TRUE(codec->TryDecompress(buf, out));
    EXPECT_EQ(out, page);
    return buf.size();
  };

  // One 32-bit word everywhere. FPC has no repeated-arbitrary-word class
  // (only repeated bytes), so this page forces its raw fallback; its bytes are
  // mostly printable, so the adaptive probe hands it to LZRW1, which crushes
  // the repetition.
  std::vector<uint8_t> same_word(kPageSize);
  for (size_t i = 0; i < kPageSize; i += 4) {
    const uint32_t w = 0x12345678u;
    std::memcpy(same_word.data() + i, &w, 4);
  }
  const size_t same = compressed_size(same_word);
  if (name == "adaptive") {
    EXPECT_LE(same, kPageSize / 7) << name << " should crush a single-word page";
  } else if (name == "fpc") {
    EXPECT_EQ(same, kPageSize + 1) << "no FPC class covers a repeated arbitrary word";
  }

  // Alternating small positive / small negative words: FPC's sign-extended
  // 8-bit class (11 bits per word), which the adaptive probe picks for
  // small-integer pages.
  std::vector<uint8_t> alternating(kPageSize);
  for (size_t i = 0; i < kPageSize; i += 4) {
    const uint32_t w = (i % 8 == 0) ? 0x00000012u : 0xFFFFFFEDu;  // +18 / -19
    std::memcpy(alternating.data() + i, &w, 4);
  }
  const size_t alternating_size = compressed_size(alternating);
  if (name == "fpc" || name == "adaptive") {
    EXPECT_LE(alternating_size, kPageSize * 2 / 5)
        << name << ": alternating small values fit FPC's 8-bit sign-extended class";
  }

  // Near-incompressible random bytes: FPC has no partial wins to offer, so it
  // must land exactly on the raw fallback (n + 1); every codec is bounded by
  // it.
  Rng rng(0xED6E);
  std::vector<uint8_t> random_page(kPageSize);
  FillPage(random_page, ContentClass::kRandom, rng);
  const size_t random_size = compressed_size(random_page);
  EXPECT_LE(random_size, kPageSize + 1);
  if (name == "fpc" || name == "adaptive" || name == "store") {
    EXPECT_EQ(random_size, kPageSize + 1)
        << name << " should fall back to raw on random content";
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecEdgeContentTest,
                         ::testing::ValuesIn(KnownCodecNames()), BoundParamName);

TEST(ZeroPageScanTest, DetectsZeroPagesAtAnyAlignment) {
  std::vector<uint8_t> page(kPageSize, 0);
  EXPECT_TRUE(IsZeroPage(page));
  for (size_t head = 1; head <= 8; ++head) {
    EXPECT_TRUE(IsZeroPage(std::span<const uint8_t>(page).subspan(head)));
    EXPECT_TRUE(IsZeroPage(std::span<const uint8_t>(page).subspan(0, kPageSize - head)));
  }
  EXPECT_TRUE(IsZeroPage({}));
}

TEST(ZeroPageScanTest, AnySingleNonZeroByteIsDetected) {
  std::vector<uint8_t> page(kPageSize);
  const size_t positions[] = {0, 1, 7, 8, 63, kPageSize / 2, kPageSize - 9, kPageSize - 1};
  for (const size_t pos : positions) {
    page.assign(kPageSize, 0);
    page[pos] = 1;
    EXPECT_FALSE(IsZeroPage(page)) << pos;
  }
}

TEST(ZeroPageScanTest, MarkerPredicate) {
  const std::vector<uint8_t> marker = {kContainerZeroPage};
  EXPECT_TRUE(IsZeroPageMarker(marker));
  EXPECT_FALSE(IsZeroPageMarker(std::vector<uint8_t>{kContainerRaw}));
  EXPECT_FALSE(IsZeroPageMarker(std::vector<uint8_t>{kContainerZeroPage, 0}));
  EXPECT_FALSE(IsZeroPageMarker({}));
}

// ---------- compression-quality expectations ----------

TEST(Lzrw1Test, ZeroPageCompressesExtremely) {
  std::vector<uint8_t> page(kPageSize, 0);
  Lzrw1 codec;
  std::vector<uint8_t> out(codec.MaxCompressedSize(page.size()));
  const size_t c = codec.Compress(page, out);
  EXPECT_LT(c, kPageSize / 8);  // far better than 8:1
}

TEST(Lzrw1Test, RandomPageStoredRaw) {
  Rng rng(1);
  std::vector<uint8_t> page(kPageSize);
  FillPage(page, ContentClass::kRandom, rng);
  Lzrw1 codec;
  std::vector<uint8_t> out(codec.MaxCompressedSize(page.size()));
  const size_t c = codec.Compress(page, out);
  EXPECT_EQ(c, kPageSize + 1);  // raw container
  EXPECT_EQ(out[0], kContainerRaw);
}

TEST(Lzrw1Test, RepetitiveTextBeatsThreePerFour) {
  Rng rng(2);
  std::vector<uint8_t> page(kPageSize);
  FillPage(page, ContentClass::kRepetitiveText, rng);
  Lzrw1 codec;
  std::vector<uint8_t> out(codec.MaxCompressedSize(page.size()));
  const size_t c = codec.Compress(page, out);
  // Must pass the paper's 4:3 threshold comfortably.
  EXPECT_LT(c, kPageSize * 3 / 4);
}

TEST(Lzrw1Test, SparseNumericRoughlyFourToOne) {
  Rng rng(3);
  RunningStats ratio;
  for (int i = 0; i < 32; ++i) {
    std::vector<uint8_t> page(kPageSize);
    FillPage(page, ContentClass::kSparseNumeric, rng);
    ratio.Add(MeasureLzrw1Ratio(page));
  }
  // The paper's thrasher pages compressed "roughly 4:1".
  EXPECT_GT(ratio.mean(), 2.5);
  EXPECT_LT(ratio.mean(), 8.0);
}

TEST(Lzrw1Test, ShuffledWordsFailThreshold) {
  Rng rng(4);
  const CompressionThreshold threshold;  // 4:3
  int below = 0;
  const int n = 64;
  for (int i = 0; i < n; ++i) {
    std::vector<uint8_t> page(kPageSize);
    FillPage(page, ContentClass::kShuffledWords, rng);
    Lzrw1 codec;
    std::vector<uint8_t> out(codec.MaxCompressedSize(page.size()));
    const size_t c = codec.Compress(page, out);
    if (!threshold.KeepCompressed(kPageSize, c)) {
      ++below;
    }
  }
  // The paper saw ~98% of sort-random pages below 4:3; require a strong majority.
  EXPECT_GT(below, n * 3 / 4);
}

TEST(Lzrw1Test, LargerHashTableCompressesNoWorse) {
  Rng rng(5);
  std::vector<uint8_t> page(kPageSize);
  FillPage(page, ContentClass::kText, rng);
  Lzrw1 small(10);
  Lzrw1 large(16);
  std::vector<uint8_t> out_small(small.MaxCompressedSize(page.size()));
  std::vector<uint8_t> out_large(large.MaxCompressedSize(page.size()));
  const size_t cs = small.Compress(page, out_small);
  const size_t cl = large.Compress(page, out_large);
  EXPECT_LE(cl, cs + 64);  // a larger table should not be much worse
}

TEST(Lzrw1Test, HashTableBytesMatchesPaperDefault) {
  Lzrw1 codec(12);
  EXPECT_EQ(codec.hash_table_bytes(), 16u * 1024);  // the paper's 16 KB
}

TEST(Lzrw1aTest, NoWorseThanLzrw1OnText) {
  Rng rng(6);
  uint64_t total1 = 0;
  uint64_t total1a = 0;
  for (int i = 0; i < 16; ++i) {
    std::vector<uint8_t> page(kPageSize);
    FillPage(page, ContentClass::kText, rng);
    Lzrw1 c1;
    Lzrw1a c1a;
    std::vector<uint8_t> out(c1.MaxCompressedSize(page.size()));
    total1 += c1.Compress(page, out);
    total1a += c1a.Compress(page, out);
  }
  EXPECT_LE(total1a, total1);  // the two-way bucket must pay off on average
}

TEST(Lzrw1aTest, BitstreamDecodableByLzrw1) {
  Rng rng(8);
  std::vector<uint8_t> page(kPageSize);
  FillPage(page, ContentClass::kRepetitiveText, rng);
  Lzrw1a enc;
  std::vector<uint8_t> compressed(enc.MaxCompressedSize(page.size()));
  const size_t c = enc.Compress(page, compressed);
  Lzrw1 dec;
  std::vector<uint8_t> out(page.size());
  dec.Decompress(std::span<const uint8_t>(compressed.data(), c), out);
  EXPECT_EQ(out, page);
}

TEST(RleTest, RunsCollapse) {
  std::vector<uint8_t> input(1000, 0xAB);
  RleCodec codec;
  std::vector<uint8_t> out(codec.MaxCompressedSize(input.size()));
  const size_t c = codec.Compress(input, out);
  EXPECT_LT(c, 32u);
}

TEST(RleTest, AlternatingBytesFallBackRaw) {
  std::vector<uint8_t> input(1000);
  for (size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<uint8_t>(i & 1);
  }
  RleCodec codec;
  std::vector<uint8_t> out(codec.MaxCompressedSize(input.size()));
  const size_t c = codec.Compress(input, out);
  EXPECT_EQ(c, input.size() + 1);
}

TEST(StoreTest, AlwaysRaw) {
  std::vector<uint8_t> input{1, 2, 3};
  StoreCodec codec;
  std::vector<uint8_t> out(codec.MaxCompressedSize(input.size()));
  EXPECT_EQ(codec.Compress(input, out), 4u);
  EXPECT_EQ(out[0], kContainerRaw);
}


// ---------- WK word codec ----------

TEST(WkTest, PointerPagesBeatLzrw1) {
  // A page of word-aligned "pointers" into a small region — sort's index pages,
  // gold's postings. LZRW1 sees near-random bytes; the word model sees partial
  // dictionary matches.
  Rng rng(21);
  std::vector<uint8_t> page(kPageSize);
  for (size_t w = 0; w < kPageSize / 4; ++w) {
    // Pointers into a 16 KB hot structure: upper 22 bits take ~16 values (the
    // dictionary covers them); low 10 bits vary freely.
    const uint32_t pointer = 0x10000000u + static_cast<uint32_t>(rng.Below(1 << 14));
    std::memcpy(page.data() + w * 4, &pointer, 4);
  }
  WkCodec wk;
  Lzrw1 lz;
  std::vector<uint8_t> out(wk.MaxCompressedSize(page.size()));
  std::vector<uint8_t> out2(lz.MaxCompressedSize(page.size()));
  const size_t wk_size = wk.Compress(page, out);
  const size_t lz_size = lz.Compress(page, out2);
  EXPECT_LT(wk_size, lz_size);
  EXPECT_LT(wk_size, kPageSize * 3 / 4);  // wk passes the paper's 4:3 threshold...
  EXPECT_GT(lz_size, kPageSize * 3 / 4);  // ...where LZRW1 fails it
}

TEST(WkTest, ZeroPageNearOptimal) {
  std::vector<uint8_t> page(kPageSize, 0);
  WkCodec wk;
  std::vector<uint8_t> out(wk.MaxCompressedSize(page.size()));
  const size_t c = wk.Compress(page, out);
  // 2 bits per word plus headers: ~260 bytes for a 4 KB page.
  EXPECT_LT(c, 300u);
}

TEST(WkTest, UnalignedTailPreserved) {
  Rng rng(22);
  for (const size_t n : {17u, 33u, 1001u, 4095u}) {
    std::vector<uint8_t> input(n);
    FillPage(input, ContentClass::kSparseNumeric, rng);
    WkCodec wk;
    std::vector<uint8_t> out(wk.MaxCompressedSize(n));
    const size_t c = wk.Compress(input, out);
    std::vector<uint8_t> back(n);
    wk.Decompress(std::span<const uint8_t>(out.data(), c), back);
    EXPECT_EQ(back, input) << n;
  }
}

TEST(WkTest, RandomWordsFallBackRaw) {
  Rng rng(23);
  std::vector<uint8_t> page(kPageSize);
  FillPage(page, ContentClass::kRandom, rng);
  WkCodec wk;
  std::vector<uint8_t> out(wk.MaxCompressedSize(page.size()));
  const size_t c = wk.Compress(page, out);
  EXPECT_EQ(c, kPageSize + 1);
  EXPECT_EQ(out[0], kContainerRaw);
}

// ---------- decompression matches across hash-table sizes ----------

class HashBitsTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(HashBitsTest, RoundTripAtAnyTableSize) {
  Lzrw1 codec(GetParam());
  Rng rng(17);
  std::vector<uint8_t> page(kPageSize);
  FillPage(page, ContentClass::kText, rng);
  EXPECT_EQ(RoundTrip(codec, page), page);
}

INSTANTIATE_TEST_SUITE_P(TableSizes, HashBitsTest, ::testing::Values(8u, 10u, 12u, 14u, 18u));

// ---------- LZRW byte identity ----------

// Pins the exact bytes both LZRW encoders emit and the exact verdicts and
// outputs of the shared decoder, so a speed-only change to either cannot move
// a compressed size (and with it every virtual-time result) unnoticed. The
// inputs cover every size from 0 to 700 bytes on every content class, plus
// whole pages: near the end of its input and output the decoder hands over
// from its fast loop to its checked loop, and these sizes put that point
// everywhere.
uint64_t Fnv1a(uint64_t h, std::span<const uint8_t> bytes) {
  for (const uint8_t b : bytes) {
    h = (h ^ b) * 0x100000001b3ull;
  }
  return h;
}

uint64_t Fnv1aWord(uint64_t h, uint64_t word) {
  uint8_t bytes[sizeof(word)];
  std::memcpy(bytes, &word, sizeof(word));
  return Fnv1a(h, bytes);
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::vector<std::vector<uint8_t>> LzrwPinInputs() {
  std::vector<std::vector<uint8_t>> inputs;
  Rng rng(0x1A2B);
  for (const ContentClass content : AllContentClasses()) {
    const auto add = [&](size_t n) {
      std::vector<uint8_t>& input = inputs.emplace_back(n);
      if (n > 0) {  // FillPage would memset an empty span's null data()
        FillPage(input, content, rng);
      }
    };
    for (size_t n = 0; n <= 700; ++n) {
      add(n);
    }
    for (int i = 0; i < 8; ++i) {
      add(kPageSize);
    }
  }
  return inputs;
}

struct LzrwPin {
  uint64_t encode;  // digest of every compressed image
  uint64_t decode;  // digest of every decode verdict and successful output
};

LzrwPin DigestLzrw(Codec& codec) {
  LzrwPin pin{kFnvBasis, kFnvBasis};
  Rng rng(0xB17E);
  for (const auto& input : LzrwPinInputs()) {
    std::vector<uint8_t> image(codec.MaxCompressedSize(input.size()));
    image.resize(codec.Compress(input, image));
    pin.encode = Fnv1a(Fnv1aWord(pin.encode, image.size()), image);

    std::vector<uint8_t> flipped = image;
    for (uint64_t i = 0, flips = 1 + rng.Below(4); i < flips; ++i) {
      const uint64_t bit = rng.Below(flipped.size() * 8);
      flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    std::vector<uint8_t> truncated(image.begin(),
                                   image.begin() + static_cast<ptrdiff_t>(rng.Below(image.size())));
    std::vector<uint8_t> extended = image;
    for (uint64_t i = 0, extra = 1 + rng.Below(8); i < extra; ++i) {
      extended.push_back(static_cast<uint8_t>(rng.Next()));
    }

    std::vector<uint8_t> out(input.size());
    for (const auto* stream : {&image, &flipped, &truncated, &extended}) {
      std::fill(out.begin(), out.end(), 0xEE);
      const bool ok = LzrwTryDecode(*stream, out);
      pin.decode = Fnv1aWord(pin.decode, ok ? 1 : 0);
      if (ok) {
        pin.decode = Fnv1a(pin.decode, out);
      }
      if (stream == &image && (!ok || out != input)) {
        ADD_FAILURE() << "a " << input.size() << "-byte input did not round-trip";
      }
    }
  }
  return pin;
}

TEST(LzrwByteIdentityTest, Lzrw1StreamsAndDecodesArePinned) {
  Lzrw1 codec;
  const LzrwPin pin = DigestLzrw(codec);
  EXPECT_EQ(pin.encode, 0xbaf5e3218d85e139ull) << std::hex << pin.encode;
  EXPECT_EQ(pin.decode, 0xbc9e0698cad0f747ull) << std::hex << pin.decode;
}

TEST(LzrwByteIdentityTest, Lzrw1aStreamsAndDecodesArePinned) {
  Lzrw1a codec;
  const LzrwPin pin = DigestLzrw(codec);
  EXPECT_EQ(pin.encode, 0x4aa10ff50c997969ull) << std::hex << pin.encode;
  EXPECT_EQ(pin.decode, 0xcef229e416b3d238ull) << std::hex << pin.decode;
}

// ---------- LZRW decoder against a reference ----------

// The shared decoder's semantics, one byte at a time with every check on
// every item. LzrwTryDecode must give the same verdict on every stream, and
// the same output whenever it succeeds.
bool ReferenceLzrwDecode(std::span<const uint8_t> src, std::span<uint8_t> dst) {
  if (src.empty()) {
    return false;
  }
  if (src[0] == kContainerRaw) {
    if (src.size() != dst.size() + 1) {
      return false;
    }
    std::copy(src.begin() + 1, src.end(), dst.begin());
    return true;
  }
  if (src[0] != kContainerCompressed) {
    return false;
  }
  size_t in = 1;
  size_t out = 0;
  while (out < dst.size()) {
    if (src.size() - in < 2) {
      return false;  // truncated control word
    }
    const unsigned control = src[in] | (src[in + 1] << 8);
    in += 2;
    for (unsigned item = 0; item < 16 && out < dst.size(); ++item) {
      if ((control >> item & 1u) == 0) {
        if (in == src.size()) {
          return false;  // truncated literal
        }
        dst[out++] = src[in++];
        continue;
      }
      if (src.size() - in < 2) {
        return false;  // truncated copy item
      }
      const size_t offset = ((src[in] & 0xF0u) << 4) | src[in + 1];
      const size_t len = (src[in] & 0x0Fu) + kLzrwMinMatch;
      in += 2;
      if (offset == 0 || offset > out || len > dst.size() - out) {
        return false;
      }
      for (size_t i = 0; i < len; ++i, ++out) {
        dst[out] = dst[out - offset];
      }
    }
  }
  return in == src.size();  // trailing garbage
}

// Decodes `stream` into an n-byte page with both decoders. The stream and the
// pages are exact-size heap blocks, so ASan reports any read past the stream
// or write past the page.
::testing::AssertionResult SameAsReference(const std::vector<uint8_t>& stream, size_t n) {
  std::vector<uint8_t> got(n, 0xEE);
  std::vector<uint8_t> want(n, 0xEE);
  const bool ok = LzrwTryDecode(stream, got);
  const bool want_ok = ReferenceLzrwDecode(stream, want);
  if (ok != want_ok) {
    return ::testing::AssertionFailure() << "verdict " << ok << ", reference " << want_ok;
  }
  if (ok && got != want) {
    return ::testing::AssertionFailure() << "output differs from the reference";
  }
  return ::testing::AssertionSuccess();
}

TEST(LzrwReferenceTest, EveryTruncationOfRealPages) {
  Rng rng(0x7A11);
  Lzrw1 lzrw1;
  Lzrw1a lzrw1a;
  Codec* const codecs[] = {&lzrw1, &lzrw1a};
  std::vector<uint8_t> page(kPageSize);
  for (const ContentClass content : AllContentClasses()) {
    for (int i = 0; i < 4; ++i) {
      FillPage(page, content, rng);
      for (Codec* codec : codecs) {
        std::vector<uint8_t> image(codec->MaxCompressedSize(page.size()));
        image.resize(codec->Compress(page, image));
        for (size_t len = 0; len <= image.size(); ++len) {
          const std::vector<uint8_t> stream(image.begin(),
                                            image.begin() + static_cast<ptrdiff_t>(len));
          ASSERT_TRUE(SameAsReference(stream, page.size()))
              << codec->name() << ", " << ContentClassName(content) << " page " << i
              << " cut to " << len << " of " << image.size() << " bytes";
        }
      }
    }
  }
}

// A stream of `run` literals, one copy item, then `tail` literals, each literal
// drawn from `literal()`.
template <typename Literal>
std::vector<uint8_t> OneCopyStream(size_t run, size_t offset, size_t len, size_t tail,
                                   Literal literal) {
  std::vector<uint8_t> stream = {kContainerCompressed};
  for (size_t item = 0; item < run + 1 + tail; ++item) {
    if (item % 16 == 0) {
      const unsigned control = run >= item && run < item + 16 ? 1u << (run - item) : 0;
      stream.push_back(static_cast<uint8_t>(control & 0xFFu));
      stream.push_back(static_cast<uint8_t>(control >> 8));
    }
    if (item == run) {
      stream.push_back(static_cast<uint8_t>(((offset >> 4) & 0xF0u) | (len - kLzrwMinMatch)));
      stream.push_back(static_cast<uint8_t>(offset & 0xFFu));
    } else {
      stream.push_back(literal());
    }
  }
  return stream;
}

// Streams of `run` literals, one copy item, then literals up to the end of the
// page. Item by item they cross the decoder's hand-over from its fast loop to
// its checked loop at every distance from the end of the page.
TEST(LzrwReferenceTest, HandBuiltCopiesAtEveryDistanceFromTheEnd) {
  Rng rng(0xC0B1);
  const auto random = [&rng] { return static_cast<uint8_t>(rng.Next()); };
  for (size_t run = 0; run <= 16; ++run) {
    std::vector<size_t> offsets = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    offsets.push_back(run);      // back to the first byte of the page
    offsets.push_back(run + 1);  // one byte before it
    for (const size_t offset : offsets) {
      for (size_t len = kLzrwMinMatch; len <= kLzrwMaxMatch; ++len) {
        // A negative tail makes the copy run past the end of the page.
        for (int tail = -2; tail <= 48; ++tail) {
          const std::vector<uint8_t> stream =
              OneCopyStream(run, offset, len, static_cast<size_t>(std::max(tail, 0)), random);
          const size_t n = run + static_cast<size_t>(static_cast<int>(len) + tail);
          ASSERT_TRUE(SameAsReference(stream, n))
              << run << " literals, then offset " << offset << " length " << len
              << " ending " << tail << " bytes before the end";
        }
      }
    }
  }
}

// One copy item of every offset 1-64 and every length 3-18, after 64-79
// literals (so at each item position in its control group) and before 48 more,
// so the copy decodes inside the fast loop. That covers every copy shape: the
// overlapping ones (offset below the length, up to 17 at length 18), and the
// offsets below 24 whose source words reach past the copy's start. Literals are
// random bytes, and all zeros as on sparse pages.
TEST(LzrwReferenceTest, EveryCopyShapeInsideTheFastLoop) {
  constexpr size_t kTail = 48;
  for (const bool zero_literals : {false, true}) {
    Rng rng(0x5EED);
    const auto literal = [&] {
      return zero_literals ? uint8_t{0} : static_cast<uint8_t>(rng.Next());
    };
    for (size_t prefix = 64; prefix < 80; ++prefix) {
      for (size_t offset = 1; offset <= 64; ++offset) {
        for (size_t len = kLzrwMinMatch; len <= kLzrwMaxMatch; ++len) {
          ASSERT_TRUE(SameAsReference(OneCopyStream(prefix, offset, len, kTail, literal),
                                      prefix + len + kTail))
              << (zero_literals ? "zero" : "random") << " literals, " << prefix
              << " before a copy of offset " << offset << " length " << len;
        }
      }
    }
  }
}

// ---------- threshold ----------

TEST(ThresholdTest, PaperDefault) {
  const CompressionThreshold t;  // 4:3
  EXPECT_TRUE(t.KeepCompressed(4096, 3072));
  EXPECT_FALSE(t.KeepCompressed(4096, 3073));
  EXPECT_EQ(t.MaxAcceptable(4096), 3072u);
}

TEST(ThresholdTest, TwoToOne) {
  const CompressionThreshold t(2, 1);
  EXPECT_TRUE(t.KeepCompressed(4096, 2048));
  EXPECT_FALSE(t.KeepCompressed(4096, 2049));
}

TEST(ThresholdTest, OneToOneKeepsEverythingNotExpanded) {
  const CompressionThreshold t(1, 1);
  EXPECT_TRUE(t.KeepCompressed(4096, 4096));
  EXPECT_FALSE(t.KeepCompressed(4096, 4097));
}

// ---------- registry ----------

TEST(RegistryTest, KnownNamesConstruct) {
  for (const auto& name : KnownCodecNames()) {
    auto codec = MakeCodec(name);
    ASSERT_NE(codec, nullptr);
    EXPECT_EQ(codec->name(), name);
  }
}

// MakeCodec must hand hash_bits to every codec that takes it: a 256-entry
// table finds fewer matches on text than the default 4096-entry one.
TEST(RegistryTest, HashBitsReachTheLzrwFamily) {
  Rng rng(4);
  std::vector<uint8_t> text(8 * kPageSize);
  FillPage(text, ContentClass::kText, rng);
  const auto text_bytes = [&](std::string_view name, unsigned hash_bits) {
    auto codec = MakeCodec(name, hash_bits);
    std::vector<uint8_t> out(codec->MaxCompressedSize(kPageSize));
    size_t total = 0;
    for (size_t off = 0; off < text.size(); off += kPageSize) {
      total += codec->Compress(std::span<const uint8_t>(text).subspan(off, kPageSize), out);
    }
    return total;
  };
  for (const std::string_view name : {"lzrw1", "lzrw1a", "adaptive"}) {
    EXPECT_GT(text_bytes(name, 8), text_bytes(name, 12)) << name;
  }
}

// ---------- pagegen ----------

TEST(PagegenTest, DeterministicGivenSeed) {
  Rng a(42);
  Rng b(42);
  std::vector<uint8_t> pa(kPageSize);
  std::vector<uint8_t> pb(kPageSize);
  for (const ContentClass c : AllContentClasses()) {
    FillPage(pa, c, a);
    FillPage(pb, c, b);
    EXPECT_EQ(pa, pb) << ContentClassName(c);
  }
}

TEST(PagegenTest, CompressibilityOrdering) {
  // zero <= sparse <= repetitive <= text <= shuffled <= random, in compressed size.
  Rng rng(77);
  std::vector<double> sizes;
  for (const ContentClass c :
       {ContentClass::kZero, ContentClass::kSparseNumeric, ContentClass::kRepetitiveText,
        ContentClass::kText, ContentClass::kShuffledWords, ContentClass::kRandom}) {
    double total = 0;
    for (int i = 0; i < 8; ++i) {
      std::vector<uint8_t> page(kPageSize);
      FillPage(page, c, rng);
      total += 1.0 / MeasureLzrw1Ratio(page);
    }
    sizes.push_back(total);
  }
  for (size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_LE(sizes[i - 1], sizes[i] * 1.05) << "class order " << i;
  }
}

// The text classes' word stream as FillPage wrote it one byte at a time:
// the same draws from the same pool, each word and its space truncated at
// the end of the span.
void ReferenceWordStream(std::span<uint8_t> page, Rng& rng, size_t repeat_window) {
  const std::span<const std::string_view> words = internal::TextWords();
  size_t pos = 0;
  std::vector<std::string_view> recent;
  while (pos < page.size()) {
    std::string_view w;
    if (repeat_window > 0 && !recent.empty() && rng.Chance(0.6)) {
      w = recent[rng.Below(recent.size())];
    } else {
      const double u = rng.NextDouble();
      const auto idx = static_cast<size_t>(u * u * static_cast<double>(words.size()));
      w = words[idx < words.size() ? idx : words.size() - 1];
      if (repeat_window > 0) {
        recent.push_back(w);
        if (recent.size() > repeat_window) {
          recent.erase(recent.begin());
        }
      }
    }
    for (const char ch : w) {
      if (pos >= page.size()) {
        return;
      }
      page[pos++] = static_cast<uint8_t>(ch);
    }
    if (pos < page.size()) {
      page[pos++] = ' ';
    }
  }
}

TEST(PagegenTest, TextMatchesTheByteAtATimeReferenceAtEverySpanLength) {
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 48; ++n) {
    lengths.push_back(n);
  }
  lengths.insert(lengths.end(), {2032, 2048, 4096});
  const std::pair<ContentClass, size_t> classes[] = {{ContentClass::kText, 0},
                                                     {ContentClass::kRepetitiveText, 4}};
  for (const auto& [content, repeat_window] : classes) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      for (const size_t n : lengths) {
        // Exact-size heap blocks: ASan reports any store past the span.
        const auto got = std::make_unique<uint8_t[]>(n);
        const auto want = std::make_unique<uint8_t[]>(n);
        Rng rng(seed);
        Rng reference_rng(seed);
        FillPage(std::span<uint8_t>(got.get(), n), content, rng);
        ReferenceWordStream(std::span<uint8_t>(want.get(), n), reference_rng, repeat_window);
        ASSERT_EQ(0, std::memcmp(got.get(), want.get(), n))
            << ContentClassName(content) << ", seed " << seed << ", " << n << " bytes";
        // The next draw matches only if both consumed the same number of draws.
        ASSERT_EQ(rng.Next(), reference_rng.Next())
            << ContentClassName(content) << ", seed " << seed << ", " << n << " bytes";
      }
    }
  }
}

// ---------- corruption fuzz: malformed input must never crash a decoder ----------

// Seeded fuzz over every codec: valid compressed images are bit-flipped,
// truncated, extended, and replaced with garbage, then fed to TryDecompress.
// The only acceptable outcomes are `false` (rejected) or `true` with the output
// span filled — never a crash, hang, or out-of-bounds access (ASan/UBSan run
// this suite in CI).
class CodecFuzzTest : public ::testing::TestWithParam<std::string> {};

// CC_FUZZ_ROUNDS overrides the per-codec round count (default 200): the
// nightly CI workflow runs this suite with a much larger budget than the
// push-gated jobs can afford.
int FuzzRounds() {
  const char* env = std::getenv("CC_FUZZ_ROUNDS");
  if (env == nullptr) {
    return 200;
  }
  const int rounds = std::atoi(env);
  return rounds > 0 ? rounds : 200;
}

TEST_P(CodecFuzzTest, MutatedImagesNeverCrashDecoder) {
  auto codec = MakeCodec(GetParam());
  Rng rng(0xC0DECu);
  std::vector<uint8_t> page(kPageSize);
  std::vector<uint8_t> out(kPageSize);

  const int rounds = FuzzRounds();
  for (int round = 0; round < rounds; ++round) {
    const ContentClass content =
        AllContentClasses()[rng.Below(AllContentClasses().size())];
    FillPage(page, content, rng);
    std::vector<uint8_t> compressed(codec->MaxCompressedSize(page.size()));
    compressed.resize(codec->Compress(page, compressed));

    std::vector<uint8_t> mutated = compressed;
    const double kind = rng.NextDouble();
    if (kind < 0.4) {
      // Flip 1-16 bits anywhere, including the container byte.
      const uint64_t flips = 1 + rng.Below(16);
      for (uint64_t i = 0; i < flips && !mutated.empty(); ++i) {
        const uint64_t bit = rng.Below(mutated.size() * 8);
        mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      }
    } else if (kind < 0.6) {
      mutated.resize(rng.Below(mutated.size() + 1));  // truncate, possibly to empty
    } else if (kind < 0.8) {
      const uint64_t extra = 1 + rng.Below(64);  // trailing garbage
      for (uint64_t i = 0; i < extra; ++i) {
        mutated.push_back(static_cast<uint8_t>(rng.Next()));
      }
    } else {
      mutated.resize(1 + rng.Below(2 * kPageSize));  // pure garbage
      for (auto& b : mutated) {
        b = static_cast<uint8_t>(rng.Next());
      }
    }

    std::fill(out.begin(), out.end(), 0xEE);
    (void)codec->TryDecompress(mutated, out);  // may fail; must not crash

    // The decoder must stay usable for the next (valid) image.
    ASSERT_TRUE(codec->TryDecompress(compressed, out)) << "round " << round;
    ASSERT_EQ(0, std::memcmp(out.data(), page.data(), page.size())) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecFuzzTest, ::testing::ValuesIn(KnownCodecNames()),
                         [](const auto& param_info) { return param_info.param; });

// ---------- adaptive picker ----------

// Sparse numeric pages are FPC's content: every one must reach FPC through
// the probe and stay under the paper's 4:3 threshold.
TEST(AdaptiveTest, SendsEverySparseNumericPageToFpc) {
  constexpr size_t kPages = 2048;
  AdaptiveCodec codec;
  const CompressionThreshold threshold(4, 3);
  Rng rng(2026);
  std::vector<uint8_t> page(kPageSize);
  std::vector<uint8_t> out(codec.MaxCompressedSize(kPageSize));
  size_t kept = 0;
  for (size_t p = 0; p < kPages; ++p) {
    FillPage(page, ContentClass::kSparseNumeric, rng);
    kept += threshold.KeepCompressed(kPageSize, codec.Compress(page, out));
  }
  EXPECT_EQ(codec.pick_counts()[static_cast<size_t>(AdaptiveCodec::Pick::kFpc)], kPages);
  EXPECT_EQ(kept, kPages);
}

// Exhaustive truncation of the adaptive 0x03 wrapper: a short image must fail
// closed at *every* length — the wrapper dispatches to a member codec, and no
// member may accept an image whose tail was cut off by a torn write.
TEST(AdaptiveWrapperTruncation, EveryShortImageFailsClosed) {
  auto codec = MakeCodec("adaptive");
  Rng rng(0xADA97u);
  std::vector<uint8_t> page(kPageSize);
  std::vector<uint8_t> out(kPageSize);

  int wrapped_images = 0;
  for (const ContentClass content : AllContentClasses()) {
    for (int round = 0; round < 4; ++round) {
      FillPage(page, content, rng);
      std::vector<uint8_t> compressed(codec->MaxCompressedSize(page.size()));
      compressed.resize(codec->Compress(page, compressed));
      if (compressed.empty() || compressed[0] != kContainerAdaptive) {
        continue;  // raw fallback: no wrapper to truncate
      }
      ++wrapped_images;
      for (size_t len = 0; len < compressed.size(); ++len) {
        std::fill(out.begin(), out.end(), 0xEE);
        const bool ok = codec->TryDecompress(
            std::span<const uint8_t>(compressed.data(), len), out);
        ASSERT_FALSE(ok) << ContentClassName(content) << " accepted a "
                         << len << "-byte prefix of a " << compressed.size()
                         << "-byte wrapper image";
      }
      // The untruncated image still round-trips after the rejection sweep.
      ASSERT_TRUE(codec->TryDecompress(compressed, out));
      ASSERT_EQ(0, std::memcmp(out.data(), page.data(), page.size()));
    }
  }
  EXPECT_GT(wrapped_images, 0) << "no content class produced a wrapped image";
}

}  // namespace
}  // namespace compcache
