#include "apps/wordgen.h"

#include <algorithm>

#include "util/assert.h"
#include "util/units.h"

namespace compcache {

namespace {

constexpr const char* kOnsets[] = {"b",  "br", "c",  "cl", "d",  "dr", "f",  "fl",
                                   "g",  "gr", "h",  "j",  "k",  "l",  "m",  "n",
                                   "p",  "pl", "qu", "r",  "s",  "st", "t",  "tr",
                                   "v",  "w",  "sh", "ch", "th", "wh", "sp", "sc"};
constexpr const char* kVowels[] = {"a", "e", "i", "o", "u", "ai", "ea", "ou"};
constexpr const char* kCodas[] = {"",  "n",  "r", "s",  "t",  "l", "m", "st",
                                  "nd", "ck", "p", "ng", "sh", "d", "x", "rth"};

std::string MakeWord(Rng& rng) {
  const size_t syllables = 1 + rng.Below(3);
  std::string word;
  for (size_t s = 0; s < syllables; ++s) {
    word += kOnsets[rng.Below(std::size(kOnsets))];
    word += kVowels[rng.Below(std::size(kVowels))];
    word += kCodas[rng.Below(std::size(kCodas))];
  }
  return word;
}

uint64_t BytesOf(const std::vector<std::string>& words) {
  uint64_t n = 0;
  for (const auto& w : words) {
    n += w.size() + 1;  // newline separator
  }
  return n;
}

}  // namespace

std::vector<std::string> MakeDictionary(size_t size, uint64_t seed) {
  CC_EXPECTS(size > 0);
  Rng rng(seed);
  std::vector<std::string> words;
  words.reserve(size);
  while (words.size() < size) {
    words.push_back(MakeWord(rng));
  }
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  // Duplicates are rare; top up until the target count.
  while (words.size() < size) {
    std::string w = MakeWord(rng) + MakeWord(rng);
    const auto pos = std::lower_bound(words.begin(), words.end(), w);
    if (pos == words.end() || *pos != w) {
      words.insert(pos, std::move(w));
    }
  }
  return words;
}

std::vector<std::string> MakeUnsortedCopies(const std::vector<std::string>& dictionary,
                                            uint64_t total_bytes, uint64_t seed) {
  CC_EXPECTS(!dictionary.empty());
  Rng rng(seed);
  std::vector<std::string> out;
  uint64_t bytes = 0;
  while (bytes < total_bytes) {
    const std::string& w = dictionary[rng.Below(dictionary.size())];
    bytes += w.size() + 1;
    out.push_back(w);
  }
  return out;
}

std::vector<std::string> MakeNearlySortedCopies(const std::vector<std::string>& dictionary,
                                                uint64_t total_bytes, size_t displacement,
                                                uint64_t seed) {
  CC_EXPECTS(!dictionary.empty());
  Rng rng(seed);
  std::vector<std::string> out;
  // Sorted copies: each dictionary word appears `copies` times in a row, so the
  // same strings repeat heavily within any one page.
  const uint64_t copies =
      std::max<uint64_t>(1, total_bytes / std::max<uint64_t>(1, BytesOf(dictionary)));
  uint64_t bytes = 0;
  for (const auto& w : dictionary) {
    for (uint64_t c = 0; c <= copies && bytes < total_bytes + w.size(); ++c) {
      out.push_back(w);
      bytes += w.size() + 1;
    }
    if (bytes >= total_bytes) {
      break;
    }
  }
  // Minor local permutation.
  if (displacement > 0) {
    for (size_t i = 0; i + 1 < out.size(); ++i) {
      const size_t j = i + rng.Below(std::min<uint64_t>(displacement, out.size() - i));
      std::swap(out[i], out[j]);
    }
  }
  return out;
}

std::string JoinWords(const std::vector<std::string>& words) {
  std::string text;
  uint64_t reserve = 0;
  for (const auto& w : words) {
    reserve += w.size() + 1;
  }
  text.reserve(reserve);
  for (const auto& w : words) {
    text += w;
    text += '\n';
  }
  return text;
}

std::string MakeMessage(const std::vector<std::string>& dictionary, size_t approx_bytes,
                        Rng& rng) {
  std::string body;
  body.reserve(approx_bytes + 16);
  size_t line = 0;
  while (body.size() < approx_bytes) {
    // Zipf-ish skew: squaring the uniform draw favors low dictionary indices.
    const double u = rng.NextDouble();
    const auto idx = static_cast<size_t>(u * u * static_cast<double>(dictionary.size()));
    body += dictionary[idx < dictionary.size() ? idx : dictionary.size() - 1];
    if (++line % 12 == 0) {
      body += '\n';
    } else {
      body += ' ';
    }
  }
  return body;
}

void WriteTextFile(FileSystem& fs, FileId file, std::string_view text) {
  const std::span<const uint8_t> bytes(reinterpret_cast<const uint8_t*>(text.data()),
                                       text.size());
  if (fs.Write(file, 0, bytes) == IoStatus::kOk) {
    return;
  }
  constexpr size_t kPieceBytes = 64 * kKiB;
  // At a 2% block fault rate a piece fails all four disk attempts with
  // probability ~0.006; a hundred failed rewrites in a row is a broken disk.
  constexpr int kMaxRewrites = 100;
  for (size_t offset = 0; offset < bytes.size(); offset += kPieceBytes) {
    const auto piece = bytes.subspan(offset, std::min(kPieceBytes, bytes.size() - offset));
    int rewrites = 0;
    while (fs.Write(file, offset, piece) != IoStatus::kOk) {
      ++rewrites;
      CC_ASSERT(rewrites < kMaxRewrites);
    }
  }
}

}  // namespace compcache
