// Deterministic synthetic text: a stand-in for /usr/dict/words and for the mail
// corpus the Gold index engine indexed. The generator controls exactly the
// property the paper's sort experiment varied — how much string repetition lands
// within a single 4 KB page.
#ifndef COMPCACHE_APPS_WORDGEN_H_
#define COMPCACHE_APPS_WORDGEN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fs/file_system.h"
#include "util/rng.h"

namespace compcache {

// A deterministic dictionary of `size` distinct syllable-built words, sorted
// lexicographically (like /usr/dict/words).
std::vector<std::string> MakeDictionary(size_t size, uint64_t seed);

// "sort random" input: "numerous copies of each word ... completely unsorted to
// begin with, so there was minimal repetition of strings within an individual
// 4-Kbyte page". Uniformly shuffled copies of the dictionary until at least
// `total_bytes` of newline-separated text.
std::vector<std::string> MakeUnsortedCopies(const std::vector<std::string>& dictionary,
                                            uint64_t total_bytes, uint64_t seed);

// "sort partial" input: "only a minor permutation of the sorted copy of the file,
// with substrings (or complete words) often repeated within a page of memory".
// Sorted copies with local perturbations of up to `displacement` positions.
std::vector<std::string> MakeNearlySortedCopies(const std::vector<std::string>& dictionary,
                                                uint64_t total_bytes, size_t displacement,
                                                uint64_t seed);

// Joins words with newlines (the text-file image the sort benchmark reads).
std::string JoinWords(const std::vector<std::string>& words);

// A synthetic mail message body of roughly `approx_bytes`, drawing Zipf-skewed
// words from the dictionary (for the Gold corpus).
std::string MakeMessage(const std::vector<std::string>& dictionary, size_t approx_bytes,
                        Rng& rng);

// Writes `text` as the whole of `file`, an app's input set up before its run.
// Each 4 KB block of a disk request draws its own injected fault, so one large
// write can outlast the disk's retries; a failed write is redone in 64 KB
// pieces, each retried until it lands.
void WriteTextFile(FileSystem& fs, FileId file, std::string_view text);

}  // namespace compcache

#endif  // COMPCACHE_APPS_WORDGEN_H_
