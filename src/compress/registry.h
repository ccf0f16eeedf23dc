// Name-based codec construction, so machine configurations and benchmark command
// lines can select algorithms: the LZ family ("lzrw1", "lzrw1a"), the
// significance-based family ("wk", "fpc"), the floors ("rle", "store"), and the
// per-page adaptive picker ("adaptive").
#ifndef COMPCACHE_COMPRESS_REGISTRY_H_
#define COMPCACHE_COMPRESS_REGISTRY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "compress/codec.h"

namespace compcache {

// Creates a codec by name; aborts on an unknown name (configuration error).
// hash_bits applies to the LZRW family and is ignored by others.
std::unique_ptr<Codec> MakeCodec(std::string_view name, unsigned hash_bits = 12);

// Names accepted by MakeCodec, for help text and parameterized tests.
std::vector<std::string> KnownCodecNames();

}  // namespace compcache

#endif  // COMPCACHE_COMPRESS_REGISTRY_H_
