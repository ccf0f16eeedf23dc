#include "compress/registry.h"

#include <type_traits>

#include "compress/adaptive.h"
#include "compress/fpc.h"
#include "compress/lzrw1.h"
#include "compress/lzrw1a.h"
#include "compress/rle.h"
#include "compress/store.h"
#include "compress/wk.h"
#include "util/assert.h"

namespace compcache {
namespace {

template <typename T>
std::unique_ptr<Codec> Make(unsigned hash_bits) {
  if constexpr (std::is_constructible_v<T, unsigned>) {
    return std::make_unique<T>(hash_bits);
  } else {
    return std::make_unique<T>();
  }
}

struct CodecEntry {
  std::string_view name;
  std::unique_ptr<Codec> (*make)(unsigned hash_bits);
};

// The one codec list: MakeCodec looks names up here and KnownCodecNames()
// returns them in this order.
constexpr CodecEntry kCodecs[] = {
    {"adaptive", Make<AdaptiveCodec>},
    {"fpc", Make<FpcCodec>},
    {"lzrw1", Make<Lzrw1>},
    {"lzrw1a", Make<Lzrw1a>},
    {"rle", Make<RleCodec>},
    {"store", Make<StoreCodec>},
    {"wk", Make<WkCodec>},
};

}  // namespace

std::unique_ptr<Codec> MakeCodec(std::string_view name, unsigned hash_bits) {
  for (const CodecEntry& entry : kCodecs) {
    if (entry.name == name) {
      return entry.make(hash_bits);
    }
  }
  std::fprintf(stderr, "unknown codec: %.*s\n", static_cast<int>(name.size()), name.data());
  std::abort();
}

std::vector<std::string> KnownCodecNames() {
  std::vector<std::string> names;
  for (const CodecEntry& entry : kCodecs) {
    names.emplace_back(entry.name);
  }
  return names;
}

}  // namespace compcache
