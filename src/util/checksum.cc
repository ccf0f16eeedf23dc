#include "util/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace compcache {

namespace internal {

namespace {

constexpr std::array<uint32_t, 256> MakeCrc32cTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);  // reflected CRC-32C poly
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kCrc32cTable = MakeCrc32cTable();

}  // namespace

uint32_t Crc32cBytewise(uint32_t crc, std::span<const uint8_t> data) {
  for (const uint8_t byte : data) {
    crc = (crc >> 8) ^ kCrc32cTable[(crc ^ byte) & 0xFFu];
  }
  return crc;
}

#if defined(__x86_64__)

__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(uint32_t crc,
                                                          std::span<const uint8_t> data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t crc64 = crc;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
  }
  crc = static_cast<uint32_t>(crc64);
  for (; n > 0; --n, ++p) {
    crc = _mm_crc32_u8(crc, *p);
  }
  return crc;
}

bool Crc32cHardwareAvailable() {
  // Safe even before static constructors have run, when libgcc may not yet
  // have filled in its CPU model.
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

#else

// No crc32 instruction on this architecture; never selected.
uint32_t Crc32cHardware(uint32_t crc, std::span<const uint8_t> data) {
  return Crc32cBytewise(crc, data);
}

bool Crc32cHardwareAvailable() { return false; }

#endif

}  // namespace internal

uint32_t Crc32(std::span<const uint8_t> data) {
  static const auto update = internal::Crc32cHardwareAvailable() ? &internal::Crc32cHardware
                                                                 : &internal::Crc32cBytewise;
  const uint32_t crc = update(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
  return crc == 0 ? 1u : crc;
}

}  // namespace compcache
