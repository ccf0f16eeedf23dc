// CRC-32C (Castagnoli) over byte spans — the 32-bit checksum carried by every
// compressed page image (stored in the ring entry header and in the swap
// backends' fragment metadata) so that corruption anywhere on the
// compress -> ring -> fragment -> disk -> decompress round-trip is caught at
// read time instead of surfacing as silently wrong application data.
//
// Crc32() picks its implementation once per process: the SSE4.2 `crc32`
// instruction, eight bytes per step, on x86-64 CPUs that have it, and a
// bytewise 256-entry table everywhere else. Both compute the same CRC, so a
// stored checksum never depends on the host. The simulator charges checksum
// work zero virtual time; the choice moves host time only.
#ifndef COMPCACHE_UTIL_CHECKSUM_H_
#define COMPCACHE_UTIL_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace compcache {

namespace internal {

// Raw CRC-32C updates: `crc` is the running register (start at 0xFFFFFFFF and
// invert the result), with no 0 -> 1 remap. Exposed so tests can hold every
// path to a bitwise reference.
uint32_t Crc32cBytewise(uint32_t crc, std::span<const uint8_t> data);
// Valid only when Crc32cHardwareAvailable().
uint32_t Crc32cHardware(uint32_t crc, std::span<const uint8_t> data);
bool Crc32cHardwareAvailable();

}  // namespace internal

// CRC-32C of `data`, except that the rare input whose true CRC is 0 maps to 1
// (a one-in-four-billion detection loss kept so stored values stay the same).
uint32_t Crc32(std::span<const uint8_t> data);

}  // namespace compcache

#endif  // COMPCACHE_UTIL_CHECKSUM_H_
