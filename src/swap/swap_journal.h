// A tiny write-ahead intent log for swap-backend metadata.
//
// The clustered and fixed-offset backends keep their placement maps purely in
// memory; a power cut would lose every page they hold. In durable mode each
// backend appends one CRC'd intent record per metadata mutation (batch write,
// invalidate) to this journal and replays it on mount. The LFS backend does
// not use it — its durability lives in segment summaries and checkpoints.
//
// Record framing, little-endian:
//   [magic u32][type u8][payload_len u32][payload bytes][crc u32]
// where crc is CRC-32C over type + payload_len + payload. Appends are
// strictly sequential, so a power cut can tear only the record at the logical
// tail (DiskDevice persists a sector-granular prefix of each write, and the
// file system's read-modify-write of a partially covered tail block rewrites
// the earlier records in that block with identical bytes). Replay therefore
// scans from the start and truncates at the first invalid record: everything
// before it is the durable prefix, everything after is the torn tail.
//
// The journal is append-only; replay after a recovery continues appending at
// the truncation point, overwriting stale bytes from the previous generation.
// A stale fragment masquerading as a valid record would need a matching magic
// *and* CRC at exactly the truncation offset — vanishingly unlikely, and the
// crash differential tests sweep for it.
#ifndef COMPCACHE_SWAP_SWAP_JOURNAL_H_
#define COMPCACHE_SWAP_SWAP_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "fs/file_system.h"
#include "util/io_status.h"

namespace compcache {

class SwapJournal {
 public:
  static constexpr uint32_t kMagic = 0x4A57'4353;  // "SCWJ"

  struct ReplayResult {
    uint64_t records = 0;  // valid records delivered to the callback
    bool torn = false;     // an invalid/partial record was found at the tail
  };

  // Attaches to (or creates) the journal file named `file_name`.
  SwapJournal(FileSystem* fs, const std::string& file_name);

  // Appends one record at the logical tail. The record is durable — modulo a
  // torn tail that replay truncates — once this returns kOk. On a device
  // failure the tail does not advance, so a later append overwrites the
  // partial record.
  IoStatus Append(uint8_t type, std::span<const uint8_t> payload);

  // Scans from the start, invoking `fn(type, payload)` for each valid record
  // in order, and repositions the logical tail at the first invalid record.
  ReplayResult Replay(const std::function<void(uint8_t, std::span<const uint8_t>)>& fn);

  uint64_t tail() const { return tail_; }

 private:
  FileSystem* fs_;
  FileId file_;
  uint64_t tail_ = 0;
};

}  // namespace compcache

#endif  // COMPCACHE_SWAP_SWAP_JOURNAL_H_
