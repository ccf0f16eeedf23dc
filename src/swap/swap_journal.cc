#include "swap/swap_journal.h"

#include "util/assert.h"
#include "util/checksum.h"
#include "util/wire.h"

namespace compcache {

namespace {

// Fixed framing overhead around a payload: magic + type + payload_len + crc.
constexpr size_t kFrameBytes = 4 + 1 + 4 + 4;

}  // namespace

SwapJournal::SwapJournal(FileSystem* fs, const std::string& file_name) : fs_(fs) {
  CC_EXPECTS(fs_ != nullptr);
  file_ = fs_->OpenOrCreate(file_name);
}

IoStatus SwapJournal::Append(uint8_t type, std::span<const uint8_t> payload) {
  std::vector<uint8_t> rec;
  rec.reserve(kFrameBytes + payload.size());
  wire::PutU32(rec, kMagic);
  wire::PutU8(rec, type);
  wire::PutU32(rec, static_cast<uint32_t>(payload.size()));
  rec.insert(rec.end(), payload.begin(), payload.end());
  // CRC covers everything after the magic so a stale-length or stale-type
  // fragment at the tail cannot validate against a fresh payload.
  wire::PutU32(rec, Crc32(std::span<const uint8_t>(rec).subspan(4)));

  const IoStatus status = fs_->Write(file_, tail_, rec);
  if (status != IoStatus::kOk) {
    return status;
  }
  tail_ += rec.size();
  return IoStatus::kOk;
}

SwapJournal::ReplayResult SwapJournal::Replay(
    const std::function<void(uint8_t, std::span<const uint8_t>)>& fn) {
  ReplayResult result;
  const uint64_t size = fs_->FileSize(file_);
  std::vector<uint8_t> raw(size);
  if (size > 0 && fs_->Read(file_, 0, raw) != IoStatus::kOk) {
    // Unreadable journal: treat the whole log as torn. The backend falls back
    // to an empty map; every page it held degrades through the lost ladder.
    tail_ = 0;
    result.torn = size > 0;
    return result;
  }

  size_t pos = 0;
  while (pos + kFrameBytes <= raw.size()) {
    wire::Reader header(std::span<const uint8_t>(raw).subspan(pos));
    if (header.U32() != kMagic) {
      break;
    }
    const uint8_t type = header.U8();
    const uint64_t payload_len = header.U32();
    if (pos + kFrameBytes + payload_len > raw.size()) {
      break;  // length field points past the persisted bytes: torn tail
    }
    const auto body =
        std::span<const uint8_t>(raw).subspan(pos + 4, 1 + 4 + payload_len);
    wire::Reader crc_at(std::span<const uint8_t>(raw).subspan(pos + 9 + payload_len));
    if (crc_at.U32() != Crc32(body)) {
      break;
    }
    fn(type, body.subspan(5));
    pos += kFrameBytes + payload_len;
    ++result.records;
  }
  // Anything between the last valid record and the end of the persisted bytes
  // is a torn or stale tail — unless it is all zeros (the file simply grew to
  // a block boundary via whole-block writes).
  for (size_t i = pos; i < raw.size(); ++i) {
    if (raw[i] != 0) {
      result.torn = true;
      break;
    }
  }
  tail_ = pos;
  return result;
}

}  // namespace compcache
