#include "apps/gold.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "apps/wordgen.h"
#include "util/assert.h"
#include "util/rng.h"
#include "util/units.h"

namespace compcache {

GoldIndex::GoldIndex(Machine& machine, GoldOptions options)
    : machine_(machine), options_(std::move(options)) {
  CC_EXPECTS((options_.term_table_slots & (options_.term_table_slots - 1)) == 0);
  dictionary_ = MakeDictionary(options_.dictionary_words, options_.seed);

  const uint64_t table_bytes = options_.term_table_slots * sizeof(TermSlot);
  postings_base_ = table_bytes;
  scratch_base_ = postings_base_ + options_.postings_bytes;
  const uint64_t scratch_bytes = options_.num_messages * sizeof(uint16_t);
  heap_ = std::make_unique<Heap>(machine_.NewHeap(scratch_base_ + scratch_bytes));
}

uint64_t GoldIndex::SlotAddr(size_t slot) const { return slot * sizeof(TermSlot); }

uint64_t GoldIndex::ChunkAddr(uint32_t chunk_offset) const {
  return postings_base_ + chunk_offset;
}

uint64_t GoldIndex::HashTerm(std::string_view term) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const char ch : term) {
    h ^= static_cast<uint8_t>(ch);
    h *= 1099511628211ull;
  }
  return h == 0 ? 1 : h;  // 0 marks an empty slot
}

void GoldIndex::PrepareCorpus() {
  Rng rng(options_.seed + 100);
  corpus_ = machine_.fs().Create("gold.corpus");
  uint64_t offset = 0;
  std::string blob;
  for (size_t m = 0; m < options_.num_messages; ++m) {
    message_offsets_.push_back(offset);
    const std::string msg = MakeMessage(dictionary_, options_.message_bytes, rng);
    blob += msg;
    blob += '\0';
    offset += msg.size() + 1;
  }
  message_offsets_.push_back(offset);
  WriteTextFile(machine_.fs(), corpus_, blob);
}

std::optional<size_t> GoldIndex::LookupSlot(uint64_t hash, bool create, GoldPhaseResult& r) {
  const size_t mask = options_.term_table_slots - 1;
  size_t slot = static_cast<size_t>(hash) & mask;
  for (size_t probe = 0; probe < options_.term_table_slots; ++probe) {
    TermSlot ts = heap_->Load<TermSlot>(SlotAddr(slot));
    ++r.postings_touched;
    if (ts.hash == hash) {
      return slot;
    }
    if (ts.hash == 0) {
      if (!create) {
        return std::nullopt;
      }
      ts.hash = hash;
      ts.head_chunk = 0;
      ts.doc_count = 0;
      heap_->Store(SlotAddr(slot), ts);
      return slot;
    }
    slot = (slot + 1) & mask;
  }
  CC_ASSERT(false && "gold term table full");
  return std::nullopt;
}

void GoldIndex::AddPosting(size_t slot, uint32_t docid, uint16_t weight,
                           GoldPhaseResult& r) {
  machine_.clock().Advance(options_.cpu_per_posting);
  TermSlot ts = heap_->Load<TermSlot>(SlotAddr(slot));
  // New chunks are prepended, so the head chunk is the one that may have room.
  if (ts.head_chunk != 0) {
    Chunk head = heap_->Load<Chunk>(ChunkAddr(ts.head_chunk));
    ++r.postings_touched;
    if (head.used > 0 && head.postings[head.used - 1].docid == docid) {
      return;  // same document, term repeated
    }
    if (head.used < 7) {
      head.postings[head.used] = Posting{docid, weight, 0};
      ++head.used;
      heap_->Store(ChunkAddr(ts.head_chunk), head);
      ++ts.doc_count;
      heap_->Store(SlotAddr(slot), ts);
      return;
    }
  }
  // Allocate a fresh chunk at the bump pointer.
  CC_ASSERT(next_chunk_ + sizeof(Chunk) <= options_.postings_bytes);
  Chunk fresh;
  fresh.next = ts.head_chunk;
  fresh.used = 1;
  fresh.postings[0] = Posting{docid, weight, 0};
  heap_->Store(ChunkAddr(next_chunk_), fresh);
  ts.head_chunk = next_chunk_;
  ++ts.doc_count;
  heap_->Store(SlotAddr(slot), ts);
  next_chunk_ += sizeof(Chunk);
  ++r.postings_touched;
}

void GoldIndex::AddPostingCompact(size_t slot, uint32_t docid, GoldPhaseResult& r) {
  machine_.clock().Advance(options_.cpu_per_posting);
  TermSlot ts = heap_->Load<TermSlot>(SlotAddr(slot));

  auto varint_len = [](uint32_t v) {
    return v < 0x80 ? 1u : v < 0x4000 ? 2u : v < 0x200000 ? 3u : 4u;
  };

  if (ts.head_chunk != 0) {
    CompactChunk head = heap_->Load<CompactChunk>(ChunkAddr(ts.head_chunk));
    ++r.postings_touched;
    const uint32_t last =
        (static_cast<uint32_t>(head.last_hi) << 16) | head.last_lo;
    if (head.count > 0 && last == docid) {
      return;  // same document, term repeated
    }
    CC_ASSERT(head.count == 0 || docid > last);  // documents arrive in order
    const uint32_t delta = head.count == 0 ? docid : docid - last;
    const uint32_t need = varint_len(delta);
    if (head.used + need <= sizeof(head.data)) {
      uint32_t v = delta;
      while (v >= 0x80) {
        head.data[head.used++] = static_cast<uint8_t>(v | 0x80);
        v >>= 7;
      }
      head.data[head.used++] = static_cast<uint8_t>(v);
      ++head.count;
      head.last_hi = static_cast<uint16_t>(docid >> 16);
      head.last_lo = static_cast<uint16_t>(docid & 0xFFFF);
      heap_->Store(ChunkAddr(ts.head_chunk), head);
      ++ts.doc_count;
      heap_->Store(SlotAddr(slot), ts);
      return;
    }
  }
  // Start a fresh chunk whose first "delta" is the absolute docid.
  CC_ASSERT(next_chunk_ + sizeof(CompactChunk) <= options_.postings_bytes);
  CompactChunk fresh;
  fresh.next = ts.head_chunk;
  uint32_t v = docid;
  while (v >= 0x80) {
    fresh.data[fresh.used++] = static_cast<uint8_t>(v | 0x80);
    v >>= 7;
  }
  fresh.data[fresh.used++] = static_cast<uint8_t>(v);
  fresh.count = 1;
  fresh.last_hi = static_cast<uint16_t>(docid >> 16);
  fresh.last_lo = static_cast<uint16_t>(docid & 0xFFFF);
  heap_->Store(ChunkAddr(next_chunk_), fresh);
  ts.head_chunk = next_chunk_;
  ++ts.doc_count;
  heap_->Store(SlotAddr(slot), ts);
  next_chunk_ += sizeof(CompactChunk);
  ++r.postings_touched;
}

void GoldIndex::IndexMessage(size_t m, GoldPhaseResult& r) {
  CC_EXPECTS(!message_offsets_.empty());
  CC_EXPECTS(m < options_.num_messages);
  const uint64_t off = message_offsets_[m];
  const uint64_t len = message_offsets_[m + 1] - off - 1;
  std::vector<uint8_t> buf(len);
  machine_.buffer_cache().Read(corpus_, off, buf);

  // Tokenize natively (the text is transient); the index lives in the heap.
  size_t tok_start = 0;
  for (size_t i = 0; i <= buf.size(); ++i) {
    const bool boundary = i == buf.size() || buf[i] == ' ' || buf[i] == '\n';
    if (!boundary) {
      continue;
    }
    if (i > tok_start) {
      const std::string_view term(reinterpret_cast<const char*>(buf.data()) + tok_start,
                                  i - tok_start);
      machine_.clock().Advance(options_.cpu_per_token);
      ++r.tokens_indexed;
      const uint64_t hash = HashTerm(term);
      const auto slot = LookupSlot(hash, /*create=*/true, r);
      // Relevance weight: a hash of (term, position) — high entropy, like
      // real per-posting scores.
      if (options_.compact_postings) {
        AddPostingCompact(*slot, static_cast<uint32_t>(m), r);
      } else {
        const auto weight = static_cast<uint16_t>((hash >> 17) ^ (i * 2654435761u));
        AddPosting(*slot, static_cast<uint32_t>(m), weight, r);
      }
    }
    tok_start = i + 1;
  }
}

GoldPhaseResult GoldIndex::RunCreate() {
  GoldPhaseResult result;
  const SimTime start = machine_.clock().Now();
  for (size_t m = 0; m < options_.num_messages; ++m) {
    IndexMessage(m, result);
  }
  result.elapsed = machine_.clock().Now() - start;
  return result;
}

GoldIndex::QueryBatch GoldIndex::BeginQueryBatch() {
  QueryBatch batch;
  batch.rng = Rng(options_.seed + 200);  // same stream cold and warm: identical batches
  const uint64_t scratch_bytes = options_.num_messages * sizeof(uint16_t);
  batch.zeros.assign(scratch_bytes, 0);
  batch.counters.resize(scratch_bytes);
  batch.start = machine_.clock().Now();
  return batch;
}

void GoldIndex::RunOneQuery(QueryBatch& batch) {
  CC_EXPECTS(batch.next_query < options_.num_queries);
  GoldPhaseResult& result = batch.result;
  Rng& rng = batch.rng;

  // Zero the per-document match counters (scratch writes; part of why even
  // query phases dirty pages).
  heap_->WriteBytes(scratch_base_, batch.zeros);

  size_t terms_matched = 0;
  for (size_t t = 0; t < options_.terms_per_query; ++t) {
    const double u = rng.NextDouble();
    const auto idx = static_cast<size_t>(u * u * static_cast<double>(dictionary_.size()));
    const std::string& term = dictionary_[idx < dictionary_.size() ? idx : 0];
    machine_.clock().Advance(options_.cpu_per_token);

    const auto slot = LookupSlot(HashTerm(term), /*create=*/false, result);
    if (!slot.has_value()) {
      continue;
    }
    ++terms_matched;
    TermSlot ts = heap_->Load<TermSlot>(SlotAddr(*slot));
    uint32_t chunk = ts.head_chunk;
    while (chunk != 0) {
      ++result.postings_touched;
      machine_.clock().Advance(options_.cpu_per_posting);
      if (options_.compact_postings) {
        const CompactChunk c = heap_->Load<CompactChunk>(ChunkAddr(chunk));
        uint32_t docid = 0;
        uint8_t pos = 0;
        for (uint8_t i = 0; i < c.count; ++i) {
          uint32_t delta = 0;
          uint32_t shift = 0;
          while (true) {
            CC_ASSERT(pos < c.used);
            const uint8_t byte = c.data[pos++];
            delta |= static_cast<uint32_t>(byte & 0x7F) << shift;
            if ((byte & 0x80) == 0) {
              break;
            }
            shift += 7;
          }
          docid = i == 0 ? delta : docid + delta;
          const uint64_t addr = scratch_base_ + docid * sizeof(uint16_t);
          heap_->Store<uint16_t>(addr,
                                 static_cast<uint16_t>(heap_->Load<uint16_t>(addr) + 1));
        }
        chunk = c.next;
      } else {
        const Chunk c = heap_->Load<Chunk>(ChunkAddr(chunk));
        for (uint16_t i = 0; i < c.used; ++i) {
          const uint64_t addr = scratch_base_ + c.postings[i].docid * sizeof(uint16_t);
          heap_->Store<uint16_t>(addr,
                                 static_cast<uint16_t>(heap_->Load<uint16_t>(addr) + 1));
        }
        chunk = c.next;
      }
    }
  }

  // Count documents matching every term (one sequential scan of the scratch
  // area, like formatting the result list).
  if (terms_matched > 0) {
    heap_->ReadBytes(scratch_base_, batch.counters);
    for (size_t d = 0; d < options_.num_messages; ++d) {
      uint16_t count;
      std::memcpy(&count, batch.counters.data() + d * sizeof(uint16_t), sizeof(count));
      if (count >= terms_matched) {
        ++result.query_hits;
      }
    }
  }
  ++batch.next_query;
}

GoldPhaseResult GoldIndex::RunQueries() {
  QueryBatch batch = BeginQueryBatch();
  while (batch.next_query < options_.num_queries) {
    RunOneQuery(batch);
  }
  batch.result.elapsed = machine_.clock().Now() - batch.start;
  return batch.result;
}

GoldRunResult RunGoldBenchmarks(Machine& machine, const GoldOptions& options) {
  GoldIndex engine(machine, options);
  engine.PrepareCorpus();
  GoldRunResult result;
  result.create = engine.RunCreate();
  result.cold = engine.RunQueries();
  result.warm = engine.RunQueries();
  return result;
}

std::optional<GoldPhaseResult> GoldApp::StepQueries(Machine& machine) {
  if (!batch_active_) {
    batch_ = engine_->BeginQueryBatch();
    batch_active_ = true;
  }
  for (size_t n = 0; n < kQueriesPerStep && batch_.next_query < engine_->num_queries();
       ++n) {
    engine_->RunOneQuery(batch_);
  }
  if (batch_.next_query < engine_->num_queries()) {
    return std::nullopt;
  }
  batch_.result.elapsed = machine.clock().Now() - batch_.start;
  batch_active_ = false;
  return batch_.result;
}

bool GoldApp::Step(Machine& machine) {
  CC_EXPECTS(machine_ == nullptr || machine_ == &machine);
  machine_ = &machine;

  switch (phase_) {
    case Phase::kInit: {
      engine_ = std::make_unique<GoldIndex>(machine, options_);
      phase_ = Phase::kPrepare;
      return false;
    }

    case Phase::kPrepare: {
      engine_->PrepareCorpus();
      create_start_ = machine.clock().Now();
      phase_ = engine_->num_messages() > 0 ? Phase::kCreate : Phase::kCold;
      return false;
    }

    case Phase::kCreate: {
      const size_t end =
          std::min(engine_->num_messages(), next_message_ + kMessagesPerStep);
      for (; next_message_ < end; ++next_message_) {
        engine_->IndexMessage(next_message_, create_result_);
      }
      if (next_message_ == engine_->num_messages()) {
        create_result_.elapsed = machine.clock().Now() - create_start_;
        result_.create = create_result_;
        phase_ = Phase::kCold;
      }
      return false;
    }

    case Phase::kCold: {
      if (const auto done = StepQueries(machine); done.has_value()) {
        result_.cold = *done;
        phase_ = Phase::kWarm;
      }
      return false;
    }

    case Phase::kWarm: {
      if (const auto done = StepQueries(machine); done.has_value()) {
        result_.warm = *done;
        phase_ = Phase::kDone;
        return true;
      }
      return false;
    }

    case Phase::kDone:
      return true;
  }
  return true;  // unreachable
}

}  // namespace compcache
