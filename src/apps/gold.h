// `gold` (paper section 5.2): the index engine of the Gold Mailer (Barbara et al.,
// ICDE '93) — a main-memory inverted index over a mail corpus. The original is
// unavailable, so this is a functional re-implementation: a term hash table plus
// chunked postings lists kept in simulated VM. Its profile matches the paper's
// description: the data "compresses slightly worse than 2:1" and accesses are
// highly nonsequential, "each of which requires a full 4-Kbyte read from backing
// store" — which is why all three gold benchmarks ran slower under the
// compression cache.
//
// Three benchmark phases, as in Table 1:
//   gold create — build the index from the corpus (write-heavy);
//   gold cold   — a query batch right after the engine starts (index pages faulted
//                 back in, plus scratch writes);
//   gold warm   — the same query batch again (read-mostly).
#ifndef COMPCACHE_APPS_GOLD_H_
#define COMPCACHE_APPS_GOLD_H_

#include <memory>
#include <optional>
#include <vector>

#include "apps/app.h"
#include "util/rng.h"
#include "util/time_types.h"
#include "vm/heap.h"

namespace compcache {

struct GoldOptions {
  size_t num_messages = 4096;
  size_t message_bytes = 2048;
  size_t dictionary_words = 24 * 1024;
  size_t term_table_slots = 1 << 16;   // open-addressing hash table
  uint64_t postings_bytes = 18 * kMiB;  // bump-allocated chunk area
  size_t num_queries = 2048;
  size_t terms_per_query = 3;
  SimDuration cpu_per_token = SimDuration::Micros(2);
  SimDuration cpu_per_posting = SimDuration::Nanos(300);
  // Paper section 6: "one might also redesign specific applications, such as
  // databases, to keep some of their data structures in compressed format, using
  // application-specific techniques." When set, postings lists store ascending
  // docid deltas as varints instead of fixed 8-byte records — the index shrinks
  // ~3x before the VM-level compressor ever sees it.
  bool compact_postings = false;
  uint64_t seed = 31;
};

struct GoldPhaseResult {
  SimDuration elapsed;
  uint64_t tokens_indexed = 0;
  uint64_t postings_touched = 0;
  uint64_t query_hits = 0;
};

// The engine owns its heap across phases so that cold/warm queries see the memory
// state the previous phase left behind, like a long-running server process.
class GoldIndex {
 public:
  GoldIndex(Machine& machine, GoldOptions options);

  // Builds the corpus files (setup, before timing starts in benchmarks).
  void PrepareCorpus();

  // --- incremental primitives (the Step()-protocol path drives these; the
  // RunCreate/RunQueries wrappers below just loop them) ---
  size_t num_messages() const { return options_.num_messages; }
  size_t num_queries() const { return options_.num_queries; }
  // Reads and indexes one message (messages must be indexed in ascending order:
  // the compact-postings delta encoding requires docids to arrive sorted).
  void IndexMessage(size_t m, GoldPhaseResult& r);

  // One query batch's cursor and scratch state. The RNG stream restarts for
  // every batch, so cold and warm batches run identical queries.
  struct QueryBatch {
    Rng rng{0};
    std::vector<uint8_t> zeros;
    std::vector<uint8_t> counters;
    size_t next_query = 0;
    GoldPhaseResult result;
    SimTime start;
  };
  QueryBatch BeginQueryBatch();
  void RunOneQuery(QueryBatch& batch);

  GoldPhaseResult RunCreate();
  GoldPhaseResult RunQueries();  // call once for "cold", again for "warm"

 private:
  struct TermSlot {
    uint64_t hash = 0;
    uint32_t head_chunk = 0;  // offset into the postings area; 0 = none
    uint32_t doc_count = 0;
  };
  static_assert(sizeof(TermSlot) == 16);

  // One posting: document id plus a relevance weight (term-frequency hash), as a
  // ranking mailer index keeps. The weights are high-entropy, which is why the
  // paper found the index "compresses slightly worse than 2:1".
  struct Posting {
    uint32_t docid = 0;
    uint16_t weight = 0;
    uint16_t pad = 0;
  };

  // Postings chunk: 7 postings + link + fill = 64 bytes.
  struct Chunk {
    uint32_t next = 0;
    uint16_t used = 0;
    uint16_t pad = 0;
    Posting postings[7] = {};
  };
  static_assert(sizeof(Chunk) == 64);

  // Compact-postings chunk: varint docid deltas in a byte area. Half the size of
  // the regular chunk, so rare terms (one chunk either way) already save 2x.
  struct CompactChunk {
    uint32_t next = 0;
    uint8_t used = 0;       // bytes of `data` in use
    uint8_t count = 0;      // postings in this chunk
    uint16_t last_hi = 0;   // high bits of the last docid (delta base, with lo)
    uint16_t last_lo = 0;
    uint8_t data[22] = {};
  };
  static_assert(sizeof(CompactChunk) == 32);

  uint64_t SlotAddr(size_t slot) const;
  uint64_t ChunkAddr(uint32_t chunk_offset) const;
  static uint64_t HashTerm(std::string_view term);

  // Finds (or optionally creates) the slot for a term; returns slot index.
  std::optional<size_t> LookupSlot(uint64_t hash, bool create, GoldPhaseResult& r);

  void AddPosting(size_t slot, uint32_t docid, uint16_t weight, GoldPhaseResult& r);
  void AddPostingCompact(size_t slot, uint32_t docid, GoldPhaseResult& r);

  Machine& machine_;
  GoldOptions options_;
  std::vector<std::string> dictionary_;
  FileId corpus_;
  std::vector<uint64_t> message_offsets_;
  std::unique_ptr<Heap> heap_;
  uint64_t postings_base_ = 0;
  uint64_t scratch_base_ = 0;
  uint32_t next_chunk_ = 64;  // 0 is reserved as "null"

 public:
  // Bytes of the postings area consumed (for comparing representations).
  uint64_t postings_bytes_used() const { return next_chunk_; }
};

// App adapters so benches can treat the three phases uniformly.
enum class GoldPhase { kCreate, kCold, kWarm };

struct GoldRunResult {
  GoldPhaseResult create;
  GoldPhaseResult cold;
  GoldPhaseResult warm;
};

// Runs create+cold+warm on one machine and reports the per-phase times.
GoldRunResult RunGoldBenchmarks(Machine& machine, const GoldOptions& options);

// Step()-protocol adapter: runs the full create -> cold -> warm sequence of
// RunGoldBenchmarks as one schedulable process. The GoldIndex needs a Machine
// at construction, so the engine is built lazily on the first Step — which
// also attributes its heap to the owning process.
class GoldApp : public App {
 public:
  explicit GoldApp(GoldOptions options) : options_(std::move(options)) {}

  std::string_view name() const override { return "gold"; }
  bool Step(Machine& machine) override;

  const GoldRunResult& result() const { return result_; }
  const GoldIndex* index() const { return engine_.get(); }

 private:
  enum class Phase { kInit, kPrepare, kCreate, kCold, kWarm, kDone };

  // Messages indexed / queries executed per Step.
  static constexpr size_t kMessagesPerStep = 2;
  static constexpr size_t kQueriesPerStep = 8;

  // Steps the current query batch; returns the finished batch result when the
  // batch completes.
  std::optional<GoldPhaseResult> StepQueries(Machine& machine);

  GoldOptions options_;
  GoldRunResult result_;

  Phase phase_ = Phase::kInit;
  Machine* machine_ = nullptr;  // bound at first Step; must not change
  std::unique_ptr<GoldIndex> engine_;
  GoldPhaseResult create_result_;
  GoldIndex::QueryBatch batch_;
  bool batch_active_ = false;
  size_t next_message_ = 0;
  SimTime create_start_;
};

}  // namespace compcache

#endif  // COMPCACHE_APPS_GOLD_H_
