#include "apps/sort.h"

#include <algorithm>
#include <vector>

#include "apps/wordgen.h"
#include "util/rng.h"
#include "util/units.h"
#include "vm/heap.h"

namespace compcache {

namespace {

// Word descriptor held in the simulated heap alongside the text: a bare byte
// offset, like the char* line pointers of 1993 sort(1). Word length is found by
// scanning to the newline. Pages of these pointers are only mildly compressible,
// which is a big part of why the paper saw ~49% of sort-partial's pages (and 98%
// of sort-random's) fail the 4:3 threshold.
using WordRef = uint32_t;

}  // namespace

// Compares two words by their text bytes in the heap (to the newline, like
// strcmp on line pointers).
int TextSort::CompareWords(WordRef x, WordRef y) {
  ++result_.comparisons;
  machine_->clock().Advance(options_.cpu_per_compare);
  uint8_t bx[64];
  uint8_t by[64];
  const uint32_t lx = static_cast<uint32_t>(std::min<uint64_t>(sizeof(bx), text_bytes_ - x));
  const uint32_t ly = static_cast<uint32_t>(std::min<uint64_t>(sizeof(by), text_bytes_ - y));
  heap_->ReadBytes(x, std::span<uint8_t>(bx, lx));
  heap_->ReadBytes(y, std::span<uint8_t>(by, ly));
  for (uint32_t i = 0;; ++i) {
    const uint8_t cx = i < lx ? bx[i] : uint8_t{'\n'};
    const uint8_t cy = i < ly ? by[i] : uint8_t{'\n'};
    const bool end_x = cx == '\n';
    const bool end_y = cy == '\n';
    if (end_x || end_y) {
      return end_x && end_y ? 0 : end_x ? -1 : 1;
    }
    if (cx != cy) {
      return cx < cy ? -1 : 1;
    }
  }
}

void TextSort::Exchange(size_t i, size_t j) {
  ++result_.exchanges;
  const WordRef a = refs_->Get(i);
  const WordRef b = refs_->Get(j);
  refs_->Set(i, b);
  refs_->Set(j, a);
}

// Iterative quicksort (median-of-three, insertion sort below 12 elements),
// resumable at comparison granularity: every compare site checks the target
// and returns with the scan cursors saved, so a step boundary can fall in the
// middle of a partition without altering the compare/exchange sequence.
bool TextSort::SortSome(uint64_t target_comparisons) {
  TypedArray<WordRef>& refs = *refs_;
  while (true) {
    if (!range_active_) {
      if (sort_stack_.empty()) {
        return true;
      }
      lo_ = sort_stack_.back().first;
      hi_ = sort_stack_.back().second;
      sort_stack_.pop_back();
      range_active_ = true;
      part_ = Part::kNone;
    }
    if (result_.comparisons >= target_comparisons) {
      return false;
    }

    if (part_ == Part::kNone) {
      if (lo_ >= hi_) {
        range_active_ = false;
        continue;
      }
      if (hi_ - lo_ < 12) {
        // Small range: insertion sort, as one indivisible unit (< 70 compares).
        for (size_t i = lo_ + 1; i <= hi_; ++i) {
          for (size_t j = i; j > lo_; --j) {
            const WordRef a = refs.Get(j - 1);
            const WordRef b = refs.Get(j);
            if (CompareWords(b, a) < 0) {
              refs.Set(j - 1, b);
              refs.Set(j, a);
              ++result_.exchanges;
            } else {
              break;
            }
          }
        }
        range_active_ = false;
        continue;
      }
      // Median of three into position lo.
      const size_t mid = lo_ + (hi_ - lo_) / 2;
      {
        WordRef a = refs.Get(lo_);
        WordRef m = refs.Get(mid);
        WordRef z = refs.Get(hi_);
        if (CompareWords(m, a) < 0) {
          std::swap(a, m);
        }
        if (CompareWords(z, a) < 0) {
          std::swap(a, z);
        }
        if (CompareWords(z, m) < 0) {
          std::swap(m, z);
        }
        refs.Set(lo_, m);
        refs.Set(mid, a);
        refs.Set(hi_, z);
        result_.exchanges += 3;
      }
      pivot_ = refs.Get(lo_);
      pi_ = lo_;
      pj_ = hi_ + 1;
      part_ = Part::kScanI;
      scan_fresh_ = true;
      continue;
    }

    if (part_ == Part::kScanI) {
      // do { ++i; } while (i <= hi && compare(refs[i], pivot) < 0);
      if (scan_fresh_) {
        ++pi_;
        scan_fresh_ = false;
      }
      while (pi_ <= hi_) {
        if (result_.comparisons >= target_comparisons) {
          return false;
        }
        if (CompareWords(refs.Get(pi_), pivot_) < 0) {
          ++pi_;
        } else {
          break;
        }
      }
      part_ = Part::kScanJ;
      scan_fresh_ = true;
      continue;
    }

    // Part::kScanJ: do { --j; } while (compare(pivot, refs[j]) < 0);
    // (no lower bound needed: the pivot at lo stops the scan).
    if (scan_fresh_) {
      --pj_;
      scan_fresh_ = false;
    }
    while (true) {
      if (result_.comparisons >= target_comparisons) {
        return false;
      }
      if (CompareWords(pivot_, refs.Get(pj_)) < 0) {
        --pj_;
      } else {
        break;
      }
    }
    if (pi_ < pj_) {
      Exchange(pi_, pj_);
      part_ = Part::kScanI;
      scan_fresh_ = true;
      continue;
    }
    Exchange(lo_, pj_);
    // Recurse on the smaller side; loop on the larger (bounded stack).
    if (pj_ > lo_ && pj_ - lo_ < hi_ - pj_) {
      if (pj_ > lo_ + 1) {
        sort_stack_.emplace_back(lo_, pj_ - 1);
      }
      lo_ = pj_ + 1;
      part_ = Part::kNone;
    } else {
      if (pj_ + 1 < hi_) {
        sort_stack_.emplace_back(pj_ + 1, hi_);
      }
      if (pj_ == 0) {
        range_active_ = false;
      } else {
        hi_ = pj_ - 1;
        part_ = Part::kNone;
      }
    }
  }
}

bool TextSort::Step(Machine& machine) {
  CC_EXPECTS(machine_ == nullptr || machine_ == &machine);
  machine_ = &machine;

  switch (phase_) {
    case Phase::kSetup: {
      // Build the input file (setup; deterministic). The file lives in the
      // simulated file system so that reading it exercises the buffer cache
      // like sort(1) did.
      const auto dictionary = MakeDictionary(options_.dictionary_words, options_.seed);
      const auto words =
          options_.variant == SortVariant::kRandom
              ? MakeUnsortedCopies(dictionary, options_.text_bytes, options_.seed + 1)
              : MakeNearlySortedCopies(dictionary, options_.text_bytes,
                                       options_.partial_displacement, options_.seed + 1);
      const std::string text = JoinWords(words);
      input_ = machine.fs().Create("sort.input");
      WriteTextFile(machine.fs(), input_, text);

      text_bytes_ = text.size();
      num_words_ = words.size();
      refs_offset_ = (text_bytes_ + kPageSize - 1) / kPageSize * kPageSize;
      heap_.emplace(machine.NewHeap(refs_offset_ + num_words_ * sizeof(WordRef)));

      start_ = machine.clock().Now();
      chunk_.assign(64 * kKiB, 0);
      phase_ = Phase::kRead;
      return false;
    }

    case Phase::kRead: {
      // Read the file into the heap through the buffer cache, chunk by chunk,
      // and scan for word boundaries (this is sort's input phase).
      const uint64_t n = std::min<uint64_t>(chunk_.size(), text_bytes_ - pos_);
      machine.buffer_cache().Read(input_, pos_, std::span<uint8_t>(chunk_.data(), n));
      heap_->WriteBytes(pos_, std::span<const uint8_t>(chunk_.data(), n));
      for (uint64_t i = 0; i < n; ++i) {
        if (chunk_[i] == '\n') {
          // The bound protects the heap when unrecoverable injected faults
          // surface a stale file block with extra newlines.
          if (word_index_ < num_words_) {
            heap_->Store(refs_offset_ + word_index_ * sizeof(WordRef),
                         static_cast<WordRef>(word_start_));
            ++word_index_;
          }
          word_start_ = pos_ + i + 1;
        }
      }
      pos_ += n;
      if (pos_ < text_bytes_) {
        return false;
      }
      result_.words = word_index_;
      if (options_.tolerate_data_loss) {
        // Injected disk errors that exhaust their retries surface file blocks
        // as deterministic zeros, legitimately swallowing newlines. Fault
        // soaks opt in here: sort what survived instead of aborting.
        num_words_ = word_index_;
      } else {
        CC_ASSERT(word_index_ == num_words_);
      }
      chunk_.clear();
      chunk_.shrink_to_fit();

      refs_.emplace(&*heap_, refs_offset_, num_words_);
      if (num_words_ > 1) {
        sort_stack_.emplace_back(0, num_words_ - 1);
      }
      range_active_ = false;
      phase_ = Phase::kSort;
      return false;
    }

    case Phase::kSort: {
      if (SortSome(result_.comparisons + kComparesPerStep)) {
        // Verification pass (also the output scan of sort(1)).
        result_.verified_sorted = true;
        vi_ = 1;
        phase_ = Phase::kVerify;
      }
      return false;
    }

    case Phase::kVerify: {
      uint64_t budget = kComparesPerStep;
      while (vi_ < num_words_ && budget-- > 0) {
        const WordRef a = refs_->Get(vi_ - 1);
        const WordRef b = refs_->Get(vi_);
        if (CompareWords(a, b) > 0) {
          result_.verified_sorted = false;
          vi_ = num_words_;
          break;
        }
        ++vi_;
      }
      if (vi_ >= num_words_) {
        result_.elapsed = machine.clock().Now() - start_;
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
