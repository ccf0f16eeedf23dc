// Intrusive doubly-linked list used for LRU ordering of pages, frames, and file
// blocks. Intrusive so that moving an element to the MRU end is O(1) with no
// allocation — the VM system does this on every simulated memory access.
#ifndef COMPCACHE_UTIL_INTRUSIVE_LRU_H_
#define COMPCACHE_UTIL_INTRUSIVE_LRU_H_

#include <cstddef>

#include "util/assert.h"

namespace compcache {

// Embed one of these in any object that participates in an LruList. The owner
// pointer is recorded at insertion time, which keeps element recovery free of
// pointer-offset arithmetic.
struct LruLink {
  LruLink* prev = nullptr;
  LruLink* next = nullptr;
  void* owner = nullptr;

  bool linked() const { return prev != nullptr; }
};

// Doubly-linked list ordered least-recently-used first. T must expose a public
// `LruLink lru_link;` member (or pass a different member via the template arg).
// Elements must outlive their membership; the list never owns them.
template <typename T, LruLink T::* Member = &T::lru_link>
class LruList {
 public:
  LruList() {
    head_.prev = &head_;
    head_.next = &head_;
  }

  LruList(const LruList&) = delete;
  LruList& operator=(const LruList&) = delete;

  bool empty() const { return head_.next == &head_; }
  size_t size() const { return size_; }

  bool Contains(const T& t) const { return (t.*Member).linked(); }

  // Inserts at the most-recently-used end.
  void PushMru(T& t) {
    LruLink& link = t.*Member;
    CC_EXPECTS(!link.linked());
    link.owner = &t;
    link.prev = head_.prev;
    link.next = &head_;
    head_.prev->next = &link;
    head_.prev = &link;
    ++size_;
  }

  // Inserts at the least-recently-used end (used when an element should be
  // reclaimed before everything else).
  void PushLru(T& t) {
    LruLink& link = t.*Member;
    CC_EXPECTS(!link.linked());
    link.owner = &t;
    link.prev = &head_;
    link.next = head_.next;
    head_.next->prev = &link;
    head_.next = &link;
    ++size_;
  }

  void Remove(T& t) {
    LruLink& link = t.*Member;
    CC_EXPECTS(link.linked());
    link.prev->next = link.next;
    link.next->prev = link.prev;
    link.prev = nullptr;
    link.next = nullptr;
    --size_;
  }

  // Moves an already-linked element to the MRU end.
  void Touch(T& t) {
    Remove(t);
    PushMru(t);
  }

  // Least-recently-used element, or nullptr when empty.
  T* Lru() { return empty() ? nullptr : FromLink(head_.next); }
  const T* Lru() const { return empty() ? nullptr : FromLink(head_.next); }

  T* Mru() { return empty() ? nullptr : FromLink(head_.prev); }

  // Removes and returns the LRU element, or nullptr when empty.
  T* PopLru() {
    T* t = Lru();
    if (t != nullptr) {
      Remove(*t);
    }
    return t;
  }

  // First element, LRU-to-MRU, for which pred(const T&) holds; nullptr when
  // none does. Stops at the first match.
  template <typename Pred>
  T* FindFirst(Pred&& pred) {
    for (LruLink* l = head_.next; l != &head_; l = l->next) {
      if (pred(*FromLink(l))) {
        return FromLink(l);
      }
    }
    return nullptr;
  }

  // Iterates LRU-to-MRU, calling fn(T&). fn must not mutate the list.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const LruLink* l = head_.next; l != &head_; l = l->next) {
      fn(*FromLink(l));
    }
  }

 private:
  static T* FromLink(const LruLink* link) { return static_cast<T*>(link->owner); }

  LruLink head_;
  size_t size_ = 0;
};

}  // namespace compcache

#endif  // COMPCACHE_UTIL_INTRUSIVE_LRU_H_
