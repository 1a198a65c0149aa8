// Meta-page cache index structures (paper §III-C / §V-B).
//
// The paper describes the RAM cache of meta pages as "a red-black tree with
// LRU eviction". That literal structure (std::map keyed by MPPN + std::list
// recency order) allocates a tree node and a list node per cached page and
// chases pointers on every host write — Dayan & Bonnet show exactly this
// index dominating flash-resident-metadata FTL cost. FlatMetaCache keeps
// the *semantics* (exact LRU, same hit/miss/eviction sequence, so the §V-B
// hit rates are bit-identical) but stores everything in two flat arrays
// sized once at construction:
//   * a slab of `capacity` nodes, each {key, prev, next} with indices (not
//     pointers) forming an intrusive doubly-linked LRU list + a free list,
//   * an open-addressed hash table (linear probing, power-of-two size at
//     ≤ 50 % load) mapping MPPN → slab index, with backward-shift deletion
//     so lookups never scan tombstones.
// No allocation ever happens after the constructor; a get/put is a probe
// plus a handful of index writes. tests/test_meta.cpp keeps the map+list
// implementation and proves, op for op, that the flat cache hits, misses
// and evicts identically.
#pragma once

#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace phftl::core {

/// Outcome of one touch-or-insert, identical across implementations; the
/// differential test compares these fields op for op.
struct CacheAccess {
  bool hit = false;           ///< key was already cached (moved to MRU)
  bool evicted = false;       ///< a miss at capacity evicted the LRU key
  std::uint64_t victim = 0;   ///< the evicted key (valid iff `evicted`)
  /// Slab slot now holding `key` (FlatMetaCache only; the map+list
  /// reference has no slab and leaves it 0). Stable for as long as the key
  /// stays cached, so callers can attach per-entry payload arrays indexed
  /// by slot — the mapping tier's CMT stores its translation-page entries
  /// this way (docs/MAPPING.md).
  std::uint32_t node = 0;
};

/// Flat open-addressed hash + intrusive array-backed LRU. Exact LRU with
/// the same eviction order as the paper's map+list cache.
class FlatMetaCache {
 public:
  /// Default-constructed caches hold nothing until reset(); MetaStore
  /// derives its capacity from the geometry after member construction.
  FlatMetaCache() = default;
  explicit FlatMetaCache(std::size_t capacity) { reset(capacity); }

  /// (Re)size to `capacity` entries and drop all contents. The only
  /// allocating operation; everything after is flat-array writes.
  void reset(std::size_t capacity) {
    PHFTL_CHECK_MSG(capacity > 0, "cache capacity must be positive");
    capacity_ = capacity;
    nodes_.assign(capacity_, Node{});
    // ≤ 50 % load keeps linear-probe chains short; power-of-two size makes
    // the probe step a mask instead of a modulo.
    std::size_t slots = 16;
    while (slots < capacity_ * 2) slots <<= 1;
    slot_mask_ = slots - 1;
    slots_.assign(slots, kEmptySlot);
    clear();
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

  bool contains(std::uint64_t key) const {
    return find_slot(key) != kNotFound;
  }

  /// Slab slot holding `key`, or kNoNode if not cached. Does NOT touch the
  /// LRU order — a pure read for callers maintaining per-slot payload.
  static constexpr std::uint32_t kNoNode = ~0u;
  std::uint32_t node_of(std::uint64_t key) const {
    const std::size_t slot = find_slot(key);
    return slot == kNotFound ? kNoNode : slots_[slot];
  }

  /// Key at the eviction end, valid iff size() > 0. Callers that must act
  /// on the victim BEFORE access() recycles its slab slot (dirty write-back
  /// of attached payload) peek here when the cache is full.
  std::uint64_t lru_key() const {
    PHFTL_CHECK(tail_ != kNil);
    return nodes_[tail_].key;
  }

  /// Touch-or-insert: a hit moves `key` to MRU; a miss inserts it at MRU,
  /// evicting the LRU entry when full.
  CacheAccess access(std::uint64_t key) {
    CacheAccess out;
    const std::size_t slot = find_slot(key);
    if (slot != kNotFound) {
      out.hit = true;
      out.node = slots_[slot];
      move_to_front(out.node);
      return out;
    }
    if (size_ == capacity_) {
      out.evicted = true;
      out.victim = nodes_[tail_].key;
      erase_key(out.victim);
    }
    const std::uint32_t node = pop_free();
    nodes_[node].key = key;
    push_front(node);
    insert_slot(key, node);
    ++size_;
    out.node = node;
    return out;
  }

  /// Drop `key` if cached (superblock erase invalidates its meta pages).
  /// Returns true if it was present.
  bool erase(std::uint64_t key) {
    if (find_slot(key) == kNotFound) return false;
    erase_key(key);
    return true;
  }

  /// Drop everything (power-cut cold start).
  void clear() {
    std::fill(slots_.begin(), slots_.end(), kEmptySlot);
    head_ = tail_ = kNil;
    size_ = 0;
    // Rebuild the free list over the whole slab.
    free_head_ = 0;
    for (std::uint32_t i = 0; i < nodes_.size(); ++i)
      nodes_[i].next = i + 1 == nodes_.size() ? kNil : i + 1;
  }

  /// LRU order, most recent first (diagnostics / tests).
  template <typename Fn>
  void for_each_mru(Fn&& fn) const {
    for (std::uint32_t n = head_; n != kNil; n = nodes_[n].next)
      fn(nodes_[n].key);
  }

 private:
  static constexpr std::uint32_t kNil = ~0u;
  static constexpr std::uint32_t kEmptySlot = ~0u;
  static constexpr std::size_t kNotFound = ~std::size_t{0};

  struct Node {
    std::uint64_t key = 0;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  /// Fibonacci multiplicative hash; MPPNs are dense small integers, so the
  /// high bits need the spread.
  std::size_t hash(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) &
           slot_mask_;
  }

  std::size_t find_slot(std::uint64_t key) const {
    std::size_t i = hash(key);
    while (slots_[i] != kEmptySlot) {
      if (nodes_[slots_[i]].key == key) return i;
      i = (i + 1) & slot_mask_;
    }
    return kNotFound;
  }

  void insert_slot(std::uint64_t key, std::uint32_t node) {
    std::size_t i = hash(key);
    while (slots_[i] != kEmptySlot) i = (i + 1) & slot_mask_;
    slots_[i] = node;
  }

  /// Backward-shift deletion: close the probe chain so searches never need
  /// tombstones. Standard linear-probing invariant maintenance.
  void remove_slot(std::size_t i) {
    slots_[i] = kEmptySlot;
    std::size_t j = (i + 1) & slot_mask_;
    while (slots_[j] != kEmptySlot) {
      const std::size_t home = hash(nodes_[slots_[j]].key);
      // Shift j back into i unless j's home slot lies in (i, j] cyclically
      // (then the entry is already as close to home as the hole allows).
      const bool keep = i <= j ? (home > i && home <= j)
                               : (home > i || home <= j);
      if (!keep) {
        slots_[i] = slots_[j];
        slots_[j] = kEmptySlot;
        i = j;
      }
      j = (j + 1) & slot_mask_;
    }
  }

  void erase_key(std::uint64_t key) {
    const std::size_t slot = find_slot(key);
    PHFTL_CHECK(slot != kNotFound);
    const std::uint32_t node = slots_[slot];
    remove_slot(slot);
    unlink(node);
    push_free(node);
    --size_;
  }

  // --- intrusive LRU list over the slab ---
  void push_front(std::uint32_t n) {
    nodes_[n].prev = kNil;
    nodes_[n].next = head_;
    if (head_ != kNil) nodes_[head_].prev = n;
    head_ = n;
    if (tail_ == kNil) tail_ = n;
  }

  void unlink(std::uint32_t n) {
    const std::uint32_t p = nodes_[n].prev;
    const std::uint32_t q = nodes_[n].next;
    if (p != kNil) nodes_[p].next = q; else head_ = q;
    if (q != kNil) nodes_[q].prev = p; else tail_ = p;
  }

  void move_to_front(std::uint32_t n) {
    if (head_ == n) return;
    unlink(n);
    push_front(n);
  }

  // --- free list threaded through `next` ---
  std::uint32_t pop_free() {
    PHFTL_CHECK(free_head_ != kNil);
    const std::uint32_t n = free_head_;
    free_head_ = nodes_[n].next;
    return n;
  }
  void push_free(std::uint32_t n) {
    nodes_[n].next = free_head_;
    free_head_ = n;
  }

  std::size_t capacity_ = 0;
  std::vector<Node> nodes_;          ///< fixed slab, `capacity_` entries
  std::vector<std::uint32_t> slots_; ///< open-addressed table → slab index
  std::size_t slot_mask_ = 0;
  std::uint32_t head_ = kNil;        ///< MRU
  std::uint32_t tail_ = kNil;        ///< LRU (eviction end)
  std::uint32_t free_head_ = kNil;
  std::size_t size_ = 0;
};

}  // namespace phftl::core
