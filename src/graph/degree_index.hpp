// Bucket-queue index over per-slot total degrees: the structure behind
// DynamicGraph::extreme_degree (the maxdeg/mindeg adversaries' question).
//
// Every slot sits in the bucket of its current degree. A bucket is a
// word-packed member set (one bit per slot) with a summary level (one bit
// per non-zero member word), so its smallest slot is two countr_zero scans
// away: the first non-zero summary word, then the member word it names.
// The largest and smallest non-empty degrees are cached; a unit degree
// change moves either by at most one, and only a removal that empties the
// extreme bucket walks to the next non-empty one.
//
// Costs: a degree change is O(1) (two bit flips plus summary upkeep); a
// query scans at most capacity / 4096 summary words; memory is one u32 per
// slot plus capacity / 8 bytes per bucket. Buckets are allocated
// kBucketHeadroom degrees past the largest degree seen, so a warmed graph
// whose degrees stay in that range never touches the allocator.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/assertx.hpp"
#include "common/bitset64.hpp"

namespace churnet {

class DegreeIndex {
 public:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// Empties the index and sizes it for slots below `slot_capacity` (it
  /// still grows past that on demand). Keeps every allocation.
  void reset(std::uint32_t slot_capacity);

  /// Adds `slot`, which must not be present, at degree `degree`.
  void insert(std::uint32_t slot, std::uint32_t degree) {
    if (slot >= capacity_) grow_slots(slot);
    if (degree >= buckets_.size()) grow_buckets(degree);
    degree_[slot] = degree;
    add_to(degree, slot);
    if (size_++ == 0) {
      max_ = degree;
      min_ = degree;
    } else if (degree > max_) {
      max_ = degree;
    } else if (degree < min_) {
      min_ = degree;
    }
  }

  /// Removes `slot`, which must be present.
  void erase(std::uint32_t slot) {
    const std::uint32_t degree = degree_[slot];
    remove_from(degree, slot);
    --size_;
    if (size_ == 0 || buckets_[degree].count > 0) return;
    // Some bucket in [min_, max_] is still non-empty, so both walks stop
    // inside that range.
    if (degree == max_) {
      while (buckets_[max_].count == 0) --max_;
    }
    if (degree == min_) {
      while (buckets_[min_].count == 0) ++min_;
    }
  }

  /// Moves a present `slot` one degree up (an incident edge gained).
  void increment(std::uint32_t slot) {
    const std::uint32_t from = degree_[slot];
    const std::uint32_t to = from + 1;
    if (to >= buckets_.size()) grow_buckets(to);
    move(slot, from, to);
    if (to > max_) max_ = to;
    if (from == min_ && buckets_[from].count == 0) min_ = to;
  }

  /// Moves a present `slot` one degree down (an incident edge lost).
  void decrement(std::uint32_t slot) {
    const std::uint32_t from = degree_[slot];
    CHURNET_ASSERT(from > 0);
    const std::uint32_t to = from - 1;
    move(slot, from, to);
    if (to < min_) min_ = to;
    if (from == max_ && buckets_[from].count == 0) max_ = to;
  }

  /// Smallest slot among those of maximum (`maximize`) or minimum degree;
  /// kNoSlot when the index is empty.
  std::uint32_t extreme_slot(bool maximize) const {
    if (size_ == 0) return kNoSlot;
    const Bucket& bucket = buckets_[maximize ? max_ : min_];
    const std::uint64_t w = bucket.summary.find_first();
    CHURNET_ASSERT(w < bucket.summary.size());
    return static_cast<std::uint32_t>(
        w * Bitset64::kWordBits +
        static_cast<std::uint64_t>(
            std::countr_zero(bucket.members.words()[w])));
  }

  /// Whether `slot` is present at degree `degree` (consistency audits).
  bool holds(std::uint32_t slot, std::uint32_t degree) const {
    return slot < capacity_ && degree_[slot] == degree &&
           degree < buckets_.size() && buckets_[degree].members.test(slot);
  }

  /// Number of slots present.
  std::uint32_t size() const { return size_; }

 private:
  /// Buckets allocated past the largest degree seen, so the small degree
  /// drift of a warmed graph finds its buckets already sized.
  static constexpr std::uint32_t kBucketHeadroom = 32;

  struct Bucket {
    Bitset64 members;  // one bit per slot
    Bitset64 summary;  // one bit per non-zero member word
    std::uint32_t count = 0;
  };

  void grow_slots(std::uint32_t slot);      // cold: slot >= capacity_
  void grow_buckets(std::uint32_t degree);  // cold: degree >= buckets_
  void resize_slots(std::uint32_t capacity);
  void size_bucket(Bucket& bucket) const;

  void add_to(std::uint32_t degree, std::uint32_t slot) {
    Bucket& bucket = buckets_[degree];
    const std::uint32_t w = slot / Bitset64::kWordBits;
    Bitset64::Word& word = bucket.members.words()[w];
    if (word == 0) bucket.summary.set(w);
    word |= Bitset64::Word{1} << (slot % Bitset64::kWordBits);
    ++bucket.count;
  }

  void remove_from(std::uint32_t degree, std::uint32_t slot) {
    Bucket& bucket = buckets_[degree];
    const std::uint32_t w = slot / Bitset64::kWordBits;
    Bitset64::Word& word = bucket.members.words()[w];
    const Bitset64::Word mask = Bitset64::Word{1}
                                << (slot % Bitset64::kWordBits);
    CHURNET_ASSERT((word & mask) != 0);
    word &= ~mask;
    if (word == 0) bucket.summary.reset(w);
    --bucket.count;
  }

  void move(std::uint32_t slot, std::uint32_t from, std::uint32_t to) {
    remove_from(from, slot);
    add_to(to, slot);
    degree_[slot] = to;
  }

  std::vector<std::uint32_t> degree_;  // slot-indexed; valid while present
  std::vector<Bucket> buckets_;        // degree-indexed, each sized capacity_
  std::uint32_t capacity_ = 0;         // slot bound every bucket covers
  std::uint32_t size_ = 0;
  std::uint32_t max_ = 0;  // largest non-empty degree while size_ > 0
  std::uint32_t min_ = 0;  // smallest non-empty degree while size_ > 0
};

}  // namespace churnet
