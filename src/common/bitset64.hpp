// Word-packed bitset for dense slot-indexed membership sets.
//
// The flooding/dissemination drivers track three per-slot memberships
// (informed, per-step candidate, per-interval death). At n=10M an epoch
// stamp array costs 80 MB per set and every query is a 64-bit load from a
// cold cache line; one bit per slot is 1.25 MB — the whole set fits in L2 —
// and set algebra (frontier commit = candidates AND-NOT deaths) becomes a
// streaming word scan with `std::popcount`/`std::countr_zero`. Clearing is
// O(words) per trial instead of an epoch bump, which is both cheaper than
// it sounds (memset bandwidth over 1.25 MB) and removes the wrap hazard of
// epoch counters entirely.
//
// Invariant: bits at positions >= size() inside the last word are always
// zero, so count() and word-level scans never need a tail mask.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/assertx.hpp"

namespace churnet {

class Bitset64 {
 public:
  using Word = std::uint64_t;
  static constexpr std::uint64_t kWordBits = 64;

  Bitset64() = default;
  explicit Bitset64(std::uint64_t bits) { resize(bits); }

  std::uint64_t size() const { return bit_size_; }
  std::uint64_t word_count() const { return words_.size(); }

  /// Grows or shrinks to `bits`, preserving the retained prefix. New bits
  /// are zero; on shrink, the dropped tail of the last kept word is zeroed
  /// to maintain the tail invariant.
  void resize(std::uint64_t bits) {
    words_.resize((bits + kWordBits - 1) / kWordBits, 0);
    bit_size_ = bits;
    const std::uint64_t tail = bits % kWordBits;
    if (tail != 0) words_.back() &= (Word{1} << tail) - 1;
  }

  /// Zeroes every bit; O(words), the per-trial reset.
  void clear_all() { std::fill(words_.begin(), words_.end(), Word{0}); }

  /// True iff `bit` is set. Out-of-range probes return false (a graph can
  /// grow past the last ensure() between queries; absent means unset).
  bool test(std::uint64_t bit) const {
    if (bit >= bit_size_) return false;
    return (words_[bit / kWordBits] >> (bit % kWordBits)) & 1;
  }

  void set(std::uint64_t bit) {
    CHURNET_ASSERT(bit < bit_size_);
    words_[bit / kWordBits] |= Word{1} << (bit % kWordBits);
  }

  /// Clears `bit`; out-of-range is a no-op (mirrors test()).
  void reset(std::uint64_t bit) {
    if (bit >= bit_size_) return;
    words_[bit / kWordBits] &= ~(Word{1} << (bit % kWordBits));
  }

  /// Sets `bit`; returns true iff it was previously clear.
  bool test_and_set(std::uint64_t bit) {
    CHURNET_ASSERT(bit < bit_size_);
    Word& word = words_[bit / kWordBits];
    const Word mask = Word{1} << (bit % kWordBits);
    if (word & mask) return false;
    word |= mask;
    return true;
  }

  /// Total set bits; O(words) popcount scan.
  std::uint64_t count() const {
    std::uint64_t total = 0;
    for (const Word word : words_) total += std::popcount(word);
    return total;
  }

  /// Lowest set bit, or size() when no bit is set.
  std::uint64_t find_first() const {
    for (std::uint64_t w = 0; w < words_.size(); ++w) {
      if (words_[w] != 0) {
        return w * kWordBits +
               static_cast<std::uint64_t>(std::countr_zero(words_[w]));
      }
    }
    return bit_size_;
  }

  /// Calls fn(bit) for every set bit in ascending order.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for (std::uint64_t w = 0; w < words_.size(); ++w) {
      Word word = words_[w];
      while (word != 0) {
        fn(w * kWordBits + std::countr_zero(word));
        word &= word - 1;
      }
    }
  }

  /// this &= ~other over the common word prefix (frontier subtraction:
  /// candidates minus deaths). Bits of `this` beyond other's size are kept.
  void and_not(const Bitset64& other) {
    const std::uint64_t words =
        std::min<std::uint64_t>(words_.size(), other.words_.size());
    for (std::uint64_t w = 0; w < words; ++w) words_[w] &= ~other.words_[w];
  }

  /// Raw word access for fused multi-set scans (the driver's commit).
  Word* words() { return words_.data(); }
  const Word* words() const { return words_.data(); }

 private:
  std::vector<Word> words_;
  std::uint64_t bit_size_ = 0;
};

}  // namespace churnet
