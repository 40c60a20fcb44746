// Unit tests for the word-packed membership set behind FloodScratch
// (common/bitset64.hpp): word-boundary bits, resize semantics, popcount
// totals, ascending for_each_set order and AND-NOT subtraction.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/bitset64.hpp"

namespace churnet {
namespace {

TEST(Bitset64, StartsEmpty) {
  Bitset64 bits;
  EXPECT_EQ(bits.size(), 0u);
  EXPECT_EQ(bits.count(), 0u);
  EXPECT_FALSE(bits.test(0));
  EXPECT_FALSE(bits.test(12345));
}

TEST(Bitset64, WordBoundaryBits) {
  // Bits 63, 64, 65 straddle the first word boundary — the classic
  // off-by-one site for shift arithmetic.
  Bitset64 bits;
  bits.resize(128);
  for (const std::uint32_t bit : {63u, 64u, 65u}) {
    EXPECT_FALSE(bits.test(bit));
    bits.set(bit);
    EXPECT_TRUE(bits.test(bit));
  }
  EXPECT_EQ(bits.count(), 3u);
  EXPECT_EQ(bits.words()[0], std::uint64_t{1} << 63);
  EXPECT_EQ(bits.words()[1], 0b11u);
  bits.reset(64);
  EXPECT_FALSE(bits.test(64));
  EXPECT_TRUE(bits.test(63));
  EXPECT_TRUE(bits.test(65));
  EXPECT_EQ(bits.count(), 2u);
}

TEST(Bitset64, SizeZeroOneAndExactWord) {
  Bitset64 bits;
  bits.resize(0);
  EXPECT_EQ(bits.size(), 0u);
  EXPECT_EQ(bits.count(), 0u);

  bits.resize(1);
  EXPECT_FALSE(bits.test(0));
  bits.set(0);
  EXPECT_TRUE(bits.test(0));
  EXPECT_EQ(bits.count(), 1u);
  // Out-of-range queries are false, never UB.
  EXPECT_FALSE(bits.test(1));
  EXPECT_FALSE(bits.test(64));

  bits.clear_all();
  bits.resize(64);  // exactly one full word, no tail
  bits.set(0);
  bits.set(63);
  EXPECT_EQ(bits.count(), 2u);
  EXPECT_EQ(bits.word_count(), 1u);
}

TEST(Bitset64, ResizePreservesAndTailStaysZero) {
  Bitset64 bits;
  bits.resize(70);
  bits.set(0);
  bits.set(63);
  bits.set(69);
  // Shrinking to 65 must drop bit 69 from the count and zero the tail
  // bits of the last word (the popcount fast path relies on it).
  bits.resize(65);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(63));
  EXPECT_FALSE(bits.test(69));
  EXPECT_EQ(bits.count(), 2u);
  EXPECT_EQ(bits.words()[1], 0u);
  // Growing back must not resurrect the dropped bit.
  bits.resize(128);
  EXPECT_FALSE(bits.test(69));
  EXPECT_EQ(bits.count(), 2u);
}

TEST(Bitset64, PopcountMatchesNaiveOnPseudorandomPattern) {
  constexpr std::uint32_t kBits = 10'000;
  Bitset64 bits;
  bits.resize(kBits);
  std::vector<bool> naive(kBits, false);
  // Cheap LCG; no <random> needed for a deterministic pattern.
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 4000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint32_t bit = static_cast<std::uint32_t>(state >> 40) % kBits;
    bits.set(bit);
    naive[bit] = true;
  }
  std::uint64_t expected = 0;
  for (const bool b : naive) expected += b ? 1 : 0;
  EXPECT_EQ(bits.count(), expected);
  for (std::uint32_t bit = 0; bit < kBits; ++bit) {
    ASSERT_EQ(bits.test(bit), naive[bit]) << "bit " << bit;
  }
}

TEST(Bitset64, ForEachSetVisitsAscending) {
  Bitset64 bits;
  bits.resize(300);
  const std::vector<std::uint32_t> expected{0, 1, 63, 64, 65, 127, 128,
                                            200, 299};
  for (const std::uint32_t bit : expected) bits.set(bit);
  std::vector<std::uint32_t> seen;
  bits.for_each_set([&seen](std::uint32_t bit) { seen.push_back(bit); });
  EXPECT_EQ(seen, expected);
}

TEST(Bitset64, TestAndSet) {
  Bitset64 bits;
  bits.resize(100);
  EXPECT_TRUE(bits.test_and_set(70));   // newly set
  EXPECT_FALSE(bits.test_and_set(70));  // already set
  EXPECT_TRUE(bits.test(70));
  EXPECT_EQ(bits.count(), 1u);
}

TEST(Bitset64, AndNotSubtractsWordwise) {
  Bitset64 a;
  Bitset64 b;
  a.resize(200);
  b.resize(200);
  for (const std::uint32_t bit : {1u, 63u, 64u, 100u, 199u}) a.set(bit);
  for (const std::uint32_t bit : {63u, 100u, 150u}) b.set(bit);
  a.and_not(b);  // a &= ~b
  std::vector<std::uint32_t> seen;
  a.for_each_set([&seen](std::uint32_t bit) { seen.push_back(bit); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{1, 64, 199}));
  EXPECT_EQ(a.count(), 3u);
}

TEST(Bitset64, TenMillionBits) {
  // The tentpole scale: 10M-slot membership is ~1.2 MB of words. Set a
  // sparse pattern across the whole range and check totals + iteration.
  constexpr std::uint32_t kBits = 10'000'000;
  Bitset64 bits;
  bits.resize(kBits);
  std::uint64_t expected = 0;
  for (std::uint32_t bit = 0; bit < kBits; bit += 997) {
    bits.set(bit);
    ++expected;
  }
  EXPECT_EQ(bits.count(), expected);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(997));
  EXPECT_FALSE(bits.test(998));
  std::uint64_t visited = 0;
  std::uint32_t last = 0;
  bits.for_each_set([&visited, &last](std::uint32_t bit) {
    EXPECT_EQ(bit % 997, 0u);
    EXPECT_TRUE(visited == 0 || bit > last);
    last = bit;
    ++visited;
  });
  EXPECT_EQ(visited, expected);
  bits.clear_all();
  EXPECT_EQ(bits.count(), 0u);
}

}  // namespace
}  // namespace churnet
