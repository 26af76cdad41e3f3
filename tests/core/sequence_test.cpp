/// Sequence and perturbation-primitive tests.

#include "core/sequence.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "rng/philox.hpp"

namespace cdd {
namespace {

TEST(Sequence, IdentityAndPermutationCheck) {
  const Sequence id = IdentitySequence(5);
  EXPECT_TRUE(IsPermutation(id));
  EXPECT_FALSE(IsPermutation(Sequence{0, 1, 1}));
  EXPECT_FALSE(IsPermutation(Sequence{0, 1, 3}));
  EXPECT_FALSE(IsPermutation(Sequence{-1, 0, 1}));
  EXPECT_TRUE(IsPermutation(Sequence{}));
}

TEST(Sequence, ValidateThrowsWithDiagnostics) {
  EXPECT_NO_THROW(ValidateSequence(IdentitySequence(4), 4));
  EXPECT_THROW(ValidateSequence(IdentitySequence(4), 5),
               std::invalid_argument);
  EXPECT_THROW(ValidateSequence(Sequence{0, 0, 1, 2}, 4),
               std::invalid_argument);
}

TEST(Sequence, FisherYatesProducesPermutations) {
  rng::Philox4x32 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    Sequence seq = IdentitySequence(23);
    FisherYates(std::span<JobId>(seq), rng);
    EXPECT_TRUE(IsPermutation(seq));
  }
}

TEST(Sequence, FisherYatesIsUniformOnThreeElements) {
  // All 6 permutations of 3 elements should appear with equal frequency.
  rng::Philox4x32 rng(7);
  std::map<Sequence, int> counts;
  const int trials = 60000;
  for (int t = 0; t < trials; ++t) {
    Sequence seq = IdentitySequence(3);
    FisherYates(std::span<JobId>(seq), rng);
    ++counts[seq];
  }
  ASSERT_EQ(counts.size(), 6u);
  for (const auto& [seq, count] : counts) {
    EXPECT_NEAR(static_cast<double>(count), trials / 6.0, trials * 0.01);
  }
}

TEST(Sequence, FisherYatesMatchesOneDrawAtATime) {
  // Philox hands FisherYates its draws in bulk; the shuffle must be the
  // one-UniformBelow-per-position loop, and leave the generator where that
  // loop leaves it.
  rng::Philox4x32 bulk(2024, 5);
  rng::Philox4x32 single = bulk;
  for (std::size_t n = 0; n <= 300; ++n) {
    Sequence got = IdentitySequence(n);
    FisherYates(std::span<JobId>(got), bulk);
    Sequence expected = IdentitySequence(n);
    for (std::size_t i = n; i > 1; --i) {
      const std::uint32_t j =
          UniformBelow(single, static_cast<std::uint32_t>(i));
      std::swap(expected[i - 1], expected[j]);
    }
    ASSERT_EQ(got, expected) << "n=" << n;
    ASSERT_EQ(bulk(), single()) << "n=" << n;
  }
}

TEST(Sequence, PartialFisherYatesMovesOnlySelectedPositions) {
  rng::Philox4x32 rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    Sequence seq = IdentitySequence(30);
    const Sequence before = seq;
    PartialFisherYates(std::span<JobId>(seq), 4, rng);
    EXPECT_TRUE(IsPermutation(seq));
    // At most 4 positions may differ, and the multiset of jobs at changed
    // positions must be preserved.
    std::size_t changed = 0;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (seq[i] != before[i]) ++changed;
    }
    EXPECT_LE(changed, 4u);
  }
}

TEST(Sequence, PartialFisherYatesDegeneratesGracefully) {
  rng::Philox4x32 rng(1);
  Sequence seq = IdentitySequence(1);
  PartialFisherYates(std::span<JobId>(seq), 4, rng);  // n < 2: no-op
  EXPECT_EQ(seq, IdentitySequence(1));

  Sequence seq3 = IdentitySequence(3);
  PartialFisherYates(std::span<JobId>(seq3), 10, rng);  // pert > n: clamp
  EXPECT_TRUE(IsPermutation(seq3));
}

TEST(Sequence, RandomSwapSwapsExactlyTwoPositions) {
  rng::Philox4x32 rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    Sequence seq = IdentitySequence(12);
    RandomSwap(std::span<JobId>(seq), rng);
    EXPECT_TRUE(IsPermutation(seq));
    std::size_t changed = 0;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (seq[i] != static_cast<JobId>(i)) ++changed;
    }
    EXPECT_EQ(changed, 2u);
  }
}

TEST(Sequence, HammingDistance) {
  EXPECT_EQ(HammingDistance(Sequence{0, 1, 2}, Sequence{0, 1, 2}), 0u);
  EXPECT_EQ(HammingDistance(Sequence{0, 1, 2}, Sequence{2, 1, 0}), 2u);
  EXPECT_EQ(HammingDistance(Sequence{0, 1}, Sequence{0, 1, 2}), 1u);
}

TEST(Sequence, UniformBelowStaysInRange) {
  rng::Philox4x32 rng(123);
  for (int trial = 0; trial < 10000; ++trial) {
    EXPECT_LT(UniformBelow(rng, 7), 7u);
  }
}

}  // namespace
}  // namespace cdd
