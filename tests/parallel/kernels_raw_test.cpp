/// Raw device-function helper tests: perturbation, crossovers, RNG stream
/// layout, packed reduction keys.

#include "parallel/kernels_raw.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "meta/ops.hpp"
#include "parallel/launch_config.hpp"

namespace cdd::par::raw {
namespace {

TEST(PerturbRaw, ProducesPermutationsAndBoundedChanges) {
  rng::Philox4x32 rng(1, 2);
  std::uint32_t positions[8];
  JobId values[8];
  for (int trial = 0; trial < 200; ++trial) {
    Sequence seq = IdentitySequence(25);
    PerturbRaw(seq.data(), 25, 4, rng, positions, values);
    ASSERT_TRUE(IsPermutation(seq));
    std::size_t changed = 0;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (seq[i] != static_cast<JobId>(i)) ++changed;
    }
    EXPECT_LE(changed, 4u);
  }
}

TEST(PerturbRaw, ClampsPertAndHandlesTinySequences) {
  rng::Philox4x32 rng(3, 4);
  std::uint32_t positions[8];
  JobId values[8];
  Sequence one = IdentitySequence(1);
  PerturbRaw(one.data(), 1, 4, rng, positions, values);
  EXPECT_EQ(one, IdentitySequence(1));
  Sequence three = IdentitySequence(3);
  PerturbRaw(three.data(), 3, 8, rng, positions, values);
  EXPECT_TRUE(IsPermutation(three));
}

/// The crossovers work in place: the child overwrites a copy of p1.
Sequence OnePoint(const Sequence& p1, const Sequence& p2, std::uint32_t cut) {
  Sequence row = p1;
  std::vector<std::uint8_t> used(p1.size());
  OnePointCrossoverRaw(static_cast<std::int32_t>(p1.size()), row.data(),
                       p2.data(), cut, used.data());
  return row;
}

Sequence TwoPoint(const Sequence& p1, const Sequence& p2, std::uint32_t a,
                  std::uint32_t b) {
  Sequence row = p1;
  std::vector<std::uint8_t> used(p1.size());
  TwoPointCrossoverRaw(static_cast<std::int32_t>(p1.size()), row.data(),
                       p2.data(), a, b, used.data());
  return row;
}

TEST(CrossoverRaw, OnePointMatchesSpecification) {
  const Sequence p1{0, 1, 2, 3, 4};
  const Sequence p2{4, 3, 2, 1, 0};
  EXPECT_EQ(OnePoint(p1, p2, 2), (Sequence{0, 1, 4, 3, 2}));
  EXPECT_EQ(OnePoint(p1, p2, 0), p2);
  EXPECT_EQ(OnePoint(p1, p2, 5), p1);
}

TEST(CrossoverRaw, TwoPointMatchesSpecification) {
  const Sequence p1{0, 1, 2, 3, 4};
  const Sequence p2{4, 3, 2, 1, 0};
  EXPECT_EQ(TwoPoint(p1, p2, 1, 3), (Sequence{4, 1, 2, 3, 0}));
  EXPECT_EQ(TwoPoint(p1, p2, 0, 0), p2);
  EXPECT_EQ(TwoPoint(p1, p2, 0, 5), p1);
}

TEST(CrossoverRaw, AlwaysPermutationsUnderRandomCuts) {
  rng::Philox4x32 rng(7, 8);
  for (const std::int32_t n : {2, 5, 17, 60}) {
    Sequence p1 = RandomSequence(static_cast<std::size_t>(n), rng);
    Sequence p2 = RandomSequence(static_cast<std::size_t>(n), rng);
    for (int trial = 0; trial < 50; ++trial) {
      const std::uint32_t cut =
          UniformBelow(rng, static_cast<std::uint32_t>(n) + 1);
      ASSERT_TRUE(IsPermutation(OnePoint(p1, p2, cut))) << "1pt n=" << n;
      std::uint32_t a = UniformBelow(rng, static_cast<std::uint32_t>(n) + 1);
      std::uint32_t b = UniformBelow(rng, static_cast<std::uint32_t>(n) + 1);
      if (a > b) std::swap(a, b);
      ASSERT_TRUE(IsPermutation(TwoPoint(p1, p2, a, b))) << "2pt n=" << n;
    }
  }
}

TEST(CrossoverRaw, MatchesHostReferenceForEveryCut) {
  // The in-place device crossovers against meta/ops.cpp's host
  // references, for every cut and every a <= b, over random donors.
  rng::Philox4x32 rng(17, 19);
  for (const std::int32_t n : {1, 2, 5, 17}) {
    const auto un = static_cast<std::uint32_t>(n);
    for (int trial = 0; trial < 8; ++trial) {
      const Sequence p1 = RandomSequence(un, rng);
      const Sequence p2 = RandomSequence(un, rng);
      Sequence expected;
      for (std::uint32_t cut = 0; cut <= un; ++cut) {
        meta::OnePointCrossover(p1, p2, cut, expected);
        ASSERT_EQ(OnePoint(p1, p2, cut), expected)
            << "n=" << n << " cut=" << cut;
      }
      for (std::uint32_t a = 0; a <= un; ++a) {
        for (std::uint32_t b = a; b <= un; ++b) {
          meta::TwoPointCrossover(p1, p2, a, b, expected);
          ASSERT_EQ(TwoPoint(p1, p2, a, b), expected)
              << "n=" << n << " a=" << a << " b=" << b;
        }
      }
    }
  }
}

TEST(RngStreams, DisjointAcrossGenerationPhaseThread) {
  // Distinct (generation, phase, thread) triples yield distinct first
  // outputs with overwhelming probability.
  std::set<std::uint32_t> seen;
  int count = 0;
  for (std::uint64_t g = 0; g < 4; ++g) {
    for (const RngPhase phase : {RngPhase::kInit, RngPhase::kPerturb,
                                 RngPhase::kAccept, RngPhase::kDpsoUpdate}) {
      for (std::uint32_t t = 0; t < 16; ++t) {
        rng::Philox4x32 rng = MakeStream(42, g, phase, t);
        seen.insert(rng());
        ++count;
      }
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), count);
}

TEST(RngStreams, ThreadStreamIndependentOfEnsembleSize) {
  // The inclusion property's foundation: stream of thread t is a function
  // of (seed, generation, phase, t) only.
  rng::Philox4x32 a = MakeStream(9, 5, RngPhase::kPerturb, 3);
  rng::Philox4x32 b = MakeStream(9, 5, RngPhase::kPerturb, 3);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a(), b());
}

TEST(PackedKeys, RoundTripAndOrdering) {
  const std::int64_t k1 = PackCostThread(100, 7);
  EXPECT_EQ(UnpackCost(k1), 100);
  EXPECT_EQ(UnpackThread(k1), 7u);
  // Lower cost always wins regardless of thread id.
  EXPECT_LT(PackCostThread(99, 1 << 19), PackCostThread(100, 0));
  // Equal costs: lower thread id wins (deterministic tie-break).
  EXPECT_LT(PackCostThread(100, 3), PackCostThread(100, 9));
  // Boundary cost still round-trips.
  const Cost big = kMaxPackableCost - 1;
  EXPECT_EQ(UnpackCost(PackCostThread(big, 0)), big);
}

TEST(LaunchConfig, ForEnsembleRoundsUpToWholeBlocks) {
  const LaunchConfig c1 = LaunchConfig::ForEnsemble(768, 192);
  EXPECT_EQ(c1.blocks, 4u);
  EXPECT_EQ(c1.ensemble(), 768u);
  const LaunchConfig c2 = LaunchConfig::ForEnsemble(100, 64);
  EXPECT_EQ(c2.blocks, 2u);
  EXPECT_EQ(c2.ensemble(), 128u);  // rounded up
  const LaunchConfig c3 = LaunchConfig::ForEnsemble(0, 0);
  EXPECT_GE(c3.ensemble(), 1u);
}

}  // namespace
}  // namespace cdd::par::raw
