/// Raw device-function helper tests: perturbation, the SA chain kernels'
/// O(pert) bodies against their full-copy reference, the Metropolis test,
/// crossovers, RNG stream layout, packed reduction keys.

#include "parallel/kernels_raw.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <vector>

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

/// One SA chain thread's rows inside a small ensemble (thread \p tid of
/// three), driven through the kernel bodies.
struct Chain {
  std::int32_t n;
  std::vector<JobId> curr, cand;
  std::vector<Cost> curr_cost, cand_cost;
  std::vector<std::uint32_t> touched;

  Chain(std::int32_t n_, rng::Philox4x32& rng)
      : n(n_),
        curr_cost(3, 0),
        cand_cost(3, 0),
        touched(3 * kTouchedStride, 0) {
    for (int t = 0; t < 3; ++t) {
      const Sequence row = RandomSequence(static_cast<std::size_t>(n), rng);
      curr.insert(curr.end(), row.begin(), row.end());
    }
    cand = curr;
  }
  ChainRows rows() {
    return ChainRows{curr.data(), cand.data(), curr_cost.data(),
                     cand_cost.data(), touched.data(), n};
  }
  Sequence Row(const std::vector<JobId>& rows, std::uint64_t tid) const {
    return Sequence(rows.begin() + static_cast<std::ptrdiff_t>(tid * n),
                    rows.begin() + static_cast<std::ptrdiff_t>((tid + 1) * n));
  }
};

TEST(PerturbRaw, ChainKernelsMatchTheFullCopyReference) {
  // The paper's kernels copy whole rows: perturbation writes curr's row
  // into cand and perturbs it, an accepted move copies cand over curr.
  // The O(pert) bodies must leave exactly those rows, keep cand == curr
  // after every commit, and charge exactly what the full copies charge.
  rng::Philox4x32 setup(23, 29);
  const std::uint64_t seed = 41;
  const std::uint64_t tid = 1;
  int accepted_moves = 0;
  int rejected_moves = 0;
  for (const bool shuffle : {false, true}) {
    for (const std::uint32_t pert : {0u, 1u, 2u, 7u, 32u}) {
      for (const std::int32_t n : {1, 2, 3, 50}) {
        Chain chain(n, setup);
        const ChainRows rows = chain.rows();
        Sequence ref_curr = chain.Row(chain.curr, tid);
        for (std::uint64_t g = 1; g <= 24; ++g) {
          const std::string where = "shuffle=" + std::to_string(shuffle) +
                                    " pert=" + std::to_string(pert) +
                                    " n=" + std::to_string(n) +
                                    " g=" + std::to_string(g);
          // Full-copy reference of the perturbation kernel.
          Sequence ref_cand = ref_curr;
          rng::Philox4x32 ref_rng =
              MakeStream(seed, g, RngPhase::kPerturb,
                         static_cast<std::uint32_t>(tid));
          std::uint32_t positions[kMaxPert];
          JobId values[kMaxPert];
          if (shuffle) {
            PerturbRaw(ref_cand.data(), n, pert, ref_rng, positions, values);
          } else {
            SwapRaw(ref_cand.data(), n, ref_rng, positions);
          }

          sim::ThreadCtx perturb;
          PerturbCandidate(perturb, rows, tid, seed, g, pert, shuffle);
          ASSERT_EQ(chain.Row(chain.cand, tid), ref_cand) << where;
          ASSERT_EQ(chain.Row(chain.curr, tid), ref_curr) << where;
          EXPECT_EQ(perturb.charged(),
                    static_cast<std::uint64_t>(n) +
                        (shuffle ? 8 * pert : 2))
              << where;

          // Accept (cost equal or lower) or reject (uphill at T ~ 0).
          const bool accept = setup() % 2 == 0;
          chain.curr_cost[tid] = 100;
          chain.cand_cost[tid] = accept ? Cost{100} - (g % 2) : Cost{1000};
          sim::ThreadCtx acceptance;
          const bool decided =
              MetropolisAccept(acceptance, rows, tid, seed, g, 1e-300);
          ASSERT_EQ(decided, accept) << where;
          CommitMove(acceptance, rows, tid, decided);
          if (accept) {
            ref_curr = ref_cand;
            EXPECT_EQ(chain.curr_cost[tid], chain.cand_cost[tid]) << where;
            ++accepted_moves;
          } else {
            EXPECT_EQ(chain.curr_cost[tid], 100) << where;
            ++rejected_moves;
          }
          EXPECT_EQ(acceptance.charged(),
                    4 + (accept ? static_cast<std::uint64_t>(n) : 0))
              << where;
          ASSERT_EQ(chain.Row(chain.curr, tid), ref_curr) << where;
          ASSERT_EQ(chain.cand, chain.curr) << where;  // every thread's row
        }
      }
    }
  }
  EXPECT_GT(accepted_moves, 100);
  EXPECT_GT(rejected_moves, 100);
}

TEST(MetropolisRaw, DecidesExactlyLikeTheExpFormula) {
  // The acceptance kernel's rule before the e_new <= e shortcut, drawing
  // from the same (seed, generation, kAccept, thread) stream.
  const auto reference = [](Cost e, Cost e_new, double temperature,
                            std::uint64_t seed, std::uint64_t g) {
    rng::Philox4x32 rng = MakeStream(seed, g, RngPhase::kAccept, 0);
    return std::exp(static_cast<double>(e - e_new) / temperature) >=
           static_cast<double>(rng.NextUniform());
  };
  // u lies in (0, 1]: exp(0) = 1 passes even the largest draw.
  EXPECT_EQ(rng::Philox4x32::ToUniformFloat(0xffffffffu), 1.0f);
  EXPECT_GT(rng::Philox4x32::ToUniformFloat(0), 0.0f);

  const double temperatures[] = {
      1e-300, 1e-12, 0.5, 1.0, 37.0, 1e4, 1e12, 1e300,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity()};
  rng::Philox4x32 draw(31, 37);
  int accepted_uphill = 0;
  int rejected = 0;
  for (std::uint64_t trial = 0; trial < 20000; ++trial) {
    // Costs up to the packed-key range, and close pairs where the
    // Boltzmann factor is neither 0 nor 1.
    Cost e = static_cast<Cost>(draw() % (kMaxPackableCost >> 20)) *
             static_cast<Cost>(1 + draw() % (1u << 20));
    Cost e_new = e;
    switch (trial % 4) {
      case 0:  // equal energies
        break;
      case 1:
        e_new = e + static_cast<Cost>(draw() % 64);
        break;
      case 2:
        e_new = std::max<Cost>(0, e - static_cast<Cost>(draw() % 64));
        break;
      default:
        e_new = static_cast<Cost>(draw() % kMaxPackableCost);
        break;
    }
    const double temperature =
        trial % 3 == 0
            ? temperatures[draw() % std::size(temperatures)]
            : std::ldexp(1.0, static_cast<int>(draw() % 80) - 20);
    const ChainRows rows{nullptr, nullptr, &e, &e_new, nullptr, 0};
    sim::ThreadCtx t;
    const bool expected = reference(e, e_new, temperature, trial, trial * 7);
    ASSERT_EQ(MetropolisAccept(t, rows, 0, trial, trial * 7, temperature),
              expected)
        << "e=" << e << " e_new=" << e_new << " T=" << temperature;
    EXPECT_EQ(t.charged(), 4u);
    if (!expected) ++rejected;
    if (expected && e_new > e) ++accepted_uphill;
  }
  EXPECT_GT(accepted_uphill, 500);
  EXPECT_GT(rejected, 500);
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

/// Allocating reference crossover: p1's jobs at the kept positions stay,
/// and the other positions are filled left to right with the jobs of \p
/// donor that are not kept, in donor order.
Sequence ReferenceCrossover(const Sequence& p1, const Sequence& donor,
                            std::uint32_t a, std::uint32_t b) {
  const std::size_t n = p1.size();
  Sequence child(n);
  std::vector<bool> used_job(n, false);
  std::vector<bool> used_pos(n, false);
  for (std::size_t k = a; k < b; ++k) {
    child[k] = p1[k];
    used_pos[k] = true;
    used_job[static_cast<std::size_t>(p1[k])] = true;
  }
  std::size_t write = 0;
  for (const JobId job : donor) {
    if (used_job[static_cast<std::size_t>(job)]) continue;
    while (used_pos[write]) ++write;
    child[write] = job;
    used_pos[write] = true;
  }
  return child;
}

TEST(CrossoverRaw, MatchesHostReferenceForEveryCut) {
  // The in-place crossovers against an allocating reference, for every
  // cut and every a <= b, over random donors.
  rng::Philox4x32 rng(17, 19);
  for (const std::int32_t n : {1, 2, 5, 17}) {
    const auto un = static_cast<std::uint32_t>(n);
    for (int trial = 0; trial < 8; ++trial) {
      const Sequence p1 = RandomSequence(un, rng);
      const Sequence p2 = RandomSequence(un, rng);
      for (std::uint32_t cut = 0; cut <= un; ++cut) {
        ASSERT_EQ(OnePoint(p1, p2, cut), ReferenceCrossover(p1, p2, 0, cut))
            << "n=" << n << " cut=" << cut;
      }
      for (std::uint32_t a = 0; a <= un; ++a) {
        for (std::uint32_t b = a; b <= un; ++b) {
          ASSERT_EQ(TwoPoint(p1, p2, a, b), ReferenceCrossover(p1, p2, a, b))
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
