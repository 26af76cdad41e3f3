#pragma once
/// \file sequence.hpp
/// \brief Job sequences (permutations) and the perturbation primitives used
/// by every metaheuristic in the library.
///
/// A sequence assigns machine positions to jobs: sequence[k] is the id of
/// the job processed k-th.  The paper's neighbourhood operator (Section VI-B)
/// picks `Pert` positions uniformly at random and shuffles the jobs found
/// there with the Fisher–Yates algorithm while every other job keeps its
/// position; that operator is PartialFisherYates() below.

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <random>  // std::uniform_random_bit_generator
#include <span>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace cdd {

/// A job sequence; element k is the job processed k-th on the machine.
using Sequence = std::vector<JobId>;

/// Returns the identity sequence (0, 1, ..., n-1).
Sequence IdentitySequence(std::size_t n);

/// True iff \p seq is a permutation of {0, ..., n-1}.
bool IsPermutation(std::span<const JobId> seq);

/// Throws std::invalid_argument unless IsPermutation(seq) and seq.size()==n.
void ValidateSequence(std::span<const JobId> seq, std::size_t n);

/// Uniformly random integer in [0, bound) from a 64-bit generator, using
/// Lemire's multiply-shift rejection-free mapping (bias is below 2^-32 for
/// every bound that occurs here; the statistical tests in tests/rng cover
/// this helper).  ScaleBelow() is that mapping applied to one 32-bit draw.
inline std::uint32_t ScaleBelow(std::uint32_t draw, std::uint32_t bound) {
  return static_cast<std::uint32_t>((std::uint64_t{draw} * bound) >> 32);
}

template <std::uniform_random_bit_generator Rng>
inline std::uint32_t UniformBelow(Rng& rng, std::uint32_t bound) {
  return ScaleBelow(static_cast<std::uint32_t>(rng()), bound);
}

/// A generator that also writes many 32-bit draws at once, as many calls
/// of operator() would (rng::Philox4x32::Fill).  The shuffles take their
/// draws this way.
template <class Rng>
concept BulkGenerator =
    std::uniform_random_bit_generator<Rng> &&
    requires(Rng& rng, std::uint32_t* out, std::size_t count) {
      rng.Fill(out, count);
    };

/// Fisher–Yates shuffle of \p count slots (Cormen et al. [14]), applied
/// through \p swap(a, b), which exchanges slots a and b.  The draws come
/// 64 at a time through Fill; they and the swaps are those of one
/// UniformBelow() call per slot.
template <BulkGenerator Rng, class Swap>
inline void FisherYatesSwaps(std::size_t count, Rng& rng, Swap&& swap) {
  constexpr std::size_t kChunk = 64;
  std::uint32_t draws[kChunk];
  std::size_t i = count;
  while (i > 1) {
    const std::size_t take = std::min(i - 1, kChunk);
    rng.Fill(draws, take);
    for (std::size_t k = 0; k < take; ++k, --i) {
      swap(i - 1, ScaleBelow(draws[k], static_cast<std::uint32_t>(i)));
    }
  }
}

/// Fisher–Yates shuffle of the whole range.
template <BulkGenerator Rng>
inline void FisherYates(std::span<JobId> seq, Rng& rng) {
  FisherYatesSwaps(seq.size(), rng, [seq](std::size_t a, std::size_t b) {
    std::swap(seq[a], seq[b]);
  });
}

/// Returns a uniformly random permutation of {0, ..., n-1}.
template <BulkGenerator Rng>
inline Sequence RandomSequence(std::size_t n, Rng& rng) {
  Sequence seq = IdentitySequence(n);
  FisherYates(std::span<JobId>(seq), rng);
  return seq;
}

/// \brief The paper's perturbation operator: choose \p pert distinct
/// positions uniformly at random and shuffle the jobs at those positions
/// (Fisher–Yates on the selected sub-sequence); all other jobs stay put.
///
/// \p positions and \p values must each hold at least \p pert elements;
/// the overload below allocates them.  With pert >= seq.size() this
/// degenerates to a full shuffle.  Returns the number k of positions it
/// shuffled (0 when it left \p seq alone); positions[0, k) then holds
/// them and values[0, k) the jobs they held before, so writing values[i]
/// back to seq[positions[i]] for every i < k undoes the move.
template <BulkGenerator Rng>
inline std::uint32_t PartialFisherYates(std::span<JobId> seq,
                                        std::uint32_t pert, Rng& rng,
                                        std::span<std::uint32_t> positions,
                                        std::span<JobId> values) {
  const auto n = static_cast<std::uint32_t>(seq.size());
  if (n < 2 || pert < 2) return 0;
  if (pert > n) pert = n;
  // Floyd's algorithm would avoid the retry loop, but pert is tiny (4 in the
  // paper) so rejection sampling of distinct positions is cheap and keeps
  // the RNG stream layout identical to the GPU kernel implementation.
  std::uint32_t chosen = 0;
  while (chosen < pert) {
    const std::uint32_t p = UniformBelow(rng, n);
    bool duplicate = false;
    for (std::uint32_t k = 0; k < chosen; ++k) {
      if (positions[k] == p) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) positions[chosen++] = p;
  }
  for (std::uint32_t k = 0; k < pert; ++k) values[k] = seq[positions[k]];
  // Shuffling the selected slots of seq in place draws and moves exactly
  // as shuffling a copy of them would, and leaves the copy as it was.
  FisherYatesSwaps(pert, rng, [seq, positions](std::size_t a, std::size_t b) {
    std::swap(seq[positions[a]], seq[positions[b]]);
  });
  return pert;
}

/// Allocating convenience overload of PartialFisherYates().
template <BulkGenerator Rng>
inline void PartialFisherYates(std::span<JobId> seq, std::uint32_t pert,
                               Rng& rng) {
  std::vector<std::uint32_t> positions(pert);
  std::vector<JobId> values(pert);
  PartialFisherYates(seq, pert, rng, std::span<std::uint32_t>(positions),
                     std::span<JobId>(values));
}

/// Swaps two distinct random positions (the F1 "velocity" operator of the
/// DPSO, Section VII) and returns them; swapping them again undoes the
/// move.  No-op returning {0, 0} for n < 2.
template <std::uniform_random_bit_generator Rng>
inline std::pair<std::uint32_t, std::uint32_t> RandomSwap(
    std::span<JobId> seq, Rng& rng) {
  const auto n = static_cast<std::uint32_t>(seq.size());
  if (n < 2) return {0, 0};
  const std::uint32_t i = UniformBelow(rng, n);
  std::uint32_t j = UniformBelow(rng, n - 1);
  if (j >= i) ++j;
  std::swap(seq[i], seq[j]);
  return {i, j};
}

/// Number of positions at which two sequences differ (used by the
/// diversity diagnostics of the sync-vs-async ablation).
std::size_t HammingDistance(std::span<const JobId> a,
                            std::span<const JobId> b);

}  // namespace cdd
