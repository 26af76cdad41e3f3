#pragma once
/// \file ops.hpp
/// \brief Permutation crossover operators of the DPSO (Pan et al. [15]).
///
/// The DPSO position update (Section VII, Eq. 3) composes three operators:
///   F1 — random swap ("velocity"), provided by RandomSwap() in core,
///   F2 — one-point crossover with the particle's best position,
///   F3 — two-point crossover with the swarm's best position.
/// Both crossovers preserve permutation validity: positions taken from the
/// first parent keep their place, every remaining job enters in the order it
/// appears in the second parent.  They work in place on the first parent,
/// on the host (meta/dpso.cpp) and in the simulated device kernel
/// (par::raw::TwoPointCrossoverRaw) alike.

#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <utility>

#include "core/sequence.hpp"

namespace cdd::meta {

/// In-place two-point crossover (F3): \p row keeps [a, b) where it is and
/// the gaps [0, a) then [b, n) get \p donor's remaining jobs in donor
/// order.  Every donor job is written (branchless), but the write index
/// only advances past a job the kept segment lacks.  Both rows are
/// permutations of 0..n-1 and must not alias, a <= b <= n, and \p used is
/// n bytes of scratch whose contents on entry do not matter.
inline void TwoPointCrossover(std::span<JobId> row,
                              std::span<const JobId> donor, std::size_t a,
                              std::size_t b, std::span<std::uint8_t> used) {
  // Pointer-width indices: a 32-bit unsigned one must wrap, which costs
  // the fill loop two extra instructions per job.
  const std::size_t n = row.size();
  for (std::size_t i = 0; i < n; ++i) used[i] = 0;
  for (std::size_t k = a; k < b; ++k) used[row[k]] = 1;
  std::size_t i = 0;  // donor scan, resumed by the second gap
  const auto fill = [&](std::size_t w, std::size_t end) {
    for (; w < end; ++i) {
      const JobId v = donor[i];
      row[w] = v;
      w += !used[v];
    }
  };
  fill(0, a);
  fill(b, n);
}

/// In-place one-point crossover (F2): \p row keeps its first \p cut jobs
/// and its tail gets \p donor's remaining jobs — the two-point crossover
/// with a = 0.
inline void OnePointCrossover(std::span<JobId> row,
                              std::span<const JobId> donor, std::size_t cut,
                              std::span<std::uint8_t> used) {
  TwoPointCrossover(row, donor, 0, cut, used);
}

/// Randomized forms drawing the cut points uniformly: one draw for F2;
/// two for F3, swapped into order.
template <std::uniform_random_bit_generator Rng>
void OnePointCrossover(std::span<JobId> row, std::span<const JobId> donor,
                       Rng& rng, std::span<std::uint8_t> used) {
  const auto n = static_cast<std::uint32_t>(row.size());
  OnePointCrossover(row, donor, UniformBelow(rng, n + 1), used);
}

template <std::uniform_random_bit_generator Rng>
void TwoPointCrossover(std::span<JobId> row, std::span<const JobId> donor,
                       Rng& rng, std::span<std::uint8_t> used) {
  const auto n = static_cast<std::uint32_t>(row.size());
  std::uint32_t a = UniformBelow(rng, n + 1);
  std::uint32_t b = UniformBelow(rng, n + 1);
  if (a > b) std::swap(a, b);
  TwoPointCrossover(row, donor, a, b, used);
}

}  // namespace cdd::meta
