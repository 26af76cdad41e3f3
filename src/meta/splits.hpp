#pragma once
/// \file splits.hpp
/// \brief Multi-machine split-position helpers shared by the SA/TA engines.
///
/// A multi-machine candidate is a permutation row plus (machines-1)
/// ascending split positions in [0, n] (see core/eval_raw.hpp): machine k
/// runs the contiguous slice [splits[k-1], splits[k]) of the row.  The
/// helpers here never draw randomness for single-machine candidates, so the
/// RNG schedule of existing single-machine runs is untouched.

#include <cstdint>
#include <span>

#include "core/sequence.hpp"

namespace cdd::meta {

/// Deterministic even partition of n positions over splits.size()+1
/// machines: splits[k] = (k+1)*n/m.  Used as the initial assignment so
/// engine start-up consumes no extra RNG draws.
inline void EvenSplits(std::span<std::int32_t> splits, std::size_t n) {
  const std::size_t m = splits.size() + 1;
  for (std::size_t k = 0; k + 1 < m; ++k) {
    splits[k] = static_cast<std::int32_t>(((k + 1) * n) / m);
  }
}

/// The boundary a SplitShift drew and its value before the move:
/// splits[boundary] = before undoes it.
struct SplitShiftUndo {
  std::uint32_t boundary = 0;
  std::int32_t before = 0;
};

/// Machine-reassignment move: picks one split boundary and a direction and
/// moves the boundary by one position, i.e. the job adjacent to the
/// boundary changes machine.  Draws exactly two 32-bit RNG outputs.  Moves
/// that would break the ascending invariant (boundary already at its
/// neighbour) leave the splits unchanged — the candidate is then a no-op
/// resubmission of the current state, which the acceptance rule handles
/// like any other neighbour.  \p splits must not be empty.
template <std::uniform_random_bit_generator Rng>
inline SplitShiftUndo SplitShift(std::span<std::int32_t> splits,
                                 std::int32_t n, Rng& rng) {
  const auto boundaries = static_cast<std::uint32_t>(splits.size());
  const std::uint32_t k = UniformBelow(rng, boundaries);
  const std::int32_t dir = (rng() & 1u) != 0 ? 1 : -1;
  const std::int32_t lo = k == 0 ? 0 : splits[k - 1];
  const std::int32_t hi = k + 1 < boundaries ? splits[k + 1] : n;
  const SplitShiftUndo undo{k, splits[k]};
  const std::int32_t v = splits[k] + dir;
  if (v >= lo && v <= hi) {
    splits[k] = v;
  }
  return undo;
}

}  // namespace cdd::meta
