#pragma once
/// \file dim3.hpp
/// \brief CUDA-style three-dimensional launch geometry.

#include <cstddef>
#include <cstdint>
#include <string>

namespace cdd::sim {

/// Mirror of CUDA's dim3: grid and block extents in (x, y, z).
/// The paper uses linear configurations G = (ceil(N/N_B), 1, 1) and
/// B = (N_B, 1, 1) (Section VI); the runtime supports all three dimensions.
struct Dim3 {
  std::uint32_t x = 1;
  std::uint32_t y = 1;
  std::uint32_t z = 1;

  constexpr Dim3() = default;
  constexpr Dim3(std::uint32_t x_, std::uint32_t y_ = 1, std::uint32_t z_ = 1)
      : x(x_), y(y_), z(z_) {}

  /// Total number of cells (threads in a block / blocks in a grid).
  constexpr std::size_t count() const {
    return static_cast<std::size_t>(x) * y * z;
  }

  /// Linearized index of a cell (x fastest, CUDA convention).
  constexpr std::size_t linear(std::uint32_t cx, std::uint32_t cy,
                               std::uint32_t cz) const {
    return (static_cast<std::size_t>(cz) * y + cy) * x + cx;
  }

  friend constexpr bool operator==(const Dim3&, const Dim3&) = default;
};

/// "(x,y,z)".  Appended piece by piece: GCC 12 flags the chained
/// operator+ form with a false -Wrestrict.
inline std::string ToString(const Dim3& d) {
  std::string s = "(";
  s += std::to_string(d.x);
  s += ',';
  s += std::to_string(d.y);
  s += ',';
  s += std::to_string(d.z);
  s += ')';
  return s;
}

}  // namespace cdd::sim
