#pragma once
/// \file error.hpp
/// \brief Error type of the GPU-simulator runtime.

#include <stdexcept>
#include <string>

namespace cdd::sim {

/// Thrown for the conditions a real CUDA runtime reports through
/// cudaGetLastError (invalid launch configuration, over-size shared
/// memory request, exhausted device memory, out-of-range copies) and for
/// launches the simulator cannot express (an empty phase list, a stream
/// of another device).
class GpuError : public std::runtime_error {
 public:
  explicit GpuError(const std::string& what) : std::runtime_error(what) {}
};

}  // namespace cdd::sim
