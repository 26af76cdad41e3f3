#pragma once
/// \file profiler.hpp
/// \brief Per-kernel and per-transfer accounting, in the spirit of the
/// NVIDIA profiler the authors used to tune their kernels (Section I).

#include <cstdint>
#include <map>
#include <string>

namespace cdd::sim {

/// Aggregate statistics of one kernel (keyed by launch name).
struct KernelRecord {
  std::uint64_t launches = 0;
  std::uint64_t blocks = 0;
  std::uint64_t threads = 0;
  std::uint64_t work_units = 0;   ///< sum of ThreadCtx::charge() amounts
  double sim_time_s = 0.0;        ///< modeled device time
  /// Host wall time spent executing the blocks (the simulator's own cost,
  /// under whichever exec backend ran them; not part of the model).
  double wall_s = 0.0;
};

/// Aggregate statistics of one transfer direction.
struct TransferRecord {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  double sim_time_s = 0.0;
};

/// Collects what the device did; queried by tests and printed by benches.
class Profiler {
 public:
  void RecordKernel(const std::string& name, std::uint64_t blocks,
                    std::uint64_t threads, std::uint64_t work_units,
                    double sim_time_s, double wall_s = 0.0);
  void RecordTransfer(bool host_to_device, std::uint64_t bytes,
                      double sim_time_s);

  const KernelRecord* Find(const std::string& name) const;
  const std::map<std::string, KernelRecord>& kernels() const {
    return kernels_;
  }
  const TransferRecord& h2d() const { return h2d_; }
  const TransferRecord& d2h() const { return d2h_; }

  void Reset();

  /// Multi-line human-readable report (kernel table + transfer summary).
  std::string Report() const;

 private:
  std::map<std::string, KernelRecord> kernels_;
  TransferRecord h2d_;
  TransferRecord d2h_;
};

}  // namespace cdd::sim
