#include "cudasim/profiler.hpp"

#include <iomanip>
#include <sstream>

namespace cdd::sim {

void Profiler::RecordKernel(const std::string& name, std::uint64_t blocks,
                            std::uint64_t threads, std::uint64_t work_units,
                            double sim_time_s, double wall_s) {
  KernelRecord& r = kernels_[name];
  r.launches += 1;
  r.blocks += blocks;
  r.threads += threads;
  r.work_units += work_units;
  r.sim_time_s += sim_time_s;
  r.wall_s += wall_s;
}

void Profiler::RecordTransfer(bool host_to_device, std::uint64_t bytes,
                              double sim_time_s) {
  TransferRecord& r = host_to_device ? h2d_ : d2h_;
  r.count += 1;
  r.bytes += bytes;
  r.sim_time_s += sim_time_s;
}

const KernelRecord* Profiler::Find(const std::string& name) const {
  const auto it = kernels_.find(name);
  return it == kernels_.end() ? nullptr : &it->second;
}

void Profiler::Reset() {
  kernels_.clear();
  h2d_ = {};
  d2h_ = {};
}

std::string Profiler::Report() const {
  std::ostringstream os;
  os << std::left << std::setw(24) << "kernel" << std::right << std::setw(10)
     << "launches" << std::setw(12) << "blocks" << std::setw(14) << "threads"
     << std::setw(16) << "work units" << std::setw(14) << "modeled [ms]"
     << std::setw(12) << "wall [ms]" << "\n";
  for (const auto& [name, r] : kernels_) {
    os << std::left << std::setw(24) << name << std::right << std::setw(10)
       << r.launches << std::setw(12) << r.blocks << std::setw(14)
       << r.threads << std::setw(16) << r.work_units << std::setw(14)
       << std::fixed << std::setprecision(3) << r.sim_time_s * 1e3
       << std::setw(12) << r.wall_s * 1e3 << "\n";
  }
  os << "H->D: " << h2d_.count << " copies, " << h2d_.bytes << " bytes, "
     << std::fixed << std::setprecision(3) << h2d_.sim_time_s * 1e3
     << " ms\n";
  os << "D->H: " << d2h_.count << " copies, " << d2h_.bytes << " bytes, "
     << std::fixed << std::setprecision(3) << d2h_.sim_time_s * 1e3
     << " ms\n";
  return os.str();
}

}  // namespace cdd::sim
