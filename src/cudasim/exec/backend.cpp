#include "cudasim/exec/backend.hpp"

#include <thread>

#include "core/env_config.hpp"

namespace cdd::sim::exec {

std::string_view ToString(ExecBackend backend) {
  return backend == ExecBackend::kHostParallel ? "host-parallel" : "serial";
}

bool ParseExecBackend(std::string_view name, ExecBackend* out) {
  if (name == "serial") {
    *out = ExecBackend::kSerial;
    return true;
  }
  if (name == "host-parallel") {
    *out = ExecBackend::kHostParallel;
    return true;
  }
  return false;
}

ExecBackend ActiveExecBackend() {
  static const ExecBackend backend =
      core::ReadEnv(core::kExecBackendEnv, ParseExecBackend)
          .value_or(ExecBackend::kSerial);
  return backend;
}

unsigned ActiveExecWorkers() {
  static const unsigned workers = [] {
    if (const std::optional<unsigned> env = core::ReadEnv(
            core::kExecWorkersEnv, core::ParsePositive<unsigned>)) {
      return *env;
    }
    const unsigned hardware = std::thread::hardware_concurrency();
    return hardware == 0 ? 1u : hardware;
  }();
  return workers;
}

}  // namespace cdd::sim::exec
