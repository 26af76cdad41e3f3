#pragma once
/// \file backend.hpp
/// \brief Execution-backend selection for the simulated device.
///
/// The simulator separates *what* a launch computes from *when* the model
/// says it finished.  Block execution is the "what": every block of a
/// kernel launch is independent (the same contract CUDA gives blocks), so
/// the runtime is free to run them on one host core or on all of them.
/// The TimingModel is the "when": a virtual clock fed only by per-thread
/// charge() aggregates, which are exact integers reduced in block-index
/// order — so modeled kernel/sync/H2D/D2H times, trace timestamps and the
/// golden manifest are bit-identical no matter which backend executed the
/// blocks.
///
///   kSerial        blocks run in block-index order on the calling host
///                  thread (the default: deterministic, zero overhead,
///                  right for single-core hosts and for debugging).
///   kHostParallel  blocks are scheduled over the process-wide persistent
///                  worker pool (exec::HostThreadPool) — a block runs
///                  whole on one worker, blocks chunked round-robin over
///                  block indices.
///                  This is the paper's actual execution mode: 768 chains
///                  spread across every available core.
///
/// Backend selection mirrors the cpu_features / pool_allocator idiom: the
/// CDD_EXEC_BACKEND environment variable ("serial" | "host-parallel") is
/// resolved exactly once per process into ActiveExecBackend(); unknown
/// values throw std::invalid_argument (core/env_config.hpp).  serve::ServiceConfig::exec_backend and
/// the --exec-backend CLI flags override the environment per service /
/// per device (Device::set_exec_backend), and Device::set_worker_threads
/// remains the per-device hard override the tests use.

#include <cstdint>
#include <string_view>

namespace cdd::sim::exec {

/// How a Device executes the blocks of one launch (see the file comment).
enum class ExecBackend : std::uint8_t {
  kSerial = 0,    ///< all blocks on the calling thread, in order (default)
  kHostParallel,  ///< blocks fan out over the persistent host worker pool
};

/// Stable lower-case name ("serial" | "host-parallel").
std::string_view ToString(ExecBackend backend);

/// Parses a backend name; returns false (and leaves \p out untouched) on
/// anything else.
bool ParseExecBackend(std::string_view name, ExecBackend* out);

/// The backend every defaulted Device uses, resolved once per process:
/// CDD_EXEC_BACKEND when set, else kSerial.  Throws std::invalid_argument
/// when the variable holds an unknown name.
ExecBackend ActiveExecBackend();

/// Worker cap for host-parallel execution, resolved once per process:
/// CDD_EXEC_WORKERS when set, else the hardware concurrency (minimum 1).
/// Throws std::invalid_argument unless the variable is unset or a
/// positive integer.  This bounds the persistent pool's thread
/// count *and* the per-launch participation of a defaulted Device.
unsigned ActiveExecWorkers();

}  // namespace cdd::sim::exec
