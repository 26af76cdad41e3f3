#pragma once
/// \file engine_registry.hpp
/// \brief Name -> resumable-engine factories over the library's ten
/// engines (eight heuristics, the exact branch-and-bound tier and the
/// racing portfolio).
///
/// The registry is the single place where an engine name ("psa", "host",
/// "sa", ...) maps to runnable code, so the cdd_solve CLI, the
/// SolverService and the load generator all accept exactly the same names
/// and reject unknown ones the same way.  Each factory translates the
/// uniform EngineOptions into the engine's native parameter struct and
/// returns a meta::Engine; callers drive it with Step (meta::RunToCompletion
/// for one uninterrupted run) and read the meta::EngineOutput from Finish
/// — the result plus the modeled device time (zero for host engines).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/candidate_pool.hpp"
#include "core/instance.hpp"
#include "core/stop_token.hpp"
#include "cudasim/device.hpp"
#include "meta/engine.hpp"

namespace cdd::serve {

/// Engine-independent knobs of one solve.  Fields an engine has no use for
/// are ignored (e.g. `chains` by "sa", `ensemble`/`block` by every serial
/// engine); CacheKey() hashes only result-determining fields, and
/// deliberately not `threads` (RunHostEnsembleSa is thread-count
/// invariant), `stop` or `device`.
struct EngineOptions {
  std::uint64_t generations = 1000;  ///< iterations / generations budget
  std::uint64_t seed = 1;
  std::uint32_t ensemble = 768;  ///< parallel engines: total GPU threads
  std::uint32_t block = 192;     ///< parallel engines: threads per block
  std::uint32_t chains = 64;     ///< "host": independent SA chains
  std::uint32_t threads = 0;  ///< "host"/"bnb": workers (0 = hardware cap)
  bool vshape_init = false;      ///< parallel engines: V-shape seeding
  /// When > 0, RunResult::trajectory samples the best-so-far cost every
  /// this many iterations/generations (engines without trajectory
  /// machinery — "host", "psa-sync" — ignore it).  Result-determining in
  /// the sense that the returned record differs, so CacheKey hashes it.
  std::uint32_t trajectory_stride = 0;
  /// Cooperative cancellation, forwarded into the engine's search loop.
  StopToken stop{};
  /// Simulated device for the parallel engines.  When null the adapter
  /// creates a private GT 560M per call (what the service does); the CLI
  /// passes its own device so --profile sees the kernels.
  sim::Device* device = nullptr;
  /// Execution backend applied to the private device the adapter creates
  /// (serve/CLI plumbing; see sim::exec::ActiveExecBackend).  Unset
  /// defers to the process-wide CDD_EXEC_BACKEND resolution; ignored when
  /// `device` is supplied (the caller configured its own device).  Like
  /// `threads`, never hashed by CacheKey — execution placement does not
  /// change results.
  std::optional<sim::exec::ExecBackend> exec_backend;
  /// Request-scoped candidate pool lent by the serve layer (zero-copy
  /// handoff).  The serve layer lends one only to the engines with a
  /// nonzero PoolCapacityHint, which stage their generations in it instead
  /// of allocating; null means every engine allocates privately.  Like
  /// `stop` and `device`, never hashed by CacheKey — placement does not
  /// change results.
  CandidatePool* pool = nullptr;
  /// "race" only: comma-separated contender names ("sa,dpso,psa").  Empty
  /// defers to CDD_RACE_PORTFOLIO, and when that is unset too the bandit
  /// prior picks the contenders adaptively from past wins — which makes
  /// the run non-reproducible across processes, so the serve layer skips
  /// the result cache and the run manifest for such races (see
  /// RacePortfolioPinned).  Result-determining, hashed by CacheKey.
  std::string portfolio;
  /// "race" only: Step units each live contender advances per scheduling
  /// round (0 defers to CDD_RACE_SLICE, then 64; a malformed or zero
  /// variable is an error).  Result-determining — the kill schedule
  /// depends on it — so CacheKey hashes it.
  std::uint64_t race_slice = 0;
};

/// True when a "race" run with these options is reproducible: the
/// contender list is pinned by `options.portfolio` or CDD_RACE_PORTFOLIO
/// rather than chosen by the in-process bandit prior.  Pinned races are
/// deterministic (cacheable, manifest-recordable); adaptive ones are not.
bool RacePortfolioPinned(const EngineOptions& options);

/// Copies CDD_RACE_PORTFOLIO into `options.portfolio` when the latter is
/// empty, and CDD_RACE_SLICE into `options.race_slice` when that is 0.
/// The front doors (CLI, service Submit) call this for "race" requests so
/// that cache keys and manifest records carry the *effective* contender
/// list and slice — an env-pinned race must replay identically in a
/// process where the variables are no longer set.  With neither variable
/// set the options stay untouched.  Throws std::invalid_argument when
/// either variable is malformed.
void MaterializeRaceOptions(EngineOptions& options);

/// Resolves the once-per-process CDD_* variables (CDD_EVAL_BACKEND,
/// CDD_POOL_BACKEND, CDD_EXEC_BACKEND, CDD_EXEC_WORKERS) now, so that a
/// malformed value throws std::invalid_argument on the calling thread
/// rather than at first use, which may be on a worker thread or inside a
/// noexcept evaluation kernel.  Front ends call it before any solve.
void ResolveEnvironment();

/// True when the named engine can solve \p instance's problem variant.
/// Single-machine total-penalty instances are supported by every engine.
/// Parallel-machine (Instance::machines() > 1) and early-work instances
/// are searched over (permutation, splits) candidates; only the
/// single-chain "sa" and "ta" engines carry that move set (see
/// docs/WORKLOADS.md for the support matrix).
bool EngineSupportsInstance(std::string_view name, const Instance& instance);

/// Human-readable reason EngineSupportsInstance is false, empty when the
/// engine supports the variant.  The service's admission path returns it
/// as the rejection diagnostic.
std::string EngineSupportDiagnostic(std::string_view name,
                                    const Instance& instance);

/// Throws std::invalid_argument with EngineSupportDiagnostic's message
/// when EngineSupportsInstance is false, so the CLI, the service and race
/// contender construction reject unsupported variants identically.
void RequireEngineSupports(std::string_view name, const Instance& instance);

/// Rows a request-scoped pool needs so the named engine can stage a full
/// generation in it; 0 means the engine does not borrow a shared pool
/// (the serial chains score their one row in place, device engines use
/// device buffers) and the serve layer should not lend one.
std::size_t PoolCapacityHint(std::string_view name);

/// Creates a resumable engine (meta::Engine lifecycle) for one solve.
/// The returned engine owns everything it needs — factories for the
/// device engines bundle a private simulated device with the engine when
/// `options.device` is null — so it can be stepped and preempted long
/// after the factory call returns.
using EngineFactory = std::function<std::unique_ptr<meta::Engine>(
    const Instance&, const EngineOptions&)>;

/// Immutable-after-setup name -> engine table.
class EngineRegistry {
 public:
  /// Registers \p factory under \p name, replacing any previous entry.
  void RegisterFactory(std::string name, EngineFactory factory);

  /// Looks up a factory; nullptr when the name is unknown.
  const EngineFactory* FindFactory(std::string_view name) const;

  /// All registered names, sorted (for error messages and --help).
  std::vector<std::string> Names() const;

  /// The built-in engines: psa, pdpso, psa-sync (simulated GPU), sa, dpso,
  /// ta, es (serial), host (multi-threaded CPU ensemble), bnb (exact) and
  /// race (convergence-driven portfolio over the others).
  static const EngineRegistry& Default();

 private:
  std::map<std::string, EngineFactory, std::less<>> factories_;
};

}  // namespace cdd::serve
