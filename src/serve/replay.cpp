#include "serve/replay.hpp"

#include <exception>
#include <istream>
#include <ostream>
#include <span>
#include <string>

#include "core/hash.hpp"

namespace cdd::serve {

trace::ManifestRecord MakeManifestRecord(const Instance& instance,
                                         const std::string& engine,
                                         const EngineOptions& options,
                                         const meta::RunResult& result) {
  trace::ManifestRecord record;
  record.engine = engine;
  record.instance = instance;
  record.instance_hash = HashInstance(instance);
  record.options.generations = options.generations;
  record.options.seed = options.seed;
  record.options.ensemble = options.ensemble;
  record.options.block = options.block;
  record.options.chains = options.chains;
  record.options.trajectory_stride = options.trajectory_stride;
  record.options.vshape_init = options.vshape_init;
  record.options.portfolio = options.portfolio;
  record.options.race_slice = options.race_slice;
  record.best_cost = result.best_cost;
  record.evaluations = result.evaluations;
  record.trajectory_samples = result.trajectory.size();
  record.trajectory_digest = trace::TrajectoryDigest(
      std::span<const Cost>(result.trajectory));
  return record;
}

EngineOptions OptionsFromManifest(const trace::ManifestOptions& options) {
  EngineOptions out;
  out.generations = options.generations;
  out.seed = options.seed;
  out.ensemble = options.ensemble;
  out.block = options.block;
  out.chains = options.chains;
  out.trajectory_stride = options.trajectory_stride;
  out.vshape_init = options.vshape_init;
  out.portfolio = options.portfolio;
  out.race_slice = options.race_slice;
  return out;
}

ReplayOutcome ReplayRecord(const trace::ManifestRecord& record,
                           const EngineRegistry& registry) {
  ReplayOutcome outcome;
  outcome.engine = record.engine;
  outcome.jobs = record.instance.size();
  outcome.recorded_cost = record.best_cost;
  outcome.recorded_evaluations = record.evaluations;

  try {
    trace::VerifyManifestIntegrity(record);
  } catch (const trace::ManifestError& e) {
    outcome.error = e.what();
    return outcome;
  }

  const EngineFactory* factory = registry.FindFactory(record.engine);
  if (factory == nullptr) {
    outcome.error = "unknown engine '" + record.engine + "'";
    return outcome;
  }

  meta::EngineOutput run;
  try {
    run = meta::RunToCompletion(
        *(*factory)(record.instance, OptionsFromManifest(record.options)));
  } catch (const std::exception& e) {
    outcome.error = std::string("engine failed: ") + e.what();
    return outcome;
  }

  outcome.replayed_cost = run.result.best_cost;
  outcome.replayed_evaluations = run.result.evaluations;
  const std::uint64_t replayed_digest = trace::TrajectoryDigest(
      std::span<const Cost>(run.result.trajectory));

  if (run.result.stopped) {
    outcome.error = "replay was truncated (stop token fired)";
  } else if (run.result.best_cost != record.best_cost) {
    outcome.error = "best_cost mismatch: recorded " +
                    std::to_string(record.best_cost) + ", replayed " +
                    std::to_string(run.result.best_cost);
  } else if (run.result.evaluations != record.evaluations) {
    outcome.error = "evaluation count mismatch: recorded " +
                    std::to_string(record.evaluations) + ", replayed " +
                    std::to_string(run.result.evaluations);
  } else if (run.result.trajectory.size() != record.trajectory_samples) {
    outcome.error = "trajectory length mismatch: recorded " +
                    std::to_string(record.trajectory_samples) +
                    ", replayed " +
                    std::to_string(run.result.trajectory.size());
  } else if (replayed_digest != record.trajectory_digest) {
    outcome.error = "trajectory digest mismatch";
  } else {
    outcome.ok = true;
  }
  return outcome;
}

ReplaySummary ReplayStream(std::istream& in, std::ostream& log,
                           const EngineRegistry& registry) {
  ReplaySummary summary;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    ++summary.total;

    trace::ManifestRecord record;
    try {
      record = trace::ParseManifestLine(line);
    } catch (const trace::ManifestError& e) {
      ++summary.failed;
      log << "line " << line_no << ": FAIL (" << e.what() << ")\n";
      continue;
    }

    const ReplayOutcome outcome = ReplayRecord(record, registry);
    if (outcome.ok) {
      ++summary.passed;
      log << "line " << line_no << ": ok engine=" << outcome.engine
          << " n=" << outcome.jobs << " best_cost=" << outcome.replayed_cost
          << " evaluations=" << outcome.replayed_evaluations << "\n";
    } else {
      ++summary.failed;
      log << "line " << line_no << ": FAIL engine=" << outcome.engine
          << " n=" << outcome.jobs << " (" << outcome.error << ")\n";
    }
  }
  return summary;
}

}  // namespace cdd::serve
