/// \file cdd_solve.cpp
/// \brief Command-line solver: the library as a tool.
///
/// Solve a benchmark or user-supplied instance with any of the engines in
/// the serve::EngineRegistry and inspect the schedule.
///
///   cdd_solve --generate 50 --h 0.6 --algo psa --gens 1000 --gantt
///   cdd_solve --file sch50.txt --index 3 --h 0.4 --algo host --chains 32
///   cdd_solve --generate 20 --problem ucddcp --algo pdpso --profile
///
/// The --algo names are exactly the registry's names — the same set the
/// sched_serve service accepts — so scripts move between the one-shot CLI
/// and the serving front-end without translation.  Unknown algorithms and
/// malformed numeric flags are hard errors (nonzero exit), never silently
/// replaced by defaults.

#include <fstream>
#include <iostream>
#include <sstream>

#include "benchutil/cli.hpp"
#include "benchutil/table.hpp"
#include "core/eval_cdd.hpp"
#include "core/eval_ucddcp.hpp"
#include "core/schedule.hpp"
#include "cudasim/device.hpp"
#include "orlib/biskup_feldmann.hpp"
#include "orlib/schfile.hpp"
#include "serve/engine_registry.hpp"
#include "serve/replay.hpp"
#include "serve/request.hpp"
#include "trace/manifest.hpp"
#include "trace/tracer.hpp"

namespace {

std::string JoinNames(const std::vector<std::string>& names) {
  std::ostringstream out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out << "|";
    out << names[i];
  }
  return out.str();
}

void PrintUsage() {
  const std::string algos =
      JoinNames(cdd::serve::EngineRegistry::Default().Names());
  std::cout <<
      "cdd_solve — scheduling against a common due date\n\n"
      "Instance selection:\n"
      "  --generate N         Biskup-Feldmann benchmark instance with N jobs\n"
      "  --index K            instance index (default 0)\n"
      "  --file PATH          read an OR-library sch file instead\n"
      "  --problem cdd|ucddcp problem variant (default cdd)\n"
      "  --h H                restrictiveness factor for CDD (default 0.6)\n"
      "  --machines M         parallel identical machines (default 1; CDD\n"
      "                       only; m > 1 supported by --algo sa|ta)\n"
      "  --objective O        total-penalty|early-work (default\n"
      "                       total-penalty; early-work is CDD only,\n"
      "                       supported by --algo sa|ta)\n"
      "  --seed S             generator / algorithm seed (default 1)\n\n"
      "Algorithm:\n"
      "  --algo " << algos << "   (default psa)\n"
      "  --gens G             generations / iterations (default 1000)\n"
      "  --ensemble N --block B   parallel launch geometry (default 768/192)\n"
      "  --chains N           host-ensemble chains (default 64)\n"
      "  --vshape-init        seed ensembles with the V-shape heuristic\n"
      "  --portfolio A,B,C    race contenders for --algo race (default\n"
      "                       CDD_RACE_PORTFOLIO, then the bandit prior's\n"
      "                       top three)\n"
      "  --race-slice N       Step units per race scheduling round\n"
      "                       (default CDD_RACE_SLICE, then 64); part of\n"
      "                       the race's deterministic identity\n"
      "  --exec-backend B     block execution on the simulated device:\n"
      "                       serial|host-parallel (default\n"
      "                       CDD_EXEC_BACKEND, then serial); never\n"
      "                       changes results or modeled times\n\n"
      "Output:\n"
      "  --gantt              ASCII Gantt chart of the best schedule\n"
      "  --schedule           per-job schedule table\n"
      "  --profile            simulated-GPU profiler report\n\n"
      "Telemetry:\n"
      "  --trajectory FILE    CSV of (iteration, best-so-far cost)\n"
      "  --trajectory-stride N  sampling stride (default 10)\n"
      "  --manifest FILE      append a JSONL run manifest (sched_replay\n"
      "                       re-executes and verifies it bit-identically)\n"
      "  --trace FILE         Chrome trace JSON (chrome://tracing, Perfetto)\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cdd;
  const benchutil::Args args(argc, argv);
  if (args.GetBool("help") || argc == 1) {
    PrintUsage();
    return 0;
  }

  try {
    // A malformed CDD_* variable is an error before any work starts.
    serve::ResolveEnvironment();

    // --- resolve the engine first: fail fast on a typo'd name -------------
    const serve::EngineRegistry& registry = serve::EngineRegistry::Default();
    const std::string algo = args.GetString("algo", "psa");
    const serve::EngineFactory* factory = registry.FindFactory(algo);
    if (factory == nullptr) {
      std::cerr << "error: unknown --algo '" << algo << "' (expected one of "
                << JoinNames(registry.Names()) << ")\n";
      return 1;
    }

    // --- build the instance -----------------------------------------------
    const bool ucddcp = args.GetString("problem", "cdd") == "ucddcp";
    const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
    const auto index =
        static_cast<std::uint32_t>(args.GetInt("index", 0));
    const double h = args.GetDouble("h", 0.6);

    Instance instance(Problem::kCdd, 1, {1}, {0}, {0});
    const std::string file = args.GetString("file", "");
    if (!file.empty()) {
      // LoadCddFile/LoadUcddcpFile report unreadable, malformed and
      // truncated files as SchParseError with "path:line" context; the
      // catch below prints exactly that.
      const auto tables = ucddcp ? orlib::LoadUcddcpFile(file)
                                 : orlib::LoadCddFile(file);
      if (index >= tables.size()) {
        std::cerr << "error: file holds " << tables.size()
                  << " instances, index " << index << " out of range\n";
        return 1;
      }
      instance = ucddcp ? orlib::MakeUcddcpInstance(tables[index])
                        : orlib::MakeCddInstance(tables[index], h);
    } else {
      const auto n =
          static_cast<std::uint32_t>(args.GetInt("generate", 20));
      const orlib::BiskupFeldmannGenerator gen(seed);
      instance = ucddcp ? gen.Ucddcp(n, index) : gen.Cdd(n, index, h);
    }
    // Problem-variant flags: parallel identical machines and the
    // early-work objective (CDD only; Instance::Validate enforces the
    // combinations).
    const auto machines =
        static_cast<std::int32_t>(args.GetInt("machines", 1));
    if (machines != 1) instance = instance.with_machines(machines);
    const std::string objective =
        args.GetString("objective", "total-penalty");
    if (objective == "early-work") {
      instance = instance.with_objective(ScheduleObjective::kEarlyWork);
    } else if (objective != "total-penalty") {
      std::cerr << "error: unknown --objective '" << objective
                << "' (total-penalty|early-work)\n";
      return 1;
    }
    // Evaluator preconditions are hard errors before any engine runs: a
    // cost computed under a violated precondition is worse than no answer.
    if (const std::string diagnostic =
            serve::ValidateRequestInstance(instance);
        !diagnostic.empty()) {
      std::cerr << "error: " << diagnostic << "\n";
      return 1;
    }
    if (const std::string diagnostic =
            serve::EngineSupportDiagnostic(algo, instance);
        !diagnostic.empty()) {
      std::cerr << "error: " << diagnostic << "\n";
      return 1;
    }
    instance.Validate();
    std::cout << "instance: " << instance.Summary() << "\n";

    // --- run the selected engine ------------------------------------------
    sim::Device gpu(sim::GeForceGT560M());
    const std::string exec_backend = args.GetString("exec-backend", "");
    if (!exec_backend.empty()) {
      sim::exec::ExecBackend parsed = sim::exec::ExecBackend::kSerial;
      if (!sim::exec::ParseExecBackend(exec_backend, &parsed)) {
        std::cerr << "error: unknown --exec-backend '" << exec_backend
                  << "' (serial|host-parallel)\n";
        return 1;
      }
      gpu.set_exec_backend(parsed);
    }
    serve::EngineOptions options;
    options.generations =
        static_cast<std::uint64_t>(args.GetInt("gens", 1000));
    options.seed = seed;
    options.ensemble =
        static_cast<std::uint32_t>(args.GetInt("ensemble", 768));
    options.block = static_cast<std::uint32_t>(args.GetInt("block", 192));
    options.chains = static_cast<std::uint32_t>(args.GetInt("chains", 64));
    options.vshape_init = args.GetBool("vshape-init");
    options.portfolio = args.GetString("portfolio", "");
    options.race_slice =
        static_cast<std::uint64_t>(args.GetInt("race-slice", 0));
    // Bake an env-pinned contender list and slice into the options so a
    // recorded manifest stays replayable without CDD_RACE_* set.
    if (algo == "race") serve::MaterializeRaceOptions(options);
    options.device = &gpu;  // so --profile sees the kernel launches

    const std::string trajectory_file = args.GetString("trajectory", "");
    const auto trajectory_stride =
        static_cast<std::uint32_t>(args.GetInt("trajectory-stride", 10));
    if (!trajectory_file.empty()) {
      options.trajectory_stride = trajectory_stride;
    }
    const std::string trace_file = args.GetString("trace", "");
    if (!trace_file.empty()) trace::SetEnabled(true);

    const meta::EngineOutput run =
        meta::RunToCompletion(*(*factory)(instance, options));

    if (!trajectory_file.empty()) {
      std::ofstream out(trajectory_file);
      if (!out) {
        std::cerr << "error: cannot write " << trajectory_file << "\n";
        return 1;
      }
      out << "iteration,best_cost\n";
      for (std::size_t k = 0; k < run.result.trajectory.size(); ++k) {
        out << k * trajectory_stride << "," << run.result.trajectory[k]
            << "\n";
      }
      std::cout << "trajectory: " << run.result.trajectory.size()
                << " samples (stride " << trajectory_stride << ") -> "
                << trajectory_file << "\n";
    }

    const std::string manifest_file = args.GetString("manifest", "");
    if (!manifest_file.empty()) {
      if (run.result.stopped) {
        std::cerr << "error: refusing to record a manifest of a truncated "
                     "run\n";
        return 1;
      }
      if (algo == "race" && !serve::RacePortfolioPinned(options)) {
        // Same rule as the serve layer: a bandit-resolved portfolio is
        // not replayable, so it must never enter a manifest.
        std::cerr << "error: --manifest with --algo race needs a pinned "
                     "portfolio (--portfolio or CDD_RACE_PORTFOLIO)\n";
        return 1;
      }
      std::ofstream out(manifest_file, std::ios::app);
      if (!out) {
        std::cerr << "error: cannot append to " << manifest_file << "\n";
        return 1;
      }
      out << trace::WriteManifestLine(serve::MakeManifestRecord(
                 instance, algo, options, run.result))
          << "\n";
      std::cout << "manifest: appended to " << manifest_file << "\n";
    }

    if (run.device_seconds > 0.0) {
      std::cout << "modeled GT 560M time: " << run.device_seconds
                << " s over " << run.result.evaluations
                << " evaluations\n";
    }
    std::cout << "best cost: " << run.result.best_cost << "\n";
    if (!run.result.best_splits.empty()) {
      std::cout << "machine splits:";
      for (const std::int32_t s : run.result.best_splits) {
        std::cout << " " << s;
      }
      std::cout << "\n";
    }
    const Sequence& best = run.result.best;

    // --- schedule output ----------------------------------------------------
    const bool variant = instance.machines() > 1 ||
                         instance.objective() == ScheduleObjective::kEarlyWork;
    Schedule schedule;
    if (variant) {
      schedule = BuildMachineSchedule(instance, best,
                                      run.result.best_splits);
    } else if (ucddcp) {
      schedule = UcddcpEvaluator(instance).BuildSchedule(best);
    } else {
      schedule = CddEvaluator(instance).BuildSchedule(best);
    }
    if (args.GetBool("gantt")) {
      if (instance.machines() > 1) {
        // One lane per machine: slice the flat schedule at the machine
        // boundaries and render each slice on its own timeline.
        for (std::int32_t mk = 0; mk < instance.machines(); ++mk) {
          Schedule lane;
          for (std::size_t k = 0; k < schedule.size(); ++k) {
            if (schedule.machine_of(k) != mk) continue;
            lane.order.push_back(schedule.order[k]);
            lane.completion.push_back(schedule.completion[k]);
            lane.compression.push_back(
                schedule.compression.empty() ? Time{0}
                                             : schedule.compression[k]);
          }
          std::cout << "machine " << mk << ":\n";
          std::cout << (lane.size() == 0 ? std::string("(idle)\n")
                                         : RenderGantt(instance, lane));
        }
      } else {
        std::cout << RenderGantt(instance, schedule);
      }
    }
    if (args.GetBool("schedule")) {
      const bool show_machine = instance.machines() > 1;
      std::vector<std::string> header = {"slot",  "job",   "start", "done",
                                         "early", "tardy", "X"};
      if (show_machine) header.insert(header.begin() + 1, "m");
      benchutil::TextTable table(header);
      for (std::size_t k = 0; k < schedule.size(); ++k) {
        const Time c = schedule.completion[k];
        const Time d = instance.due_date();
        std::vector<std::string> row = {
            std::to_string(k), std::to_string(schedule.order[k]),
            std::to_string(StartTime(instance, schedule, k)),
            std::to_string(c), std::to_string(std::max<Time>(0, d - c)),
            std::to_string(std::max<Time>(0, c - d)),
            std::to_string(schedule.compression.empty()
                               ? 0
                               : schedule.compression[k])};
        if (show_machine) {
          row.insert(row.begin() + 1,
                     std::to_string(schedule.machine_of(k)));
        }
        table.AddRow(row);
      }
      std::cout << table.ToString();
    }
    if (args.GetBool("profile")) {
      std::cout << gpu.profiler().Report();
    }
    if (!trace_file.empty()) {
      if (!trace::ExportChromeTraceFile(trace_file)) {
        std::cerr << "error: cannot write " << trace_file << "\n";
        return 1;
      }
      std::cout << "trace: " << trace::EventCount() << " events ("
                << trace::DroppedTotal() << " dropped) -> " << trace_file
                << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
