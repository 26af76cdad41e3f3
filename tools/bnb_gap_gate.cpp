/// \file bnb_gap_gate.cpp
/// \brief CI optimality-gap gate: every registered engine vs pinned
/// branch-and-bound optima.
///
/// results/golden_bnb.jsonl pins a set of Biskup-Feldmann benchmark
/// instances (regenerated deterministically from (n, k, h) — nothing but
/// the optimum and tolerance is stored) together with the cost the exact
/// tier proved optimal.  The gate re-proves each pinned optimum with
/// BranchAndBound, then runs every engine in the default registry with a
/// fixed budget and fails when any engine's cost lands outside
/// [optimum, optimum * (1 + tolerance_pct/100)].  A cost *below* the
/// pinned optimum is just as fatal as one above the tolerance: it means
/// an evaluator or the exact tier regressed.
///
///   bnb_gap_gate [--manifest results/golden_bnb.jsonl]
///                [--generations 1000] [--seed 1]
///   bnb_gap_gate --pin [--tolerance 25]   # emit fresh jsonl on stdout
///
/// Record format (one JSON object per line):
///   {"schema":1,"key":"cdd-n10-k0-h0.40","problem":"cdd","n":10,"k":0,
///    "h":0.4,"optimum":1936,"tolerance_pct":25.0}

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "benchutil/cli.hpp"
#include "benchutil/table.hpp"
#include "core/instance.hpp"
#include "exact/bnb.hpp"
#include "orlib/biskup_feldmann.hpp"
#include "serve/engine_registry.hpp"
#include "trace/json.hpp"

namespace {

using namespace cdd;

struct GoldenRecord {
  std::string key;
  std::string problem;  // "cdd" | "ucddcp"
  std::uint32_t n = 0;
  std::uint32_t k = 0;
  double h = 0;  // unused for ucddcp
  Cost optimum = 0;
  double tolerance_pct = 0;
};

Instance Regenerate(const GoldenRecord& record) {
  const orlib::BiskupFeldmannGenerator generator;
  return record.problem == "ucddcp"
             ? generator.Ucddcp(record.n, record.k)
             : generator.Cdd(record.n, record.k, record.h);
}

GoldenRecord ParseRecord(const std::string& line, std::size_t line_no) {
  const trace::JsonValue value = trace::JsonValue::Parse(line);
  if (value.At("schema").AsInt() != 1) {
    throw std::runtime_error("line " + std::to_string(line_no) +
                             ": unsupported schema");
  }
  GoldenRecord record;
  record.key = value.At("key").AsString();
  record.problem = value.At("problem").AsString();
  record.n = static_cast<std::uint32_t>(value.At("n").AsUint());
  record.k = static_cast<std::uint32_t>(value.At("k").AsUint());
  if (const trace::JsonValue* h = value.Find("h")) record.h = h->AsDouble();
  record.optimum = value.At("optimum").AsInt();
  record.tolerance_pct = value.At("tolerance_pct").AsDouble();
  return record;
}

/// The pinned instance set: small enough that the exact tier proves each
/// optimum in milliseconds, spread over restrictiveness and both
/// problems so every engine's evaluator path is exercised.
std::vector<GoldenRecord> PinSet(double tolerance_pct) {
  std::vector<GoldenRecord> records;
  const auto add_cdd = [&](std::uint32_t n, std::uint32_t k, double h) {
    GoldenRecord r;
    r.key = orlib::CddKey(n, k, h);
    r.problem = "cdd";
    r.n = n;
    r.k = k;
    r.h = h;
    r.tolerance_pct = tolerance_pct;
    records.push_back(r);
  };
  const auto add_ucddcp = [&](std::uint32_t n, std::uint32_t k) {
    GoldenRecord r;
    r.key = orlib::UcddcpKey(n, k);
    r.problem = "ucddcp";
    r.n = n;
    r.k = k;
    r.tolerance_pct = tolerance_pct;
    records.push_back(r);
  };
  add_cdd(10, 0, 0.4);
  add_cdd(10, 1, 0.6);
  add_cdd(10, 2, 0.8);
  add_cdd(14, 0, 0.6);
  add_ucddcp(10, 0);
  add_ucddcp(10, 1);
  add_ucddcp(12, 0);
  return records;
}

Cost ProveOptimum(const Instance& instance) {
  exact::BnbParams params;
  params.workers = 1;
  const exact::BnbResult result = exact::BranchAndBound(instance, params);
  if (!result.proven_optimal) {
    throw std::runtime_error("branch-and-bound failed to prove optimality");
  }
  return result.cost;
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Args args(argc, argv);
  if (args.GetBool("help")) {
    std::cout
        << "Optimality-gap gate: every registry engine vs pinned "
           "branch-and-bound optima.\nFlags: --manifest PATH "
           "--generations G --seed S | --pin [--tolerance PCT]\n";
    return 0;
  }

  if (args.GetBool("pin")) {
    const double tolerance = args.GetDouble("tolerance", 25.0);
    for (const GoldenRecord& record : PinSet(tolerance)) {
      const Cost optimum = ProveOptimum(Regenerate(record));
      std::cout << "{\"schema\":1,\"key\":\"" << record.key
                << "\",\"problem\":\"" << record.problem
                << "\",\"n\":" << record.n << ",\"k\":" << record.k;
      if (record.problem == "cdd") {
        std::ostringstream h;
        h << record.h;
        std::cout << ",\"h\":" << h.str();
      }
      std::cout << ",\"optimum\":" << optimum << ",\"tolerance_pct\":"
                << record.tolerance_pct << "}\n";
    }
    return 0;
  }

  const std::string manifest_path =
      args.GetString("manifest", "results/golden_bnb.jsonl");
  const auto generations =
      static_cast<std::uint64_t>(args.GetInt("generations", 1000));
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));

  std::ifstream manifest(manifest_path);
  if (!manifest) {
    std::cerr << "error: cannot read " << manifest_path << "\n";
    return 1;
  }

  std::vector<GoldenRecord> records;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(manifest, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      records.push_back(ParseRecord(line, line_no));
    } catch (const std::exception& e) {
      std::cerr << "error: " << manifest_path << " line " << line_no
                << ": " << e.what() << "\n";
      return 1;
    }
  }
  if (records.empty()) {
    std::cerr << "error: " << manifest_path << " holds no records\n";
    return 1;
  }

  const serve::EngineRegistry& registry = serve::EngineRegistry::Default();
  const std::vector<std::string> engines = registry.Names();
  std::cout << "=== Optimality-gap gate: " << engines.size()
            << " engines x " << records.size() << " pinned instances "
            << "(generations=" << generations << ", seed=" << seed
            << ") ===\n";

  benchutil::TextTable table({"instance", "engine", "optimum", "cost",
                              "gap %", "tol %", "status"});
  std::size_t failures = 0;

  for (const GoldenRecord& record : records) {
    const Instance instance = Regenerate(record);

    // Re-prove the pinned bound before holding anyone to it.
    Cost proven = 0;
    try {
      proven = ProveOptimum(instance);
    } catch (const std::exception& e) {
      std::cerr << "FAIL " << record.key << ": " << e.what() << "\n";
      ++failures;
      continue;
    }
    if (proven != record.optimum) {
      std::cerr << "FAIL " << record.key << ": pinned optimum "
                << record.optimum << " but branch-and-bound proved "
                << proven << " — re-pin with --pin\n";
      ++failures;
      continue;
    }

    for (const std::string& name : engines) {
      const serve::EngineFactory& factory = *registry.FindFactory(name);
      serve::EngineOptions options;
      options.generations = generations;
      options.seed = seed;
      options.ensemble = 192;
      options.block = 64;
      options.chains = 16;
      options.threads = 1;
      meta::EngineOutput run;
      try {
        run = meta::RunToCompletion(*factory(instance, options));
      } catch (const std::exception& e) {
        table.AddRow({record.key, name, std::to_string(record.optimum),
                      "-", "-", "-", std::string("ERROR: ") + e.what()});
        ++failures;
        continue;
      }
      const Cost cost = run.result.best_cost;
      const double gap =
          100.0 * static_cast<double>(cost - record.optimum) /
          static_cast<double>(std::max<Cost>(record.optimum, 1));
      const bool below = cost < record.optimum;
      const bool above = gap > record.tolerance_pct;
      if (below || above) ++failures;
      table.AddRow({record.key, name, std::to_string(record.optimum),
                    std::to_string(cost), benchutil::FmtDouble(gap, 2),
                    benchutil::FmtDouble(record.tolerance_pct, 0),
                    below ? "FAIL (beats proven optimum!)"
                          : above ? "FAIL (gap over tolerance)" : "ok"});
    }
  }
  std::cout << table.ToString();

  if (failures != 0) {
    std::cerr << "\nFAIL: " << failures << " gate violation(s)\n";
    return 1;
  }
  std::cout << "\nok: every engine within tolerance of every pinned "
               "optimum\n";
  return 0;
}
