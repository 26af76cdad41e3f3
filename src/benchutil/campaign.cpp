#include "benchutil/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "core/candidate_pool.hpp"
#include "core/vshape.hpp"
#include "meta/sa.hpp"
#include "meta/threshold.hpp"
#include "orlib/biskup_feldmann.hpp"

namespace cdd::benchutil {

Sweep Sweep::Paper() {
  Sweep s;
  s.sizes.assign(orlib::kPaperSizes.begin(), orlib::kPaperSizes.end());
  s.h.assign(orlib::kPaperH.begin(), orlib::kPaperH.end());
  s.instances = orlib::kPaperInstancesPerSize;
  s.gens_low = 1000;
  s.gens_high = 5000;
  s.ensemble = 768;
  s.block_size = 192;
  s.ref_iterations = 200000;
  s.ref_restarts = 5;
  return s;
}

Sweep Sweep::FromArgs(const Args& args) {
  Sweep s = args.GetBool("paper") ? Paper() : Sweep{};
  s.sizes = args.GetUintList("sizes", s.sizes);
  s.instances =
      static_cast<std::uint32_t>(args.GetInt("instances", s.instances));
  s.gens_low =
      static_cast<std::uint64_t>(args.GetInt("gens-low", s.gens_low));
  s.gens_high =
      static_cast<std::uint64_t>(args.GetInt("gens-high", s.gens_high));
  s.ensemble =
      static_cast<std::uint32_t>(args.GetInt("ensemble", s.ensemble));
  s.block_size =
      static_cast<std::uint32_t>(args.GetInt("block", s.block_size));
  s.ref_iterations = static_cast<std::uint64_t>(
      args.GetInt("ref-iterations", s.ref_iterations));
  s.ref_restarts = static_cast<std::uint32_t>(
      args.GetInt("ref-restarts", s.ref_restarts));
  s.seed = static_cast<std::uint64_t>(args.GetInt("seed", s.seed));
  return s;
}

std::string Sweep::Describe() const {
  std::ostringstream os;
  os << "sizes=";
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    os << (i ? "," : "") << sizes[i];
  }
  os << " instances/(n,h)=" << instances << " h-values=" << h.size()
     << " ensemble=" << ensemble << " (" << block_size << "/block)"
     << " generations=" << gens_low << "/" << gens_high << " seed=" << seed;
  return os.str();
}

Cost ComputeReferenceCost(const Instance& instance, const Sweep& sweep,
                          std::uint64_t salt) {
  const meta::SequenceObjective objective =
      meta::SequenceObjective::ForInstance(instance);
  Cost best = kInfiniteCost;

  // For n <= 10 the best-known values of the literature are exact optima;
  // enumerate all sequences with the O(n) evaluator (~1 s at n = 10).
  // Permutations are staged into a candidate pool and costed in batches —
  // the same SoA hot path the engines use.
  if (instance.size() <= 10) {
    CandidatePool pool(instance.size(), /*capacity=*/256);
    Sequence seq = IdentitySequence(instance.size());
    bool more = true;
    while (more) {
      pool.Clear();
      do {
        pool.Append(seq);
        more = std::next_permutation(seq.begin(), seq.end());
      } while (more && !pool.full());
      objective.EvaluateBatch(pool);
      for (const Cost c : pool.costs()) best = std::min(best, c);
    }
    return best;
  }

  // [7]-style serial SA restarts; the first is seeded with the V-shape
  // constructive heuristic, the rest start random.
  for (std::uint32_t r = 0; r < sweep.ref_restarts; ++r) {
    meta::SaParams params;
    params.budget.iterations = sweep.ref_iterations;
    params.budget.seed = sweep.seed * 1000003 + salt * 131 + r;
    std::optional<Sequence> init;
    if (r == 0) init = VShapeSeed(instance);
    const meta::RunResult result =
        meta::RunSerialSa(objective, params, init);
    best = std::min(best, result.best_cost);
  }

  // [18]-style threshold accepting pass.
  meta::TaParams ta;
  ta.budget.iterations = sweep.ref_iterations;
  ta.budget.seed = sweep.seed * 7000003 + salt;
  best = std::min(best,
                  meta::RunThresholdAccepting(objective, ta).best_cost);
  return best;
}

double MeasureSecondsPerEval(const meta::SequenceObjective& objective,
                             std::uint64_t calib_evals, std::uint64_t seed) {
  meta::SaParams params;
  params.budget.iterations = std::max<std::uint64_t>(calib_evals, 100);
  params.budget.seed = seed;
  // Fixed temperature: the Salamon sampling would otherwise run uncounted
  // evaluations inside the timed region and skew the per-eval estimate.
  params.initial_temperature = 1.0;
  const auto start = std::chrono::steady_clock::now();
  const meta::RunResult result = meta::RunSerialSa(objective, params);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return elapsed / static_cast<double>(result.evaluations);
}

}  // namespace cdd::benchutil
