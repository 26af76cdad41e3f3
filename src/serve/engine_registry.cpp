#include "serve/engine_registry.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/cpu_features.hpp"
#include "core/env_config.hpp"
#include "core/pool_allocator.hpp"
#include "exact/bnb.hpp"
#include "meta/dpso.hpp"
#include "meta/evostrategy.hpp"
#include "meta/host_ensemble.hpp"
#include "meta/objective.hpp"
#include "meta/sa.hpp"
#include "meta/threshold.hpp"
#include "parallel/parallel_dpso.hpp"
#include "parallel/parallel_sa.hpp"
#include "parallel/parallel_sa_sync.hpp"
#include "portfolio/bandit.hpp"
#include "portfolio/race.hpp"

namespace cdd::serve {

namespace {

/// Keeps a private simulated device alive for exactly as long as the
/// engine running on it.  Members declare the device first so it is
/// destroyed last (the inner engine's buffers live on it).
class OwningDeviceEngine final : public meta::Engine {
 public:
  OwningDeviceEngine(std::unique_ptr<sim::Device> device,
                     std::unique_ptr<meta::Engine> inner)
      : device_(std::move(device)), inner_(std::move(inner)) {}

  meta::StepStatus Step(std::uint64_t units) override {
    return inner_->Step(units);
  }
  std::uint64_t Remaining() const override { return inner_->Remaining(); }
  Cost BestCost() const override { return inner_->BestCost(); }
  meta::EngineOutput Finish() override { return inner_->Finish(); }

 private:
  std::unique_ptr<sim::Device> device_;
  std::unique_ptr<meta::Engine> inner_;
};

/// Builds \p make's engine on the caller's device or on a private GT 560M
/// that the returned engine then owns.
template <class Fn>
std::unique_ptr<meta::Engine> WithDeviceEngine(const EngineOptions& options,
                                               Fn&& make) {
  if (options.device != nullptr) return make(*options.device);
  auto device = std::make_unique<sim::Device>();  // the paper's GT 560M
  if (options.exec_backend) device->set_exec_backend(*options.exec_backend);
  auto inner = make(*device);
  return std::make_unique<OwningDeviceEngine>(std::move(device),
                                              std::move(inner));
}

std::unique_ptr<meta::Engine> MakeEngineByName(std::string_view name,
                                               const Instance& instance,
                                               const EngineOptions& options);

/// The search budget of an iterative engine whose Step unit is one
/// iteration or generation of the request's budget.
meta::SearchBudget Budget(const EngineOptions& options) {
  return {.iterations = options.generations,
          .seed = options.seed,
          .trajectory_stride = options.trajectory_stride,
          .stop = options.stop};
}

/// Step units per race round when neither the options nor
/// CDD_RACE_SLICE pin one.
constexpr std::uint64_t kDefaultRaceSlice = 64;

/// The race slice CDD_RACE_SLICE pins, 0 when the variable is unset.
std::uint64_t EnvRaceSlice() {
  return core::ReadEnv(core::kRaceSliceEnv,
                       core::ParsePositive<std::uint64_t>)
      .value_or(0);
}

std::vector<std::string> SplitNames(std::string_view csv) {
  std::vector<std::string> names;
  while (!csv.empty()) {
    const std::size_t comma = csv.find(',');
    std::string_view token = csv.substr(0, comma);
    while (!token.empty() && token.front() == ' ') token.remove_prefix(1);
    while (!token.empty() && token.back() == ' ') token.remove_suffix(1);
    if (!token.empty()) names.emplace_back(token);
    if (comma == std::string_view::npos) break;
    csv.remove_prefix(comma + 1);
  }
  return names;
}

/// Accepts a contender list that names at least one engine.
bool ParsePortfolio(std::string_view csv, std::string* out) {
  if (SplitNames(csv).empty()) return false;
  *out = csv;
  return true;
}

/// The contender list CDD_RACE_PORTFOLIO pins, empty when the variable is
/// unset.
std::string EnvRacePortfolio() {
  return core::ReadEnv(core::kRacePortfolioEnv, ParsePortfolio)
      .value_or("");
}

/// The contender list of one race: the pinned list when options/env give
/// one, otherwise the bandit prior's top three over the serial engines
/// (cheap enough that racing three never dwarfs one full solo run).
std::vector<std::string> ResolvePortfolio(const Instance& instance,
                                          const EngineOptions& options) {
  const std::string csv =
      options.portfolio.empty() ? EnvRacePortfolio() : options.portfolio;
  if (!csv.empty()) {
    std::vector<std::string> names = SplitNames(csv);
    if (names.empty()) {
      throw std::invalid_argument("race: empty portfolio '" + csv + "'");
    }
    return names;
  }
  std::vector<std::string> ranked = portfolio::BanditPrior::Global().Rank(
      portfolio::ComputeFeatures(instance), {"sa", "ta", "dpso", "es"});
  ranked.resize(std::min<std::size_t>(3, ranked.size()));
  return ranked;
}

std::unique_ptr<meta::Engine> MakeRace(const Instance& instance,
                                       const EngineOptions& options) {
  const std::vector<std::string> names =
      ResolvePortfolio(instance, options);
  portfolio::RaceParams params;
  params.slice = options.race_slice != 0 ? options.race_slice
                                         : EnvRaceSlice();
  if (params.slice == 0) params.slice = kDefaultRaceSlice;
  params.features = portfolio::ComputeFeatures(instance);
  std::vector<portfolio::RaceContender> contenders;
  contenders.reserve(names.size());
  for (const std::string& name : names) {
    if (name == "race") {
      throw std::invalid_argument("race: a race cannot race itself");
    }
    EngineOptions contender_options = options;
    // Contenders run interleaved, so the single request-scoped pool
    // cannot be lent to all of them; each allocates privately.
    contender_options.pool = nullptr;
    contenders.push_back(portfolio::RaceContender{
        name, MakeEngineByName(name, instance, contender_options)});
  }
  return portfolio::MakeRaceEngine(std::move(contenders),
                                   std::move(params));
}

/// The single name -> resumable-engine dispatch both the registry's
/// factories and the race's contender construction go through, so a
/// contender inside a race is configured exactly like a solo run.
std::unique_ptr<meta::Engine> MakeEngineByName(std::string_view name,
                                               const Instance& instance,
                                               const EngineOptions& options) {
  RequireEngineSupports(name, instance);
  if (name == "sa") {
    meta::SaParams params;
    params.budget = Budget(options);
    return meta::MakeSaEngine(
        meta::SequenceObjective::ForInstance(instance), params);
  }
  if (name == "dpso") {
    meta::DpsoParams params;
    params.budget = Budget(options);
    params.pool = options.pool;
    return meta::MakeDpsoEngine(
        meta::SequenceObjective::ForInstance(instance), params);
  }
  if (name == "ta") {
    meta::TaParams params;
    params.budget = Budget(options);
    return meta::MakeTaEngine(
        meta::SequenceObjective::ForInstance(instance), params);
  }
  if (name == "es") {
    meta::EsParams params;
    params.budget = Budget(options);
    params.pool = options.pool;
    return meta::MakeEsEngine(
        meta::SequenceObjective::ForInstance(instance), params);
  }
  if (name == "host") {
    meta::HostEnsembleParams params;
    params.chains = options.chains;
    params.threads = options.threads;
    // The ensemble reports no trajectory, so its chains sample none.
    params.chain.budget = {.iterations = options.generations,
                           .seed = options.seed,
                           .stop = options.stop};
    return meta::MakeHostEnsembleEngine(
        meta::SequenceObjective::ForInstance(instance), params);
  }
  if (name == "bnb") {
    // Exact tier: runs to an optimality proof (or the request deadline),
    // so options.generations is deliberately ignored — a heuristic
    // iteration budget has no meaning for a certified solve.  The
    // defaulted worker count pins to 1, not the hardware: cost and
    // sequence are worker-invariant but the node count (reported as
    // `evaluations`) is not, and manifest replay compares it
    // bit-for-bit.  Parallel subtree search is opt-in via `threads`.
    exact::BnbParams params;
    params.workers = options.threads == 0 ? 1 : options.threads;
    params.seed = options.seed;
    params.stop = options.stop;
    return exact::MakeBnbEngine(instance, params);
  }
  if (name == "psa") {
    return WithDeviceEngine(options, [&](sim::Device& device) {
      par::ParallelSaParams params;
      params.config = par::LaunchConfig::ForEnsemble(options.ensemble,
                                                     options.block);
      params.budget = Budget(options);
      params.vshape_init = options.vshape_init;
      return par::MakeParallelSaEngine(device, instance, params);
    });
  }
  if (name == "pdpso") {
    return WithDeviceEngine(options, [&](sim::Device& device) {
      par::ParallelDpsoParams params;
      params.config = par::LaunchConfig::ForEnsemble(options.ensemble,
                                                     options.block);
      params.budget = Budget(options);
      params.vshape_init = options.vshape_init;
      return par::MakeParallelDpsoEngine(device, instance, params);
    });
  }
  if (name == "psa-sync") {
    return WithDeviceEngine(options, [&](sim::Device& device) {
      par::ParallelSaSyncParams params;
      params.config = par::LaunchConfig::ForEnsemble(options.ensemble,
                                                     options.block);
      // The generation budget counts single SA steps; the synchronous
      // variant spends them M (=chain_length) at a time per level.  Its
      // registry runs report no trajectory, as they always have.
      params.budget = {.iterations = std::max<std::uint64_t>(
                           1, options.generations / params.chain_length),
                       .seed = options.seed,
                       .stop = options.stop};
      return par::MakeParallelSaSyncEngine(device, instance, params);
    });
  }
  if (name == "race") return MakeRace(instance, options);
  throw std::invalid_argument("unknown engine '" + std::string(name) + "'");
}

EngineRegistry MakeDefault() {
  EngineRegistry registry;
  for (const char* name : {"sa", "dpso", "ta", "es", "host", "bnb", "psa",
                           "pdpso", "psa-sync", "race"}) {
    registry.RegisterFactory(
        name, [name](const Instance& instance, const EngineOptions& options) {
          return MakeEngineByName(name, instance, options);
        });
  }
  return registry;
}

}  // namespace

bool EngineSupportsInstance(std::string_view name,
                            const Instance& instance) {
  if (instance.machines() <= 1 &&
      instance.objective() == ScheduleObjective::kTotalPenalty) {
    return true;
  }
  return name == "sa" || name == "ta";
}

std::string EngineSupportDiagnostic(std::string_view name,
                                    const Instance& instance) {
  if (EngineSupportsInstance(name, instance)) return {};
  const std::string variant =
      instance.objective() == ScheduleObjective::kEarlyWork
          ? std::string("the early-work objective")
          : "parallel machines (m=" + std::to_string(instance.machines()) +
                ")";
  return "engine '" + std::string(name) + "' does not support " + variant +
         "; supported engines: sa, ta";
}

void RequireEngineSupports(std::string_view name, const Instance& instance) {
  if (std::string diagnostic = EngineSupportDiagnostic(name, instance);
      !diagnostic.empty()) {
    throw std::invalid_argument(diagnostic);
  }
}

bool RacePortfolioPinned(const EngineOptions& options) {
  return !options.portfolio.empty() || !EnvRacePortfolio().empty();
}

void MaterializeRaceOptions(EngineOptions& options) {
  if (options.portfolio.empty()) options.portfolio = EnvRacePortfolio();
  if (options.race_slice == 0) options.race_slice = EnvRaceSlice();
}

void ResolveEnvironment() {
  core::ActiveEvalBackend();
  core::ActivePoolBackend();
  sim::exec::ActiveExecBackend();
  sim::exec::ActiveExecWorkers();
}

std::size_t PoolCapacityHint(std::string_view name) {
  // Population engines stage a full generation per EvaluateBatch call.
  if (name == "dpso") return meta::DpsoParams{}.swarm;
  if (name == "es") {
    const meta::EsParams defaults;
    return std::max<std::size_t>(std::max(defaults.mu, defaults.lambda), 1);
  }
  // "sa", "ta" and the chains of "host" score their one row in place,
  // "bnb" works on flat side arrays of its own, the device engines keep
  // their generations in device buffers, and "race" interleaves
  // contenders that cannot share one lent pool.
  return 0;
}

void EngineRegistry::RegisterFactory(std::string name,
                                     EngineFactory factory) {
  factories_[std::move(name)] = std::move(factory);
}

const EngineFactory* EngineRegistry::FindFactory(
    std::string_view name) const {
  const auto it = factories_.find(name);
  return it == factories_.end() ? nullptr : &it->second;
}

std::vector<std::string> EngineRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;  // std::map iterates sorted
}

const EngineRegistry& EngineRegistry::Default() {
  static const EngineRegistry registry = MakeDefault();
  return registry;
}

}  // namespace cdd::serve
