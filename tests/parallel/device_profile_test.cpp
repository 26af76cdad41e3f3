/// Pins the modeled device profile of the paper's three device engines.
///
/// The golden manifests pin answers (best cost, evaluations, trajectory)
/// but not modeled time.  These tests pin, for psa, psa-sync and pdpso on
/// one fixed instance, and for psa with the tree reduction ablation, every
/// kernel's launch count, work units and exact modeled seconds, plus the
/// H2D/D2H byte totals and the device clock, so a change that speeds up
/// the simulator's host side cannot silently move a simulated statistic.
/// Serial and host-parallel block execution must both reproduce the
/// values exactly.  Only a deliberate change to the timing model or to a
/// kernel's charges re-pins them, from the table a mismatch prints.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/test_instances.hpp"
#include "cudasim/device.hpp"
#include "parallel/parallel_dpso.hpp"
#include "parallel/parallel_sa.hpp"
#include "parallel/parallel_sa_sync.hpp"

namespace cdd::par {
namespace {

struct KernelPin {
  const char* name;
  std::uint64_t launches;
  std::uint64_t work_units;
  double sim_time_s;
};

struct ProfilePin {
  std::vector<KernelPin> kernels;
  std::uint64_t h2d_bytes;
  std::uint64_t d2h_bytes;
  double device_s;
};

/// The device's profile in the ProfilePin initializer syntax (printed on
/// a mismatch, so a deliberate model change can re-pin by copy-paste).
std::string Dump(const sim::Device& gpu) {
  std::string out = "{{\n";
  char line[256];
  for (const auto& [name, r] : gpu.profiler().kernels()) {
    std::snprintf(line, sizeof line, "  {\"%s\", %llu, %llu, %.17g},\n",
                  name.c_str(), static_cast<unsigned long long>(r.launches),
                  static_cast<unsigned long long>(r.work_units),
                  r.sim_time_s);
    out += line;
  }
  std::snprintf(line, sizeof line, "}, %llu, %llu, %.17g}\n",
                static_cast<unsigned long long>(gpu.profiler().h2d().bytes),
                static_cast<unsigned long long>(gpu.profiler().d2h().bytes),
                gpu.sim_time_s());
  out += line;
  return out;
}

void ExpectProfile(const sim::Device& gpu, const ProfilePin& pin) {
  const auto& kernels = gpu.profiler().kernels();
  EXPECT_EQ(kernels.size(), pin.kernels.size());
  for (const KernelPin& k : pin.kernels) {
    const sim::KernelRecord* r = gpu.profiler().Find(k.name);
    ASSERT_NE(r, nullptr) << k.name;
    EXPECT_EQ(r->launches, k.launches) << k.name;
    EXPECT_EQ(r->work_units, k.work_units) << k.name;
    EXPECT_EQ(r->sim_time_s, k.sim_time_s) << k.name;
  }
  EXPECT_EQ(gpu.profiler().h2d().bytes, pin.h2d_bytes);
  EXPECT_EQ(gpu.profiler().d2h().bytes, pin.d2h_bytes);
  EXPECT_EQ(gpu.sim_time_s(), pin.device_s);
  if (::testing::Test::HasFailure()) {
    ADD_FAILURE() << "actual profile:\n" << Dump(gpu);
  }
}

const Instance& PinInstance() {
  static const Instance instance = cdd::testing::RandomCdd(20, 0.4, 1701);
  return instance;
}

/// The parameter is the block-execution worker cap: 1 runs blocks
/// serially, 2 fans them out over the host pool.
class DeviceProfilePin : public ::testing::TestWithParam<unsigned> {
 protected:
  DeviceProfilePin() { gpu_.set_worker_threads(GetParam()); }
  sim::Device gpu_;
};

TEST_P(DeviceProfilePin, Psa) {
  ParallelSaParams p;
  p.budget.iterations = 30;
  p.budget.seed = 5;
  p.temp_samples = 200;
  RunParallelSa(gpu_, PinInstance(), p);
  ExpectProfile(gpu_,
                {{
                     {"sa_acceptance", 30, 495340, 0.00066930806451612884},
                     {"sa_fitness", 31, 1023744, 0.0012282800000000011},
                     {"sa_perturbation", 30, 576000, 0.00075387096774193543},
                     {"sa_reduction", 30, 48990, 0.00074783225806451597},
                     {"sa_seed_best", 1, 768, 5.8051612903225814e-06},
                 },
                 123532, 88, 0.0036756997849462384});
}

TEST_P(DeviceProfilePin, PsaTreeReduction) {
  // The tree reduction ablation on a non-power-of-two block, so the
  // guarded fold rounds (and their charges) are pinned as well.
  ParallelSaParams p;
  p.config = LaunchConfig::ForEnsemble(48, 24);
  p.budget.iterations = 30;
  p.budget.seed = 5;
  p.temp_samples = 200;
  p.reduction = detail::ReductionKind::kTree;
  RunParallelSa(gpu_, PinInstance(), p);
  ExpectProfile(gpu_,
                {{
                     {"sa_acceptance", 30, 32260, 0.00041570322580645146},
                     {"sa_fitness", 31, 63984, 0.0004233200000000003},
                     {"sa_perturbation", 30, 36000, 0.00030096774193548394},
                     {"sa_reduction", 30, 7320, 0.00019227096774193552},
                     {"sa_seed_best", 1, 48, 5.2012903225806452e-06},
                 },
                 8332, 88, 0.0015888665591397863});
}

TEST_P(DeviceProfilePin, PsaSync) {
  ParallelSaSyncParams p;
  p.budget.iterations = 3;
  p.budget.seed = 5;
  p.chain_length = 5;
  p.temp_samples = 200;
  p.record_diversity = true;
  RunParallelSaSync(gpu_, PinInstance(), p);
  ExpectProfile(gpu_,
                {{
                     {"sync_acceptance", 15, 223300, 0.00030910483870967738},
                     {"sync_broadcast", 3, 46080, 6.3309677419354837e-05},
                     {"sync_diversity", 3, 46080, 6.3309677419354837e-05},
                     {"sync_fitness", 16, 528384, 0.00063395096774193573},
                     {"sync_perturbation", 15, 299520,
                      0.00038901290322580659},
                     {"sync_reduction", 3, 4899, 7.4783225806451613e-05},
                     {"sync_select", 3, 60, 2.7077419354838708e-05},
                 },
                 62092, 288, 0.0018209453763440868});
}

TEST_P(DeviceProfilePin, Pdpso) {
  ParallelDpsoParams p;
  p.budget.iterations = 30;
  p.budget.seed = 5;
  RunParallelDpso(gpu_, PinInstance(), p);
  ExpectProfile(gpu_,
                {{
                     {"dpso_fitness", 31, 1023744, 0.0012282800000000011},
                     {"dpso_gbest_publish", 31, 620, 0.00027980000000000019},
                     {"dpso_pbest_update", 31, 166488,
                      0.00036000161290322582},
                     {"dpso_reduction", 31, 50623, 0.00077275999999999983},
                     {"dpso_update", 30, 2341316, 0.0026046054838709679},
                 },
                 123532, 88, 0.0055210504301075256});
}

INSTANTIATE_TEST_SUITE_P(Workers, DeviceProfilePin,
                         ::testing::Values(1u, 2u));

}  // namespace
}  // namespace cdd::par
