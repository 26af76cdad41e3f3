/// Direct tests of the raw O(n) evaluators: degenerate and adversarial
/// inputs that the Instance-level wrappers normally filter out, plus
/// white-box checks of the shifting logic.

#include "core/eval_raw.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/test_instances.hpp"
#include "core/reference_eval.hpp"
#include "core/sequence.hpp"
#include "rng/philox.hpp"

namespace cdd::raw {
namespace {

TEST(EvalCddRaw, SingleJobVariants) {
  const JobId seq[] = {0};
  const Time proc[] = {5};
  const Cost alpha[] = {3};
  const Cost beta[] = {7};
  // d far right: finish exactly at d (offset d - 5).
  EvalResult r = EvalCdd(1, 100, seq, proc, alpha, beta);
  EXPECT_EQ(r.cost, 0);
  EXPECT_EQ(r.offset, 95);
  EXPECT_EQ(r.pinned, 0);
  // d = 0: job unavoidably tardy by its full length.
  r = EvalCdd(1, 0, seq, proc, alpha, beta);
  EXPECT_EQ(r.cost, 7 * 5);
  EXPECT_EQ(r.offset, 0);
  EXPECT_EQ(r.pinned, -1);
  // d inside the job: start at 0 is optimal iff beta*(5-d) <= alpha*... —
  // enumerate: offset 0 -> C=5, tardy 5-3=2 -> 14; offset d-5<0 invalid.
  r = EvalCdd(1, 3, seq, proc, alpha, beta);
  EXPECT_EQ(r.cost, 14);
}

TEST(EvalCddRaw, EqualPenaltyMassStopsAtFirstBreakpoint) {
  // pl == pe at the breakpoint: the derivative is zero, both positions
  // are optimal, and the algorithm must not keep shifting forever.
  const JobId seq[] = {0, 1};
  const Time proc[] = {2, 2};
  const Cost alpha[] = {5, 5};
  const Cost beta[] = {5, 5};
  const EvalResult r = EvalCdd(2, 10, seq, proc, alpha, beta);
  const Cost oracle = ReferenceCddCost(
      Instance(Problem::kCdd, 10, {2, 2}, {5, 5}, {5, 5}),
      Sequence{0, 1});
  EXPECT_EQ(r.cost, oracle);
}

TEST(EvalCddRaw, HugeValuesStayExact) {
  // Large but representable data: no overflow in the int64 cost math.
  const JobId seq[] = {0, 1};
  const Time proc[] = {1 << 20, 1 << 20};
  const Cost alpha[] = {1 << 20, 1};
  const Cost beta[] = {1, 1 << 20};
  const EvalResult r =
      EvalCdd(2, Time{1} << 21, seq, proc, alpha, beta);
  EXPECT_GE(r.cost, 0);
  EXPECT_LT(r.cost, Cost{1} << 62);
}

TEST(EvalUcddcpRaw, XOutReportsDecisionsPerJobId) {
  const Instance instance = cdd::testing::PaperExampleUcddcp();
  const Sequence seq = IdentitySequence(5);
  std::vector<Time> proc, minp;
  std::vector<Cost> a, b, g;
  for (const Job& j : instance.jobs()) {
    proc.push_back(j.proc);
    minp.push_back(j.min_proc);
    a.push_back(j.early);
    b.push_back(j.tardy);
    g.push_back(j.compress);
  }
  Time x[5] = {9, 9, 9, 9, 9};
  const EvalResult r =
      EvalUcddcp(5, 22, seq.data(), proc.data(), minp.data(), a.data(),
                 b.data(), g.data(), x);
  EXPECT_EQ(r.cost, 77);
  // Paper Figures 5/6: jobs 4 and 5 (ids 3, 4) compressed by one unit.
  EXPECT_EQ(x[0], 0);
  EXPECT_EQ(x[1], 0);
  EXPECT_EQ(x[2], 0);
  EXPECT_EQ(x[3], 1);
  EXPECT_EQ(x[4], 1);
}

TEST(EvalUcddcpRaw, AllAlphaZeroDegenerateCase) {
  // No pinned job possible (stop at s = 0, everything early, zero cost);
  // compression must not fire.
  const JobId seq[] = {0, 1};
  const Time proc[] = {4, 4};
  const Time minp[] = {1, 1};
  const Cost alpha[] = {0, 0};
  const Cost beta[] = {3, 3};
  const Cost gamma[] = {1, 1};
  Time x[2] = {5, 5};
  const EvalResult r =
      EvalUcddcp(2, 20, seq, proc, minp, alpha, beta, gamma, x);
  EXPECT_EQ(r.cost, 0);
  EXPECT_EQ(x[0], 0);
  EXPECT_EQ(x[1], 0);
}

TEST(EvalUcddcpRaw, TieOnCompressionPenaltyPrefersNoCompression) {
  // suffix-beta == gamma: indifferent; the algorithm keeps X = 0
  // (Property 2 compresses only on strict improvement).
  const JobId seq[] = {0, 1};
  const Time proc[] = {4, 4};
  const Time minp[] = {2, 2};
  const Cost alpha[] = {1, 1};
  const Cost beta[] = {3, 3};
  const Cost gamma[] = {3, 3};  // equals the last job's beta
  Time x[2] = {9, 9};
  const EvalResult r =
      EvalUcddcp(2, 8, seq, proc, minp, alpha, beta, gamma, x);
  EXPECT_EQ(x[1], 0);  // the tie case
  const Cost oracle = ReferenceUcddcpCost(
      Instance(Problem::kUcddcp, 8, {4, 4}, {1, 1}, {3, 3}, {2, 2},
               {3, 3}),
      Sequence{0, 1});
  EXPECT_EQ(r.cost, oracle);
}

TEST(EvalRawProperty, PinnedPositionReallyCompletesAtDueDate) {
  for (std::uint64_t trial = 0; trial < 50; ++trial) {
    const std::uint32_t n = 2 + static_cast<std::uint32_t>(trial % 12);
    const Instance instance =
        cdd::testing::RandomCdd(n, 0.3 + 0.2 * (trial % 4), 3100 + trial);
    const Sequence seq = cdd::testing::RandomSeq(n, trial);
    std::vector<Time> proc;
    std::vector<Cost> a, b;
    for (const Job& j : instance.jobs()) {
      proc.push_back(j.proc);
      a.push_back(j.early);
      b.push_back(j.tardy);
    }
    const EvalResult r =
        EvalCdd(static_cast<std::int32_t>(n), instance.due_date(),
                seq.data(), proc.data(), a.data(), b.data());
    if (r.pinned >= 0) {
      Time c = r.offset;
      for (std::int32_t k = 0; k <= r.pinned; ++k) {
        c += proc[static_cast<std::size_t>(seq[k])];
      }
      EXPECT_EQ(c, instance.due_date()) << instance.Summary();
    } else {
      EXPECT_EQ(r.offset, 0);
    }
  }
}

/// Raw UCDDCP arrays for the one-pass differential test: corners the
/// Instance constructor would normally never produce are allowed here.
struct RawUcddcp {
  std::vector<Time> proc;
  std::vector<Time> minproc;
  std::vector<Cost> alpha;
  std::vector<Cost> beta;
  std::vector<Cost> gamma;
  Time d = 0;
};

enum class Corner { kNone, kAlphaZero, kBetaZero, kGammaZero, kMinIsProc };

/// Fields below \p span (a small span makes penalty-mass ties common);
/// d = sum P + \p slack (negative slack: a restricted instance).
RawUcddcp RandomRawUcddcp(std::int32_t n, Corner corner, Time slack,
                          std::uint32_t span, rng::Philox4x32& rng) {
  RawUcddcp in;
  for (std::int32_t j = 0; j < n; ++j) {
    const Time p = 1 + UniformBelow(rng, span);
    in.proc.push_back(p);
    in.minproc.push_back(corner == Corner::kMinIsProc
                             ? p
                             : 1 + UniformBelow(
                                       rng, static_cast<std::uint32_t>(p)));
    in.alpha.push_back(corner == Corner::kAlphaZero ? 0
                                                    : UniformBelow(rng, span));
    in.beta.push_back(corner == Corner::kBetaZero ? 0
                                                  : UniformBelow(rng, span));
    in.gamma.push_back(corner == Corner::kGammaZero ? 0
                                                    : UniformBelow(rng, span));
    in.d += p;
  }
  in.d = std::max<Time>(0, in.d + slack);
  return in;
}

TEST(EvalRawProperty, UcddcpOnePassMatchesTwoPassReference) {
  rng::Philox4x32 rng(20261017, /*stream=*/0x0e5aULL);
  constexpr std::int32_t kRows = 9;
  int ties = 0;
  int unpinned = 0;
  int restricted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::int32_t n = 1 + trial % 24;
    const auto corner = static_cast<Corner>(trial / 24 % 5);
    const int slack_kind = trial / 120 % 3;
    const auto draw = static_cast<Time>(UniformBelow(rng, 10));
    const Time slack = slack_kind == 0   ? 0
                       : slack_kind == 1 ? 1 + 3 * draw
                                         : -1 - draw;
    const std::uint32_t span = trial / 360 % 2 == 0 ? 3 : 16;
    const RawUcddcp in = RandomRawUcddcp(n, corner, slack, span, rng);
    Time sum_proc = 0;
    for (const Time p : in.proc) sum_proc += p;
    restricted += in.d < sum_proc ? 1 : 0;

    const std::int32_t stride = n + 3;  // padded rows, as in a pool
    std::vector<JobId> seqs(static_cast<std::size_t>(kRows * stride), -1);
    for (std::int32_t b = 0; b < kRows; ++b) {
      const Sequence row = RandomSequence(static_cast<std::size_t>(n), rng);
      std::copy(row.begin(), row.end(), seqs.begin() + b * stride);
    }
    std::vector<Cost> costs(kRows);
    std::vector<std::int32_t> pinned(kRows);
    std::vector<Time> offsets(kRows);
    EvalUcddcpBatch(n, in.d, seqs.data(), stride, kRows, in.proc.data(),
                    in.minproc.data(), in.alpha.data(), in.beta.data(),
                    in.gamma.data(), costs.data(), pinned.data(),
                    offsets.data());

    for (std::int32_t b = 0; b < kRows; ++b) {
      const JobId* seq = seqs.data() + b * stride;
      const EvalResult ref =
          EvalUcddcp(n, in.d, seq, in.proc.data(), in.minproc.data(),
                     in.alpha.data(), in.beta.data(), in.gamma.data());
      ASSERT_EQ(costs[b], ref.cost) << "trial=" << trial << " row=" << b;
      ASSERT_EQ(pinned[b], ref.pinned) << "trial=" << trial;
      ASSERT_EQ(offsets[b], ref.offset) << "trial=" << trial;
      if (ref.pinned < 0) ++unpinned;
      // The crossing walk stopped at r > 0 on equal penalty masses
      // (pl_next == pe_next): the suffix beta from r equals the alpha
      // before r.
      if (ref.pinned > 0 && in.d >= sum_proc) {
        Cost suffix_beta = 0;
        Cost prefix_alpha = 0;
        for (std::int32_t i = 0; i < n; ++i) {
          const auto j = static_cast<std::size_t>(seq[i]);
          if (i >= ref.pinned) suffix_beta += in.beta[j];
          if (i < ref.pinned) prefix_alpha += in.alpha[j];
        }
        ties += suffix_beta == prefix_alpha ? 1 : 0;
      }
    }
  }
  // The corners the sweep is meant to reach were all reached.
  EXPECT_GT(ties, 0);
  EXPECT_GT(unpinned, 0);
  EXPECT_GT(restricted, 0);
}

}  // namespace
}  // namespace cdd::raw
