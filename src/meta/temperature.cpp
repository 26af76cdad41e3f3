#include "meta/temperature.hpp"

#include <algorithm>
#include <cmath>

#include "core/candidate_pool.hpp"
#include "meta/splits.hpp"
#include "rng/philox.hpp"

namespace cdd::meta {

double InitialTemperature(const SequenceObjective& objective,
                          std::uint64_t samples, std::uint64_t seed) {
  rng::Philox4x32 rng(seed, /*stream=*/0x70DEADBEEFULL);
  Sequence seq = IdentitySequence(objective.size());
  // Sampling runs in pool-sized chunks: each chunk reshuffles `seq`
  // cumulatively (identical Philox consumption to the one-by-one loop) and
  // costs the whole chunk with one EvaluateBatch.  Welford's online update
  // then consumes the costs in their original sample order, so the
  // resulting temperature is bit-identical.  32 rows keep the chunk pool
  // (two row buffers: 256 KB at n = 1000) from being the largest block a
  // chain solve allocates; at 256 rows it set a solve's peak heap.
  constexpr std::uint64_t kChunk = 32;
  const auto machines = static_cast<std::size_t>(objective.machines());
  CandidatePool pool(objective.size(),
                     static_cast<std::size_t>(std::min(
                         std::max<std::uint64_t>(samples, 1), kChunk)),
                     machines);
  double mean = 0.0;
  double m2 = 0.0;
  std::uint64_t k = 0;
  while (k < samples) {
    pool.Clear();
    const std::uint64_t batch = std::min<std::uint64_t>(samples - k, kChunk);
    for (std::uint64_t b = 0; b < batch; ++b) {
      FisherYates(std::span<JobId>(seq), rng);
      const std::size_t row = pool.Append(seq);
      if (machines > 1) {
        // Sample the temperature over even machine assignments: the split
        // layout is deterministic, so multi-machine sampling consumes the
        // same Philox outputs as single-machine sampling.
        EvenSplits(pool.splits_row(row), objective.size());
      }
    }
    objective.EvaluateBatch(pool);
    for (std::uint64_t b = 0; b < batch; ++b) {
      ++k;
      const double value = static_cast<double>(pool.costs()[b]);
      const double delta = value - mean;
      mean += delta / static_cast<double>(k);
      m2 += delta * (value - mean);
    }
  }
  const double variance =
      samples > 1 ? m2 / static_cast<double>(samples - 1) : 0.0;
  return std::max(1.0, std::sqrt(variance));
}

}  // namespace cdd::meta
