/// \file bench_micro_rng.cpp
/// \brief RNG microbenchmarks: Philox4x32-10 (the cuRAND stand-in) vs
/// xoshiro256**, one draw at a time and in bulk (Philox4x32::Fill), plus
/// the paper's integer->[0,1] normalization and the perturbation operator.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/sequence.hpp"
#include "rng/philox.hpp"

namespace {

void BM_Philox4x32(benchmark::State& state) {
  cdd::rng::Philox4x32 rng(42, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_Philox4x32);

void BM_PhiloxFill(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  cdd::rng::Philox4x32 rng(42, 7);
  std::vector<std::uint32_t> out(count);
  for (auto _ : state) {
    rng.Fill(out.data(), count);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_PhiloxFill)->Arg(3)->Arg(64)->Arg(4096);

void BM_PhiloxUniformFloat(benchmark::State& state) {
  cdd::rng::Philox4x32 rng(42, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextUniform());
  }
}
BENCHMARK(BM_PhiloxUniformFloat);

void BM_Xoshiro256(benchmark::State& state) {
  cdd::rng::Xoshiro256 rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_Xoshiro256);

void BM_PhiloxSeek(benchmark::State& state) {
  cdd::rng::Philox4x32 rng(42, 7);
  std::uint64_t pos = 0;
  for (auto _ : state) {
    rng.Seek(pos += 997);
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_PhiloxSeek);

void BM_PartialFisherYates(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  cdd::rng::Philox4x32 rng(1, 2);
  cdd::Sequence seq = cdd::IdentitySequence(n);
  std::vector<std::uint32_t> positions(4);
  std::vector<cdd::JobId> values(4);
  for (auto _ : state) {
    cdd::PartialFisherYates(std::span<cdd::JobId>(seq), 4, rng,
                            std::span<std::uint32_t>(positions),
                            std::span<cdd::JobId>(values));
    benchmark::DoNotOptimize(seq.data());
  }
}
BENCHMARK(BM_PartialFisherYates)->Arg(50)->Arg(1000);

void BM_FullFisherYates(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  cdd::rng::Philox4x32 rng(1, 2);
  cdd::Sequence seq = cdd::IdentitySequence(n);
  for (auto _ : state) {
    cdd::FisherYates(std::span<cdd::JobId>(seq), rng);
    benchmark::DoNotOptimize(seq.data());
  }
}
BENCHMARK(BM_FullFisherYates)->Arg(50)->Arg(500)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
