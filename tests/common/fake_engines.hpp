#pragma once
/// \file fake_engines.hpp
/// \brief Deterministic stand-in engines for the serve-layer tests.  Each
/// is a meta::Engine registered through EngineRegistry::RegisterFactory,
/// so the service drives it exactly like a built-in engine; Step(0) is a
/// no-op status query, as the lifecycle contract requires.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>

#include "core/sequence.hpp"
#include "core/stop_token.hpp"
#include "meta/engine.hpp"
#include "serve/engine_registry.hpp"

namespace cdd::testing {

/// Each Step unit burns ~1ms of wall time, so a solve is "long" in a way
/// a test can reason about.  The started flag lets the test wait until
/// the engine is actually on a worker.
class PacedEngine final : public meta::Engine {
 public:
  PacedEngine(std::uint64_t budget, std::atomic<bool>* started)
      : budget_(budget), started_(started) {}

  meta::StepStatus Step(std::uint64_t units) override {
    if (started_ != nullptr && units > 0) started_->store(true);
    while (units > 0 && consumed_ < budget_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++consumed_;
      --units;
    }
    return consumed_ < budget_ ? meta::StepStatus::kRunning
                               : meta::StepStatus::kDone;
  }

  std::uint64_t Remaining() const override { return budget_ - consumed_; }
  Cost BestCost() const override { return 0; }

  meta::EngineOutput Finish() override {
    meta::EngineOutput out;
    out.result.best_cost = 0;
    out.result.evaluations = consumed_;
    return out;
  }

 private:
  std::uint64_t budget_;
  std::uint64_t consumed_ = 0;
  std::atomic<bool>* started_;
};

/// Parks a GateEngine until Release(): with one worker busy on it, every
/// subsequent submit is observed *queued*, which makes join, shed and
/// re-election decisions deterministic.  Reset() re-arms the gate for a
/// second parked solve.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  std::atomic<unsigned> entered{0};

  void Release() {
    {
      const std::scoped_lock lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
  void Reset() {
    const std::scoped_lock lock(mutex);
    open = false;
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return open; });
  }
};

/// One Step that blocks on \p gate, then a trivial complete run: the
/// identity sequence at cost 0 after one evaluation.
class GateEngine final : public meta::Engine {
 public:
  GateEngine(Gate* gate, std::size_t n) : gate_(gate), n_(n) {}

  meta::StepStatus Step(std::uint64_t units) override {
    if (units > 0 && !done_) {
      gate_->entered.fetch_add(1);
      gate_->Wait();
      done_ = true;
    }
    return done_ ? meta::StepStatus::kDone : meta::StepStatus::kRunning;
  }

  std::uint64_t Remaining() const override { return done_ ? 0 : 1; }
  Cost BestCost() const override { return 0; }

  meta::EngineOutput Finish() override {
    meta::EngineOutput out;
    out.result.best = IdentitySequence(n_);
    out.result.best_cost = 0;
    out.result.evaluations = 1;
    return out;
  }

 private:
  Gate* gate_;
  std::size_t n_;
  bool done_ = false;
};

/// The default registry plus a "block" engine that parks on \p gate.
inline serve::EngineRegistry BlockingRegistry(Gate* gate) {
  serve::EngineRegistry registry = serve::EngineRegistry::Default();
  registry.RegisterFactory(
      "block", [gate](const Instance& instance, const serve::EngineOptions&) {
        return std::make_unique<GateEngine>(gate, instance.size());
      });
  return registry;
}

/// One Step that polls \p stop (and, when given, \p release) every
/// millisecond: it ends kStopped once the token fires, kDone once the
/// release flag is set.  \p started, when given, counts Steps entered.
class StopPollingEngine final : public meta::Engine {
 public:
  explicit StopPollingEngine(StopToken stop,
                             const std::atomic<bool>* release = nullptr,
                             std::atomic<int>* started = nullptr)
      : stop_(stop), release_(release), started_(started) {}

  meta::StepStatus Step(std::uint64_t units) override {
    if (units == 0 || status_ != meta::StepStatus::kRunning) return status_;
    if (started_ != nullptr) started_->fetch_add(1);
    while (!stop_.stop_requested() &&
           (release_ == nullptr || !release_->load())) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    status_ = stop_.stop_requested() ? meta::StepStatus::kStopped
                                     : meta::StepStatus::kDone;
    return status_;
  }

  std::uint64_t Remaining() const override {
    return status_ == meta::StepStatus::kRunning ? 1 : 0;
  }
  Cost BestCost() const override { return 0; }

  meta::EngineOutput Finish() override {
    meta::EngineOutput out;
    out.result.best = {0};
    out.result.stopped = status_ == meta::StepStatus::kStopped;
    return out;
  }

 private:
  StopToken stop_;
  const std::atomic<bool>* release_;
  std::atomic<int>* started_;
  meta::StepStatus status_ = meta::StepStatus::kRunning;
};

}  // namespace cdd::testing
