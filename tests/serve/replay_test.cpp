/// Record/replay: a recorded solve must replay bit-identically for every
/// deterministic engine, a tampered manifest must fail loudly, and the
/// SolverService must produce replayable manifests end-to-end.

#include "serve/replay.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/test_instances.hpp"
#include "orlib/biskup_feldmann.hpp"
#include "serve/service.hpp"
#include "trace/manifest.hpp"

namespace cdd::serve {
namespace {

/// Runs \p engine once through the registry and returns its manifest.
trace::ManifestRecord RecordOneRun(const std::string& engine,
                                   const EngineOptions& options,
                                   const Instance& instance) {
  const EngineFactory* factory = EngineRegistry::Default().FindFactory(engine);
  EXPECT_NE(factory, nullptr) << engine;
  const meta::EngineOutput run =
      meta::RunToCompletion(*(*factory)(instance, options));
  EXPECT_FALSE(run.result.stopped);
  return MakeManifestRecord(instance, engine, options, run.result);
}

EngineOptions SmallOptions() {
  EngineOptions options;
  options.generations = 200;
  options.seed = 11;
  options.ensemble = 96;
  options.block = 32;
  options.trajectory_stride = 10;
  return options;
}

TEST(Replay, SaRecordReplaysBitIdentically) {
  const Instance instance = cdd::testing::RandomCdd(15, 0.6, 1);
  const trace::ManifestRecord record =
      RecordOneRun("sa", SmallOptions(), instance);
  EXPECT_GT(record.trajectory_samples, 0u);
  EXPECT_NE(record.trajectory_digest, 0u);

  const ReplayOutcome outcome = ReplayRecord(record);
  EXPECT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.replayed_cost, record.best_cost);
  EXPECT_EQ(outcome.replayed_evaluations, record.evaluations);
}

TEST(Replay, DpsoRecordReplaysBitIdentically) {
  const Instance instance = cdd::testing::RandomCdd(15, 0.6, 2);
  const trace::ManifestRecord record =
      RecordOneRun("dpso", SmallOptions(), instance);
  const ReplayOutcome outcome = ReplayRecord(record);
  EXPECT_TRUE(outcome.ok) << outcome.error;
}

TEST(Replay, SurvivesManifestSerialization) {
  // The full loop the tooling uses: record -> JSONL -> parse -> replay.
  const Instance instance = cdd::testing::RandomCdd(12, 0.6, 3);
  const trace::ManifestRecord record =
      RecordOneRun("sa", SmallOptions(), instance);
  const trace::ManifestRecord parsed =
      trace::ParseManifestLine(trace::WriteManifestLine(record));
  const ReplayOutcome outcome = ReplayRecord(parsed);
  EXPECT_TRUE(outcome.ok) << outcome.error;
}

TEST(Replay, DetectsTamperedBestCost) {
  const Instance instance = cdd::testing::RandomCdd(12, 0.6, 4);
  trace::ManifestRecord record =
      RecordOneRun("sa", SmallOptions(), instance);
  record.best_cost += 1;
  const ReplayOutcome outcome = ReplayRecord(record);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("best_cost"), std::string::npos)
      << outcome.error;
}

TEST(Replay, DetectsTamperedInstance) {
  const Instance instance = cdd::testing::RandomCdd(12, 0.6, 5);
  trace::ManifestRecord record =
      RecordOneRun("sa", SmallOptions(), instance);
  record.instance = Instance(record.instance.problem(),
                             record.instance.due_date() + 5,
                             record.instance.jobs());
  const ReplayOutcome outcome = ReplayRecord(record);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("hash"), std::string::npos) << outcome.error;
}

TEST(Replay, RejectsUnknownEngine) {
  const Instance instance = cdd::testing::RandomCdd(12, 0.6, 6);
  trace::ManifestRecord record =
      RecordOneRun("sa", SmallOptions(), instance);
  record.engine = "does-not-exist";
  const ReplayOutcome outcome = ReplayRecord(record);
  EXPECT_FALSE(outcome.ok);
}

TEST(Replay, StreamSeparatesGoodAndBadLines) {
  const Instance instance = cdd::testing::RandomCdd(12, 0.6, 7);
  const trace::ManifestRecord good =
      RecordOneRun("sa", SmallOptions(), instance);
  trace::ManifestRecord bad = good;
  bad.best_cost += 100;

  std::stringstream in;
  in << trace::WriteManifestLine(good) << "\n"
     << "\n"  // blank lines are skipped, not failed
     << trace::WriteManifestLine(bad) << "\n"
     << "this is not json\n";
  std::ostringstream log;
  const ReplaySummary summary = ReplayStream(in, log);
  EXPECT_EQ(summary.total, 3u);
  EXPECT_EQ(summary.passed, 1u);
  EXPECT_EQ(summary.failed, 2u);
  EXPECT_FALSE(summary.all_ok());
}

TEST(Replay, EmptyStreamIsNotOk) {
  std::stringstream in("\n\n");
  std::ostringstream log;
  const ReplaySummary summary = ReplayStream(in, log);
  EXPECT_EQ(summary.total, 0u);
  EXPECT_FALSE(summary.all_ok());
}

TEST(Replay, ServiceManifestIsReplayable) {
  // End-to-end: a SolverService configured with manifest_path records its
  // completed solves, and the file it leaves behind replays clean.
  const std::string path =
      ::testing::TempDir() + "/service_manifest_test.jsonl";
  std::remove(path.c_str());
  {
    ServiceConfig config;
    config.workers = 1;
    config.manifest_path = path;
    SolverService service(config);

    SolveRequest request;
    request.id = 1;
    request.instance = cdd::testing::RandomCdd(12, 0.6, 8);
    request.engine = "sa";
    request.options.generations = 100;
    request.options.seed = 9;
    const SolveResponse response = service.Submit(std::move(request)).get();
    ASSERT_EQ(response.status, SolveStatus::kOk);

    // A cache hit repeats the answer without re-solving — it must NOT
    // append a second manifest line (replay would just repeat work).
    SolveRequest again;
    again.id = 2;
    again.instance = cdd::testing::RandomCdd(12, 0.6, 8);
    again.engine = "sa";
    again.options.generations = 100;
    again.options.seed = 9;
    ASSERT_EQ(service.Submit(std::move(again)).get().status,
              SolveStatus::kCacheHit);
  }  // service drains and the stream flushes on destruction

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::ostringstream log;
  const ReplaySummary summary = ReplayStream(in, log);
  EXPECT_EQ(summary.total, 1u) << log.str();
  EXPECT_TRUE(summary.all_ok()) << log.str();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cdd::serve
