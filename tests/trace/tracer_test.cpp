/// The process-wide tracer: runtime gating, cross-thread export ordering,
/// drop accounting, and the subsystem's defining invariant — a traced
/// engine run is bit-identical to an untraced one (tracing never consumes
/// randomness).
///
/// Tests share one global registry; each starts from ResetForTest() and
/// leaves tracing disabled.

#include "trace/tracer.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "meta/objective.hpp"
#include "meta/sa.hpp"
#include "orlib/biskup_feldmann.hpp"
#include "trace/json.hpp"

namespace cdd::trace {
namespace {

#if !CDD_TRACING

// Compiled out: the macros must still be valid statements, and nothing
// may ever be recorded.
TEST(TracerCompiledOut, MacrosAreInertNoOps) {
  SetEnabled(true);  // a no-op in this configuration
  EXPECT_FALSE(Enabled());
  CDD_TRACE_SPAN("gone");
  CDD_TRACE_INSTANT("gone");
  CDD_TRACE_COUNTER("gone", 1);
  CDD_TRACE_COMPLETE("gone", 0, 1, 0);
  EXPECT_EQ(EventCount(), 0u);
}

#else

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ResetForTest();
    SetEnabled(true);
  }
  void TearDown() override {
    SetEnabled(false);
    ResetForTest();
  }
};

JsonValue ExportAndParse() {
  std::ostringstream out;
  ExportChromeTrace(out);
  return JsonValue::Parse(out.str());
}

/// Exported events minus "M" metadata records (track labels persist in
/// the process-wide registry across ResetForTest, so earlier tests may
/// contribute metadata lines to later exports).
std::vector<JsonValue> DataEvents(const JsonValue& doc) {
  std::vector<JsonValue> events;
  for (const JsonValue& event : doc.At("traceEvents").AsArray()) {
    if (event.At("ph").AsString() != "M") events.push_back(event);
  }
  return events;
}

TEST_F(TracerTest, DisabledRecordsNothing) {
  SetEnabled(false);
  CDD_TRACE_INSTANT("ignored");
  CDD_TRACE_COUNTER("ignored", 42);
  { CDD_TRACE_SPAN("ignored"); }
  EXPECT_EQ(EventCount(), 0u);
}

TEST_F(TracerTest, SpanEmitsBalancedBeginEnd) {
  {
    CDD_TRACE_SPAN("outer");
    CDD_TRACE_SPAN("inner");
    CDD_TRACE_INSTANT("tick");
  }
  const JsonValue doc = ExportAndParse();
  const std::vector<JsonValue> events = DataEvents(doc);
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].At("name").AsString(), "outer");
  EXPECT_EQ(events[0].At("ph").AsString(), "B");
  EXPECT_EQ(events[1].At("name").AsString(), "inner");
  EXPECT_EQ(events[1].At("ph").AsString(), "B");
  EXPECT_EQ(events[2].At("ph").AsString(), "i");
  // Destruction order: inner closes before outer.
  EXPECT_EQ(events[3].At("name").AsString(), "inner");
  EXPECT_EQ(events[3].At("ph").AsString(), "E");
  EXPECT_EQ(events[4].At("name").AsString(), "outer");
  EXPECT_EQ(events[4].At("ph").AsString(), "E");
}

TEST_F(TracerTest, CounterAndCompleteCarryValues) {
  CDD_TRACE_COUNTER("cost", 1234);
  const std::uint32_t track = NewTrack("gpu");
  Complete("kernel", /*ts_ns=*/5000, /*dur_ns=*/2500, track);
  const JsonValue doc = ExportAndParse();

  // A metadata record labels the virtual track...
  bool labeled = false;
  for (const JsonValue& event : doc.At("traceEvents").AsArray()) {
    if (event.At("ph").AsString() == "M" &&
        event.At("tid").AsInt() == static_cast<std::int64_t>(track)) {
      EXPECT_EQ(event.At("args").At("name").AsString(), "gpu");
      labeled = true;
    }
  }
  EXPECT_TRUE(labeled);

  // ...and both events carry their payloads.  (No ordering assertion:
  // the complete event's modeled ts=5 us may fall on either side of the
  // wall-clock counter stamp depending on process age.)
  const std::vector<JsonValue> events = DataEvents(doc);
  ASSERT_EQ(events.size(), 2u);
  const JsonValue& complete =
      events[0].At("ph").AsString() == "X" ? events[0] : events[1];
  const JsonValue& counter =
      events[0].At("ph").AsString() == "X" ? events[1] : events[0];
  EXPECT_EQ(complete.At("ph").AsString(), "X");
  EXPECT_DOUBLE_EQ(complete.At("ts").AsDouble(), 5.0);   // us
  EXPECT_DOUBLE_EQ(complete.At("dur").AsDouble(), 2.5);  // us
  EXPECT_EQ(counter.At("ph").AsString(), "C");
  EXPECT_EQ(counter.At("args").At("value").AsInt(), 1234);
}

TEST_F(TracerTest, CrossThreadExportIsTimestampOrdered) {
  // Several producer threads, each recording an increasing sequence.
  // After they quiesce, the export must interleave all threads into one
  // globally non-decreasing timeline without losing an event.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) CDD_TRACE_INSTANT("tick");
    });
  }
  for (std::thread& t : threads) t.join();

  const JsonValue doc = ExportAndParse();
  const std::vector<JsonValue> events = DataEvents(doc);
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  double last_ts = -1.0;
  for (const JsonValue& event : events) {
    const double ts = event.At("ts").AsDouble();
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
  }
  // Per-thread subsequences must stay in recording order even under ties
  // (stable sort): within one tid, timestamps are non-decreasing.
  std::map<std::int64_t, double> last_by_tid;
  for (const JsonValue& event : events) {
    const std::int64_t tid = event.At("tid").AsInt();
    const double ts = event.At("ts").AsDouble();
    const auto it = last_by_tid.find(tid);
    if (it != last_by_tid.end()) {
      EXPECT_GE(ts, it->second);
    }
    last_by_tid[tid] = ts;
  }
  EXPECT_EQ(last_by_tid.size(), static_cast<std::size_t>(kThreads));
}

TEST_F(TracerTest, OverflowSurfacesDropCountInExport) {
  // A dedicated thread gets a tiny ring, overflows it, and the export
  // reports exactly how many events were lost — drop-not-block, but
  // never silently.
  SetRingCapacity(16);
  std::thread producer([] {
    for (int i = 0; i < 100; ++i) CDD_TRACE_INSTANT("flood");
  });
  producer.join();
  SetRingCapacity(8192);  // restore the default for later tests

  EXPECT_EQ(DroppedTotal(), 100u - 16u);
  const JsonValue doc = ExportAndParse();
  EXPECT_EQ(doc.At("otherData").At("dropped_events").AsInt(), 100 - 16);
  EXPECT_EQ(DataEvents(doc).size(), 16u);
}

TEST_F(TracerTest, HostileNamesAreEscapedInExport) {
  CDD_TRACE_INSTANT("evil\"name\\with\ncontrol");
  std::ostringstream out;
  ExportChromeTrace(out);
  // The export must stay parseable JSON and round-trip the name.
  const JsonValue doc = JsonValue::Parse(out.str());
  const std::vector<JsonValue> events = DataEvents(doc);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].At("name").AsString(), "evil\"name\\with\ncontrol");
}

TEST_F(TracerTest, InternNameIsStableAndDeduplicated) {
  const std::string dynamic = std::string("sa_") + "fitness";
  const char* a = InternName(dynamic);
  const char* b = InternName("sa_fitness");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "sa_fitness");
}

TEST_F(TracerTest, TracingNeverPerturbsAnEngineRun) {
  // The no-RNG-consumption invariant, proven on a live SA chain: best
  // cost and evaluation count must not depend on whether tracing ran.
  const Instance instance =
      orlib::BiskupFeldmannGenerator().Cdd(20, 0, 0.6);
  const meta::Objective objective = meta::Objective::ForInstance(instance);
  meta::SaParams params;
  params.budget.iterations = 400;
  params.temp_samples = 200;
  params.budget.seed = 7;
  params.budget.trajectory_stride = 10;

  SetEnabled(false);
  const meta::RunResult untraced = meta::RunSerialSa(objective, params);
  SetEnabled(true);
  const meta::RunResult traced = meta::RunSerialSa(objective, params);

  EXPECT_EQ(traced.best_cost, untraced.best_cost);
  EXPECT_EQ(traced.evaluations, untraced.evaluations);
  EXPECT_EQ(traced.trajectory, untraced.trajectory);
  EXPECT_EQ(traced.best, untraced.best);
  // And the traced run did record convergence telemetry.
  EXPECT_GT(EventCount(), 0u);
}

#endif  // CDD_TRACING

}  // namespace
}  // namespace cdd::trace
