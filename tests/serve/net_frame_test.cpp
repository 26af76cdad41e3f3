/// Framing and wire-serialization contracts of the serve socket protocol:
/// frames survive arbitrary chunking of the byte stream, broken length
/// prefixes poison the decoder, and request/response payloads round-trip
/// field-for-field — including the cache key, so duplicates arriving over
/// the wire coalesce exactly like in-process ones.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/test_instances.hpp"
#include "serve/net/frame.hpp"
#include "serve/net/wire.hpp"
#include "serve/request.hpp"

namespace cdd::serve::net {
namespace {

TEST(FrameCodec, RoundTripsOnePayload) {
  const std::string frame = EncodeFrame("hello");
  ASSERT_EQ(frame.size(), 4u + 5u);
  // Big-endian length prefix: 5 = 0x00000005.
  EXPECT_EQ(frame[0], '\x00');
  EXPECT_EQ(frame[1], '\x00');
  EXPECT_EQ(frame[2], '\x00');
  EXPECT_EQ(frame[3], '\x05');

  FrameDecoder decoder;
  decoder.Append(frame.data(), frame.size());
  const auto payload = decoder.Next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "hello");
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameCodec, SurvivesByteByByteDelivery) {
  const std::string stream = EncodeFrame("first") + EncodeFrame("second");
  FrameDecoder decoder;
  std::vector<std::string> got;
  for (const char byte : stream) {
    decoder.Append(&byte, 1);
    while (const auto payload = decoder.Next()) got.push_back(*payload);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "first");
  EXPECT_EQ(got[1], "second");
}

TEST(FrameCodec, PartialFrameYieldsNothing) {
  const std::string frame = EncodeFrame("payload");
  FrameDecoder decoder;
  decoder.Append(frame.data(), frame.size() - 1);
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_EQ(decoder.buffered(), frame.size() - 1);
  decoder.Append(frame.data() + frame.size() - 1, 1);
  ASSERT_TRUE(decoder.Next().has_value());
}

TEST(FrameCodec, ZeroLengthFrameIsAProtocolError) {
  const std::string zeros(4, '\0');
  FrameDecoder decoder;
  decoder.Append(zeros.data(), zeros.size());
  EXPECT_THROW(decoder.Next(), FrameError);
}

TEST(FrameCodec, OverCapLengthIsAProtocolError) {
  FrameDecoder decoder(/*max_frame_bytes=*/16);
  const std::string frame = EncodeFrame(std::string(17, 'x'));
  decoder.Append(frame.data(), frame.size());
  EXPECT_THROW(decoder.Next(), FrameError);
}

TEST(Wire, RequestRoundTripsEveryField) {
  SolveRequest request;
  request.id = 7;
  request.instance = cdd::testing::PaperExampleCdd();
  request.engine = "race";
  request.options.generations = 321;
  request.options.seed = 99;
  request.options.ensemble = 512;
  request.options.block = 128;
  request.options.chains = 12;
  request.options.vshape_init = true;
  request.options.trajectory_stride = 10;
  request.options.portfolio = "sa,ta";
  request.options.race_slice = 32;
  request.deadline = std::chrono::milliseconds(250);
  request.priority = 3;
  request.tenant = "team-a";

  const SolveRequest parsed = ParseRequest(WriteRequest(request));
  EXPECT_EQ(parsed.id, request.id);
  EXPECT_EQ(parsed.engine, request.engine);
  EXPECT_EQ(parsed.options.generations, request.options.generations);
  EXPECT_EQ(parsed.options.seed, request.options.seed);
  EXPECT_EQ(parsed.options.ensemble, request.options.ensemble);
  EXPECT_EQ(parsed.options.block, request.options.block);
  EXPECT_EQ(parsed.options.chains, request.options.chains);
  EXPECT_EQ(parsed.options.vshape_init, request.options.vshape_init);
  EXPECT_EQ(parsed.options.trajectory_stride,
            request.options.trajectory_stride);
  EXPECT_EQ(parsed.options.portfolio, request.options.portfolio);
  EXPECT_EQ(parsed.options.race_slice, request.options.race_slice);
  EXPECT_EQ(parsed.deadline, request.deadline);
  EXPECT_EQ(parsed.priority, request.priority);
  EXPECT_EQ(parsed.tenant, request.tenant);
  EXPECT_EQ(parsed.instance.size(), request.instance.size());
  EXPECT_EQ(parsed.instance.due_date(), request.instance.due_date());
  // The single-flight contract over the wire: a parsed duplicate must map
  // to the same canonical key as the in-process original.
  EXPECT_EQ(CacheKey(parsed), CacheKey(request));
}

/// \p payload with the integer value of option \p field replaced by
/// \p value, or "" when the payload does not carry the option.
std::string WithOption(std::string payload, const std::string& field,
                       const std::string& value) {
  const std::string key = "\"" + field + "\":";
  const std::size_t begin = payload.find(key);
  if (begin == std::string::npos) return "";
  const std::size_t start = begin + key.size();
  const std::size_t end = payload.find_first_of(",}", start);
  return payload.replace(start, end - start, value);
}

TEST(Wire, RequestParsingIsStrict) {
  EXPECT_THROW(ParseRequest("{"), WireError);
  EXPECT_THROW(ParseRequest(R"({"op":"stats","id":1})"), WireError);
  // Missing required fields (engine, instance).
  EXPECT_THROW(ParseRequest(R"({"op":"solve","id":1})"), WireError);

  SolveRequest request;
  request.instance = cdd::testing::PaperExampleCdd();
  std::string payload = WriteRequest(request);

  // A mistyped optional field throws instead of silently defaulting.
  const std::string needle = "\"generations\":1000";
  const std::size_t at = payload.find(needle);
  ASSERT_NE(at, std::string::npos);
  payload.replace(at, needle.size(), "\"generations\":\"many\"");
  EXPECT_THROW(ParseRequest(payload), WireError);

  // Each count is range-checked against its own field type: -1 and max+1
  // are WireErrors naming the option instead of wrapping to a huge or a
  // zero count, and the type maximum itself still parses.
  request.options.race_slice = 1;  // written only when set
  const std::string valid = WriteRequest(request);
  using Get = std::uint64_t (*)(const EngineOptions&);
  struct Field {
    const char* name;
    const char* max;
    const char* past_max;
    Get get;
  };
  const char* u32_max = "4294967295";
  const char* u32_past = "4294967296";
  const char* u64_max = "18446744073709551615";
  const char* u64_past = "18446744073709551616";
  const Field fields[] = {
      {"generations", u64_max, u64_past,
       [](const EngineOptions& o) -> std::uint64_t { return o.generations; }},
      {"ensemble", u32_max, u32_past,
       [](const EngineOptions& o) -> std::uint64_t { return o.ensemble; }},
      {"block", u32_max, u32_past,
       [](const EngineOptions& o) -> std::uint64_t { return o.block; }},
      {"chains", u32_max, u32_past,
       [](const EngineOptions& o) -> std::uint64_t { return o.chains; }},
      {"trajectory_stride", u32_max, u32_past,
       [](const EngineOptions& o) -> std::uint64_t {
         return o.trajectory_stride;
       }},
      {"race_slice", u64_max, u64_past,
       [](const EngineOptions& o) -> std::uint64_t { return o.race_slice; }},
  };
  for (const Field& field : fields) {
    for (const char* bad : {"-1", field.past_max}) {
      const std::string mutated = WithOption(valid, field.name, bad);
      ASSERT_FALSE(mutated.empty()) << field.name;
      try {
        ParseRequest(mutated);
        ADD_FAILURE() << field.name << "=" << bad << " parsed";
      } catch (const WireError& error) {
        EXPECT_NE(std::string(error.what()).find(field.name),
                  std::string::npos)
            << error.what();
      }
    }
    const SolveRequest parsed =
        ParseRequest(WithOption(valid, field.name, field.max));
    EXPECT_EQ(std::to_string(field.get(parsed.options)), field.max)
        << field.name;
  }
}

TEST(Wire, ResponseRoundTripsIncludingOverloadStatuses) {
  SolveResponse response;
  response.id = 9;
  response.status = SolveStatus::kShedOverload;
  response.result.best = {2, 0, 1};
  response.result.best_cost = 126;
  response.result.evaluations = 5;
  response.result.stopped = true;
  response.result.trajectory = {140, 126};
  response.device_seconds = 0.5;
  response.queue_ms = 1.25;
  response.solve_ms = 2.5;
  response.from_cache = false;
  response.coalesced = true;
  response.error = "busy";

  const SolveResponse parsed = ParseResponse(WriteResponse(response));
  EXPECT_EQ(parsed.id, response.id);
  EXPECT_EQ(parsed.status, response.status);
  EXPECT_EQ(parsed.result.best, response.result.best);
  EXPECT_EQ(parsed.result.best_cost, response.result.best_cost);
  EXPECT_EQ(parsed.result.evaluations, response.result.evaluations);
  EXPECT_EQ(parsed.result.stopped, response.result.stopped);
  EXPECT_EQ(parsed.result.trajectory, response.result.trajectory);
  EXPECT_EQ(parsed.device_seconds, response.device_seconds);
  EXPECT_EQ(parsed.queue_ms, response.queue_ms);
  EXPECT_EQ(parsed.solve_ms, response.solve_ms);
  EXPECT_EQ(parsed.from_cache, response.from_cache);
  EXPECT_EQ(parsed.coalesced, response.coalesced);
  EXPECT_EQ(parsed.error, response.error);

  // Every admission/overload status has a wire name that round-trips.
  for (const SolveStatus status :
       {SolveStatus::kRejectedDeadlineInfeasible, SolveStatus::kShedOverload,
        SolveStatus::kShuttingDown, SolveStatus::kShutdown,
        SolveStatus::kRejectedQueueFull}) {
    const auto back = SolveStatusFromName(ToString(status));
    ASSERT_TRUE(back.has_value()) << ToString(status);
    EXPECT_EQ(*back, status);
  }
  EXPECT_FALSE(SolveStatusFromName("no_such_status").has_value());
}

TEST(Wire, VariantInstancesAndSplitsRoundTrip) {
  // A parallel-machine early-work request travels through the shared
  // instance codec; the canonical key must separate it from the plain
  // single-machine request over the same job data.
  SolveRequest plain;
  plain.id = 3;
  plain.engine = "sa";
  plain.instance = cdd::testing::PaperExampleCdd();
  SolveRequest variant = plain;
  variant.instance = plain.instance.with_machines(2).with_objective(
      ScheduleObjective::kEarlyWork);

  const SolveRequest parsed = ParseRequest(WriteRequest(variant));
  EXPECT_EQ(parsed.instance.machines(), 2);
  EXPECT_EQ(parsed.instance.objective(), ScheduleObjective::kEarlyWork);
  EXPECT_EQ(CacheKey(parsed), CacheKey(variant));
  EXPECT_NE(CacheKey(parsed), CacheKey(plain));
  // Single-machine payloads carry neither variant field — byte-compatible
  // with pre-variant clients.
  const std::string plain_payload = WriteRequest(plain);
  EXPECT_EQ(plain_payload.find("machines"), std::string::npos);
  EXPECT_EQ(plain_payload.find("objective"), std::string::npos);

  // best_splits round-trips on responses and stays optional.
  SolveResponse response;
  response.id = 4;
  response.status = SolveStatus::kOk;
  response.result.best = {2, 0, 1, 3, 4};
  response.result.best_cost = 9;
  response.result.best_splits = {2};
  const SolveResponse back = ParseResponse(WriteResponse(response));
  EXPECT_EQ(back.result.best_splits, response.result.best_splits);
  response.result.best_splits.clear();
  const std::string no_splits = WriteResponse(response);
  EXPECT_EQ(no_splits.find("best_splits"), std::string::npos);
  EXPECT_TRUE(ParseResponse(no_splits).result.best_splits.empty());
}

TEST(Wire, ErrorResponseParsesAsFailed) {
  const SolveResponse parsed =
      ParseResponse(WriteErrorResponse(0, "request is not valid JSON"));
  EXPECT_EQ(parsed.id, 0u);
  EXPECT_EQ(parsed.status, SolveStatus::kFailed);
  EXPECT_EQ(parsed.error, "request is not valid JSON");
}

}  // namespace
}  // namespace cdd::serve::net
