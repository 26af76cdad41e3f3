/// The CDD_* environment reader: the variable table, the error text of a
/// malformed value, and every parser the reader is given, on good and bad
/// text.  No test here changes the process environment.

#include "core/env_config.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/cpu_features.hpp"
#include "core/pool_allocator.hpp"
#include "cudasim/exec/backend.hpp"
#include "serve/service.hpp"

namespace cdd::core {
namespace {

/// Text every parser must reject, whatever its grammar.
constexpr std::string_view kAlwaysBad[] = {"", " ", "bogus", "\t"};

TEST(EnvConfig, TableListsSevenDistinctCddVariables) {
  std::set<std::string_view> names;
  for (const EnvVar& var : kEnvVars) {
    EXPECT_TRUE(var.name.starts_with("CDD_")) << var.name;
    EXPECT_FALSE(var.expected.empty()) << var.name;
    names.insert(var.name);
  }
  EXPECT_EQ(names.size(), 7u);
}

TEST(EnvConfig, MalformedValueErrorNamesTheVariable) {
  for (const EnvVar& var : kEnvVars) {
    try {
      ThrowMalformedEnv(var, "4x");
      FAIL() << var.name;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string(var.name) + ": expected " +
                    std::string(var.expected) + ", got '4x'");
    }
  }
}

TEST(EnvConfig, UnsetVariableReadsAsNullopt) {
  constexpr EnvVar kNeverSet{"CDD_ENV_CONFIG_TEST_NEVER_SET", "anything"};
  EXPECT_EQ(ReadEnv(kNeverSet, ParsePositive<unsigned>), std::nullopt);
}

TEST(EnvConfig, ParsePositiveAcceptsOnlyPlainPositiveIntegers) {
  const struct {
    std::string_view text;
    std::uint64_t value;
  } good[] = {{"1", 1}, {"7", 7}, {"064", 64}, {"18446744073709551615",
                                                 UINT64_MAX}};
  for (const auto& [text, value] : good) {
    std::uint64_t parsed = 0;
    EXPECT_TRUE(ParsePositive(text, &parsed)) << "'" << text << "'";
    EXPECT_EQ(parsed, value) << "'" << text << "'";
  }
  for (const std::string_view text :
       {"0", "00", "abc", "7x", "-3", "+7", " 7", "7 ", "4.0",
        "18446744073709551616"}) {
    std::uint64_t parsed = 99;
    EXPECT_FALSE(ParsePositive(text, &parsed)) << "'" << text << "'";
    EXPECT_EQ(parsed, 99u) << "'" << text << "'";
  }
  for (const std::string_view text : kAlwaysBad) {
    std::uint64_t parsed = 99;
    EXPECT_FALSE(ParsePositive(text, &parsed)) << "'" << text << "'";
  }
  // The target type bounds the value: CDD_EXEC_WORKERS parses unsigned.
  unsigned workers = 0;
  EXPECT_TRUE(ParsePositive<unsigned>("4294967295", &workers));
  EXPECT_FALSE(ParsePositive<unsigned>("4294967296", &workers));
}

TEST(EnvConfig, ParseEvalBackendAcceptsOnlyItsNames) {
  EvalBackend backend = EvalBackend::kSimd;
  EXPECT_TRUE(ParseEvalBackend("scalar", &backend));
  EXPECT_EQ(backend, EvalBackend::kScalar);
  EXPECT_TRUE(ParseEvalBackend("simd", &backend));
  EXPECT_EQ(backend, EvalBackend::kSimd);
  for (const std::string_view text : {"smid", "SIMD", " simd", "simd "}) {
    EXPECT_FALSE(ParseEvalBackend(text, &backend)) << "'" << text << "'";
  }
  for (const std::string_view text : kAlwaysBad) {
    EXPECT_FALSE(ParseEvalBackend(text, &backend)) << "'" << text << "'";
  }
  EXPECT_EQ(backend, EvalBackend::kSimd);
}

TEST(EnvConfig, ParsePoolBackendAcceptsOnlyItsNames) {
  for (const PoolBackend expected :
       {PoolBackend::kHost, PoolBackend::kDevice}) {
    PoolBackend parsed = PoolBackend::kHost;
    EXPECT_TRUE(ParsePoolBackend(ToString(expected), &parsed));
    EXPECT_EQ(parsed, expected);
  }
  PoolBackend backend = PoolBackend::kDevice;
  // The retired placements are errors, not aliases of "host".
  for (const std::string_view text :
       {"Host", "gpu", "host ", "pinned", "numa", "numa,"}) {
    EXPECT_FALSE(ParsePoolBackend(text, &backend)) << "'" << text << "'";
  }
  for (const std::string_view text : kAlwaysBad) {
    EXPECT_FALSE(ParsePoolBackend(text, &backend)) << "'" << text << "'";
  }
  EXPECT_EQ(backend, PoolBackend::kDevice);
}

TEST(EnvConfig, ParseExecBackendAcceptsOnlyItsNames) {
  using sim::exec::ExecBackend;
  ExecBackend backend = ExecBackend::kHostParallel;
  EXPECT_TRUE(sim::exec::ParseExecBackend("serial", &backend));
  EXPECT_EQ(backend, ExecBackend::kSerial);
  EXPECT_TRUE(sim::exec::ParseExecBackend("host-parallel", &backend));
  EXPECT_EQ(backend, ExecBackend::kHostParallel);
  for (const std::string_view text :
       {"parallel", "host_parallel", "Serial", "serial\n"}) {
    EXPECT_FALSE(sim::exec::ParseExecBackend(text, &backend))
        << "'" << text << "'";
  }
  for (const std::string_view text : kAlwaysBad) {
    EXPECT_FALSE(sim::exec::ParseExecBackend(text, &backend))
        << "'" << text << "'";
  }
  EXPECT_EQ(backend, ExecBackend::kHostParallel);
}

TEST(EnvConfig, ParseWatermarksIsStrict) {
  serve::Watermarks marks;
  EXPECT_TRUE(serve::ParseWatermarks("5:9", &marks));
  EXPECT_EQ(marks.low, 5u);
  EXPECT_EQ(marks.high, 9u);
  EXPECT_TRUE(serve::ParseWatermarks("0:64", &marks));
  EXPECT_EQ(marks.low, 0u);
  EXPECT_EQ(marks.high, 64u);
  for (const std::string_view text :
       {"abc", "5", "5:", ":5", "5:0", "-1:64", " 5:9", "5:9x", "+5:9",
        "5:+9", "5: 9", "5:9:1", "18446744073709551616:9"}) {
    EXPECT_FALSE(serve::ParseWatermarks(text, &marks)) << "'" << text << "'";
  }
  for (const std::string_view text : kAlwaysBad) {
    EXPECT_FALSE(serve::ParseWatermarks(text, &marks)) << "'" << text << "'";
  }
  EXPECT_EQ(marks.low, 0u);
  EXPECT_EQ(marks.high, 64u);
}

}  // namespace
}  // namespace cdd::core
