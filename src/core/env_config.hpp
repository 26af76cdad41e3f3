#pragma once
/// \file env_config.hpp
/// \brief The CDD_* environment variables and their one strict reader.
///
/// kEnvVars lists every environment variable the library reads, and
/// EnvText (behind ReadEnv) is the only place that calls std::getenv for
/// one.  A read has exactly three outcomes: the variable is unset and the
/// caller keeps its default, or the whole value parses, or the read
/// throws std::invalid_argument naming the variable.  A malformed value
/// (an empty one included) never silently falls back to the default.
///
/// When to read is the caller's choice: the Active*() accessors resolve
/// their variable once per process, while CDD_RACE_PORTFOLIO,
/// CDD_RACE_SLICE and CDD_SERVE_WATERMARKS are read on every use so that
/// tests can pin them per case.

#include <array>
#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace cdd::core {

/// One CDD_* variable: its name and what a valid value looks like.
struct EnvVar {
  std::string_view name;
  std::string_view expected;  ///< completes "expected ..." in errors
};

inline constexpr EnvVar kEvalBackendEnv{"CDD_EVAL_BACKEND",
                                        "scalar or simd"};
inline constexpr EnvVar kPoolBackendEnv{"CDD_POOL_BACKEND",
                                        "host or device"};
inline constexpr EnvVar kExecBackendEnv{"CDD_EXEC_BACKEND",
                                        "serial or host-parallel"};
inline constexpr EnvVar kExecWorkersEnv{"CDD_EXEC_WORKERS",
                                        "a positive integer"};
inline constexpr EnvVar kRacePortfolioEnv{
    "CDD_RACE_PORTFOLIO", "a comma-separated list of engine names"};
inline constexpr EnvVar kRaceSliceEnv{"CDD_RACE_SLICE",
                                      "a positive integer"};
inline constexpr EnvVar kServeWatermarksEnv{
    "CDD_SERVE_WATERMARKS", "LOW:HIGH queue depths with HIGH > 0"};

/// Every variable the library reads; docs/CONFIGURATION.md documents
/// exactly these (tools/check_docs.py enforces it).
inline constexpr std::array kEnvVars = {
    kEvalBackendEnv,   kPoolBackendEnv, kExecBackendEnv,     kExecWorkersEnv,
    kRacePortfolioEnv, kRaceSliceEnv,   kServeWatermarksEnv,
};

/// The raw value of \p var; nullopt when it is unset.  The view is valid
/// until the process environment next changes.
std::optional<std::string_view> EnvText(const EnvVar& var);

/// Throws the std::invalid_argument a malformed value of \p var raises:
/// "<name>: expected <expected>, got '<text>'".
[[noreturn]] void ThrowMalformedEnv(const EnvVar& var, std::string_view text);

/// Reads \p var through \p parse, which returns false on text it rejects:
/// nullopt when the variable is unset, else the parsed value.  Throws
/// std::invalid_argument naming the variable when \p parse rejects it.
template <class T>
std::optional<T> ReadEnv(const EnvVar& var,
                         bool (*parse)(std::string_view, T*)) {
  const std::optional<std::string_view> text = EnvText(var);
  if (!text) return std::nullopt;
  T value{};
  if (!parse(*text, &value)) ThrowMalformedEnv(var, *text);
  return value;
}

/// Parses a positive decimal integer that fits in T: digits only, with no
/// sign, no surrounding space and no trailing text.  Returns false (and
/// leaves \p out untouched) on anything else.
template <class T>
bool ParsePositive(std::string_view text, T* out) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error != std::errc{} || end != last || value == 0) return false;
  *out = value;
  return true;
}

}  // namespace cdd::core
