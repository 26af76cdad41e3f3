#include "core/env_config.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace cdd::core {

std::optional<std::string_view> EnvText(const EnvVar& var) {
  // Every EnvVar name is a string literal, so data() is NUL-terminated.
  const char* value = std::getenv(var.name.data());
  if (value == nullptr) return std::nullopt;
  return std::string_view(value);
}

void ThrowMalformedEnv(const EnvVar& var, std::string_view text) {
  throw std::invalid_argument(std::string(var.name) + ": expected " +
                              std::string(var.expected) + ", got '" +
                              std::string(text) + "'");
}

}  // namespace cdd::core
