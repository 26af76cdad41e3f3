#include "serve/net/wire.hpp"

#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "trace/json.hpp"
#include "trace/manifest.hpp"

namespace cdd::serve::net {

namespace {

using trace::JsonError;
using trace::JsonEscape;
using trace::JsonValue;

template <typename T>
void WriteIntArray(std::ostringstream& out, const char* key,
                   const std::vector<T>& values) {
  out << "\"" << key << "\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out << ",";
    out << values[i];
  }
  out << "]";
}

/// Optional integer member with a typed default; throws through AsInt on
/// a mistyped value instead of silently substituting the default.
std::int64_t IntOr(const JsonValue& object, const std::string& key,
                   std::int64_t fallback) {
  const JsonValue* member = object.Find(key);
  return member == nullptr ? fallback : member->AsInt();
}

/// Optional unsigned option with a typed default.  A value that is not an
/// integer in T's range — negative, or past its maximum — is a WireError
/// naming the option, never a wrapped count.
template <typename T>
T UintOr(const JsonValue& options, const std::string& key, T fallback) {
  const JsonValue* member = options.Find(key);
  if (member == nullptr) return fallback;
  std::uint64_t value = 0;
  bool in_range = true;
  try {
    value = member->AsUint();
  } catch (const JsonError&) {
    in_range = false;
  }
  if (!in_range || value > std::numeric_limits<T>::max()) {
    throw WireError("option '" + key + "' is not an integer in [0, " +
                    std::to_string(std::numeric_limits<T>::max()) + "]");
  }
  return static_cast<T>(value);
}

}  // namespace

std::string WriteRequest(const SolveRequest& request) {
  std::ostringstream out;
  out << "{\"op\":\"solve\",\"id\":" << request.id << ",\"engine\":\""
      << JsonEscape(request.engine) << "\",\"instance\":";
  trace::WriteInstanceJson(out, request.instance);
  out << ",\"options\":{\"generations\":" << request.options.generations
      << ",\"seed\":" << request.options.seed
      << ",\"ensemble\":" << request.options.ensemble
      << ",\"block\":" << request.options.block
      << ",\"chains\":" << request.options.chains
      << ",\"trajectory_stride\":" << request.options.trajectory_stride
      << ",\"vshape_init\":"
      << (request.options.vshape_init ? "true" : "false");
  if (!request.options.portfolio.empty()) {
    out << ",\"portfolio\":\"" << JsonEscape(request.options.portfolio)
        << "\"";
  }
  if (request.options.race_slice != 0) {
    out << ",\"race_slice\":" << request.options.race_slice;
  }
  out << "},\"deadline_ms\":" << request.deadline.count()
      << ",\"priority\":" << request.priority << ",\"tenant\":\""
      << JsonEscape(request.tenant) << "\"}";
  return out.str();
}

SolveRequest ParseRequest(std::string_view payload) {
  JsonValue root = [&] {
    try {
      return JsonValue::Parse(payload);
    } catch (const JsonError& e) {
      throw WireError(std::string("request is not valid JSON: ") +
                      e.what());
    }
  }();

  try {
    if (const std::string& op = root.At("op").AsString(); op != "solve") {
      throw WireError("unknown op '" + op + "'");
    }
    SolveRequest request;
    request.id = static_cast<std::uint64_t>(root.At("id").AsInt());
    request.engine = root.At("engine").AsString();
    request.instance = trace::ParseInstanceJson(root.At("instance"));
    if (const JsonValue* options = root.Find("options")) {
      EngineOptions& opt = request.options;
      opt.generations = UintOr(*options, "generations", opt.generations);
      opt.seed = static_cast<std::uint64_t>(
          IntOr(*options, "seed", static_cast<std::int64_t>(opt.seed)));
      opt.ensemble = UintOr(*options, "ensemble", opt.ensemble);
      opt.block = UintOr(*options, "block", opt.block);
      opt.chains = UintOr(*options, "chains", opt.chains);
      opt.trajectory_stride =
          UintOr(*options, "trajectory_stride", opt.trajectory_stride);
      if (const JsonValue* vshape = options->Find("vshape_init")) {
        opt.vshape_init = vshape->AsBool();
      }
      if (const JsonValue* portfolio = options->Find("portfolio")) {
        opt.portfolio = portfolio->AsString();
      }
      opt.race_slice = UintOr(*options, "race_slice", opt.race_slice);
    }
    request.deadline =
        std::chrono::milliseconds(IntOr(root, "deadline_ms", 0));
    request.priority = static_cast<int>(IntOr(root, "priority", 0));
    if (const JsonValue* tenant = root.Find("tenant")) {
      request.tenant = tenant->AsString();
    }
    return request;
  } catch (const JsonError& e) {
    throw WireError(std::string("request field error: ") + e.what());
  } catch (const trace::ManifestError& e) {
    throw WireError(std::string("request instance error: ") + e.what());
  }
}

std::string WriteResponse(const SolveResponse& response) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "{\"id\":" << response.id << ",\"status\":\""
      << ToString(response.status)
      << "\",\"best_cost\":" << response.result.best_cost << ",";
  WriteIntArray(out, "best", response.result.best);
  out << ",\"evaluations\":" << response.result.evaluations
      << ",\"stopped\":" << (response.result.stopped ? "true" : "false")
      << ",\"device_seconds\":" << response.device_seconds
      << ",\"queue_ms\":" << response.queue_ms
      << ",\"solve_ms\":" << response.solve_ms
      << ",\"from_cache\":" << (response.from_cache ? "true" : "false")
      << ",\"coalesced\":" << (response.coalesced ? "true" : "false");
  // Multi-machine solves carry the machine-assignment splits of the best
  // candidate; single-machine responses omit the field, keeping their
  // payloads byte-identical to the pre-parallel-machine wire format.
  if (!response.result.best_splits.empty()) {
    out << ",";
    WriteIntArray(out, "best_splits", response.result.best_splits);
  }
  if (!response.result.trajectory.empty()) {
    out << ",";
    WriteIntArray(out, "trajectory", response.result.trajectory);
  }
  if (!response.error.empty()) {
    out << ",\"error\":\"" << JsonEscape(response.error) << "\"";
  }
  out << "}";
  return out.str();
}

SolveResponse ParseResponse(std::string_view payload) {
  JsonValue root = [&] {
    try {
      return JsonValue::Parse(payload);
    } catch (const JsonError& e) {
      throw WireError(std::string("response is not valid JSON: ") +
                      e.what());
    }
  }();

  try {
    SolveResponse response;
    response.id = static_cast<std::uint64_t>(root.At("id").AsInt());
    const std::string& status_name = root.At("status").AsString();
    const auto status = SolveStatusFromName(status_name);
    if (!status) {
      throw WireError("unknown status '" + status_name + "'");
    }
    response.status = *status;
    response.result.best_cost = root.At("best_cost").AsInt();
    response.result.best.clear();
    for (const JsonValue& job : root.At("best").AsArray()) {
      response.result.best.push_back(static_cast<JobId>(job.AsInt()));
    }
    response.result.evaluations =
        static_cast<std::uint64_t>(root.At("evaluations").AsInt());
    response.result.stopped = root.At("stopped").AsBool();
    response.device_seconds = root.At("device_seconds").AsDouble();
    response.queue_ms = root.At("queue_ms").AsDouble();
    response.solve_ms = root.At("solve_ms").AsDouble();
    response.from_cache = root.At("from_cache").AsBool();
    response.coalesced = root.At("coalesced").AsBool();
    if (const JsonValue* splits = root.Find("best_splits")) {
      for (const JsonValue& split : splits->AsArray()) {
        response.result.best_splits.push_back(
            static_cast<std::int32_t>(split.AsInt()));
      }
    }
    if (const JsonValue* trajectory = root.Find("trajectory")) {
      for (const JsonValue& cost : trajectory->AsArray()) {
        response.result.trajectory.push_back(
            static_cast<Cost>(cost.AsInt()));
      }
    }
    if (const JsonValue* error = root.Find("error")) {
      response.error = error->AsString();
    }
    return response;
  } catch (const JsonError& e) {
    throw WireError(std::string("response field error: ") + e.what());
  }
}

std::string WriteErrorResponse(std::uint64_t id, std::string_view error) {
  SolveResponse response;
  response.id = id;
  response.status = SolveStatus::kFailed;
  response.error = std::string(error);
  response.result.best_cost = 0;
  return WriteResponse(response);
}

}  // namespace cdd::serve::net
