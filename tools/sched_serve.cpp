/// \file sched_serve.cpp
/// \brief Batch solver server: drive the SolverService end to end.
///
/// Feeds the service a workload of solve requests — synthetic (mixed
/// CDD/UCDDCP Biskup-Feldmann instances with a controlled duplicate
/// fraction) or read from a request file — waits for every response, and
/// reports per-status counts, cache effectiveness and the metrics JSON.
///
///   sched_serve --requests 1000 --dup-frac 0.25 --workers 8
///   sched_serve --requests 500 --engines sa,ta,es --deadline-ms 50
///   sched_serve --file requests.txt --metrics
///   sched_serve --requests 200 --listen 0 --clients 8  # full wire path
///
/// Request-file format: one request per line,
///   engine problem n index h gens seed deadline_ms [priority]
/// e.g. "sa cdd 50 3 0.6 1000 1 250"; '#' starts a comment; the optional
/// trailing priority (default 0) dequeues higher values first and, with
/// --preempt-slice, preempts lower-priority runs at Step boundaries.
/// A malformed priority field is a hard error with a path:line diagnostic
/// — a typo must not silently run at priority 0.
///
/// With --listen the tool starts the epoll socket front-end on loopback
/// and drives the same workload through keep-alive wire-protocol
/// connections (--clients of them), exercising framing, parsing and the
/// callback delivery path end to end.
///
/// A rejected submission (bounded queue full) is retried with backoff
/// until admitted, so the run terminates with zero lost requests by
/// construction — backpressure slows the feeder down instead of dropping
/// work on the floor.  Shed and deadline-infeasible responses (admission
/// control; see --watermarks) are terminal outcomes, reported per status.

#include <atomic>
#include <charconv>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "benchutil/cli.hpp"
#include "benchutil/table.hpp"
#include "orlib/biskup_feldmann.hpp"
#include "rng/philox.hpp"
#include "serve/net/client.hpp"
#include "serve/net/front_end.hpp"
#include "serve/service.hpp"

namespace {

using namespace cdd;

void PrintUsage() {
  std::cout <<
      "sched_serve — concurrent solver service, batch front-end\n\n"
      "Workload (synthetic):\n"
      "  --requests N        total requests (default 1000)\n"
      "  --dup-frac F        fraction of duplicate requests (default 0.25)\n"
      "  --ucddcp-frac F     fraction of UCDDCP instances (default 0.25)\n"
      "  --sizes LIST        instance sizes to mix (default 20,50)\n"
      "  --engines LIST      engine names to mix (default sa,ta,es)\n"
      "  --gens G            per-request search budget (default 200)\n"
      "  --deadline-ms D     per-request deadline, 0 = none (default 0)\n"
      "  --seed S            workload seed (default 1)\n"
      "  --priorities L      request priority levels 0..L-1, sampled\n"
      "                      uniformly (default 1: all equal, plain FIFO)\n"
      "  --machines M        parallel identical machines per CDD instance\n"
      "                      (default 1; m > 1 needs --engines from sa,ta\n"
      "                      and --ucddcp-frac 0)\n"
      "  --objective O       total-penalty|early-work (default\n"
      "                      total-penalty; early-work needs --engines\n"
      "                      from sa,ta and --ucddcp-frac 0)\n"
      "Workload (file):\n"
      "  --file PATH         one request per line:\n"
      "                      engine problem n index h gens seed deadline_ms\n"
      "Service:\n"
      "  --workers W         solver threads (default hardware)\n"
      "  --queue Q           admission queue capacity (default 128)\n"
      "  --cache C           result cache entries, 0 = off (default 4096)\n"
      "  --preempt-slice N   Step units between preemption checks; 0 =\n"
      "                      run-to-completion (default 0); slicing never\n"
      "                      changes results, only who waits\n"
      "  --pool-backend B    request-pool placement: host|device\n"
      "                      (default CDD_POOL_BACKEND, then host)\n"
      "  --exec-backend B    block execution for device engines:\n"
      "                      serial|host-parallel (default\n"
      "                      CDD_EXEC_BACKEND with an oversubscription\n"
      "                      guard; results are backend-invariant)\n"
      "  --watermarks L:H    admission-control queue-depth watermarks\n"
      "                      (default CDD_SERVE_WATERMARKS, else off)\n"
      "  --manifest PATH     append a JSONL run manifest of every\n"
      "                      completed solve (replayable, bit-identical)\n"
      "Socket front-end:\n"
      "  --listen PORT       serve the workload through the epoll socket\n"
      "                      front-end on 127.0.0.1:PORT (0 = ephemeral)\n"
      "  --max-conns N       connection cap of the listener (default 256)\n"
      "  --clients C         wire-protocol client connections (default 8)\n"
      "Output:\n"
      "  --metrics           print the metrics JSON snapshot\n"
      "  --quiet             suppress the per-run summary table\n";
}

struct WorkloadStats {
  std::size_t submitted = 0;
  std::size_t retries = 0;
};

/// Submits with retry-on-backpressure so no request is ever lost.
std::future<serve::SolveResponse> SubmitReliably(
    serve::SolverService& service, serve::SolveRequest request,
    WorkloadStats& stats) {
  ++stats.submitted;
  for (;;) {
    std::future<serve::SolveResponse> future =
        service.Submit(request);
    // Rejections resolve immediately; anything pending was admitted.
    if (future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      return future;
    }
    serve::SolveResponse response = future.get();
    if (response.status != serve::SolveStatus::kRejectedQueueFull) {
      // Terminal (cache hit, unknown engine, ...): hand it back as-is.
      std::promise<serve::SolveResponse> done;
      done.set_value(std::move(response));
      return done.get_future();
    }
    ++stats.retries;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

std::vector<serve::SolveRequest> LoadRequestFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<serve::SolveRequest> requests;
  std::string line;
  std::uint64_t id = 0;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;  // blank or comment-only line
    }
    std::istringstream fields(line);
    std::string engine, problem;
    std::uint32_t n = 0, index = 0;
    double h = 0.6;
    std::uint64_t gens = 0, seed = 1;
    std::int64_t deadline_ms = 0;
    if (!(fields >> engine >> problem >> n >> index >> h >> gens >> seed >>
          deadline_ms)) {
      // A non-empty line that doesn't parse is a typo, not a request to
      // silently drop.
      throw std::runtime_error(path + ":" + std::to_string(line_no) +
                               ": malformed request line '" + line + "'");
    }
    int priority = 0;
    if (std::string priority_text; fields >> priority_text) {
      // Strict: the trailing field, when present, must be a whole
      // integer.  A typo ("1O", "high") must fail loudly, not silently
      // schedule the request at priority 0.
      const char* first = priority_text.data();
      const char* last = first + priority_text.size();
      const auto [ptr, ec] = std::from_chars(first, last, priority);
      if (ec != std::errc() || ptr != last) {
        throw std::runtime_error(
            path + ":" + std::to_string(line_no) +
            ": malformed priority '" + priority_text + "' in '" + line +
            "'");
      }
      if (std::string extra; fields >> extra) {
        throw std::runtime_error(path + ":" + std::to_string(line_no) +
                                 ": trailing field '" + extra + "' in '" +
                                 line + "'");
      }
    }
    if (problem != "cdd" && problem != "ucddcp") {
      throw std::runtime_error("bad problem '" + problem + "' in " + path);
    }
    const orlib::BiskupFeldmannGenerator gen(seed);
    serve::SolveRequest request;
    request.id = id++;
    request.instance = problem == "ucddcp" ? gen.Ucddcp(n, index)
                                           : gen.Cdd(n, index, h);
    request.engine = engine;
    request.options.generations = gens;
    request.options.seed = seed;
    request.priority = priority;
    request.deadline = std::chrono::milliseconds(deadline_ms);
    requests.push_back(std::move(request));
  }
  return requests;
}

std::vector<std::string> SplitNames(const std::string& csv) {
  std::vector<std::string> names;
  std::string token;
  std::istringstream in(csv);
  while (std::getline(in, token, ',')) {
    if (!token.empty()) names.push_back(token);
  }
  return names;
}

std::vector<serve::SolveRequest> SyntheticWorkload(
    const benchutil::Args& args) {
  const auto total =
      static_cast<std::size_t>(args.GetInt("requests", 1000));
  const double dup_frac = args.GetDouble("dup-frac", 0.25);
  const double ucddcp_frac = args.GetDouble("ucddcp-frac", 0.25);
  const std::vector<std::uint32_t> sizes =
      args.GetUintList("sizes", {20, 50});
  const std::vector<std::string> engines =
      SplitNames(args.GetString("engines", "sa,ta,es"));
  const auto gens = static_cast<std::uint64_t>(args.GetInt("gens", 200));
  const auto deadline_ms = args.GetInt("deadline-ms", 0);
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
  const auto priority_levels =
      static_cast<std::uint32_t>(args.GetInt("priorities", 1));
  const auto machines =
      static_cast<std::int32_t>(args.GetInt("machines", 1));
  const std::string objective_name =
      args.GetString("objective", "total-penalty");
  if (objective_name != "total-penalty" && objective_name != "early-work") {
    throw std::runtime_error("--objective must be total-penalty|early-work");
  }
  const bool variant_workload =
      machines > 1 || objective_name == "early-work";

  if (engines.empty()) throw std::runtime_error("--engines is empty");
  if (priority_levels == 0) {
    throw std::runtime_error("--priorities must be >= 1");
  }
  if (variant_workload) {
    // Fail the whole run up front instead of filling the summary table
    // with rejected_invalid_instance rows.
    if (ucddcp_frac > 0.0) {
      throw std::runtime_error(
          "--machines/--objective early-work apply to CDD instances only; "
          "set --ucddcp-frac 0");
    }
    for (const std::string& engine : engines) {
      if (engine != "sa" && engine != "ta") {
        throw std::runtime_error(
            "engine '" + engine +
            "' does not support --machines/--objective early-work; use "
            "--engines from sa,ta");
      }
    }
  }
  if (total == 0) return {};
  const auto uniques = static_cast<std::size_t>(
      std::max(1.0, static_cast<double>(total) * (1.0 - dup_frac)));

  rng::Philox4x32 rng(seed, /*stream=*/0x5e72eULL);
  const orlib::BiskupFeldmannGenerator gen(seed);

  // The unique request pool: distinct (instance, engine, params) tuples.
  std::vector<serve::SolveRequest> pool;
  pool.reserve(uniques);
  for (std::size_t u = 0; u < uniques; ++u) {
    const bool ucddcp =
        rng.NextUniform() < ucddcp_frac;
    const std::uint32_t n = sizes[u % sizes.size()];
    const auto index = static_cast<std::uint32_t>(u);
    serve::SolveRequest request;
    request.instance = ucddcp
                           ? gen.Ucddcp(n, index)
                           : gen.Cdd(n, index, 0.2 + 0.2 * (u % 4));
    if (machines > 1) {
      request.instance = request.instance.with_machines(machines);
    }
    if (objective_name == "early-work") {
      request.instance = request.instance.with_objective(
          ScheduleObjective::kEarlyWork);
    }
    request.engine = engines[u % engines.size()];
    request.options.generations = gens;
    request.options.seed = seed;
    // Priority is scheduling-only (never part of the cache key), so
    // duplicates inheriting the original's level is harmless.
    request.priority = priority_levels > 1
                           ? static_cast<int>(UniformBelow(
                                 rng, priority_levels))
                           : 0;
    request.deadline = std::chrono::milliseconds(deadline_ms);
    pool.push_back(std::move(request));
  }

  // Fill to `total` by re-sampling the pool (the duplicates), then shuffle
  // so duplicates interleave with first occurrences.
  std::vector<serve::SolveRequest> workload = pool;
  workload.reserve(total);
  while (workload.size() < total) {
    workload.push_back(pool[UniformBelow(
        rng, static_cast<std::uint32_t>(pool.size()))]);
  }
  for (std::size_t i = workload.size(); i > 1; --i) {
    const std::uint32_t j =
        UniformBelow(rng, static_cast<std::uint32_t>(i));
    std::swap(workload[i - 1], workload[j]);
  }
  for (std::size_t i = 0; i < workload.size(); ++i) workload[i].id = i;
  return workload;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cdd;
  const benchutil::Args args(argc, argv);
  if (args.GetBool("help")) {
    PrintUsage();
    return 0;
  }

  try {
    std::vector<serve::SolveRequest> workload;
    const std::string file = args.GetString("file", "");
    if (!file.empty()) {
      workload = LoadRequestFile(file);
    } else {
      workload = SyntheticWorkload(args);
    }

    serve::ServiceConfig config;
    const unsigned hardware = std::thread::hardware_concurrency();
    config.workers = static_cast<unsigned>(
        args.GetInt("workers", hardware == 0 ? 4 : hardware));
    config.queue_capacity =
        static_cast<std::size_t>(args.GetInt("queue", 128));
    config.cache_capacity =
        static_cast<std::size_t>(args.GetInt("cache", 4096));
    config.preempt_slice =
        static_cast<std::uint64_t>(args.GetInt("preempt-slice", 0));
    // Unknown backend names make the SolverService constructor throw;
    // the catch below prints the error.
    config.pool_backend = args.GetString("pool-backend", "");
    config.exec_backend = args.GetString("exec-backend", "");
    config.manifest_path = args.GetString("manifest", "");
    if (const std::string text = args.GetString("watermarks", "");
        !text.empty()) {
      serve::Watermarks watermarks;
      if (!serve::ParseWatermarks(text, &watermarks)) {
        std::cerr << "error: --watermarks wants LOW:HIGH depths, got '"
                  << text << "'\n";
        return 1;
      }
      config.shed_low_watermark = watermarks.low;
      config.shed_high_watermark = watermarks.high;
    }
    serve::SolverService service(config);

    std::cout << "sched_serve: " << workload.size() << " requests, "
              << config.workers << " workers, queue "
              << config.queue_capacity << ", cache "
              << config.cache_capacity << ", pool "
              << core::ToString(service.pool_backend()) << ", exec "
              << sim::exec::ToString(service.exec_backend()) << "\n";

    std::optional<serve::net::FrontEnd> front_end;
    if (args.Has("listen")) {
      serve::net::FrontEndConfig net_config;
      net_config.port =
          static_cast<std::uint16_t>(args.GetInt("listen", 0));
      net_config.max_conns =
          static_cast<std::size_t>(args.GetInt("max-conns", 256));
      front_end.emplace(net_config, service);
      std::cout << "listening on 127.0.0.1:" << front_end->port()
                << " (max-conns " << net_config.max_conns << ")\n";
    }

    const std::size_t total_requests = workload.size();
    const auto t_start = std::chrono::steady_clock::now();
    WorkloadStats stats;
    std::map<std::string, std::size_t> by_status;
    std::size_t resolved = 0;
    Cost cost_sum = 0;

    if (front_end) {
      // Wire path: closed-loop clients over keep-alive connections, each
      // retrying its own backpressure rejections — the socket equivalent
      // of SubmitReliably.
      const auto clients = static_cast<std::size_t>(
          std::max<std::int64_t>(args.GetInt("clients", 8), 1));
      std::atomic<std::size_t> next{0};
      std::atomic<std::size_t> retries{0};
      std::mutex aggregate_mutex;
      const auto client_loop = [&] {
        serve::net::BlockingClient client("127.0.0.1",
                                          front_end->port());
        for (;;) {
          const std::size_t k = next.fetch_add(1);
          if (k >= workload.size()) break;
          serve::SolveResponse response;
          for (;;) {
            response = client.Call(workload[k]);
            if (response.status !=
                serve::SolveStatus::kRejectedQueueFull) {
              break;
            }
            retries.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
          const std::scoped_lock lock(aggregate_mutex);
          ++resolved;
          ++by_status[std::string(serve::ToString(response.status))];
          if (response.ok()) cost_sum += response.result.best_cost;
        }
      };
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back(client_loop);
      }
      for (std::thread& t : threads) t.join();
      stats.submitted = total_requests;
      stats.retries = retries.load();
      front_end->Stop();
    } else {
      std::vector<std::future<serve::SolveResponse>> futures;
      futures.reserve(workload.size());
      for (serve::SolveRequest& request : workload) {
        futures.push_back(
            SubmitReliably(service, std::move(request), stats));
      }
      for (auto& future : futures) {
        serve::SolveResponse response = future.get();
        ++resolved;
        ++by_status[std::string(serve::ToString(response.status))];
        if (response.ok()) cost_sum += response.result.best_cost;
      }
    }
    service.Shutdown();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t_start)
            .count();

    const serve::CacheStats cache = service.cache().stats();
    const double hit_rate =
        cache.hits + cache.misses == 0
            ? 0.0
            : static_cast<double>(cache.hits) /
                  static_cast<double>(cache.hits + cache.misses);

    if (!args.GetBool("quiet")) {
      benchutil::TextTable table({"outcome", "requests"});
      for (const auto& [status, count] : by_status) {
        table.AddRow({status, std::to_string(count)});
      }
      std::cout << table.ToString();
      std::cout << "resolved " << resolved << "/" << total_requests
                << " requests in " << wall << " s ("
                << static_cast<double>(resolved) / wall
                << " req/s), retries " << stats.retries
                << ", cache hit rate " << 100.0 * hit_rate << "%\n";
    }
    if (args.GetBool("metrics")) {
      std::cout << service.metrics().SnapshotJson() << "\n";
    }

    const bool lost = resolved != total_requests;
    const bool failed = by_status.count("failed") > 0 ||
                        by_status.count("rejected_unknown_engine") > 0;
    if (lost) std::cerr << "error: lost requests\n";
    if (failed) std::cerr << "error: failed requests\n";
    return lost || failed ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
