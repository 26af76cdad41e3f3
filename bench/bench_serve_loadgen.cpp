/// \file bench_serve_loadgen.cpp
/// \brief Closed-loop load generator for the SolverService.
///
/// A fixed set of client threads each runs submit -> wait -> repeat
/// against one service instance (closed loop: offered load adapts to
/// service capacity, so the numbers measure the service, not the feeder).
/// Sweeps the worker count and reports throughput, solve-latency
/// percentiles and cache hit rate per configuration — the serving
/// baseline for the perf trajectory.  With --socket the same traffic
/// travels through the TCP front-end (serve/net), so the sweep measures
/// the full wire path: framing, the epoll loop, and response fan-out.
///
/// --smoke replaces the sweep with three deterministic overload/coalesce
/// assertions (the CI gate for the serve scale-out path): single-flight
/// duplicates receive one bit-identical solve, overload sheds the
/// lowest-priority work first, and a manifest written through the socket
/// front-end is byte-identical to one written in-process.
///
///   bench_serve_loadgen                       # quick sweep
///   bench_serve_loadgen --workers 1,2,4,8 --requests 4000 --clients 16
///   bench_serve_loadgen --dup-frac 0.5        # cache-friendly traffic
///   bench_serve_loadgen --socket --watermarks 8:32 --json BENCH_serve.json
///   bench_serve_loadgen --smoke               # deterministic assertions

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "benchutil/cli.hpp"
#include "benchutil/stats.hpp"
#include "benchutil/table.hpp"
#include "common/fake_engines.hpp"
#include "orlib/biskup_feldmann.hpp"
#include "rng/philox.hpp"
#include "serve/net/client.hpp"
#include "serve/net/front_end.hpp"
#include "serve/service.hpp"
#include "trace/tracer.hpp"

namespace {

using namespace cdd;

struct SweepResult {
  unsigned workers = 0;
  std::size_t requests = 0;
  double wall_seconds = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double hit_rate = 0.0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;         ///< kShedOverload answers (watermarks)
  std::uint64_t coalesced = 0;    ///< duplicates joined onto a flight
  std::uint64_t preemptions = 0;  ///< priority preemptions at Step edges
};

struct SweepSetup {
  unsigned workers = 2;
  unsigned clients = 8;
  std::size_t requests = 1000;
  double dup_frac = 0.25;
  std::uint64_t seed = 1;
  std::uint64_t preempt_slice = 0;
  bool socket = false;            ///< drive through the TCP front-end
  std::size_t shed_low = 0;       ///< admission watermarks (0 = off)
  std::size_t shed_high = 0;
};

SweepResult RunSweep(const SweepSetup& setup,
                     const std::vector<serve::SolveRequest>& pool) {
  serve::ServiceConfig config;
  config.workers = setup.workers;
  config.queue_capacity = std::max<std::size_t>(2 * setup.clients, 16);
  config.cache_capacity = 4096;
  config.preempt_slice = setup.preempt_slice;
  config.shed_low_watermark = setup.shed_low;
  config.shed_high_watermark = setup.shed_high;
  serve::SolverService service(config);
  std::optional<serve::net::FrontEnd> front_end;
  if (setup.socket) {
    serve::net::FrontEndConfig net;
    net.port = 0;  // ephemeral; every client reads it back below
    net.max_conns = setup.clients + 4;
    front_end.emplace(net, service);
  }

  std::atomic<std::size_t> next{0};
  const auto t_start = std::chrono::steady_clock::now();

  const auto client = [&](unsigned client_id) {
    rng::Philox4x32 rng(setup.seed + client_id, /*stream=*/0x10adULL);
    std::optional<serve::net::BlockingClient> wire;
    if (front_end) wire.emplace("127.0.0.1", front_end->port());
    for (;;) {
      const std::size_t k = next.fetch_add(1);
      if (k >= setup.requests) break;
      // Re-offer an earlier request with probability dup_frac: the cache
      // traffic a fleet of similar campaigns would generate.
      serve::SolveRequest request =
          rng.NextUniform() < setup.dup_frac
              ? pool[UniformBelow(
                    rng, static_cast<std::uint32_t>(pool.size() / 4 + 1))]
              : pool[k % pool.size()];
      request.id = k;
      for (;;) {
        const serve::SolveResponse response =
            wire ? wire->Call(request) : service.Submit(request).get();
        if (response.status != serve::SolveStatus::kRejectedQueueFull) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(setup.clients);
  for (unsigned c = 0; c < setup.clients; ++c) {
    threads.emplace_back(client, c);
  }
  for (std::thread& t : threads) t.join();

  SweepResult result;
  result.workers = setup.workers;
  result.requests = setup.requests;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    t_start)
          .count();
  const serve::LatencyHistogram& solve_ms =
      service.metrics().histogram("solve_ms");
  result.p50_ms = solve_ms.Percentile(0.50);
  result.p95_ms = solve_ms.Percentile(0.95);
  result.p99_ms = solve_ms.Percentile(0.99);
  const serve::CacheStats cache = service.cache().stats();
  result.hit_rate = cache.hits + cache.misses == 0
                        ? 0.0
                        : static_cast<double>(cache.hits) /
                              static_cast<double>(cache.hits + cache.misses);
  result.rejected =
      service.metrics().counter("rejected_queue_full").value();
  result.shed = service.metrics().counter("shed_overload").value();
  result.coalesced = service.metrics().counter("coalesced_joins").value();
  result.preemptions = service.metrics().counter("preemptions").value();
  front_end.reset();  // stop the listener before draining the service
  service.Shutdown();
  return result;
}

// ---------------------------------------------------------------------------
// --smoke: deterministic assertions for the serve scale-out path.

// The "block" engine and its gate are the serve tests' stand-ins.
using cdd::testing::BlockingRegistry;
using cdd::testing::Gate;

bool AwaitCounter(serve::SolverService& service, const char* name,
                  std::uint64_t at_least) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.metrics().counter(name).value() < at_least) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

struct SmokeChecker {
  bool ok = true;
  void Check(bool condition, const std::string& what) {
    std::cout << (condition ? "  PASS  " : "  FAIL  ") << what << "\n";
    ok = ok && condition;
  }
};

/// Duplicate-heavy traffic through the socket: with the worker parked,
/// four concurrent identical requests must produce exactly one solve; the
/// three joiners receive the leader's bit-identical result.
void SmokeCoalesce(SmokeChecker& smoke,
                   const orlib::BiskupFeldmannGenerator& gen) {
  std::cout << "[smoke] single-flight coalescing over the socket\n";
  Gate gate;
  const serve::EngineRegistry registry = BlockingRegistry(&gate);
  serve::ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 64;
  serve::SolverService service(config, registry);
  serve::net::FrontEndConfig net;
  net.port = 0;
  serve::net::FrontEnd front_end(net, service);

  serve::SolveRequest blocker;
  blocker.id = 99;
  blocker.instance = gen.Cdd(20, 999, 0.2);
  blocker.engine = "block";
  std::future<serve::SolveResponse> parked = service.Submit(blocker);
  while (gate.entered.load() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  serve::SolveRequest duplicate;
  duplicate.instance = gen.Cdd(20, 0, 0.4);
  duplicate.engine = "sa";
  duplicate.options.generations = 300;
  duplicate.options.seed = 7;

  constexpr unsigned kClients = 4;
  std::vector<serve::SolveResponse> responses(kClients);
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      serve::net::BlockingClient wire("127.0.0.1", front_end.port());
      serve::SolveRequest request = duplicate;
      request.id = c + 1;
      responses[c] = wire.Call(request);
    });
  }
  // All four are in flight (worker parked): one led, three joined.
  const bool joined = AwaitCounter(service, "coalesced_joins", kClients - 1);
  gate.Release();
  for (std::thread& t : clients) t.join();
  parked.get();

  smoke.Check(joined, "three duplicates joined the in-flight leader");
  unsigned coalesced = 0;
  bool identical = true;
  for (const serve::SolveResponse& r : responses) {
    if (r.coalesced) ++coalesced;
    identical = identical && r.status == serve::SolveStatus::kOk &&
                r.result.best == responses[0].result.best &&
                r.result.best_cost == responses[0].result.best_cost &&
                r.result.evaluations == responses[0].result.evaluations;
  }
  smoke.Check(coalesced == kClients - 1,
              "exactly three responses flagged coalesced (got " +
                  std::to_string(coalesced) + ")");
  smoke.Check(identical, "all four responses carry the identical result");
  const std::uint64_t completed =
      service.metrics().counter("completed").value();
  smoke.Check(completed == 2,
              "one solve per unique key: completed == 2 (blocker + "
              "leader), got " +
                  std::to_string(completed));
  front_end.Stop();
  service.Shutdown();
}

/// Overload ramp through one pipelined connection: past the high
/// watermark the three lowest-priority requests — and only those — are
/// answered kShedOverload; the survivors then solve highest-first.
void SmokeShedOrder(SmokeChecker& smoke,
                    const orlib::BiskupFeldmannGenerator& gen) {
  std::cout << "[smoke] overload sheds lowest-priority first\n";
  Gate gate;
  const serve::EngineRegistry registry = BlockingRegistry(&gate);
  serve::ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 8;
  config.cache_capacity = 0;
  config.shed_low_watermark = 1;
  config.shed_high_watermark = 4;
  serve::SolverService service(config, registry);
  serve::net::FrontEndConfig net;
  net.port = 0;
  serve::net::FrontEnd front_end(net, service);

  serve::SolveRequest blocker;
  blocker.id = 99;
  blocker.instance = gen.Cdd(20, 999, 0.2);
  blocker.engine = "block";
  std::future<serve::SolveResponse> parked = service.Submit(blocker);
  while (gate.entered.load() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Arrival order fills the queue to the high watermark (4), then offers
  // two lower-priority requests (shed on arrival) and one higher-priority
  // request (displaces the queued priority-2 victim).
  const std::vector<int> priorities = {5, 4, 3, 2, 1, 0, 6};
  std::map<std::uint64_t, int> priority_of;
  serve::net::BlockingClient wire("127.0.0.1", front_end.port());
  for (std::size_t i = 0; i < priorities.size(); ++i) {
    serve::SolveRequest request;
    request.id = 10 + i;
    request.instance =
        gen.Cdd(20, static_cast<std::uint32_t>(i), 0.2 + 0.1 * (i % 3));
    request.engine = "sa";
    request.options.generations = 100;
    request.options.seed = 3;
    request.priority = priorities[i];
    priority_of[request.id] = priorities[i];
    wire.Send(request);  // pipelined: one connection, in-order arrival
  }

  // The three sheds answer immediately (the worker is parked, so nothing
  // else can complete); ids 14 (prio 1) and 15 (prio 0) are shed on
  // arrival, id 13 (prio 2) is displaced when priority 6 arrives.
  std::vector<int> shed_priorities;
  bool all_shed_status = true;
  for (int i = 0; i < 3; ++i) {
    const serve::SolveResponse r = wire.Receive();
    all_shed_status =
        all_shed_status && r.status == serve::SolveStatus::kShedOverload;
    shed_priorities.push_back(priority_of[r.id]);
  }
  std::sort(shed_priorities.begin(), shed_priorities.end());
  smoke.Check(all_shed_status, "all three dropped answers are shed_overload");
  smoke.Check((shed_priorities == std::vector<int>{0, 1, 2}),
              "the shed set is exactly the three lowest priorities");
  smoke.Check(service.metrics().counter("shed_overload").value() == 3,
              "shed_overload counter == 3");

  gate.Release();
  parked.get();
  // Survivors complete strictly highest-priority-first on the lone worker.
  std::vector<std::uint64_t> completion_order;
  for (int i = 0; i < 4; ++i) completion_order.push_back(wire.Receive().id);
  smoke.Check(
      (completion_order == std::vector<std::uint64_t>{16, 10, 11, 12}),
      "survivors solved highest-priority-first (6, 5, 4, 3)");
  front_end.Stop();
  service.Shutdown();
}

/// The replay guarantee through the wire: a manifest recorded behind the
/// socket front-end is byte-identical to one recorded in-process.
void SmokeManifestParity(SmokeChecker& smoke,
                         const orlib::BiskupFeldmannGenerator& gen) {
  std::cout << "[smoke] manifest parity: in-process vs socket\n";
  std::vector<serve::SolveRequest> requests;
  for (std::uint32_t i = 0; i < 6; ++i) {
    serve::SolveRequest request;
    request.id = i;
    request.instance = gen.Cdd(20, i, 0.2 + 0.1 * (i % 4));
    request.engine = "sa";
    request.options.generations = 150;
    request.options.seed = 5;
    requests.push_back(std::move(request));
  }

  const std::string tag = std::to_string(::getpid());
  const std::string path_inproc =
      "/tmp/cdd_serve_smoke_inproc." + tag + ".jsonl";
  const std::string path_socket =
      "/tmp/cdd_serve_smoke_socket." + tag + ".jsonl";

  {
    serve::ServiceConfig config;
    config.workers = 1;
    config.manifest_path = path_inproc;
    serve::SolverService service(config);
    for (const serve::SolveRequest& request : requests) {
      service.Submit(request).get();
    }
    service.Shutdown();
  }
  {
    serve::ServiceConfig config;
    config.workers = 1;
    config.manifest_path = path_socket;
    serve::SolverService service(config);
    serve::net::FrontEndConfig net;
    net.port = 0;
    serve::net::FrontEnd front_end(net, service);
    serve::net::BlockingClient wire("127.0.0.1", front_end.port());
    for (const serve::SolveRequest& request : requests) {
      wire.Call(request);
    }
    front_end.Stop();
    service.Shutdown();
  }

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  const std::string inproc = slurp(path_inproc);
  const std::string socket = slurp(path_socket);
  smoke.Check(!inproc.empty(), "in-process run recorded a manifest");
  smoke.Check(inproc == socket,
              "socket-path manifest is byte-identical to in-process");
  std::remove(path_inproc.c_str());
  std::remove(path_socket.c_str());
}

int RunSmoke(std::uint64_t seed) {
  const orlib::BiskupFeldmannGenerator gen(seed);
  SmokeChecker smoke;
  SmokeCoalesce(smoke, gen);
  SmokeShedOrder(smoke, gen);
  SmokeManifestParity(smoke, gen);
  std::cout << (smoke.ok ? "smoke: all serve scale-out assertions passed\n"
                         : "smoke: FAILURES above\n");
  return smoke.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cdd;
  const benchutil::Args args(argc, argv);
  if (args.GetBool("help")) {
    std::cout << "Closed-loop load generator for the solver service.\n"
                 "Flags: --workers LIST --clients C --requests N\n"
                 "       --dup-frac F --sizes LIST --gens G --seed S\n"
                 "       --engine NAME   engine every request runs "
                 "(default sa)\n"
                 "       --socket   drive the traffic through the TCP "
                 "front-end\n"
                 "           (serve/net): framing + epoll loop on the "
                 "measured path\n"
                 "       --watermarks LOW:HIGH   admission-control "
                 "watermarks\n"
                 "           (absolute queue depths; enables load "
                 "shedding)\n"
                 "       --json PATH   also write the sweep as JSON "
                 "(e.g. BENCH_serve.json)\n"
                 "       --smoke   run the deterministic overload/coalesce "
                 "assertions\n"
                 "           (single-flight, shed order, manifest parity) "
                 "and exit\n"
                 "       --trace   enable runtime tracing during the sweep\n"
                 "                 (measures instrumentation overhead)\n"
                 "       --priorities L   spread requests over priority "
                 "levels 0..L-1\n"
                 "       --preempt-slice N   preemption check every N Step "
                 "units\n"
                 "           (0 = run-to-completion; with L > 1 this makes "
                 "priority\n"
                 "           preemptions observable in the counter column)\n";
    return 0;
  }

  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed", 1));
  if (args.GetBool("smoke")) return RunSmoke(seed);

  // The tracing-overhead experiment: identical sweep with recording on vs
  // off quantifies what the instrumentation costs a hot serving path
  // (results/exp_serve_tracing_overhead.txt; the ISSUE budget is <5%).
  const bool tracing = args.GetBool("trace");
  trace::SetEnabled(tracing);

  const std::vector<std::uint32_t> worker_sweep =
      args.GetUintList("workers", {1, 2, 4, 8});
  const auto clients =
      static_cast<unsigned>(args.GetInt("clients", 8));
  const auto requests =
      static_cast<std::size_t>(args.GetInt("requests", 1500));
  const double dup_frac = args.GetDouble("dup-frac", 0.25);
  const std::vector<std::uint32_t> sizes =
      args.GetUintList("sizes", {20, 50});
  const auto gens = static_cast<std::uint64_t>(args.GetInt("gens", 200));
  const std::string engine = args.GetString("engine", "sa");
  const auto priority_levels = static_cast<std::uint32_t>(
      std::max(1, static_cast<int>(args.GetInt("priorities", 1))));
  const auto preempt_slice =
      static_cast<std::uint64_t>(args.GetInt("preempt-slice", 0));
  const bool socket = args.GetBool("socket");
  const std::string json_path = args.GetString("json", "");

  std::size_t shed_low = 0;
  std::size_t shed_high = 0;
  const std::string watermarks = args.GetString("watermarks", "");
  if (!watermarks.empty()) {
    const std::size_t colon = watermarks.find(':');
    try {
      if (colon == std::string::npos) throw std::invalid_argument("");
      shed_low = std::stoul(watermarks.substr(0, colon));
      shed_high = std::stoul(watermarks.substr(colon + 1));
      if (shed_high == 0) throw std::invalid_argument("");
    } catch (const std::exception&) {
      std::cerr << "error: --watermarks expects LOW:HIGH with HIGH > 0, "
                   "got '"
                << watermarks << "'\n";
      return 1;
    }
  }

  // Unique request pool shared by all sweeps: serial SA over mixed-size
  // CDD instances (the cheap end of the engine table, so the sweep
  // exercises queue/pool/cache machinery rather than one long solve).
  const orlib::BiskupFeldmannGenerator gen(seed);
  std::vector<serve::SolveRequest> pool;
  const std::size_t pool_size = std::max<std::size_t>(requests / 2, 1);
  pool.reserve(pool_size);
  for (std::size_t u = 0; u < pool_size; ++u) {
    serve::SolveRequest request;
    request.instance = gen.Cdd(sizes[u % sizes.size()],
                               static_cast<std::uint32_t>(u),
                               0.2 + 0.2 * (u % 4));
    request.engine = engine;
    request.options.generations = gens;
    request.options.seed = seed;
    // Deterministic priority mix: scheduling-only, not part of the cache
    // key, so duplicates re-offered at the same level stay cache hits.
    request.priority =
        static_cast<int>(u % priority_levels);
    pool.push_back(std::move(request));
  }

  SweepSetup setup;
  setup.clients = clients;
  setup.requests = requests;
  setup.dup_frac = dup_frac;
  setup.seed = seed;
  setup.preempt_slice = preempt_slice;
  setup.socket = socket;
  setup.shed_low = shed_low;
  setup.shed_high = shed_high;

  std::cout << "=== Serving baseline: closed-loop load generator ("
            << clients << " clients, " << requests << " requests/sweep, "
            << 100.0 * dup_frac << "% duplicate offers, " << engine << "/"
            << gens << " gens, " << (socket ? "socket" : "in-process")
            << " path, tracing " << (tracing ? "ON" : "off") << ") ===\n";
  benchutil::TextTable table({"workers", "req/s", "wall [s]", "p50 [ms]",
                              "p95 [ms]", "p99 [ms]", "cache hit %",
                              "rejections", "shed", "coalesced",
                              "preemptions"});
  std::vector<SweepResult> sweep_results;
  for (const std::uint32_t workers : worker_sweep) {
    setup.workers = workers;
    const SweepResult r = RunSweep(setup, pool);
    sweep_results.push_back(r);
    table.AddRow({std::to_string(r.workers),
                  benchutil::FmtDouble(
                      static_cast<double>(r.requests) / r.wall_seconds, 1),
                  benchutil::FmtDouble(r.wall_seconds, 2),
                  benchutil::FmtDouble(r.p50_ms, 2),
                  benchutil::FmtDouble(r.p95_ms, 2),
                  benchutil::FmtDouble(r.p99_ms, 2),
                  benchutil::FmtDouble(100.0 * r.hit_rate, 1),
                  std::to_string(r.rejected), std::to_string(r.shed),
                  std::to_string(r.coalesced),
                  std::to_string(r.preemptions)});
  }
  std::cout << table.ToString();
  std::cout << "\nNote: closed loop — each client waits for its response "
               "before offering the next request, so req/s is the "
               "service's sustainable throughput at this concurrency, "
               "and backpressure rejections are retried, never lost.\n";

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::cerr << "error: cannot write " << json_path << "\n";
      return 1;
    }
    json << "{\n  \"bench\": \"serve_loadgen\",\n  \"clients\": " << clients
         << ",\n  \"requests\": " << requests
         << ",\n  \"dup_frac\": " << dup_frac << ",\n  \"engine\": \""
         << engine << "\",\n  \"gens\": " << gens
         << ",\n  \"socket\": " << (socket ? "true" : "false")
         << ",\n  \"watermarks\": [" << shed_low << ", " << shed_high
         << "],\n  \"results\": [\n";
    for (std::size_t i = 0; i < sweep_results.size(); ++i) {
      const SweepResult& r = sweep_results[i];
      json << "    {\"workers\": " << r.workers << ", \"req_per_s\": "
           << benchutil::FmtDouble(
                  static_cast<double>(r.requests) / r.wall_seconds, 1)
           << ", \"wall_s\": " << benchutil::FmtDouble(r.wall_seconds, 3)
           << ", \"p50_ms\": " << benchutil::FmtDouble(r.p50_ms, 3)
           << ", \"p95_ms\": " << benchutil::FmtDouble(r.p95_ms, 3)
           << ", \"p99_ms\": " << benchutil::FmtDouble(r.p99_ms, 3)
           << ", \"cache_hit\": " << benchutil::FmtDouble(r.hit_rate, 4)
           << ", \"rejected\": " << r.rejected << ", \"shed\": " << r.shed
           << ", \"coalesced\": " << r.coalesced
           << ", \"preemptions\": " << r.preemptions << "}"
           << (i + 1 < sweep_results.size() ? ",\n" : "\n");
    }
    json << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
