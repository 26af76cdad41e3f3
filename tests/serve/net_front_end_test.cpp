/// The epoll socket front-end end-to-end: request/response round-trips
/// over a real TCP connection, keep-alive reuse, per-frame errors that
/// leave the connection usable, broken framing that answers once and
/// closes, the max_conns accept cap, pipelined replies drained through a
/// small receive window, overload shedding in priority order on one
/// pipelined connection, and manifests that match in-process recording.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fake_engines.hpp"
#include "common/test_instances.hpp"
#include "serve/net/client.hpp"
#include "serve/net/frame.hpp"
#include "serve/net/front_end.hpp"
#include "serve/net/wire.hpp"
#include "serve/service.hpp"

namespace cdd::serve::net {
namespace {

SolveRequest SmallRequest(std::uint64_t id) {
  SolveRequest request;
  request.id = id;
  request.instance = cdd::testing::PaperExampleCdd();
  request.engine = "sa";
  request.options.generations = 100;
  return request;
}

bool AwaitCounter(SolverService& service, const char* name,
                  std::uint64_t at_least) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.metrics().counter(name).value() < at_least) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(FrontEnd, RoundTripAndKeepAlive) {
  ServiceConfig config;
  config.workers = 2;
  SolverService service(config);
  FrontEndConfig net;
  net.port = 0;  // ephemeral
  FrontEnd front_end(net, service);
  ASSERT_GT(front_end.port(), 0);

  BlockingClient client("127.0.0.1", front_end.port());
  SolveResponse first;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const SolveResponse response = client.Call(SmallRequest(i));
    EXPECT_EQ(response.id, i);
    ASSERT_TRUE(response.status == SolveStatus::kOk ||
                response.status == SolveStatus::kCacheHit);
    EXPECT_FALSE(response.result.best.empty());
    if (i == 0) {
      first = response;
    } else {
      // Identical re-offers are cache hits with the identical result.
      EXPECT_EQ(response.status, SolveStatus::kCacheHit);
      EXPECT_EQ(response.result.best, first.result.best);
      EXPECT_EQ(response.result.best_cost, first.result.best_cost);
    }
  }
  // Keep-alive: one accepted connection served all three frames.
  EXPECT_EQ(front_end.connections(), 1u);
  EXPECT_EQ(service.metrics().counter("net_accepted").value(), 1u);
  EXPECT_EQ(service.metrics().counter("net_frames_in").value(), 3u);
  EXPECT_EQ(service.metrics().counter("net_frames_out").value(), 3u);
  front_end.Stop();
  service.Shutdown();
}

TEST(FrontEnd, MalformedRequestGetsErrorReplyConnectionSurvives) {
  ServiceConfig config;
  config.workers = 1;
  SolverService service(config);
  FrontEndConfig net;
  net.port = 0;
  FrontEnd front_end(net, service);

  BlockingClient client("127.0.0.1", front_end.port());
  // Valid frame, defective payload: per-frame error, stream stays in sync.
  client.SendRaw(EncodeFrame(R"({"op":"nope"})"));
  const SolveResponse error = client.Receive();
  EXPECT_EQ(error.status, SolveStatus::kFailed);
  EXPECT_FALSE(error.error.empty());
  EXPECT_GE(service.metrics().counter("net_protocol_errors").value(), 1u);

  // The same connection still serves real requests afterwards.
  const SolveResponse good = client.Call(SmallRequest(4));
  EXPECT_EQ(good.id, 4u);
  EXPECT_EQ(good.status, SolveStatus::kOk);
  front_end.Stop();
  service.Shutdown();
}

TEST(FrontEnd, BrokenFramingAnswersOnceThenCloses) {
  ServiceConfig config;
  config.workers = 1;
  SolverService service(config);
  FrontEndConfig net;
  net.port = 0;
  FrontEnd front_end(net, service);

  BlockingClient client("127.0.0.1", front_end.port());
  // A zero length prefix cannot be resynchronized from.
  client.SendRaw(std::string(4, '\0'));
  const SolveResponse error = client.Receive();
  EXPECT_EQ(error.status, SolveStatus::kFailed);
  // The server hangs up after draining the error reply.
  EXPECT_THROW(client.ReceiveFramePayload(), ClientError);
  front_end.Stop();
  service.Shutdown();
}

TEST(FrontEnd, MaxConnsCapClosesExcessClients) {
  ServiceConfig config;
  config.workers = 1;
  SolverService service(config);
  FrontEndConfig net;
  net.port = 0;
  net.max_conns = 1;
  FrontEnd front_end(net, service);

  BlockingClient first("127.0.0.1", front_end.port());
  EXPECT_EQ(first.Call(SmallRequest(1)).status, SolveStatus::kOk);

  // The TCP handshake still succeeds (kernel backlog), but the front-end
  // closes the excess connection at accept time.
  BlockingClient second("127.0.0.1", front_end.port());
  ASSERT_TRUE(AwaitCounter(service, "net_rejected_max_conns", 1));
  EXPECT_THROW(
      {
        second.Send(SmallRequest(2));
        (void)second.Receive();
      },
      ClientError);

  // The first connection is unaffected (identical re-offer: cache hit).
  EXPECT_EQ(first.Call(SmallRequest(3)).status, SolveStatus::kCacheHit);
  front_end.Stop();
  service.Shutdown();
}

TEST(FrontEnd, PipelinedRepliesSurviveSmallReceiveWindow) {
  // The client pipelines 50 requests before it reads any reply, through
  // a receive window far smaller than the replies: the server's writes
  // come back short and EAGAIN, and the outbox must drain across many
  // partial writes without losing, splitting or reordering a frame.
  ServiceConfig config;
  config.workers = 1;  // one solver: replies complete in request order
  SolverService service(config);
  FrontEndConfig net;
  net.port = 0;
  FrontEnd front_end(net, service);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int window = 2048;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &window, sizeof(window)),
            0);
  // Loopback's 64 KiB segments would let the server's send buffer grow
  // past everything queued here; small segments keep it to a few dozen
  // KiB, so the outbox backs up and drains in many short writes.
  const int segment = 536;
  ASSERT_EQ(::setsockopt(fd, IPPROTO_TCP, TCP_MAXSEG, &segment,
                         sizeof(segment)),
            0);
  const timeval timeout{10, 0};  // fail rather than hang
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(front_end.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  const auto send_all = [fd](const std::string& bytes) {
    for (std::size_t sent = 0; sent < bytes.size();) {
      const ssize_t wrote =
          ::write(fd, bytes.data() + sent, bytes.size() - sent);
      ASSERT_GT(wrote, 0);
      sent += static_cast<std::size_t>(wrote);
    }
  };
  FrameDecoder decoder;
  std::vector<SolveResponse> replies;
  const auto receive_until = [fd, &decoder, &replies](std::size_t count) {
    char buffer[1024];
    while (replies.size() < count) {
      const ssize_t got = ::read(fd, buffer, sizeof(buffer));
      ASSERT_GT(got, 0) << "after " << replies.size() << " replies";
      decoder.Append(buffer, static_cast<std::size_t>(got));
      while (auto payload = decoder.Next()) {
        replies.push_back(ParseResponse(*payload));
      }
    }
  };

  // One solve fills the cache; the pipelined re-offers are then answered
  // at once, so the replies pile up faster than the client drains them.
  constexpr std::uint64_t kRequests = 50;
  constexpr std::uint32_t kJobs = 1000;
  SolveRequest request;
  request.instance = cdd::testing::RandomCdd(kJobs, 0.4, 7);
  request.options.generations = 20;
  ASSERT_NO_FATAL_FAILURE(send_all(EncodeFrame(WriteRequest(request))));
  ASSERT_NO_FATAL_FAILURE(receive_until(1));
  ASSERT_EQ(replies[0].status, SolveStatus::kOk);

  std::string pipeline;
  for (std::uint64_t i = 1; i <= kRequests; ++i) {
    request.id = i;
    pipeline += EncodeFrame(WriteRequest(request));
  }
  ASSERT_NO_FATAL_FAILURE(send_all(pipeline));
  // Every reply is queued before the client reads the first of them.
  ASSERT_TRUE(AwaitCounter(service, "net_frames_out", kRequests + 1));
  ASSERT_NO_FATAL_FAILURE(receive_until(kRequests + 1));
  ::close(fd);
  EXPECT_EQ(decoder.buffered(), 0u);
  for (std::uint64_t i = 1; i <= kRequests; ++i) {
    EXPECT_EQ(replies[i].id, i);
    EXPECT_EQ(replies[i].status, SolveStatus::kCacheHit);
    EXPECT_EQ(replies[i].result.best, replies[0].result.best);
  }
  front_end.Stop();
  service.Shutdown();
}

TEST(FrontEnd, PipelinedOverloadShedsLowestPriorityThenSolvesHighestFirst) {
  // The admission order of ServiceAdmission.OverloadShedsLowestPriorityFirst
  // on one pipelined connection: the priority must survive the wire, and
  // the replies arrive in the order the lone worker answers them.
  cdd::testing::Gate gate;
  const EngineRegistry registry = cdd::testing::BlockingRegistry(&gate);
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 8;
  config.cache_capacity = 0;
  config.shed_low_watermark = 1;
  config.shed_high_watermark = 4;
  SolverService service(config, registry);
  FrontEnd front_end(FrontEndConfig{}, service);

  SolveRequest blocker = SmallRequest(99);
  blocker.engine = "block";
  std::future<SolveResponse> parked = service.Submit(std::move(blocker));
  while (gate.entered.load() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Fill to the high watermark with priorities 5..2, then offer two
  // lower-priority requests (shed on arrival) and one higher-priority
  // request (displaces the queued priority-2 victim).
  const std::vector<int> priorities = {5, 4, 3, 2, 1, 0, 6};
  std::map<std::uint64_t, int> priority_of;
  BlockingClient client("127.0.0.1", front_end.port());
  for (std::size_t i = 0; i < priorities.size(); ++i) {
    SolveRequest request = SmallRequest(10 + i);
    request.instance =
        cdd::testing::RandomCdd(10, 0.5, /*seed=*/request.id);
    request.priority = priorities[i];
    priority_of[request.id] = priorities[i];
    client.Send(request);
  }

  // With the worker parked nothing else can answer: the first three
  // replies are the sheds, ids 14 (prio 1) and 15 (prio 0) on arrival and
  // id 13 (prio 2) displaced by the prio-6 arrival.  Should fewer be
  // shed, the gate opens so that the replies read below still arrive.
  if (!AwaitCounter(service, "shed_overload", 3)) {
    ADD_FAILURE() << "fewer than three requests were shed";
    gate.Release();
  }
  std::vector<int> shed_priorities;
  for (int i = 0; i < 3; ++i) {
    const SolveResponse r = client.Receive();
    EXPECT_EQ(r.status, SolveStatus::kShedOverload) << "id " << r.id;
    shed_priorities.push_back(priority_of[r.id]);
  }
  std::sort(shed_priorities.begin(), shed_priorities.end());
  EXPECT_EQ(shed_priorities, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(service.metrics().counter("shed_overload").value(), 3u);

  gate.Release();
  parked.get();
  // The survivors solve highest priority first: 6, 5, 4, 3.
  std::vector<std::uint64_t> completion_order;
  for (int i = 0; i < 4; ++i) {
    const SolveResponse r = client.Receive();
    EXPECT_EQ(r.status, SolveStatus::kOk) << "id " << r.id;
    completion_order.push_back(r.id);
  }
  EXPECT_EQ(completion_order, (std::vector<std::uint64_t>{16, 10, 11, 12}));
  front_end.Stop();
  service.Shutdown();
}

TEST(FrontEnd, ManifestMatchesInProcessRecording) {
  // The replay guarantee through the wire: the same requests recorded
  // behind the socket and in process leave byte-identical manifests.
  std::vector<SolveRequest> requests;
  for (std::uint64_t i = 0; i < 6; ++i) {
    SolveRequest request = SmallRequest(i);
    request.instance = cdd::testing::RandomCdd(20, 0.2 + 0.1 * (i % 4), i);
    request.options.generations = 150;
    request.options.seed = 5;
    requests.push_back(std::move(request));
  }
  const std::string stem = ::testing::TempDir() + "/front_end_manifest." +
                           std::to_string(::getpid());
  const auto record = [&requests](const std::string& path,
                                  bool over_socket) {
    std::remove(path.c_str());
    {  // the manifest is complete once the service is destroyed
      ServiceConfig config;
      config.workers = 1;
      config.manifest_path = path;
      SolverService service(config);
      if (over_socket) {
        FrontEnd front_end(FrontEndConfig{}, service);
        BlockingClient client("127.0.0.1", front_end.port());
        for (const SolveRequest& request : requests) {
          EXPECT_EQ(client.Call(request).status, SolveStatus::kOk);
        }
        front_end.Stop();
      } else {
        for (const SolveRequest& request : requests) {
          EXPECT_EQ(service.Submit(request).get().status, SolveStatus::kOk);
        }
      }
      service.Shutdown();
    }
    std::ifstream in(path);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    std::remove(path.c_str());
    return bytes.str();
  };
  const std::string in_process = record(stem + ".inproc.jsonl", false);
  const std::string socket = record(stem + ".socket.jsonl", true);
  EXPECT_FALSE(in_process.empty());
  EXPECT_EQ(socket, in_process);
}

}  // namespace
}  // namespace cdd::serve::net
