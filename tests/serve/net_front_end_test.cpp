/// The epoll socket front-end end-to-end: request/response round-trips
/// over a real TCP connection, keep-alive reuse, per-frame errors that
/// leave the connection usable, broken framing that answers once and
/// closes, the max_conns accept cap, and pipelined replies drained
/// through a small receive window.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

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

}  // namespace
}  // namespace cdd::serve::net
