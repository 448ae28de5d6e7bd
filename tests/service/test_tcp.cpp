/// TCP transport tests: TcpConnection clients, legacy (non-mux) frames,
/// against the ReactorServer.
#include "axc/service/tcp.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "axc/obs/obs.hpp"
#include "axc/service/reactor.hpp"
#include "axc/service/transport.hpp"

namespace axc::service {
namespace {

std::uint64_t counter_value(const std::string& name) {
  const auto snap = obs::snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

TEST(Tcp, AllEndpointsRoundTripOverSockets) {
  Server server({.workers = 2});
  ReactorServer reactor(server, {});  // loopback, ephemeral port
  ASSERT_NE(reactor.port(), 0);

  TcpConnection connection("127.0.0.1", reactor.port());
  Client client(connection);

  EXPECT_NO_THROW(client.ping());

  const CharacterizeResponse adder =
      client.characterize_adder({.width = 8, .param_a = 2, .param_b = 2});
  EXPECT_GT(adder.area_ge, 0.0);

  const CharacterizeResponse mul = client.characterize_multiplier(
      {.width = 4, .block = arith::Mul2x2Kind::SoA, .vectors = 128});
  EXPECT_GT(mul.gate_count, 0u);

  EvaluateErrorRequest eval;
  eval.gear = {8, 2, 2};
  const EvaluateErrorResponse stats = client.evaluate_error(eval);
  EXPECT_TRUE(stats.exhaustive);

  GearDesignSpaceRequest space;
  space.width = 8;
  EXPECT_FALSE(client.gear_design_space(space).points.empty());

  EncodeProbeRequest probe;
  probe.width = 32;
  probe.height = 32;
  probe.frames = 2;
  EXPECT_GT(client.encode_probe(probe).total_bits, 0u);

  reactor.stop();
  EXPECT_TRUE(reactor.stopped());
  server.stop();
}

TEST(Tcp, TcpResponseMatchesLoopbackByteForByte) {
  Server server({.workers = 2});
  ReactorServer reactor(server, {});
  TcpConnection socket("127.0.0.1", reactor.port());
  LoopbackConnection loopback(server);

  const Bytes request =
      encode_request(CharacterizeAdderRequest{.width = 8, .param_a = 2,
                                              .param_b = 2});
  const Bytes over_socket = socket.roundtrip(request);
  const Bytes over_loopback = loopback.roundtrip(request);
  EXPECT_EQ(over_socket, over_loopback);

  reactor.stop();
  server.stop();
}

TEST(Tcp, RemoteShutdownIsRejectedUnlessEnabled) {
  Server server({.workers = 1});
  ReactorServer reactor(server, {});  // remote shutdown off by default
  TcpConnection connection("127.0.0.1", reactor.port());
  Client client(connection);

  try {
    client.shutdown();
    FAIL() << "expected ServiceError";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.status(), Status::BadRequest);
  }
  // The refusal must not have stopped the transport.
  EXPECT_FALSE(reactor.stopped());
  EXPECT_NO_THROW(client.ping());

  reactor.stop();
  server.stop();
}

TEST(Tcp, RemoteShutdownDrainsWhenEnabled) {
  Server server({.workers = 2});
  ReactorServer reactor(server, {.allow_remote_shutdown = true});

  {
    TcpConnection connection("127.0.0.1", reactor.port());
    Client client(connection);
    EXPECT_NO_THROW(client.ping());
    EXPECT_NO_THROW(client.shutdown());  // acknowledged before the stop
  }
  reactor.wait();
  EXPECT_TRUE(reactor.stopped());
  server.stop();
}

TEST(Tcp, ConcurrentConnectionsEachGetTheirOwnAnswers) {
  Server server({.workers = 4});
  ReactorServer reactor(server, {});

  std::vector<std::thread> clients;
  std::vector<std::uint64_t> gates(4, 0);
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&reactor, &gates, t] {
      TcpConnection connection("127.0.0.1", reactor.port());
      Client client(connection);
      for (int i = 0; i < 5; ++i) {
        CharacterizeAdderRequest req;
        req.family = AdderFamily::Loa;
        req.width = 8;
        req.param_a = static_cast<std::uint32_t>(t + 1);
        req.vectors = 64;
        gates[static_cast<std::size_t>(t)] =
            client.characterize_adder(req).gate_count;
      }
    });
  }
  for (std::thread& c : clients) c.join();
  // Distinct configurations -> distinct gate counts, so any cross-wired
  // response would show up as a duplicate.
  for (int t = 1; t < 4; ++t) {
    EXPECT_NE(gates[static_cast<std::size_t>(t)], gates[0]);
  }
  reactor.stop();
  server.stop();
}

TEST(Tcp, IdleAcceptorTakesZeroWakeups) {
  // The reactor thread is also the acceptor. It blocks in epoll_wait with
  // no timeout and an eventfd for stop signals, so an idle reactor must
  // take exactly zero service.reactor.epoll_wakeups over an idle window,
  // and shutdown must still be immediate. Counter deltas, not timing
  // asserts: robust on loaded CI.
  obs::set_enabled(true);
  Server server({.workers = 1});
  ReactorServer reactor(server, {});
  {
    TcpConnection connection("127.0.0.1", reactor.port());
    Client client(connection);
    client.ping();  // prove the reactor is alive first
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::uint64_t wakeups_before =
      counter_value("service.reactor.epoll_wakeups");
  EXPECT_GT(wakeups_before, 0u);  // the ping itself woke the reactor
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(counter_value("service.reactor.epoll_wakeups"), wakeups_before);

  const auto stop_started = std::chrono::steady_clock::now();
  reactor.stop();
  const auto stop_took = std::chrono::steady_clock::now() - stop_started;
  EXPECT_TRUE(reactor.stopped());
  // Generous bound: the point is "eventfd wakeup", not "poll interval".
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(stop_took)
                .count(),
            5000);
  server.stop();
}

TEST(Tcp, ConnectToClosedPortThrows) {
  std::uint16_t dead_port = 0;
  {
    Server server({.workers = 1});
    ReactorServer reactor(server, {});
    dead_port = reactor.port();
    reactor.stop();
    server.stop();
  }
  EXPECT_THROW(TcpConnection("127.0.0.1", dead_port), std::runtime_error);
}

}  // namespace
}  // namespace axc::service
