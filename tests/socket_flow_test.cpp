// Socket tests for flow control and multi-connection scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <random>
#include <thread>
#include <vector>

#include "udt/channel.hpp"
#include "udt/multiplexer.hpp"
#include "udt/pacing.hpp"
#include "udt/socket.hpp"

namespace udtr::udt {
namespace {

std::vector<std::uint8_t> make_payload(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  std::mt19937_64 rng{seed};
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

TEST(SocketFlow, TwoSequentialClientsOnOneListener) {
  auto listener = Socket::listen(0);
  ASSERT_NE(listener, nullptr);
  const auto port = listener->local_port();

  const auto pay_a = make_payload(256 << 10, 1);
  const auto pay_b = make_payload(256 << 10, 2);

  auto accept_a = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{5});
  });
  auto client_a = Socket::connect("127.0.0.1", port);
  auto server_a = accept_a.get();
  ASSERT_NE(client_a, nullptr);
  ASSERT_NE(server_a, nullptr);

  auto accept_b = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{5});
  });
  auto client_b = Socket::connect("127.0.0.1", port);
  auto server_b = accept_b.get();
  ASSERT_NE(client_b, nullptr);
  ASSERT_NE(server_b, nullptr);

  // Both connections transfer concurrently and independently.
  auto send_a = std::async(std::launch::async, [&] {
    client_a->send(pay_a);
    client_a->flush(std::chrono::seconds{30});
  });
  auto send_b = std::async(std::launch::async, [&] {
    client_b->send(pay_b);
    client_b->flush(std::chrono::seconds{30});
  });
  const auto drain = [](Socket& s, std::size_t want) {
    std::vector<std::uint8_t> all, buf(1 << 16);
    while (all.size() < want) {
      const std::size_t n = s.recv(buf, std::chrono::seconds{10});
      if (n == 0) break;
      all.insert(all.end(), buf.begin(), buf.begin() + n);
    }
    return all;
  };
  auto got_b = std::async(std::launch::async,
                          [&] { return drain(*server_b, pay_b.size()); });
  const auto got_a = drain(*server_a, pay_a.size());
  send_a.get();
  send_b.get();
  EXPECT_EQ(got_a, pay_a);
  EXPECT_EQ(got_b.get(), pay_b);
  client_a->close();
  client_b->close();
  server_a->close();
  server_b->close();
}

TEST(SocketFlow, SlowReaderThrottledByFlowControlNotBroken) {
  // Tiny receiver buffer + slow reader: the flow-control window in ACKs
  // must keep the sender from overrunning, and everything still arrives.
  SocketOptions opts;
  opts.rcv_buffer_pkts = 64;
  auto listener = Socket::listen(0, opts);
  ASSERT_NE(listener, nullptr);
  auto accepted = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{5});
  });
  auto client = Socket::connect("127.0.0.1", listener->local_port(), opts);
  auto server = accepted.get();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);

  const auto payload = make_payload(512 << 10, 3);
  auto send_done = std::async(std::launch::async, [&] {
    return client->send(payload);
  });
  std::vector<std::uint8_t> got;
  std::vector<std::uint8_t> buf(16 << 10);  // small reads
  while (got.size() < payload.size()) {
    const std::size_t n = server->recv(buf, std::chrono::seconds{20});
    if (n == 0) break;
    got.insert(got.end(), buf.begin(), buf.begin() + n);
    std::this_thread::sleep_for(std::chrono::microseconds{200});  // slow app
  }
  EXPECT_EQ(send_done.get(), payload.size());
  EXPECT_EQ(got, payload);
  client->close();
  server->close();
}

TEST(SocketFlow, WindowControlOffStillReliableUnderLoss) {
  // Fig. 7's "without FC" configuration on the real stack: more loss churn,
  // but the NAK machinery still delivers every byte.
  SocketOptions opts;
  opts.window_control = false;
  opts.faults = make_loss_injector(0.03, 5, kHeaderBytes + 16);
  auto listener = Socket::listen(0, opts);
  auto accepted = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{5});
  });
  auto client = Socket::connect("127.0.0.1", listener->local_port(), opts);
  auto server = accepted.get();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);

  const auto payload = make_payload(256 << 10, 6);
  auto send_done = std::async(std::launch::async, [&] {
    const std::size_t n = client->send(payload);
    client->flush(std::chrono::seconds{60});
    return n;
  });
  std::vector<std::uint8_t> got, buf(1 << 16);
  while (got.size() < payload.size()) {
    const std::size_t n = server->recv(buf, std::chrono::seconds{20});
    if (n == 0) break;
    got.insert(got.end(), buf.begin(), buf.begin() + n);
  }
  EXPECT_EQ(send_done.get(), payload.size());
  EXPECT_EQ(got, payload);
  client->close();
  server->close();
}

TEST(SocketFlow, MaxBandwidthCapIsRespected) {
  SocketOptions opts;
  opts.max_bandwidth_mbps = 50.0;
  auto listener = Socket::listen(0, opts);
  auto accepted = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{5});
  });
  auto client = Socket::connect("127.0.0.1", listener->local_port(), opts);
  auto server = accepted.get();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);

  std::atomic<bool> stop{false};
  auto snd = std::async(std::launch::async, [&] {
    std::vector<std::uint8_t> block(1 << 20, 0x42);
    while (!stop) client->send(block);
  });
  auto rcv = std::async(std::launch::async, [&] {
    std::vector<std::uint8_t> buf(1 << 20);
    while (!stop) server->recv(buf, std::chrono::milliseconds{100});
  });
  std::this_thread::sleep_for(std::chrono::seconds{2});
  const double mbps =
      static_cast<double>(server->perf().bytes_delivered) * 8.0 / 2.0 / 1e6;
  stop = true;
  client->close();
  server->close();
  snd.get();
  rcv.get();
  // The invariant under test is the cap: delivery must never exceed it
  // (plus headroom for the 2 s sampling window's edges).  The floor is
  // only a liveness check — on an oversubscribed CI box the schedulable
  // rate is unbounded below (observed: ~1 Mb/s under 8x ctest load), so
  // it must not assert that pacing reaches the cap.
  EXPECT_LT(mbps, 60.0);
  EXPECT_GT(mbps, 0.5);
}

// Sanitizer builds slow every packet's path several-fold: rounds then run
// late by more than a batch span and re-anchor by design, so those builds
// check only that the cap is never exceeded.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

// Wall time stolen from a thread that asks to wake every millisecond: the
// sum of its oversleeps longer than `span`.  A host that stalls threads for
// longer than a pacing batch span costs any no-burst pacer that time, so a
// window the host stalled through says nothing about the pacer.
class StallProbe {
 public:
  explicit StallProbe(std::chrono::nanoseconds span)
      : thread_([this, span] {
          constexpr std::chrono::milliseconds kTick{1};
          while (!stop_) {
            const auto t = std::chrono::steady_clock::now();
            std::this_thread::sleep_for(kTick);
            const auto late = std::chrono::steady_clock::now() - t - kTick;
            if (late > span) {
              stalled_ns_ += std::chrono::nanoseconds{late}.count();
            }
          }
        }) {}
  ~StallProbe() {
    stop_ = true;
    thread_.join();
  }
  [[nodiscard]] double stalled_s() const { return stalled_ns_ / 1e9; }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> stalled_ns_{0};
  std::thread thread_;
};

// A capped flow must deliver its cap, not merely stay under it.  The cap is
// open loop, so the pacer carries each batch's lateness instead of losing it
// to a re-anchor (Pacer::advance).  Goodput counts payload only, so it sits
// a header's share (16 of 1472 B) below the wire-rate cap.  The parameter
// selects the path: the multiplexer's shared send thread, or exclusive_port.
class CapTracking : public ::testing::TestWithParam<bool> {};

TEST_P(CapTracking, DeliversTheCapWithinHeaderOverhead) {
  constexpr double kCapMbps = 100.0;
  SocketOptions opts;
  opts.max_bandwidth_mbps = kCapMbps;
  opts.exclusive_port = GetParam();
  auto listener = Socket::listen(0, opts);
  ASSERT_NE(listener, nullptr);
  auto accepted = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{5});
  });
  auto client = Socket::connect("127.0.0.1", listener->local_port(), opts);
  auto server = accepted.get();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);

  std::atomic<bool> stop{false};
  auto snd = std::async(std::launch::async, [&] {
    const auto block = make_payload(1 << 20, 7);
    while (!stop) client->send(block);
  });
  auto rcv = std::async(std::launch::async, [&] {
    std::vector<std::uint8_t> buf(1 << 20);
    while (!stop) server->recv(buf, std::chrono::milliseconds{100});
  });
  // Skip the connection's start-up, then measure 2 s windows.  The flow
  // may never exceed the cap.  It must reach 0.95 of it in one of up to
  // three quiet windows, through which the host kept its threads on
  // schedule (stalls under 1% of the window).  Host stalls come in spells,
  // so a noisy window does not count among the three; the test waits up to
  // ten windows for quiet ones.  With none it is skipped: that host cannot
  // tell a pacer defect from its own stalls.  Only stalls longer than one
  // batch span count: the pacer carries a cap-bound batch's lateness up to
  // that span (Pacer::advance), so shorter ones cost the flow nothing.  At
  // this cap a batch is 8 packets (~1 ms).
  const std::chrono::nanoseconds period{static_cast<std::int64_t>(
      (opts.mss_bytes + kHeaderBytes) * 8.0 / kCapMbps * 1e3)};
  const StallProbe probe{period * batch_credit(period, opts.io_batch)};
  std::this_thread::sleep_for(std::chrono::milliseconds{500});
  double best = -1.0;  // best share among quiet windows
  double stalled_min = 1.0;
  int quiet = 0;
  for (int window = 0; window < 10 && quiet < 3 && best < 0.95; ++window) {
    const auto b0 = server->perf().bytes_delivered;
    const double s0 = probe.stalled_s();
    const auto t0 = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::seconds{2});
    const auto b1 = server->perf().bytes_delivered;
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    const double stalled = (probe.stalled_s() - s0) / secs;
    const double share =
        static_cast<double>(b1 - b0) * 8.0 / secs / 1e6 / kCapMbps;
    EXPECT_LE(share, 1.0) << "window " << window;
    stalled_min = std::min(stalled_min, stalled);
    if (stalled < 0.01) {
      ++quiet;
      best = std::max(best, share);
    }
  }
  stop = true;
  client->close();
  server->close();
  snd.get();
  rcv.get();
  if (best < 0.0) {
    GTEST_SKIP() << "SKIPPED (host stalled threads for " << 100 * stalled_min
                 << "% of every window)";
  }
  if (!kSanitized) {
    EXPECT_GE(best, 0.95);
  }
}

// Each paced send carries about 1 ms of the rate (kBatchHorizon, the
// tcp_tso_autosize rule): at a 100 Mb/s cap, a period of ~121 us, that is
// 8 packets where a 200 us horizon allowed 1.  Datagrams per send syscall,
// read from the sending channel's counters, must show the larger unit
// (above 4) and never more than one horizon of the rate per send
// (ceil(1 ms / period), which leaves room for an RBPP pair's forced
// successor).  ACK2s and other single-datagram control sends only pull
// the average down.
TEST(SocketFlow, PacedSendsCarryOneHorizonOfTheRate) {
  constexpr double kCapMbps = 100.0;
  SocketOptions opts;
  opts.max_bandwidth_mbps = kCapMbps;
  // The mmsg backend counts every send syscall it makes; the uring
  // backend's receive thread may submit queued sends on the sender's
  // behalf, so its count is not one per burst.
  opts.io_backend = IoBackend::kMmsg;
  auto listener = Socket::listen(0, opts);
  ASSERT_NE(listener, nullptr);
  auto accepted = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{5});
  });
  auto client = Socket::connect("127.0.0.1", listener->local_port(), opts);
  auto server = accepted.get();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);
  const auto mux = client->multiplexer();
  ASSERT_NE(mux, nullptr);
  const UdpChannel& ch = mux->channel_for(client->id());

  std::atomic<bool> stop{false};
  auto snd = std::async(std::launch::async, [&] {
    const auto block = make_payload(1 << 20, 11);
    while (!stop) client->send(block);
  });
  auto rcv = std::async(std::launch::async, [&] {
    std::vector<std::uint8_t> buf(1 << 20);
    while (!stop) server->recv(buf, std::chrono::milliseconds{100});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds{500});
  const auto d0 = ch.datagrams_sent();
  const auto c0 = ch.send_syscalls();
  std::this_thread::sleep_for(std::chrono::seconds{1});
  const auto d1 = ch.datagrams_sent();
  const auto c1 = ch.send_syscalls();
  stop = true;
  client->close();
  server->close();
  snd.get();
  rcv.get();

  ASSERT_GT(c1, c0);
  const double per_send =
      static_cast<double>(d1 - d0) / static_cast<double>(c1 - c0);
  const double period_ns =
      (opts.mss_bytes + kHeaderBytes) * 8.0 / kCapMbps * 1e3;
  const double horizon_pkts = std::ceil(
      static_cast<double>(kBatchHorizon.count()) / period_ns);
  EXPECT_GT(per_send, 4.0) << "datagrams per send";
  EXPECT_LE(per_send, horizon_pkts) << "datagrams per send";
}

INSTANTIATE_TEST_SUITE_P(SocketFlow, CapTracking, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "ExclusivePort"
                                             : "SharedSendThread";
                         });

}  // namespace
}  // namespace udtr::udt
