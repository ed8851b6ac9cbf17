// Cross-cutting property tests (TEST_P sweeps) over the protocol's
// invariants: congestion-control bounds, link conservation/FIFO under
// random load, and full-stack transfer exactness across the MSS grid.
#include <gtest/gtest.h>

#include <future>
#include <random>

#include "cc/udt_cc.hpp"
#include "netsim/stats.hpp"
#include "netsim/topology.hpp"
#include "udt/socket.hpp"

namespace {

// ------------------------------------------------ UdtCc invariants ---------

struct CcGrid {
  double bandwidth_bps;
  int mss;
};

class UdtCcInvariants : public ::testing::TestWithParam<CcGrid> {};

TEST_P(UdtCcInvariants, IncreaseBoundedAndUnitConsistent) {
  const auto [b, mss] = GetParam();
  const double inc = udtr::cc::UdtCc::increase_for_bandwidth(b, mss);
  // Lower bound: the probing floor.  Upper bound: one decade above the
  // bandwidth itself expressed in packets/SYN.
  EXPECT_GE(inc, (1.0 / 1500.0) * (1500.0 / mss));
  const double b_pkts_per_syn = b / (8.0 * mss) * 0.01;
  EXPECT_LE(inc, std::max(10.0 * b_pkts_per_syn, 1.0 / mss * 1500.0));
  // Bits-per-SYN increment is MSS-invariant (the 1500/MSS correction).
  const double bits1 = inc * mss * 8.0;
  const double bits2 =
      udtr::cc::UdtCc::increase_for_bandwidth(b, 1500) * 1500.0 * 8.0;
  EXPECT_NEAR(bits1, bits2, bits2 * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, UdtCcInvariants,
    ::testing::Values(CcGrid{1e5, 1500}, CcGrid{1e7, 1500},
                      CcGrid{1e9, 1500}, CcGrid{1e10, 1500},
                      CcGrid{1e9, 500}, CcGrid{1e9, 8948},
                      CcGrid{3.3e8, 1250}, CcGrid{7.7e6, 9000}));

TEST(UdtCcInvariants, PeriodStaysPositiveUnderEventStorm) {
  // Fuzz the controller with a random event storm; the period and window
  // must stay finite and positive throughout.
  std::mt19937_64 rng{99};
  udtr::cc::UdtCc cc;
  double now = 0.0;
  std::int32_t seq = 0;
  for (int i = 0; i < 20000; ++i) {
    now += static_cast<double>(rng() % 20) * 1e-3;
    cc.set_now(now);
    const int ev = static_cast<int>(rng() % 10);
    if (ev < 6) {
      udtr::cc::AckInfo a;
      seq += static_cast<std::int32_t>(rng() % 1000);
      a.ack_seq = udtr::SeqNo{seq};
      a.rtt_s = 1e-4 + static_cast<double>(rng() % 1000) * 1e-3;
      a.recv_rate_pps = static_cast<double>(rng() % 100000);
      a.capacity_pps = static_cast<double>(rng() % 100000);
      a.avail_buffer_pkts = static_cast<double>(rng() % 10000 + 2);
      cc.on_ack(a);
    } else if (ev < 9) {
      cc.on_nak(udtr::SeqNo{seq}, udtr::SeqNo{seq + 50});
    } else {
      cc.on_timeout();
    }
    ASSERT_GT(cc.pkt_send_period_s(), 0.0);
    ASSERT_LE(cc.pkt_send_period_s(), 10.0);
    ASSERT_GE(cc.window_packets(), 1.0);
    ASSERT_TRUE(std::isfinite(cc.window_packets()));
  }
}

// -------------------------------------- link conservation under load -------

class LinkConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinkConservation, DeliveredPlusDroppedPlusQueuedEqualsEnqueued) {
  using namespace udtr::sim;
  std::mt19937_64 rng{GetParam()};
  Simulator sim;
  Link link{sim, udtr::Bandwidth::mbps(10), 0.001,
            5 + rng() % 50};
  // Random bursty offered load around 2x capacity.
  struct Sink2 final : Consumer {
    void receive(Packet) override { ++n; }
    std::uint64_t n = 0;
  } counter;
  link.set_next(&counter);
  double t = 0.0;
  std::uint64_t offered = 0;
  for (int i = 0; i < 2000; ++i) {
    t += static_cast<double>(rng() % 1000) * 1e-6;
    const int burst = 1 + static_cast<int>(rng() % 8);
    sim.at(t, [&link, burst] {
      for (int k = 0; k < burst; ++k) {
        Packet p;
        p.kind = PacketKind::kPlainUdp;
        p.size_bytes = 1500;
        link.receive(std::move(p));
      }
    });
    offered += static_cast<std::uint64_t>(burst);
  }
  sim.run_all();
  const auto& st = link.stats();
  EXPECT_EQ(st.enqueued, offered);
  EXPECT_EQ(st.delivered + st.dropped, offered);
  EXPECT_EQ(counter.n, st.delivered);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkConservation,
                         ::testing::Values(1, 2, 3, 4));

TEST(LinkFifo, OrderPreservedUnderOverload) {
  using namespace udtr::sim;
  Simulator sim;
  Link link{sim, udtr::Bandwidth::mbps(5), 0.002, 30};
  struct OrderSink final : Consumer {
    void receive(Packet p) override {
      if (last >= 0) {
        EXPECT_GT(p.seq.value(), last);
      }
      last = p.seq.value();
    }
    std::int32_t last = -1;
  } sink;
  link.set_next(&sink);
  std::mt19937_64 rng{7};
  double t = 0.0;
  for (int i = 0; i < 500; ++i) {
    t += static_cast<double>(rng() % 3000) * 1e-6;
    sim.at(t, [&link, i] {
      Packet p;
      p.kind = PacketKind::kPlainUdp;
      p.size_bytes = 1500;
      p.seq = udtr::SeqNo{i};
      link.receive(std::move(p));
    });
  }
  sim.run_all();
  EXPECT_GT(sink.last, 0);
}

// -------------------------------------------- full-stack MSS sweep ---------

class SocketMssSweep : public ::testing::TestWithParam<int> {};

TEST_P(SocketMssSweep, LoopbackTransferExactAtEveryMss) {
  using namespace udtr::udt;
  SocketOptions opts;
  opts.mss_bytes = GetParam();
  // Exercise retransmission at every size.
  opts.faults = make_loss_injector(0.01, 77, kHeaderBytes + 16);
  auto listener = Socket::listen(0, opts);
  ASSERT_NE(listener, nullptr);
  auto accepted = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{5});
  });
  auto client = Socket::connect("127.0.0.1", listener->local_port(), opts);
  auto server = accepted.get();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);

  std::vector<std::uint8_t> payload(300 << 10);
  std::mt19937_64 rng{static_cast<std::uint64_t>(GetParam())};
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng());

  auto sent = std::async(std::launch::async, [&] {
    const std::size_t n = client->send(payload);
    client->flush(std::chrono::seconds{60});
    return n;
  });
  std::vector<std::uint8_t> got, buf(1 << 16);
  while (got.size() < payload.size()) {
    const std::size_t n = server->recv(buf, std::chrono::seconds{15});
    if (n == 0) break;
    got.insert(got.end(), buf.begin(), buf.begin() + n);
  }
  EXPECT_EQ(sent.get(), payload.size());
  EXPECT_EQ(got, payload);
  client->close();
  server->close();
}

INSTANTIATE_TEST_SUITE_P(Sizes, SocketMssSweep,
                         ::testing::Values(472, 972, 1456, 4000, 8972));

}  // namespace
