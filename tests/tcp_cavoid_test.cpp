#include "cc/tcp_cavoid.hpp"

#include <gtest/gtest.h>

#include "netsim/stats.hpp"
#include "netsim/topology.hpp"

namespace udtr::cc {
namespace {

TEST(Reno, AddsOneSegmentPerWindowOfAcks) {
  RenoCongAvoid ca;
  double w = 100.0;
  for (int i = 0; i < 100; ++i) w = ca.on_ack(w);
  EXPECT_NEAR(w, 101.0, 0.01);
}

TEST(Reno, HalvesOnLoss) {
  RenoCongAvoid ca;
  EXPECT_DOUBLE_EQ(ca.on_loss(100.0), 50.0);
  EXPECT_DOUBLE_EQ(ca.on_loss(3.0), 2.0);  // floor at 2 segments
}

TEST(Scalable, MimdGrowthAboveThreshold) {
  ScalableCongAvoid ca;
  EXPECT_DOUBLE_EQ(ca.on_ack(1000.0), 1000.01);
  EXPECT_DOUBLE_EQ(ca.on_loss(1000.0), 875.0);
}

TEST(Scalable, FallsBackToRenoBelowThreshold) {
  ScalableCongAvoid ca{16.0};
  EXPECT_NEAR(ca.on_ack(8.0), 8.0 + 1.0 / 8.0, 1e-12);
  EXPECT_DOUBLE_EQ(ca.on_loss(8.0), 4.0);
}

TEST(HighSpeed, LegacyRegionMatchesReno) {
  HighSpeedCongAvoid ca;
  EXPECT_DOUBLE_EQ(HighSpeedCongAvoid::a(38.0), 1.0);
  EXPECT_DOUBLE_EQ(HighSpeedCongAvoid::b(38.0), 0.5);
  EXPECT_NEAR(ca.on_ack(30.0), 30.0 + 1.0 / 30.0, 1e-12);
}

TEST(HighSpeed, RfcEndpointValues) {
  // RFC 3649: at W = 83000, a(w) ~ 72 and b(w) = 0.1.
  EXPECT_NEAR(HighSpeedCongAvoid::b(83000.0), 0.1, 1e-9);
  EXPECT_NEAR(HighSpeedCongAvoid::a(83000.0), 72.0, 4.0);
}

TEST(HighSpeed, GrowthAndDecreaseAreMonotoneInWindow) {
  double prev_a = 0.0;
  double prev_b = 1.0;
  for (double w = 38.0; w <= 83000.0; w *= 1.7) {
    EXPECT_GE(HighSpeedCongAvoid::a(w), prev_a);
    EXPECT_LE(HighSpeedCongAvoid::b(w), prev_b + 1e-12);
    prev_a = HighSpeedCongAvoid::a(w);
    prev_b = HighSpeedCongAvoid::b(w);
  }
}

TEST(HighSpeed, LessAggressiveDecreaseAtLargeWindows) {
  HighSpeedCongAvoid ca;
  // 10000-packet window loses less than half.
  EXPECT_GT(ca.on_loss(10000.0), 5000.0);
  EXPECT_LT(ca.on_loss(10000.0), 10000.0);
}

TEST(Factory, ResolvesAllNames) {
  EXPECT_EQ(make_cong_avoid("reno-sack")->name(), "reno-sack");
  EXPECT_EQ(make_cong_avoid("reno")->name(), "reno-sack");
  EXPECT_EQ(make_cong_avoid("scalable")->name(), "scalable");
  EXPECT_EQ(make_cong_avoid("highspeed")->name(), "highspeed");
  EXPECT_THROW((void)make_cong_avoid("warp-speed"), std::invalid_argument);
}

// --- RTT-aware strategies: Bic, Vegas, FAST ---------------------------------

TEST(Bic, BinarySearchApproachesLastMax) {
  BicCongAvoid bic;
  double w = bic.on_loss(1000.0);  // last_max = 1000, w = 875
  EXPECT_DOUBLE_EQ(w, 875.0);
  // Growth step is half the distance to last_max, capped at Smax, applied
  // fractionally per ACK.
  const double step = (bic.on_ack(875.0) - 875.0) * 875.0;
  EXPECT_NEAR(step, 32.0, 1e-9);  // (1000-875)/2 = 62.5 -> capped at Smax
  const double near = (bic.on_ack(995.0) - 995.0) * 995.0;
  EXPECT_NEAR(near, 2.5, 1e-9);   // (1000-995)/2
}

TEST(Bic, MaxProbingAboveLastMax) {
  BicCongAvoid bic;
  (void)bic.on_loss(100.0);
  const double step = (bic.on_ack(120.0) - 120.0) * 120.0;
  EXPECT_GT(step, 1.0);   // ramping up beyond the old max
  EXPECT_LE(step, 32.0);
}

TEST(Vegas, HoldsWindowInsideAlphaBetaBand) {
  VegasCongAvoid vegas{2.0, 4.0};
  // backlog = cwnd * (1 - base/rtt) = 100 * (1 - 0.1/0.103) ~ 2.9 packets.
  const CaContext ctx{0.103, 0.100};
  EXPECT_DOUBLE_EQ(vegas.on_ack_ctx(100.0, ctx), 100.0);
}

TEST(Vegas, GrowsWhenQueueEmpty) {
  VegasCongAvoid vegas;
  const CaContext ctx{0.1001, 0.100};  // backlog ~ 0.1 pkt < alpha
  EXPECT_GT(vegas.on_ack_ctx(100.0, ctx), 100.0);
}

TEST(Vegas, ShrinksWhenQueueTooLong) {
  VegasCongAvoid vegas;
  const CaContext ctx{0.110, 0.100};  // backlog ~ 9 pkts > beta
  EXPECT_LT(vegas.on_ack_ctx(100.0, ctx), 100.0);
}

TEST(Fast, ConvergesTowardAlphaBacklog) {
  FastCongAvoid fast{/*alpha=*/100.0, /*gamma=*/0.5};
  // Fixed point of the FAST map: w = base/rtt * w + alpha
  //   -> w * (1 - base/rtt) = alpha -> backlog = alpha packets.
  // At the fixed point the per-ACK update leaves cwnd unchanged.
  const double base = 0.1, rtt = 0.11;
  const double w_star = 100.0 / (1.0 - base / rtt);
  const CaContext ctx{rtt, base};
  EXPECT_NEAR(fast.on_ack_ctx(w_star, ctx), w_star, 1e-6);
  // Below the fixed point it grows, above it shrinks.
  EXPECT_GT(fast.on_ack_ctx(w_star * 0.8, ctx), w_star * 0.8);
  EXPECT_LT(fast.on_ack_ctx(w_star * 1.2, ctx), w_star * 1.2);
}

TEST(Factory, ResolvesNewNames) {
  EXPECT_EQ(make_cong_avoid("bic")->name(), "bic");
  EXPECT_EQ(make_cong_avoid("vegas")->name(), "vegas");
  EXPECT_EQ(make_cong_avoid("fast")->name(), "fast");
  EXPECT_TRUE(make_cong_avoid("vegas")->wants_context());
  EXPECT_FALSE(make_cong_avoid("bic")->wants_context());
}

// End-to-end sanity: each new variant fills a clean medium-BDP link.
class NewVariantsE2E : public ::testing::TestWithParam<const char*> {};

TEST_P(NewVariantsE2E, FillsCleanLink) {
  udtr::sim::Simulator sim;
  udtr::sim::Dumbbell net{sim, {udtr::Bandwidth::mbps(100), 200}};
  udtr::sim::TcpFlowConfig cfg;
  cfg.cong_avoid = GetParam();
  net.add_tcp_flow(cfg, 0.020);
  sim.run_until(20.0);
  const double mbps = udtr::sim::average_mbps(
      net.tcp_receiver(0).stats().delivered, 1500, 0.0, 20.0);
  EXPECT_GT(mbps, 70.0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Variants, NewVariantsE2E,
                         ::testing::Values("bic", "vegas", "fast"));

TEST(Vegas, StopsFillingTheQueueAfterSlowStart) {
  // The delay-based controller's signature behaviour: after the (shared)
  // slow-start overshoot, it holds the backlog near alpha..beta instead of
  // cycling the DropTail buffer like Reno — so it accumulates fewer drops.
  const auto drops = [](const char* ca) {
    udtr::sim::Simulator sim;
    udtr::sim::Dumbbell net{sim, {udtr::Bandwidth::mbps(50), 500}};
    udtr::sim::TcpFlowConfig cfg;
    cfg.cong_avoid = ca;
    net.add_tcp_flow(cfg, 0.040);
    sim.run_until(60.0);
    return net.bottleneck().stats().dropped;
  };
  EXPECT_LT(drops("vegas"), drops("reno-sack"));
}

}  // namespace
}  // namespace udtr::cc
