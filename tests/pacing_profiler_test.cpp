#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>

#include "udt/pacing.hpp"
#include "udt/profiler.hpp"

namespace udtr::udt {
namespace {

using Clock = std::chrono::steady_clock;

// The send heap's pacing loop for one socket: wait for the deadline, send
// (instantly here), then advance the schedule at the post-send instant.
void send_paced(Pacer& pacer, std::chrono::nanoseconds period, int count = 1) {
  Pacer::wait_until(pacer.next_send());
  pacer.schedule(period, count, /*carry=*/false);
}

TEST(Pacer, SpacesSendsByPeriod) {
  Pacer pacer;
  const auto period = std::chrono::microseconds{200};
  const auto t0 = Clock::now();
  for (int i = 0; i < 50; ++i) send_paced(pacer, period);
  const auto elapsed = Clock::now() - t0;
  // 50 sends at 200 us spacing ~ 9.8 ms minimum (the first is immediate).
  EXPECT_GE(elapsed, std::chrono::microseconds{49 * 200 - 500});
}

TEST(Pacer, MicrosecondPrecisionViaSpin) {
  // Sub-scheduler-quantum intervals must still be honoured: 30 us pacing
  // over 100 packets takes ~3 ms, not ~0 (busy-wait precision, §4.5).
  Pacer pacer;
  const auto t0 = Clock::now();
  for (int i = 0; i < 100; ++i) {
    send_paced(pacer, std::chrono::microseconds{30});
  }
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - t0)
                      .count();
  EXPECT_GE(us, 99 * 30 - 100);
}

TEST(Pacer, LateScheduleReanchorsInsteadOfBursting) {
  // If the sender falls behind (e.g. a long syscall), the pacer must not
  // emit a catch-up burst (§4.4): the late batch goes out at once and the
  // schedule restarts from then.  Injected clock: every value is exact.
  using us = std::chrono::microseconds;
  Pacer pacer;
  const auto t0 = Clock::now();
  pacer.reset(t0);
  pacer.schedule(us{100}, 1, /*carry=*/false, t0);
  EXPECT_EQ(pacer.next_send(), t0 + us{100});
  const auto late = t0 + us{5000};
  pacer.schedule(us{100}, 1, /*carry=*/false, late);
  EXPECT_EQ(pacer.next_send(), late + us{100});  // not t0 + 200 us
  pacer.schedule(us{300}, 1, /*carry=*/false, late + us{100});
  EXPECT_EQ(pacer.next_send(), late + us{400});  // plus a full period
  EXPECT_EQ(pacer.reanchors(), 1u);
}

TEST(Pacer, BatchedPaceAdvancesScheduleByCountPeriods) {
  // A batch of n must consume exactly n periods of schedule: 10 on-time
  // batches of 5 at 100 us end where 50 singles would.
  using us = std::chrono::microseconds;
  Pacer batched;
  Pacer singles;
  const auto t0 = Clock::now();
  batched.reset(t0);
  singles.reset(t0);
  for (int i = 0; i < 10; ++i) {
    batched.schedule(us{100}, 5, /*carry=*/false, batched.next_send());
  }
  for (int i = 0; i < 50; ++i) {
    singles.schedule(us{100}, 1, /*carry=*/false, singles.next_send());
  }
  EXPECT_EQ(batched.next_send(), t0 + us{5000});
  EXPECT_EQ(singles.next_send(), batched.next_send());
  EXPECT_EQ(batched.reanchors(), 0u);
}

TEST(Pacer, ScheduleKeepsGridOrReanchors) {
  // The advance rule through schedule() with an injected clock: no sleeps,
  // so every expectation is exact.  A batch of 4 at 10 us spans 40 us.
  // Cap-bound batches (carry) keep the grid while late by at most one
  // span; anything later, and any late controller-paced batch, re-anchors
  // — and only a re-anchor counts.
  using us = std::chrono::microseconds;
  struct Case {
    const char* what;
    bool carry;
    us late;
    us next;  // expected next_send(), relative to the batch's deadline
    std::uint64_t reanchors;
  };
  const Case cases[] = {
      {"on time, cap-bound", true, us{0}, us{40}, 0},
      {"on time, controller-paced", false, us{0}, us{40}, 0},
      {"cap-bound, late within a span", true, us{25}, us{40}, 0},
      {"cap-bound, late by exactly a span", true, us{40}, us{40}, 0},
      {"cap-bound, late beyond a span", true, us{50}, us{90}, 1},
      {"controller-paced, late", false, us{25}, us{65}, 1},
  };
  for (const Case& c : cases) {
    Pacer pacer;
    const auto t0 = Clock::now();
    pacer.reset(t0);
    pacer.schedule(us{10}, 4, c.carry, t0 + c.late);
    EXPECT_EQ(pacer.next_send(), t0 + c.next) << c.what;
    EXPECT_EQ(pacer.reanchors(), c.reanchors) << c.what;
  }
}

TEST(Pacer, PaceAppliesTheSameRule) {
  // The real-clock path the send heap takes: a deadline already passed
  // makes wait_until return at once, and the advance rule then holds the
  // grid — a 100 ms span absorbs the ~1 ms of lateness.
  const auto period = std::chrono::milliseconds{25};
  Pacer pacer;
  const auto t0 = Clock::now() - std::chrono::milliseconds{1};
  pacer.reset(t0);
  Pacer::wait_until(pacer.next_send());
  pacer.schedule(period, 4, /*carry=*/true);
  EXPECT_EQ(pacer.next_send(), t0 + 4 * period);
  EXPECT_EQ(pacer.reanchors(), 0u);
}

TEST(Pacer, BatchCreditRespectsHorizonAndBounds) {
  using std::chrono::microseconds;
  // The horizon is ~1 ms of the pacing rate (Linux's tcp_tso_autosize).
  EXPECT_EQ(kBatchHorizon, std::chrono::milliseconds{1});
  // Period above the horizon (< ~12 Mb/s): strict per-packet pacing.
  EXPECT_EQ(batch_credit(microseconds{1001}, 16), 1);
  EXPECT_EQ(batch_credit(microseconds{5000}, 16), 1);
  // Otherwise floor(1 ms / period), capped by max.
  EXPECT_EQ(batch_credit(microseconds{300}, 16), 3);
  EXPECT_EQ(batch_credit(microseconds{121}, 16), 8);
  EXPECT_EQ(batch_credit(microseconds{25}, 16), 16);
  EXPECT_EQ(batch_credit(microseconds{25}, 4), 4);
  // Unpaced (period 0) saturates the batch; io_batch = 1 always yields 1.
  EXPECT_EQ(batch_credit(std::chrono::nanoseconds{0}, 16), 16);
  EXPECT_EQ(batch_credit(microseconds{1}, 1), 1);
  EXPECT_EQ(batch_credit(microseconds{300}, 1), 1);
  EXPECT_EQ(batch_credit(microseconds{5000}, 1), 1);
}

TEST(Profiler, AccumulatesPerUnit) {
  Profiler prof;
  prof.add(ProfUnit::kUdpIo, 600);
  prof.add(ProfUnit::kUdpIo, 400);
  prof.add(ProfUnit::kTiming, 1000);
  EXPECT_EQ(prof.nanos(ProfUnit::kUdpIo), 1000u);
  EXPECT_EQ(prof.total_nanos(), 2000u);
  const auto report = prof.report();
  EXPECT_DOUBLE_EQ(
      report[static_cast<std::size_t>(ProfUnit::kUdpIo)].percent, 50.0);
}

TEST(Profiler, ScopedTimerMeasuresElapsed) {
  Profiler prof;
  {
    ScopedTimer t{&prof, ProfUnit::kPacking};
    std::this_thread::sleep_for(std::chrono::milliseconds{2});
  }
  EXPECT_GE(prof.nanos(ProfUnit::kPacking), 1'500'000u);
}

TEST(Profiler, NullProfilerIsSafe) {
  ScopedTimer t{nullptr, ProfUnit::kPacking};  // must not crash
  SUCCEED();
}

TEST(Profiler, ResetZeroesEverything) {
  Profiler prof;
  prof.add(ProfUnit::kLossProcessing, 123);
  prof.reset();
  EXPECT_EQ(prof.total_nanos(), 0u);
  EXPECT_EQ(prof.calls(ProfUnit::kLossProcessing), 0u);
}

TEST(Profiler, CountsInvocationsPerUnit) {
  // The calls column is what makes batched I/O visible: one kUdpIo call
  // may now cover many packets, and calls-per-packet is the Table 3 metric
  // batching improves.
  Profiler prof;
  prof.add(ProfUnit::kUdpIo, 500);        // default: one invocation
  prof.add(ProfUnit::kUdpIo, 700, 1);
  { ScopedTimer t{&prof, ProfUnit::kUdpIo}; }
  EXPECT_EQ(prof.calls(ProfUnit::kUdpIo), 3u);
  EXPECT_EQ(prof.report()[static_cast<std::size_t>(ProfUnit::kUdpIo)].calls,
            3u);
}

TEST(Profiler, UnitNamesAreStable) {
  EXPECT_EQ(prof_unit_name(ProfUnit::kUdpIo), "udp-io");
  EXPECT_EQ(prof_unit_name(ProfUnit::kTiming), "timing");
  EXPECT_EQ(prof_unit_name(ProfUnit::kAppInteraction), "app-interaction");
}

}  // namespace
}  // namespace udtr::udt
