#include <gtest/gtest.h>

#include <chrono>

#include "udt/pacing.hpp"
#include "udt/profiler.hpp"

namespace udtr::udt {
namespace {

using Clock = std::chrono::steady_clock;

TEST(Pacer, SpacesSendsByPeriod) {
  Pacer pacer;
  const auto period = std::chrono::microseconds{200};
  const auto t0 = Clock::now();
  for (int i = 0; i < 50; ++i) pacer.pace(period);
  const auto elapsed = Clock::now() - t0;
  // 50 sends at 200 us spacing ~ 9.8 ms minimum (the first is immediate).
  EXPECT_GE(elapsed, std::chrono::microseconds{49 * 200 - 500});
}

TEST(Pacer, MicrosecondPrecisionViaSpin) {
  // Sub-scheduler-quantum intervals must still be honoured: 30 us pacing
  // over 100 packets takes ~3 ms, not ~0 (busy-wait precision, §4.5).
  Pacer pacer;
  const auto t0 = Clock::now();
  for (int i = 0; i < 100; ++i) pacer.pace(std::chrono::microseconds{30});
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - t0)
                      .count();
  EXPECT_GE(us, 99 * 30 - 100);
}

TEST(Pacer, LateScheduleReanchorsInsteadOfBursting) {
  // If the sender falls behind (e.g. a long syscall), the pacer must not
  // emit a catch-up burst (§4.4): the next send goes out immediately, and
  // the schedule restarts from now.
  Pacer pacer;
  pacer.pace(std::chrono::microseconds{100});
  std::this_thread::sleep_for(std::chrono::milliseconds{5});
  const auto t0 = Clock::now();
  pacer.pace(std::chrono::microseconds{100});  // late: immediate, re-anchors
  EXPECT_LT(Clock::now() - t0, std::chrono::microseconds{500});
  const auto t1 = Clock::now();
  pacer.pace(std::chrono::microseconds{300});  // waits out the re-anchor
  pacer.pace(std::chrono::microseconds{300});  // plus a full period
  EXPECT_GE(Clock::now() - t1, std::chrono::microseconds{350});
}

TEST(Pacer, BatchedPaceAdvancesScheduleByCountPeriods) {
  // pace(period, n) must consume exactly n periods of schedule: 10 batches
  // of 5 at 100 us spacing take the same wall time as 50 singles.
  Pacer pacer;
  const auto t0 = Clock::now();
  for (int i = 0; i < 10; ++i) pacer.pace(std::chrono::microseconds{100}, 5);
  const auto elapsed = Clock::now() - t0;
  EXPECT_GE(elapsed, std::chrono::microseconds{9 * 500 - 200});
}

TEST(Pacer, ScheduleKeepsGridOrReanchors) {
  // The advance rule through schedule() with an injected clock: no sleeps,
  // so every expectation is exact.  A batch of 4 at 10 us spans 40 us.
  // Cap-bound batches (carry) keep the grid while late by at most one
  // span; anything later, and any late controller-paced batch, re-anchors.
  using us = std::chrono::microseconds;
  struct Case {
    const char* what;
    bool carry;
    us late;
    us next;  // expected next_send(), relative to the batch's deadline
  };
  const Case cases[] = {
      {"on time, cap-bound", true, us{0}, us{40}},
      {"on time, controller-paced", false, us{0}, us{40}},
      {"cap-bound, late within a span", true, us{25}, us{40}},
      {"cap-bound, late by exactly a span", true, us{40}, us{40}},
      {"cap-bound, late beyond a span", true, us{50}, us{90}},
      {"controller-paced, late", false, us{25}, us{65}},
  };
  for (const Case& c : cases) {
    Pacer pacer;
    const auto t0 = Clock::now();
    pacer.reset(t0);
    pacer.schedule(us{10}, 4, c.carry, t0 + c.late);
    EXPECT_EQ(pacer.next_send(), t0 + c.next) << c.what;
  }
}

TEST(Pacer, PaceAppliesTheSameRule) {
  // pace() on a late schedule returns at once and advances like schedule():
  // a 100 ms span absorbs the ~1 ms of lateness, so the grid holds.
  const auto period = std::chrono::milliseconds{25};
  Pacer pacer;
  const auto t0 = Clock::now() - std::chrono::milliseconds{1};
  pacer.reset(t0);
  pacer.pace(period, 4, /*carry=*/true);
  EXPECT_EQ(pacer.next_send(), t0 + 4 * period);
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
