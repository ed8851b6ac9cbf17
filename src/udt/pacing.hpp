// High-precision pacing timer (paper §4.5).
//
// General-purpose OS sleep granularity (~1 ms historically, ~50 us today) is
// far too coarse to space packets microseconds apart, and a per-burst
// counter makes rate control meaningless at high speed.  UDT's answer is a
// hybrid: sleep for the bulk of the interval when it is long enough for the
// OS to honour, then busy-wait on the monotonic clock for the remainder.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

namespace udtr::udt {

class Pacer {
 public:
  using Clock = std::chrono::steady_clock;

  // Intervals below this are pure spin; above it we sleep for all but the
  // spin margin.  50 us is a conservative bound on scheduler wakeup jitter.
  static constexpr std::chrono::microseconds kSpinThreshold{50};

  Pacer() : next_(Clock::now()) {}

  // Advances the schedule by count * period for a batch of `count`
  // back-to-back packets the caller (the multiplexer's send heap) already
  // sent after waiting until next_send(); `now` is the post-send instant.
  // One wait covers the whole batch, so the average rate is exactly the
  // per-packet schedule while the syscall cost is paid once per batch.  The
  // §3.3 inter-packet spacing becomes inter-*batch* spacing; callers bound
  // the batch to about 1 ms of the pacing rate (kBatchHorizon, see
  // batch_credit) so the burst stays well under kernel buffer scale.  A
  // late batch never leads to a catch-up burst — that would defeat rate
  // control (§4.5); advance() decides whether the schedule keeps its grid
  // or re-anchors at now.
  void schedule(std::chrono::nanoseconds period, int count, bool carry,
                Clock::time_point now = Clock::now()) {
    advance(period * std::max(count, 1), carry, now);
  }

  // Re-anchors the schedule at `now` (tests inject their own clock here).
  void reset(Clock::time_point now = Clock::now()) { next_ = now; }
  [[nodiscard]] Clock::time_point next_send() const { return next_; }
  // Batches after which advance() re-anchored instead of keeping the grid.
  // Written by the sending thread, read by perf() from any thread.
  [[nodiscard]] std::uint64_t reanchors() const {
    return reanchors_.load(std::memory_order_relaxed);
  }

  // Blocks until `t`: sleeps for all but kSpinThreshold, then spins (the
  // send heap's sub-threshold waits, Multiplexer::tx_loop).
  static void wait_until(Clock::time_point t) {
    auto now = Clock::now();
    if (t - now > kSpinThreshold) {
      std::this_thread::sleep_until(t - kSpinThreshold);
    }
    while (Clock::now() < t) {
      // busy wait: sub-threshold precision is unavailable from the scheduler
    }
  }

 private:
  // The one schedule rule, for a batch spanning `total` that went out at
  // `now`.  A batch that is on time, or late by no more than its own span
  // when `carry` is set, keeps the grid: next_ += total, so its lateness
  // shortens the next gap instead of being lost.  Anything later re-anchors
  // at now + total.  `carry` is for open-loop rates (the user's
  // max_bandwidth_mbps cap), where nothing else corrects drift: re-anchoring
  // every batch there loses each round's wake-up lateness and syscall time
  // for good.  A closed-loop controller converges on the path's rate
  // whatever the pacer loses, so its batches re-anchor as soon as they are
  // late (carry = false).  The worst burst the carry allows is one extra
  // batch.
  void advance(std::chrono::nanoseconds total, bool carry,
               Clock::time_point now) {
    const auto slack = carry ? total : std::chrono::nanoseconds::zero();
    if (now - next_ > slack) {
      next_ = now + total;
      reanchors_.fetch_add(1, std::memory_order_relaxed);
    } else {
      next_ += total;
    }
  }

  Clock::time_point next_;
  std::atomic<std::uint64_t> reanchors_{0};
};

// The span of schedule one send may cover: about 1 ms of the pacing rate,
// the rule Linux TCP uses to size each TSO/GSO burst (tcp_tso_autosize,
// with sk_pacing_shift = 10, i.e. rate >> 10 bytes per burst).  It is long
// enough that a capped stream fills a whole send ceiling per syscall (a
// 44-segment GSO super-datagram from ~520 Mb/s up at the default MSS, 16
// plain datagrams from ~190 Mb/s up), and short enough that a burst stays
// small against the round-trip times of the wide-area paths UDT is paced
// for.
inline constexpr std::chrono::nanoseconds kBatchHorizon =
    std::chrono::milliseconds{1};

// How many packets one send syscall may cover at the given pacing period
// without distorting the §4.5 schedule: floor(kBatchHorizon / period),
// enough to amortise the syscall whenever the rate is above a packet per
// horizon, and always 1 when the period itself exceeds the horizon (under
// ~12 Mb/s at MSS 1500, rates keep true per-packet spacing).  `max_batch`
// is the caller's hard ceiling (iovec array size / SocketOptions::
// io_batch, or send_batch_ceiling below), so io_batch = 1 still means one
// packet per syscall.
[[nodiscard]] inline int batch_credit(std::chrono::nanoseconds period,
                                      int max_batch) {
  if (max_batch <= 1) return 1;
  if (period <= std::chrono::nanoseconds::zero()) return max_batch;
  const auto n = kBatchHorizon.count() / period.count();
  return static_cast<int>(
      std::clamp<std::int64_t>(n, 1, static_cast<std::int64_t>(max_batch)));
}

// --- GSO run sizing ---------------------------------------------------------
//
// A UDP_SEGMENT super-datagram is one pacing unit: the kernel emits its
// segments back-to-back, so a run must never exceed the batch credit the
// pacer granted (the credit already bounds the burst to the §4.5 horizon).
// On top of that the kernel imposes hard limits: at most 64 segments, and
// the whole payload must fit one 16-bit UDP datagram.
inline constexpr int kMaxGsoSegments = 64;
inline constexpr std::size_t kMaxGsoBytes = 65507;

// Largest number of `seg_bytes`-sized wire datagrams one GSO send may
// coalesce.  Callers take min(this, pacing credit) — and additionally never
// split an RBPP probe pair across two sends (the pair must stay
// back-to-back through one kernel traversal for §3.4 timing to hold).
[[nodiscard]] inline int gso_segment_cap(std::size_t seg_bytes) {
  if (seg_bytes == 0) return 1;
  return static_cast<int>(std::clamp<std::size_t>(
      kMaxGsoBytes / seg_bytes, 1, static_cast<std::size_t>(kMaxGsoSegments)));
}

// The most datagrams one paced send may carry (batch_credit's ceiling).
// A plain sendmmsg moves at most `io_batch` (SocketOptions::io_batch).
// When the send leaves as a UDP GSO super-datagram the kernel segments it
// in one traversal, so the ceiling rises to a whole super-datagram of
// `wire_bytes`-sized segments (44 at the default MSS): the per-syscall cost
// is paid once per burst while batch_credit's horizon still bounds the
// burst.
// io_batch <= 1 keeps one packet per syscall either way.
[[nodiscard]] inline int send_batch_ceiling(int io_batch, bool gso,
                                            std::size_t wire_bytes) {
  const int plain = std::clamp(io_batch, 1, 64);  // io_batch's own clamp
  if (plain <= 1 || !gso) return plain;
  return std::max(plain, gso_segment_cap(wire_bytes));
}

}  // namespace udtr::udt
