// Deterministic fault injection for the real UDP channel.
//
// The paper's library was hardened against real WAN pathologies — loss on
// both the data and control paths, reordering, duplication, corruption and
// link outages (§3.1, §3.5, §4.8).  The simulator already has LossyLink /
// ReorderLink; this is the equivalent for `UdpChannel`, so the full socket
// stack (handshake retries, NAK machinery, EXP escalation, shutdown) can be
// exercised over loopback under the same pathologies, reproducibly.
//
// A `FaultInjector` sits between the socket and the kernel in both
// directions.  Every decision draws from one explicitly seeded engine, so a
// given (seed, traffic) pair replays the same fault sequence run-to-run.
// All entry points are thread-safe: the sender and receiver threads share
// one injector.  Batched channel I/O (UdpChannel::send_gather / recv_batch)
// routes every datagram through these same per-datagram entry points, so a
// batch is a syscall optimisation, never a unit of loss.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <span>
#include <vector>

namespace udtr::udt {

enum class FaultDir { kSend, kRecv };

// Per-direction fault probabilities.  All default to "off".
struct FaultProfile {
  double drop_p = 0.0;      // silently discard the datagram
  double dup_p = 0.0;       // deliver it twice
  double reorder_p = 0.0;   // hold it back so later datagrams overtake it
  int reorder_hold = 3;     // ... released after this many pass it
  double corrupt_p = 0.0;   // flip one random bit
  double truncate_p = 0.0;  // cut to a random strict prefix
  // When set, faults apply only to datagrams of at least `data_min_bytes`
  // (data packets), leaving control traffic intact — the pre-existing
  // forward-data-loss experiment mode.
  bool data_only = false;
  std::size_t data_min_bytes = 32;
};

struct FaultStats {
  std::uint64_t seen = 0;
  std::uint64_t dropped = 0;         // probabilistic drops
  std::uint64_t outage_dropped = 0;  // drops during an outage / black hole
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t truncated = 0;
};

struct FaultConfig {
  FaultProfile send;
  FaultProfile recv;
  std::uint64_t seed = 1;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig cfg);

  // Timed burst outage: every datagram in both directions is dropped during
  // [now + delay, now + delay + duration).  Models a link flap.
  void schedule_outage(std::chrono::milliseconds delay,
                       std::chrono::milliseconds duration);
  // While enabled, everything in both directions is dropped — the cheapest
  // faithful model of a peer that died or a route that vanished.
  void set_black_hole(bool on);
  [[nodiscard]] bool black_hole() const;

  // Send path.  Calls `emit` zero or more times with the datagrams that
  // should actually reach the wire (the original, a mutated copy, a
  // released-out-of-order predecessor, a duplicate...).
  void on_send(std::span<const std::uint8_t> data,
               const std::function<void(std::span<const std::uint8_t>)>& emit);

  // Recv path.  Feed a datagram fresh off the socket; corruption and
  // truncation mutate `data` IN PLACE (the caller owns the receive buffer,
  // so the steady-state deliver path costs zero heap allocations).  Returns
  // the number of bytes to deliver or nullopt if the datagram was swallowed
  // (dropped or held back for reordering).  Only the fault outcomes that
  // genuinely need owned storage (reorder holds, duplicates) copy.
  std::optional<std::size_t> filter_recv(std::span<std::uint8_t> data,
                                         std::uint32_t src_ip,
                                         std::uint16_t src_port);
  // Datagrams owed to the receiver from earlier decisions (released reorder
  // holds, duplicates).  Poll before touching the socket.
  struct ReadyDatagram {
    std::vector<std::uint8_t> bytes;
    std::uint32_t src_ip = 0;
    std::uint16_t src_port = 0;
  };
  std::optional<ReadyDatagram> pop_ready_recv();
  // Owed datagrams currently queued (not counting reorder holds still
  // waiting to be overtaken).  Batched receives drain these into leading
  // batch slots before touching the socket.
  [[nodiscard]] std::size_t ready_recv_count() const;

  [[nodiscard]] FaultStats stats(FaultDir dir) const;

 private:
  struct Held {
    ReadyDatagram dgram;
    int release_after = 0;
  };
  struct DirState {
    FaultProfile prof;
    FaultStats stats;
    std::deque<Held> held;
    // Reused mutation staging for the send path (the caller's span may be a
    // live SndBuffer chunk that a retransmission still needs pristine, so
    // send-side mutation cannot happen in place).  Capacity persists across
    // datagrams: no per-packet allocation once warmed up.
    std::vector<std::uint8_t> scratch;
  };

  [[nodiscard]] bool outage_active_locked();
  [[nodiscard]] bool chance_locked(double p);
  // Applies corruption / truncation in place on the first `len` bytes of
  // `bytes`; returns the post-truncation length and updates counters.
  std::size_t mutate_locked(DirState& d, std::span<std::uint8_t> bytes);

  mutable std::mutex mu_;
  std::mt19937_64 rng_;
  DirState send_;
  DirState recv_;
  std::deque<ReadyDatagram> recv_ready_;
  bool black_hole_ = false;
  std::optional<std::pair<std::chrono::steady_clock::time_point,
                          std::chrono::steady_clock::time_point>>
      outage_;
};

// Convenience: a plain lossy path — drop a fraction of outbound data-sized
// datagrams, control traffic untouched.  Sockets take it as
// SocketOptions::faults = make_loss_injector(p, seed, kHeaderBytes + 16).
[[nodiscard]] std::shared_ptr<FaultInjector> make_loss_injector(
    double drop_p, std::uint64_t seed, std::size_t data_min_bytes = 32);

}  // namespace udtr::udt
