// UDP multiplexer: one UDP port shared by every UDT socket bound to it
// (paper §4, Fig. 3 — concurrency must cost per-flow state, not per-flow
// threads), with the datapath sharded N ways across cores (§4.1–4.2: "even
// distribution of processing" is what lets the endpoint keep up with the
// wire).
//
// The PR 4 layout gave the port ONE rx/tx thread pair, one registry lock
// and one O(all sockets) timer sweep — a hard ceiling at scale.  This
// version splits the port into `SocketOptions::mux_shards` shards, each a
// self-contained slice of the PR 4 design:
//
//   * its own UdpChannel bound to the port via SO_REUSEPORT, with a
//     classic-BPF steering program on the group leader routing each
//     datagram by (UDT destination socket id) % N — so a flow's traffic
//     always lands on the shard that owns it, kernel-side.  Where
//     SO_REUSEPORT or the BPF attach is unavailable, all shards fall back
//     to one shared fd and the rx threads software-demux by the same hash.
//   * its own rx thread: batched recv_batch / for_each_datagram drain into
//     a shard-private RecvSlab, routing each datagram through the shard's
//     own socket index (a shared_mutex nobody else's hot path touches).
//   * its own tx thread and tx min-heap (thread-private — no heap lock at
//     all): sockets are rescheduled through a bounded lock-free SPSC
//     wakeup ring from the sibling rx thread, so an ACK arriving on shard
//     k re-arms the sender without a mutex.  Kicks from application
//     threads (send(), close()) or a foreign shard take a small
//     mutex-protected pending list instead — the SPSC invariant is
//     structural, not hopeful.
//   * its own hierarchical TimerWheel replacing the O(all-sockets)
//     sweep_timers() walk: each socket keeps one entry at its earliest
//     §4.8 deadline and the rx loop drains expirations in O(expired).
//
// Sockets are assigned shard = socket_id % N for their whole lifetime (the
// same function the BPF program computes), so the hot path never crosses
// shards.  Cross-shard deliveries still happen in two benign cases — a GRO
// super-datagram can coalesce segments of several flows behind the first
// segment's id, and fallback mode has every rx thread pulling from one fd —
// and then the receiving thread simply routes through the owning shard's
// index under its shared lock.
//
// Handshake rendezvous (dst id 0) stays port-global under hs_mu_: the BPF
// program steers id-0 (and short) datagrams to shard 0, but any shard may
// legally handle one in fallback mode.  Accepted connections stay on the
// listener's port, and connect() reuses multiplexers through the
// process-wide registry.  SocketOptions::exclusive_port instead gives each
// socket a private single-shard multiplexer of its own (socket.hpp).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <span>
#include <thread>
#include <tuple>
#include <vector>

#include "udt/buffers.hpp"
#include "udt/channel.hpp"
#include "udt/handshake_cookie.hpp"
#include "udt/loss_list.hpp"
#include "udt/packet.hpp"
#include "udt/pacing.hpp"
#include "udt/socket.hpp"
#include "udt/timer_wheel.hpp"
#include "udt/ttl_map.hpp"
#include "udt/wakeup_ring.hpp"

namespace udtr::udt {

// Serializes one handshake control packet (16-byte header + payload) and
// sends it to `to`.  Shared by the socket's handshake paths and the
// multiplexer's duplicate-request re-replies.
void send_handshake_packet(UdpChannel& ch, const Endpoint& to,
                           std::uint32_t dst_id, const HandshakePayload& h);

// Effective shard count for `opts`: opts.mux_shards when positive, else the
// UDTR_MUX_SHARDS environment override, else min(4, hw_concurrency / 2).
// Clamped to [1, kMaxMuxShards].
[[nodiscard]] std::size_t resolve_mux_shards(const SocketOptions& opts);

class Multiplexer : public std::enable_shared_from_this<Multiplexer> {
 public:
  using Clock = Pacer::Clock;

  static constexpr std::size_t kMaxMuxShards = 16;

  // One handshake request parked for the listener's accept().
  struct PendingHandshake {
    Endpoint src;
    HandshakePayload req;
  };

  // Duplicate-handshake memory bounds: answered requests are remembered
  // until BOTH limits allow eviction pressure — the map is FIFO-capped at
  // kMaxAnswered and entries older than kAnsweredTtl are swept out — while
  // a request whose child socket is still attached is answered from the
  // live-children index regardless, so a slow SYN retransmit can never
  // spawn a ghost second socket for a live connection.
  static constexpr std::size_t kMaxAnswered = 1024;
  static constexpr std::chrono::seconds kAnsweredTtl{30};
  // Requests queued for accept(); overflow is dropped (the client simply
  // retransmits), so a SYN flood cannot grow the queue without bound.
  static constexpr std::size_t kMaxPendingHandshakes = 128;

  ~Multiplexer();
  Multiplexer(const Multiplexer&) = delete;
  Multiplexer& operator=(const Multiplexer&) = delete;

  // Opens a multiplexer on 127.0.0.1:`port` (0 = ephemeral) and starts one
  // rx/tx thread pair per shard.  nullptr when the bind fails (port in
  // use).
  [[nodiscard]] static std::shared_ptr<Multiplexer> open(
      std::uint16_t port, const SocketOptions& opts);
  // Process-wide client registry: returns a live shared client-side
  // multiplexer whose configuration is compatible with `opts`, creating one
  // on an ephemeral port when none exists.
  [[nodiscard]] static std::shared_ptr<Multiplexer> for_client(
      const SocketOptions& opts);
  // Registry lookup by local port (nullptr when no live multiplexer owns
  // it).  Exposed for tests and diagnostics.
  [[nodiscard]] static std::shared_ptr<Multiplexer> find(std::uint16_t port);

  // Shard 0's channel: the reuseport group leader (or the single shared fd
  // in fallback mode).  Handshake traffic leaves through it.
  [[nodiscard]] UdpChannel& channel() { return *shards_[0]->channel; }
  // The channel the socket with this id sends on: its owning shard's fd in
  // steered mode, the shared fd in fallback mode.
  [[nodiscard]] UdpChannel& channel_for(std::uint32_t socket_id);
  [[nodiscard]] std::uint16_t local_port() const {
    return shards_[0]->channel->local_port();
  }
  // The receive slab backing the shard that owns `socket_id`.
  [[nodiscard]] const std::shared_ptr<RecvSlab>& slab_for(
      std::uint32_t socket_id) const;

  // --- shard topology -----------------------------------------------------
  [[nodiscard]] std::size_t shards() const { return shards_.size(); }
  [[nodiscard]] std::size_t shard_of(std::uint32_t socket_id) const {
    return socket_id % shards_.size();
  }
  // True when the kernel steers datagrams to shard fds by socket id
  // (SO_REUSEPORT + cBPF); false in the software-demux fallback.
  [[nodiscard]] bool kernel_steered() const { return steered_; }
  // True when every shard channel runs the io_uring backend (selection is
  // all-or-nothing at start()); false on mmsg, or after probe fallback.
  [[nodiscard]] bool uring_active() const;

  // True when a socket with these options can share this multiplexer: same
  // fault injector (it is per-channel), same batching,
  // offload and shard setup, and an MSS that fits the receive slots.
  [[nodiscard]] bool compatible(const SocketOptions& opts) const;

  // --- socket attachment --------------------------------------------------
  // Routes datagrams addressed to s->id() to `s` (on shard id % N) and arms
  // its timer-wheel entry.  detach() blocks until no service thread still
  // holds a reference to `s`, so after it returns the socket may be
  // destroyed.
  void attach(Socket* s);
  // Accepted child: additionally remembers (peer ip, port, peer socket id)
  // -> `resp` in the live-children index for duplicate-request re-replies.
  void attach_child(Socket* s, const HandshakePayload& resp);
  // Listener side of an accept whose child lives on another (private)
  // multiplexer: settles the pending request from `src` and remembers
  // `resp` in the bounded answered memory for duplicate-request re-replies.
  void answered_elsewhere(const Endpoint& src, std::uint32_t peer_socket_id,
                          const HandshakePayload& resp);
  void detach(Socket* s);
  // (Re)arms the socket's wheel entry to fire immediately — used when a
  // socket enters steady state after attaching (the first sweep computes
  // its real deadline).
  void arm_timer(Socket* s);

  // At most one listener per port; false when one is already attached.
  bool attach_listener(Socket* s);
  // Blocks up to `timeout` for a queued handshake request.
  [[nodiscard]] std::optional<PendingHandshake> wait_handshake(
      std::chrono::milliseconds timeout);
  // accept() declined a queued request (hostile MSS): forget it so the
  // peer's retransmit can be queued again.
  void reject_handshake(const Endpoint& src, std::uint32_t peer_socket_id);

  // --- send scheduling ----------------------------------------------------
  // Schedules `s` for a tx_round as soon as possible.  Idempotent while an
  // entry for the socket is already pending (at most one heap entry per
  // socket).  Safe to call with the socket's state_mu_ held.  Lock-free
  // when called from the owning shard's rx thread (the common ACK-arrival
  // case); other callers go through the shard's pending list.
  void kick(Socket* s);

  // The shard-shared loss-list node pool for the shard owning `socket_id`;
  // sockets attach it before entering steady state so their (lazily
  // allocated) loss-list arrays recycle through the shard instead of
  // churning the heap.
  [[nodiscard]] std::shared_ptr<LossList::NodePool> loss_pool(
      std::uint32_t socket_id) const;

  // --- diagnostics --------------------------------------------------------
  // Datagrams that could not be delivered to any attached socket: too short
  // to carry a header, unknown destination socket id, or a malformed
  // handshake.  The per-socket validation counters only see routable
  // traffic, so this is where wrong-destination packets land.
  [[nodiscard]] std::uint64_t unroutable_datagrams() const {
    return unroutable_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t attached_sockets() const;
  [[nodiscard]] std::size_t remembered_handshakes() const;
  // Handshakes parked for accept() right now (zero while a stateless
  // listener is being flooded with cookie-less requests — the flood test's
  // core assertion).
  [[nodiscard]] std::size_t pending_handshakes() const;
  // Admission / cookie counters (port-global, hs_mu_-guarded writes).
  [[nodiscard]] std::uint64_t accept_queue_drops() const {
    return accept_queue_drops_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t handshake_admission_drops() const {
    return admission_drops_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t cookie_challenges() const {
    return cookie_challenges_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t cookie_rejects() const {
    return cookie_rejects_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t cookie_expired() const {
    return cookie_expired_.load(std::memory_order_relaxed);
  }
  // Message-mode counters aggregated over every socket on the port: one
  // relaxed increment per event from the socket hot paths, so a fleet-wide
  // dashboard needs one multiplexer read instead of walking the sockets.
  [[nodiscard]] std::uint64_t msgs_sent() const {
    return msgs_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t msgs_delivered() const {
    return msgs_delivered_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t msgs_dropped_ttl() const {
    return msgs_dropped_ttl_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t msg_drop_ctrl_sent() const {
    return msg_drop_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t msg_drop_ctrl_recv() const {
    return msg_drop_recv_.load(std::memory_order_relaxed);
  }
  void note_msgs_sent() {
    msgs_sent_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_msgs_delivered() {
    msgs_delivered_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_msgs_dropped_ttl() {
    msgs_dropped_ttl_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_msg_drop_sent() {
    msg_drop_sent_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_msg_drop_recv() {
    msg_drop_recv_.fetch_add(1, std::memory_order_relaxed);
  }
  // Sources currently tracked by the admission table (bounded by
  // SocketOptions::max_tracked_ips no matter how many sources flood).
  [[nodiscard]] std::size_t admission_tracked_ips() const;
  // Timer-wheel work counters summed over shards: drain() calls made by the
  // rx loops, and entries fired (each fire = one socket sweep).
  [[nodiscard]] std::uint64_t timer_sweep_calls() const;
  [[nodiscard]] std::uint64_t timer_socket_sweeps() const;
  // UDP I/O system calls summed over the port's channels (each owning shard
  // counted once, whichever backend is active) — the Table 3 "syscalls per
  // packet" numerator.
  [[nodiscard]] std::uint64_t send_syscalls() const;
  [[nodiscard]] std::uint64_t recv_syscalls() const;

  // make_shared needs a public constructor; Private keeps it unusable
  // outside the factory functions.
  struct Private {};
  Multiplexer(Private, const SocketOptions& opts);

 private:
  using HsKey = std::tuple<std::uint32_t, std::uint16_t, std::uint32_t>;

  // Send heap entry: min-heap over (deadline, FIFO order) kept in a plain
  // vector via push_heap/pop_heap so steady-state scheduling never
  // allocates.
  struct TxEntry {
    Clock::time_point due;
    std::uint64_t order = 0;
    std::uint32_t id = 0;
    // The socket has enable_profiler set: the tx thread's wait for this
    // deadline is charged to its ProfUnit::kTiming.
    bool profiled = false;
  };
  struct TxLater {
    bool operator()(const TxEntry& a, const TxEntry& b) const {
      if (a.due != b.due) return a.due > b.due;
      return a.order > b.order;
    }
  };

  // One shard: a vertical slice of the datapath.  Everything here belongs
  // to the shard's two threads except `socks` (shared_mutex: rx threads of
  // any shard may read on cross-shard delivery; attach/detach write), the
  // wheel (internal mutex) and the wakeup plumbing (see kick()).
  struct Shard {
    std::size_t index = 0;
    // The shard's own reuseport fd; null on shards > 0 in fallback mode.
    std::unique_ptr<UdpChannel> channel;
    UdpChannel* io = nullptr;  // channel.get(), or shard 0's in fallback
    std::shared_ptr<RecvSlab> slab;
    TimerWheel wheel;

    mutable std::shared_mutex attach_mu;
    std::map<std::uint32_t, Socket*> socks;

    // rx -> tx wakeups.  Ring: pushed only by this shard's rx thread,
    // popped only by its tx thread.  pending/tx_cv: every other producer,
    // plus the tx thread's sleep.  tx_idle participates in a store-fence-
    // load handshake with ring pushes so a push can never be slept through
    // (see kick() / tx_park()).
    WakeupRing<1024> ring;
    std::mutex pending_mu;
    std::condition_variable tx_cv;
    std::vector<std::uint32_t> pending_kicks;
    std::atomic<std::uint32_t> pending_n{0};
    std::atomic<bool> tx_idle{false};

    // tx-thread private (no lock): the shard's deadline heap.
    std::vector<TxEntry> heap;
    std::uint64_t order = 0;
    std::vector<std::uint32_t> due_scratch;

    // Timer accounting (fleet and concurrency benches).
    std::atomic<std::uint64_t> sweep_calls{0};
    std::atomic<std::uint64_t> socket_sweeps{0};
    // Attached sockets with enable_profiler set: while zero the rx loop
    // reads no clock for the receive-syscall charge (see rx_loop).
    std::atomic<std::uint32_t> profiled{0};

    // Loss-list node arrays recycled across the shard's sockets.
    std::shared_ptr<LossList::NodePool> loss_pool =
        std::make_shared<LossList::NodePool>();

    std::thread rx_thread;
    std::thread tx_thread;
  };

  void start();
  void rx_loop(Shard& sh);
  void tx_loop(Shard& sh);
  // Parks the tx thread until `deadline` or a wakeup; the idle handshake
  // with kick()'s lock-free path lives here.
  void tx_park(Shard& sh, Clock::time_point deadline);
  // Routes one datagram.  Returns the destination socket's id when that
  // socket is profiled, else 0.  Appends the socket's id to `wakes` when
  // the datagram left its reader a wake to deliver after the round.
  std::uint32_t dispatch(std::span<const std::uint8_t> pkt,
                         const Endpoint& src, RecvSlab* slab, int slab_slot,
                         std::vector<std::uint32_t>& wakes);
  // Wakes the reader of every socket listed by one receive round, then
  // clears the list.  A socket detached meanwhile is skipped.
  void wake_readers(std::vector<std::uint32_t>& wakes);
  void handle_handshake(std::span<const std::uint8_t> pkt,
                        const Endpoint& src);
  void serve(Shard& sh, std::uint32_t id);
  // Heartbeat re-kick of every socket the shard owns (see tx_loop).
  void kick_all(Shard& sh);
  // Adds one receive call of `spent` to the kUdpIo row of socket `id`'s
  // profiler, if it is still attached.
  void charge_rx_call(std::uint32_t id, std::chrono::nanoseconds spent);
  // Wheel expiry: sweep one socket's §4.8 timers and re-arm its entry.
  void fire_timer(Shard& sh, std::uint64_t key);
  // Pulls the socket's wheel deadline in to now + SYN after a delivery so a
  // parked (EXP-horizon) socket resumes ACK cadence promptly.
  void tighten_timer(Shard& owner, Socket* s);
  [[nodiscard]] Shard& shard_for(std::uint32_t socket_id) {
    return *shards_[socket_id % shards_.size()];
  }
  // accept() answered the request under `key`: it is no longer pending, and
  // a duplicate still queued must not spawn a second socket.  hs_mu_ held.
  void settle_pending(const HsKey& key);

  // Configuration fingerprint for compatible(); `cfg_` keeps the creating
  // socket's options (faults pointer identity included).
  SocketOptions cfg_;
  int io_batch_ = 16;
  std::size_t slot_bytes_ = 0;
  bool gro_ = false;
  bool client_shared_ = false;  // eligible for for_client() reuse
  bool steered_ = false;
  std::chrono::microseconds syn_us_{10000};

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> unroutable_{0};

  // Handshake rendezvous between the rx threads and accept() callers, plus
  // the duplicate-handshake memory (see the constants above).  Port-global:
  // steering sends id-0 datagrams to shard 0, but fallback mode may handle
  // them from any rx thread.
  mutable std::mutex hs_mu_;
  std::condition_variable hs_cv_;
  std::deque<PendingHandshake> pending_;
  std::set<HsKey> pending_keys_;
  BoundedTtlMap<HsKey, HandshakePayload> answered_{kMaxAnswered,
                                                   kAnsweredTtl};
  std::map<HsKey, HandshakePayload> child_resp_;  // live accepted children
  Socket* listener_ = nullptr;
  // Stateless-handshake state (hs_mu_): the port's cookie keyring and the
  // per-source-IP admission table.  Lock order: hs_mu_ is a leaf — it is
  // never taken while holding a shard's attach_mu or any socket's
  // state_mu_, and nothing is acquired under it (challenge replies are
  // sent after it is dropped).
  CookieKeyring cookie_keys_;
  std::unique_ptr<AdmissionControl> admission_;
  std::atomic<std::uint64_t> accept_queue_drops_{0};
  std::atomic<std::uint64_t> admission_drops_{0};
  std::atomic<std::uint64_t> cookie_challenges_{0};
  std::atomic<std::uint64_t> cookie_rejects_{0};
  std::atomic<std::uint64_t> cookie_expired_{0};
  // Message-mode port-global counters (relaxed; written from socket paths).
  std::atomic<std::uint64_t> msgs_sent_{0};
  std::atomic<std::uint64_t> msgs_delivered_{0};
  std::atomic<std::uint64_t> msgs_dropped_ttl_{0};
  std::atomic<std::uint64_t> msg_drop_sent_{0};
  std::atomic<std::uint64_t> msg_drop_recv_{0};
};

}  // namespace udtr::udt
