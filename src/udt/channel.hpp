// UDP channel: a thin RAII wrapper over a datagram socket with the
// time-bounded receive the protocol core relies on (§4.8: the four timers
// are checked after each bounded UDP receive call), plus an optional
// deterministic fault injector (drop / duplicate / reorder / corrupt /
// truncate / outage, per direction) for tests and experiments.
//
// The paper's own profile (Table 3) shows UDP system calls dominating CPU
// time on both sides, so the channel also offers *batched* I/O: send_gather
// and recv_batch move up to N datagrams per sendmmsg/recvmmsg system call
// (falling back to a sendto/recvfrom loop where the mmsg calls are
// unavailable).  Fault injection stays per-datagram across a batch — the
// batch is a syscall optimisation, not a unit of loss.
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "udt/buffers.hpp"
#include "udt/fault.hpp"

namespace udtr::udt {

class UringEngine;

// Datapath backend for a channel's hot paths (rx_round / gather send).
//   kMmsg : sendmmsg/recvmmsg (+ GSO/GRO) — today's path, byte-for-byte.
//   kUring: raw io_uring submission/completion rings — batched sendmsg
//           SQEs gathered from pinned SndBuffer chunks (pins released on
//           CQE reap, not syscall return) and a multishot recvmsg fed by a
//           registered buffer ring carved from the RecvSlab arena.
//   kAuto : probe io_uring support at first bind, fall back to kMmsg at
//           runtime (and whenever UDTR_NO_URING is set).
enum class IoBackend { kAuto, kMmsg, kUring };

struct Endpoint {
  std::uint32_t ip_host_order = 0;  // IPv4
  std::uint16_t port = 0;

  [[nodiscard]] sockaddr_in to_sockaddr() const;
  [[nodiscard]] static Endpoint from_sockaddr(const sockaddr_in& sa);
  [[nodiscard]] static std::optional<Endpoint> resolve(
      const std::string& host, std::uint16_t port);
  bool operator==(const Endpoint&) const = default;
};

// Outcome of one bounded receive.  A genuine zero-length datagram is a
// kDatagram with bytes == 0 — distinct from kTimeout (nothing arrived
// within SO_RCVTIMEO) and from kError (the socket is broken).
enum class RecvStatus { kDatagram, kTimeout, kError };
struct RecvResult {
  RecvStatus status = RecvStatus::kTimeout;
  std::size_t bytes = 0;
};

class UdpChannel {
 public:
  UdpChannel();  // out-of-line: uring_ holds an incomplete UringEngine here
  ~UdpChannel();
  UdpChannel(const UdpChannel&) = delete;
  UdpChannel& operator=(const UdpChannel&) = delete;
  UdpChannel(UdpChannel&& other) noexcept;
  UdpChannel& operator=(UdpChannel&& other) noexcept;

  // Binds to 127.0.0.1:`port` (0 = ephemeral).  Returns false on error.
  // With `reuse_port`, SO_REUSEPORT is set before the bind so several
  // channels (the multiplexer's shards) can share one port; the kernel
  // load-balances between them unless a steering program is attached.
  bool open(std::uint16_t port = 0, bool reuse_port = false);
  // Attaches a classic-BPF reuseport steering program to this fd (the
  // group leader): each datagram goes to group member
  // (payload word at byte 12, i.e. the UDT destination socket id) % shards,
  // in bind order.  Datagrams too short to carry the word land on member 0,
  // which is where the multiplexer parks handshake handling.  False when
  // the kernel lacks SO_ATTACH_REUSEPORT_CBPF (the caller falls back to
  // software demux on a single fd).
  bool attach_reuseport_steering(unsigned shards);
  void close();
  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] std::uint16_t local_port() const { return local_port_; }

  // Sets the receive timeout used by recv_from (SO_RCVTIMEO).
  bool set_recv_timeout(std::chrono::microseconds timeout);
  // Enlarged socket buffers for high-rate transfer.
  bool set_buffer_sizes(int snd_bytes, int rcv_bytes);

  // Sends one datagram; returns bytes accepted or -1.  A datagram swallowed
  // by the fault injector still reports success — from the sender's point
  // of view it left the host.
  std::int64_t send_to(const Endpoint& dst, std::span<const std::uint8_t> data);
  // Receives one datagram (or one the injector owed us); see RecvResult.
  RecvResult recv_from(Endpoint& src, std::span<std::uint8_t> buf);

  // --- zero-copy scatter-gather send (Table 3: amortise the syscalls) -----
  // One wire datagram described in place: `head` (the serialized 16-byte
  // header) and `body` (payload, may be empty) are gathered by the kernel
  // from where they already live, so the bytes are never staged into a
  // contiguous buffer.  `keep_with_next` marks an RBPP probe head whose
  // successor must leave in the same system call (§3.4 packet-pair timing).
  struct TxDatagram {
    std::span<const std::uint8_t> head;
    std::span<const std::uint8_t> body;
    bool keep_with_next = false;
  };
  // Sends the datagrams in order with as few system calls as possible:
  // where the kernel supports UDP_SEGMENT (and `allow_gso`), runs of
  // equal-size datagrams are coalesced into one GSO super-datagram — one
  // syscall and one kernel traversal for up to 64 wire packets; everything
  // else goes out as two-iovec sendmmsg entries.  The fault injector, when
  // installed, sees each logical datagram individually (pre-GSO), exactly
  // as with send_to.  Returns the number of datagrams accepted.
  std::size_t send_gather(const Endpoint& dst,
                          std::span<const TxDatagram> dgrams,
                          bool allow_gso = true);

  // Requests kernel receive coalescing (UDP_GRO): bursts of same-source
  // datagrams arrive as one buffer with RecvSlot::gro_size describing the
  // segment grid.  Refused (returns false) when unsupported, when
  // UDTR_NO_GSO is set, or when a fault injector is installed (the injector
  // owns per-datagram semantics).
  bool enable_gro();
  [[nodiscard]] bool gro_enabled() const { return gro_enabled_; }
  // False when the kernel rejected UDP_SEGMENT at runtime or UDTR_NO_GSO is
  // set: send_gather quietly takes the sendmmsg path instead.
  [[nodiscard]] bool gso_active() const;
  // Compile-time offload support (false off-Linux).
  [[nodiscard]] static bool offload_supported();
  [[nodiscard]] std::uint64_t gso_super_datagrams() const {
    return gso_sends_;
  }

  // One filled entry of a recv_batch call.
  struct RecvSlot {
    std::span<std::uint8_t> buf;  // in: caller storage for one datagram
    std::size_t bytes = 0;        // out: payload length received
    Endpoint src{};               // out: datagram source
    // out: GRO segment size.  0 = one plain datagram; otherwise the buffer
    // carries ceil(bytes / gro_size) wire datagrams, every segment
    // gro_size bytes except possibly the last.
    std::size_t gro_size = 0;
  };
  struct RecvBatchResult {
    RecvStatus status = RecvStatus::kTimeout;  // outcome of the first wait
    std::size_t count = 0;                     // slots filled (0 on timeout)
  };
  // Blocks (honouring SO_RCVTIMEO) until at least one datagram arrives,
  // then drains whatever else the kernel already has queued — up to
  // slots.size() datagrams in one recvmmsg(MSG_WAITFORONE) where available,
  // a bounded recvfrom loop otherwise.  Injector-owed datagrams (reorder
  // releases, duplicates) are delivered first and each received datagram is
  // filtered individually, so per-datagram fault semantics are preserved.
  RecvBatchResult recv_batch(std::span<RecvSlot> slots);

  // --- backend-neutral rx round (the mux shard rx loop's one entry point) --
  // One delivered datagram (or GRO super-datagram).  When `slab` is set the
  // bytes live in RecvSlab slot `slab_slot` and the sink may add_ref the
  // slot to keep them past the callback; otherwise the bytes are only valid
  // for the duration of the call and must be copied.
  struct RxDelivery {
    std::span<const std::uint8_t> data;
    Endpoint src{};
    std::size_t gro_size = 0;  // as RecvSlot::gro_size
    RecvSlab* slab = nullptr;
    int slab_slot = -1;
  };
  using RxSinkFn = void (*)(void* ctx, const RxDelivery& d);
  // Per-caller receive state.  The caller fills slab/batch/slot_bytes once;
  // the backend lazily builds the rest (mmsg: arming scratch; uring: the
  // re-armed slot ring lives in the engine, keyed by this state's first use).
  struct RxState {
    std::shared_ptr<RecvSlab> slab;  // may be null: arena-only delivery
    std::size_t batch = 0;           // max datagrams per round (mmsg width)
    std::size_t slot_bytes = 0;      // per-slot capacity (GRO-sized or MSS)
    // mmsg backend internals (lazily sized on first round).
    std::vector<std::uint8_t> arena;
    std::vector<RecvSlot> slots;
    std::vector<int> slab_ids;
    ~RxState();
  };
  // Blocks (honouring set_recv_timeout) until at least one datagram arrives,
  // then delivers every drained datagram to `sink`, one callback per
  // kernel-level delivery (per-datagram fault filtering happens first, so
  // swallowed datagrams produce no callback but kDatagram is still
  // returned).  count = callbacks made.
  RecvBatchResult rx_round(RxState& st, RxSinkFn sink, void* ctx);

  // --- asynchronous gather send (uring backend only) ----------------------
  // Called once per completed send_gather_async batch, after the kernel has
  // retired every SQE of the batch — the moment pinned SndBuffer chunks may
  // be unpinned.  Invoked from whichever thread reaps the CQEs.
  using TxDoneFn = void (*)(void* ctx, std::uint64_t token);
  // Submits the whole batch as io_uring sendmsg SQEs whose iovecs point into
  // the caller's pinned chunks; `done(ctx, token)` fires when the last CQE
  // is reaped.  Returns false (and does nothing) when the uring backend is
  // inactive, a fault injector is installed, or the ring is momentarily
  // full — the caller then sends synchronously via send_gather and unpins
  // itself.  The spans must stay valid until `done` runs.
  bool send_gather_async(const Endpoint& dst, std::span<const TxDatagram> dgrams,
                         bool allow_gso, TxDoneFn done, void* ctx,
                         std::uint64_t token);
  // Blocks until no in-flight async batch with this ctx remains (their done
  // callbacks have run).  Never reaps CQEs itself — it waits on the reaping
  // thread — and gives up after ~1s on a wedged ring, orphaning the records.
  void drain_tx(void* ctx);

  // --- backend selection --------------------------------------------------
  // Selects the datapath backend; call after open().  kAuto/kUring probe
  // io_uring support (kUring returns false when unsupported; kAuto quietly
  // stays on mmsg).  UDTR_NO_URING forces mmsg regardless.
  bool set_io_backend(IoBackend b);
  [[nodiscard]] bool uring_active() const { return uring_ != nullptr; }
  // One cached process-wide probe: kernel accepts the rings + features we
  // need (EXT_ARG, NODROP, SINGLE_MMAP), registers a provided-buffer ring
  // and arms a multishot recvmsg — and UDTR_NO_URING is unset.
  [[nodiscard]] static bool uring_supported();
  // Receive-buffer starvation events on the uring backend (0 on mmsg):
  // ENOBUFS completions (the provided ring ran dry mid-burst) plus
  // deliveries recycled onto the copy arena because consumers held every
  // RecvSlab slot.  Neither loses data — arrivals wait in the socket
  // buffer or arrive in copy mode — but sustained growth means the slab is
  // undersized for the receive window.
  [[nodiscard]] std::uint64_t uring_rx_backpressure() const;

  // Extra bytes every receive buffer must carry beyond the payload
  // capacity: the uring backend's multishot recvmsg writes a per-datagram
  // header (io_uring_recvmsg_out + name + cmsg areas, 56 bytes) ahead of
  // the payload inside the provided buffer.
  static constexpr std::size_t kUringRxHeadroom = 64;

  [[nodiscard]] std::uint64_t send_syscalls() const { return send_calls_; }
  [[nodiscard]] std::uint64_t recv_syscalls() const { return recv_calls_; }

  // Installs (or clears, with nullptr) the fault injector both directions
  // pass through.  The caller may keep its reference to flip faults on and
  // off mid-run; the injector is thread-safe.
  void set_fault_injector(std::shared_ptr<FaultInjector> faults);
  [[nodiscard]] const std::shared_ptr<FaultInjector>& fault_injector() const {
    return faults_;
  }

  [[nodiscard]] std::uint64_t datagrams_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t datagrams_dropped() const;

 private:
  friend class UringEngine;

  // mmsg implementation of rx_round (also the uring backend's owed-datagram
  // and fallback path).
  RecvBatchResult rx_round_mmsg(RxState& st, RxSinkFn sink, void* ctx);
  // Accepts the raw datagram in slot `from` into slot `filled` after the
  // per-datagram recv fault filter; returns false if it was swallowed.
  bool accept_raw(std::span<RecvSlot> slots, std::size_t filled,
                  std::size_t from, std::size_t bytes, const Endpoint& src);
  // Sends one GSO super-datagram covering `run`; false if the kernel
  // refused the offload (caller disables GSO and resends plainly).
  bool send_gso_run(const sockaddr_in& sa, std::span<const TxDatagram> run,
                    std::size_t seg_bytes);
  // Plain two-iovec path for datagrams that did not form a GSO run.
  void send_plain(const sockaddr_in& sa, std::span<const TxDatagram> dgrams);

  int fd_ = -1;
  std::uint16_t local_port_ = 0;
  std::shared_ptr<FaultInjector> faults_;
  // Atomic: enable_gro runs on the shard rx thread after start while the tx
  // thread reads it on the gather path (probe/latch consistency rule — same
  // treatment as gso_ok_).
  std::atomic<bool> gro_enabled_{false};
  // Receive timeout mirrored from set_recv_timeout for the uring backend's
  // timed CQ wait (SO_RCVTIMEO does not apply to ring-submitted recvmsg).
  std::chrono::microseconds recv_timeout_us_{std::chrono::microseconds{0}};
  // Non-null iff the uring backend is active on this channel.
  std::unique_ptr<UringEngine> uring_;
  // Runtime GSO health: starts true (unless UDTR_NO_GSO), latched false the
  // first time the kernel rejects UDP_SEGMENT.  Atomic only for the cheap
  // cross-thread read; all writes come from the sending thread.
  std::atomic<bool> gso_ok_{true};
  // Reused linearization scratch for routing gathered datagrams through the
  // per-datagram fault injector.  One buffer, guarded by gather_mu_: in the
  // multiplexer's single-fd fallback mode several shard tx threads share
  // this channel, and the injector path is the only send state they could
  // collide on (taken only when faults are configured).
  std::mutex gather_mu_;
  std::vector<std::uint8_t> gather_scratch_;
  // Atomic: the sender thread moves data while the receiver thread sends
  // control packets through the same channel.
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> send_calls_{0};
  std::atomic<std::uint64_t> recv_calls_{0};
  std::atomic<std::uint64_t> gso_sends_{0};
};

// Length of the longest leading run of `dgrams[i..]` that one GSO
// super-datagram can carry: equal wire sizes (except a shorter tail), run
// fits kGsoMaxBytes/kGsoMaxSegments, and keep_with_next pairs never split.
// Shared by the mmsg and uring send paths.
[[nodiscard]] std::size_t gso_run_length(
    std::span<const UdpChannel::TxDatagram> dgrams, std::size_t i);

}  // namespace udtr::udt
