// The UDT socket: the library's public API (paper §4.7, §4.8).
//
// Each connected socket is a duplex UDT entity serviced by two loops:
//   * the sender paces data packets out according to the congestion
//     controller (cc::UdtCc — the same object that drives the simulator),
//     always giving loss-list retransmissions priority and emitting a
//     back-to-back packet pair every 16 packets (RBPP); at high rates it
//     accumulates a pacing-credit's worth of packets and moves them with
//     one sendmmsg or GSO super-datagram (SocketOptions::io_batch), since
//     per-packet syscalls dominate CPU (Table 3);
//   * the receiver performs time-bounded UDP receives, draining a batch of
//     queued datagrams per wakeup, and checks the ACK / NAK / EXP timers
//     once after each wakeup (§4.8), processing both data and control
//     packets and waking the application's reader once per wakeup.
//
// Those loops run on threads owned by a Multiplexer (multiplexer.hpp), the
// one datapath: by default every socket bound to the same UDP port shares
// one channel and one receive/send thread pair per shard, so a process
// scales to thousands of connections (§4, Fig. 3).  With
// SocketOptions::exclusive_port the socket instead gets a private
// single-shard multiplexer — its own port and its own thread pair, the
// thread-per-socket layout Fig. 3 compares against — running the same code.
//
// The API follows socket semantics with the paper's additions: send/recv,
// sendfile/recvfile, and overlapped receive through user-buffer insertion.
// Readiness-driven (non-blocking) use goes through udt::Poller (poller.hpp).
// Connections run over IPv4 loopback/UDP.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cc/udt_cc.hpp"
#include "common/delay_trend.hpp"
#include "common/median_filter.hpp"
#include "udt/congestion.hpp"
#include "common/seqno.hpp"
#include "udt/buffers.hpp"
#include "udt/channel.hpp"
#include "udt/loss_list.hpp"
#include "udt/packet.hpp"
#include "udt/pacing.hpp"
#include "udt/profiler.hpp"

namespace udtr::udt {

class Multiplexer;
class Poller;

// Connection lifecycle (§3.5 recovery semantics).  kConnecting covers the
// handshake; kEstablished is normal duplex operation; kClosing means a
// shutdown is in progress (ours or the peer's); kClosed is a completed
// orderly close; kBroken means the EXP timer escalated past its budget with
// data outstanding — the peer is presumed dead and every blocked or future
// operation returns instead of hanging.
enum class ConnState { kConnecting, kEstablished, kClosing, kClosed, kBroken };

enum class SocketError {
  kNone,
  kConnectionBroken,  // EXP escalation exhausted: peer declared dead
  // recvfile: no data arrived within the progress deadline
  // (file_flush_timeout_s) before the requested length was reached — the
  // destination file holds a truncated prefix (or was never touched).
  kRecvTimeout,
  // recvfile: the peer closed (or the connection died) before the requested
  // length arrived — same truncation contract as kRecvTimeout, but the
  // stream is known to be over.
  kRecvTruncated,
  // sendfile/recvfile: local disk I/O failed (open / read / write /
  // truncate).
  kFileIo,
};

struct SocketOptions {
  // Maximum UDT payload per packet; +16 header bytes go on the wire.
  int mss_bytes = 1456;
  std::size_t snd_buffer_bytes = std::size_t{16} << 20;
  std::int32_t rcv_buffer_pkts = 16384;
  double syn_s = 0.01;
  bool window_control = true;       // flow control on/off (Fig. 7 ablation)
  int probe_interval = 16;          // packet pair every N packets
  double min_exp_timeout_s = 0.3;
  // EXP escalations (with data outstanding) tolerated before the connection
  // is declared broken; the backoff factor doubles per timeout and caps at
  // 16, so the total patience is bounded (§3.5).
  int max_exp_timeouts = 16;
  // close(): bounded wait for in-flight data to be acknowledged before the
  // shutdown is sent.
  double linger_s = 1.0;
  // Fault-injection layer for the channel (both directions; drop /
  // duplicate / reorder / corrupt / truncate / outage).  The caller may keep
  // its reference and flip faults mid-run; see fault.hpp.  A plain lossy
  // path is make_loss_injector(p, seed, kHeaderBytes + 16).
  std::shared_ptr<FaultInjector> faults;
  // Optional sending-rate cap in Mb/s (0 = uncapped).
  double max_bandwidth_mbps = 0.0;
  // Maximum datagrams moved per UDP system call on the hot paths.  The
  // paper's profile (Table 3) shows the per-packet sendto/recvfrom calls
  // dominating CPU on both sides; batching amortises them via
  // sendmmsg/recvmmsg while the Pacer keeps the average rate on the §4.5
  // schedule (batch_credit bounds each burst to ~1 ms of the pacing rate,
  // the tcp_tso_autosize rule, so rates under one packet per ms still get
  // true per-packet spacing).  While sends leave as GSO super-datagrams
  // the send ceiling rises to one whole super-datagram,
  // max(io_batch, gso_segment_cap), 44 at the default MSS
  // (send_batch_ceiling, pacing.hpp); a plain sendmmsg and every receive
  // stay at io_batch.
  // 1 = unbatched, the paper's original per-packet behavior, GSO or not;
  // clamped to [1, 64].
  int io_batch = 16;
  // UDP GSO/GRO offload on top of the zero-copy datapath (the sender hands
  // the kernel (header, payload) iovecs pointing into SndBuffer chunks, the
  // receiver parses datagrams in place in a pooled slab): contiguous
  // equal-size runs leave as one UDP_SEGMENT super-datagram and bursts
  // arrive GRO-coalesced.  Silently degrades to plain sendmmsg/recvmmsg
  // off-Linux, when the kernel refuses the offload, when UDTR_NO_GSO is
  // set, or when a fault injector owns per-datagram semantics.
  bool gso = true;
  bool enable_profiler = false;     // Table 3 instrumentation
  // Initial sequence number (< 0 = default).  Exposed so tests can start
  // near the 31-bit wrap boundary.
  std::int64_t initial_seq = -1;
  // false (default): the socket shares a Multiplexer — one UDP port and
  // one rx/tx thread pair per shard for every socket with compatible
  // options, and accepted connections stay on the listener's port.  true:
  // every multiplexer the socket opens is private and single-shard (never
  // shared through the client registry), so the socket owns its port and
  // one rx/tx thread pair, and each accepted connection gets a fresh
  // private multiplexer whose port the handshake response advertises.
  bool exclusive_port = false;
  // Multiplexer datapath shards per UDP port: each shard runs its own
  // rx/tx thread pair, receive slab, send heap and timer wheel on its own
  // SO_REUSEPORT fd (kernel-steered by destination socket id; falls back to
  // software demux on one fd where unavailable).  Sockets are assigned
  // shard = socket id % N for life, so a flow never migrates.  0 = auto
  // (min(4, hw_concurrency/2), or the UDTR_MUX_SHARDS env override);
  // 1 gives one rx/tx pair; clamped to [1, 16].  Forced to 1 in
  // exclusive-port mode.
  int mux_shards = 0;
  // Datapath backend for the multiplexer's shard channels (channel.hpp).
  // kAuto probes io_uring support at first bind and quietly falls back to
  // the mmsg path (also forced by UDTR_NO_URING); kUring demands it; kMmsg
  // is today's sendmmsg/recvmmsg path byte-for-byte.  With the uring
  // backend the shard rx thread drains CQEs instead of recvmmsg and data
  // batches go out as sendmsg SQEs whose SndBuffer pins are released when
  // the completion is reaped, not at syscall return.
  IoBackend io_backend = IoBackend::kAuto;
  // Stateless handshake (listener side): answer the first handshake packet
  // of a connection with a signed SYN-style cookie and keep zero state
  // until the client echoes it back (handshake_cookie.hpp).  Costs one
  // extra round trip at connect; makes a spoofed-source handshake flood
  // memory-free.  false restores the legacy two-way handshake for interop
  // with cookie-unaware peers.  Clients handle challenges unconditionally,
  // so this option only matters on the listener.
  bool stateless_handshake = true;
  // Per-source-IP admission control on the multiplexer handshake path:
  // token-bucket rate limit per source,
  // cap on concurrent half-open connections per source, and the bound on
  // the tracking table itself (LRU-evicted, so spoofed sources cannot
  // balloon it).  Defaults are sized for many clients behind one address
  // (NAT, loopback test fleets): the rate bounds a single-source packet
  // storm's CPU cost without throttling a legitimate connect burst, while
  // memory is defended by the cookie (nothing is retained pre-echo) and
  // the pending cap, not by the rate.
  double handshake_rate_per_ip = 20000.0;
  double handshake_burst_per_ip = 4096.0;
  int max_pending_per_ip = 64;
  int max_tracked_ips = 4096;
  // Congestion-control algorithm (congestion.hpp): "" or "udt" is the
  // paper's native AIMD/RBPP controller (byte-for-byte the historic
  // behavior); "reno-sack", "scalable", "highspeed", "bic", "vegas" and
  // "fast" select the ported TCP laws.  Sender-side only — nothing is
  // negotiated, so the two ends of a connection may run different
  // controllers.  listen()/connect() return nullptr on an unknown name.
  std::string congestion;
  // Escape hatch for custom controllers: when set, overrides `congestion`
  // and is called once per socket with the host parameters.
  CcFactory congestion_factory;
  // Receiver-side delay-trend warnings (§6): feed every data arrival's
  // one-way delay to a PCT/PDT detector (common/delay_trend.hpp) and send a
  // kDelayWarn control packet to the data sender when a rising trend is
  // found; the sender delivers it to its controller as on_delay_warning().
  // Off by default — the wire stays byte-for-byte the historic protocol.
  // Enable on the RECEIVING peer to give a delay-aware sender (vegas, fast,
  // or udt with delay_trend_mode) its early-congestion signal; loss-driven
  // senders ignore the warning, so the option is interop-safe either way.
  bool delay_warnings = false;
  // Message mode: largest message sendmsg() accepts, in MSS-sized packets.
  // Bounds the receiver-side reassembly walk and keeps one message from
  // monopolizing the send buffer.
  int max_msg_pkts = 1024;
  // --- bulk file transfer (§4.7, Table 2) --------------------------------
  // Pipelined zero-copy disk datapath for sendfile/recvfile
  // (file_pipeline.hpp): a reader thread pread()s (or io_uring-READs) into
  // a ring of 64 KB-aligned chunks the wire transmits from directly
  // (borrowed into SndBuffer, recycled on ACK-release), and a write-behind
  // thread drains the receive buffer by reference into pwrite()/io_uring
  // WRITE with ftruncate preallocation.  Disk and wire overlap, and steady
  // state moves payload without copies on either side.
  // Reader-ring chunk size (rounded up to 64 KB multiples, filled in MSS
  // multiples) and ring depth.  chunk_bytes * ring_chunks bounds both the
  // per-transfer file memory and the unacknowledged borrowed window; the
  // ring running dry is backpressure on the disk reader, not an error.
  std::size_t file_chunk_bytes = std::size_t{256} << 10;
  int file_ring_chunks = 16;
  // sendfile: deadline for the tail flush once the last byte is buffered
  // (previously a hardcoded 60 s).  recvfile: longest wait with no arriving
  // data before the transfer is abandoned as kRecvTimeout.
  double file_flush_timeout_s = 60.0;
  // File READ/WRITE through a dedicated io_uring when the kernel has one
  // (independent of io_backend, which drives the UDP datapath); quietly
  // falls back to pread/pwrite, and UDTR_NO_URING forces the fallback.
  bool file_uring = true;
  // Injected disk-rate caps in Mb/s for the reader / writer stages (0 =
  // off).  bench_blast_file (and tests) use these to emulate the Table-2
  // disk bottleneck on hardware whose page cache is far faster than the
  // disks the paper measured.
  double file_disk_read_mbps = 0.0;
  double file_disk_write_mbps = 0.0;
};

struct PerfStats {
  std::uint64_t data_packets_sent = 0;
  std::uint64_t data_packets_recv = 0;
  std::uint64_t retransmitted = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_recv = 0;
  std::uint64_t naks_sent = 0;
  std::uint64_t naks_recv = 0;
  std::uint64_t bytes_sent = 0;     // application payload accepted by send()
  std::uint64_t bytes_delivered = 0;  // application payload handed to recv()
  std::uint64_t timeouts = 0;
  std::uint64_t keepalives_sent = 0;
  // Datagrams rejected by the validation layer (short, wrong destination
  // socket, unknown control type, truncated control payload).
  std::uint64_t invalid_packets = 0;
  // NAK ranges discarded as inverted or entirely outside the send window.
  std::uint64_t invalid_nak_ranges = 0;
  // Listener-side admission counters (the listener's port-wide counters).
  std::uint64_t accept_queue_drops = 0;        // pending queue overflowed
  std::uint64_t handshake_admission_drops = 0; // per-IP rate/pending limits
  std::uint64_t handshake_cookie_rejects = 0;  // invalid or expired cookies
  // ACKs that did not advance snd_una (duplicates, reordered-stale): their
  // receiver statistics are withheld from the congestion controller.
  std::uint64_t stale_acks_dropped = 0;
  // Keepalive probes sent while the peer advertised a zero receive window.
  std::uint64_t zero_window_probes = 0;
  // Message mode (partial reliability): messages accepted by sendmsg /
  // delivered by recvmsg / expired by their TTL before full acknowledgment,
  // and kMsgDrop control packets emitted / received.
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_delivered = 0;
  std::uint64_t msgs_dropped_ttl = 0;
  std::uint64_t msg_drop_ctrl_sent = 0;
  std::uint64_t msg_drop_ctrl_recv = 0;
  // Delay-trend warnings (kDelayWarn): emitted by our receiver (with
  // delay_warnings on) / delivered to our congestion controller.
  std::uint64_t delay_warnings_sent = 0;
  std::uint64_t delay_warnings_recv = 0;
  double rtt_ms = 0.0;
  double capacity_mbps = 0.0;       // RBPP estimate
  double recv_rate_mbps = 0.0;      // arrival-speed estimate
  double send_period_us = 0.0;      // current pacing interval
  double window_pkts = 0.0;
  // Receiver-advertised free buffer from the freshest ACK (flow control);
  // 0 while the peer's window is closed.
  double peer_window_pkts = 0.0;
  // Send batches after which the pacer re-anchored its schedule at the
  // send instant instead of keeping its grid (Pacer::advance): a batch
  // later than the carry allows, including the first batch after an idle
  // spell.
  std::uint64_t pacer_reanchors = 0;
  std::string cc_name;              // active congestion-control algorithm
};

class Socket {
 public:
  ~Socket();
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  // --- establishment ----------------------------------------------------
  // Creates a listening socket on 127.0.0.1:`port` (0 = ephemeral).
  static std::unique_ptr<Socket> listen(std::uint16_t port,
                                        SocketOptions opts = {});
  // Waits for one incoming connection (listener only).
  std::unique_ptr<Socket> accept(
      std::chrono::milliseconds timeout = std::chrono::milliseconds{10000});
  // Connects to a listening UDT socket.
  static std::unique_ptr<Socket> connect(const std::string& host,
                                         std::uint16_t port,
                                         SocketOptions opts = {});

  [[nodiscard]] std::uint16_t local_port() const {
    return net_->local_port();
  }

  // --- data transfer ----------------------------------------------------
  // Buffers all of `data` for transmission, blocking while the send buffer
  // is full.  Returns bytes accepted (== data.size() unless closed).
  std::size_t send(std::span<const std::uint8_t> data);
  // Overlapped send (§4.7): transmits directly from the caller's memory —
  // no copy into the protocol buffer — and blocks until everything handed
  // over is acknowledged, at which point the caller may reuse `data`.
  // Returns bytes sent-and-acknowledged.
  std::size_t send_overlapped(std::span<const std::uint8_t> data,
                              std::chrono::milliseconds timeout =
                                  std::chrono::seconds{60});
  // Receives at least one byte (blocking up to `timeout`); returns bytes
  // read, 0 on timeout or orderly shutdown with nothing pending.
  std::size_t recv(std::span<std::uint8_t> out,
                   std::chrono::milliseconds timeout =
                       std::chrono::milliseconds{10000});
  // --- message mode (opt-in per socket, real UDT's SOCK_DGRAM semantics) --
  // Sends one message whose boundaries are preserved end-to-end, blocking
  // while the send buffer lacks room for the whole message (all-or-nothing).
  // `ttl` > 0 arms partial reliability: a message not fully acknowledged by
  // its deadline is dropped — its unsent/unacked packets are abandoned and
  // the receiver is told to seal the hole — instead of retransmitted
  // forever.  ttl <= 0 means fully reliable.  `in_order` = false lets the
  // receiver deliver this message before earlier (e.g. still-recovering)
  // ones.  Returns data.size(), or 0 when the message is empty, larger than
  // max_msg_pkts packets (or the send buffer), the socket is closed, or the
  // socket already carries stream traffic — one socket speaks either stream
  // or message, never both (the first send()/sendmsg() call latches it).
  std::size_t sendmsg(std::span<const std::uint8_t> data,
                      std::chrono::milliseconds ttl =
                          std::chrono::milliseconds{0},
                      bool in_order = true);
  // Receives one complete message (blocking up to `timeout`); returns bytes
  // copied, 0 on timeout, shutdown, or an empty `out`.  A message larger
  // than `out` is truncated to fit; the rest is discarded.
  std::size_t recvmsg(std::span<std::uint8_t> out,
                      std::chrono::milliseconds timeout =
                          std::chrono::milliseconds{10000});
  // Streams `length` bytes of `path` starting at `offset`; returns bytes
  // sent AND acknowledged.  Blocks until the data is delivered or the
  // socket dies — a connection that breaks with the tail unacknowledged is
  // reported as a short count, never as success.  The wire transmits
  // straight out of a ring of file-read chunks (zero payload copies in
  // steady state); disk errors surface as last_error() == kFileIo.
  // Returns 0 on a message-latched socket — stream bytes cannot be spliced
  // into a message sequence.
  std::uint64_t sendfile(const std::string& path, std::uint64_t offset,
                         std::uint64_t length);
  // Receives `length` bytes into `path` and returns bytes written.  The
  // destination is only created/truncated once the first byte has actually
  // arrived (a transfer that dies earlier leaves an existing file intact),
  // then preallocated to `length` and trimmed back if the transfer ends
  // short.  A short count is never silent: last_error() distinguishes
  // kRecvTimeout (peer went quiet), kRecvTruncated (peer closed early),
  // kConnectionBroken and kFileIo; a clean full-length transfer resets it
  // to kNone.  The disk write overlaps reassembly (write-behind by
  // reference) instead of gating the receive loop.
  std::uint64_t recvfile(const std::string& path, std::uint64_t length);

  // Waits until everything buffered so far is acknowledged.
  bool flush(std::chrono::milliseconds timeout);

  void close();
  [[nodiscard]] bool closed() const { return !running_; }

  // --- lifecycle / error surfacing --------------------------------------
  [[nodiscard]] ConnState state() const { return state_; }
  [[nodiscard]] SocketError last_error() const { return last_error_; }
  [[nodiscard]] bool broken() const { return state_ == ConnState::kBroken; }
  // This socket's id on the wire (the peer addresses us with it); exposed
  // so tests can craft raw datagrams that pass validation.
  [[nodiscard]] std::uint32_t id() const { return socket_id_; }
  // Consecutive EXP expirations with data outstanding since the last
  // control packet from the peer (resets to 0 on any control arrival).
  [[nodiscard]] int consecutive_exp_timeouts() const;

  [[nodiscard]] PerfStats perf() const;
  [[nodiscard]] Profiler& profiler() { return profiler_; }
  [[nodiscard]] const CongestionControl& congestion() const { return *cc_; }

  // The multiplexer this socket is attached to (a private single-shard one
  // in exclusive-port mode).  Exposed for diagnostics (unroutable-datagram
  // counters, thread accounting in tests and benches).
  [[nodiscard]] std::shared_ptr<Multiplexer> multiplexer() const {
    return mux_;
  }

  // Current readiness against `mask` (kPollIn / kPollOut / kPollErr,
  // poller.hpp), computed from the protocol buffers under the socket lock.
  // Poller::wait is built on this; it is also directly usable for one-off
  // non-blocking checks.
  [[nodiscard]] std::uint32_t poll_ready(std::uint32_t mask) const;

 private:
  friend class Multiplexer;
  friend class Poller;

  explicit Socket(SocketOptions opts);

  enum class Mode { kListener, kConnected };

  // --- datapath (multiplexer service threads) ----------------------------
  // Transition into steady state on the multiplexer: adopt the shard's
  // receive slab and loss-list pool and mark the connection established.
  void setup_mux_mode();
  // True while the sender has something it may transmit now (state_mu_
  // held): pending retransmissions, or new data inside the window.
  [[nodiscard]] bool snd_has_work() const;
  // Window bounding NEW data in flight (state_mu_ held): the congestion
  // controller's window, capped by the receiver's advertised free buffer —
  // including a genuine zero, which halts new data entirely (flow control
  // belongs to the socket, not the controller).
  [[nodiscard]] double effective_snd_window() const;
  // The most datagrams one send may carry right now (send_batch_ceiling):
  // a whole GSO super-datagram while sends leave through GSO, else
  // io_batch.
  [[nodiscard]] int tx_ceiling() const;
  void prepare_tx_scratch();
  // Fills the tx scratch with up to one pacing-credit of packets and pins
  // the covered range.  state_mu_ held.  Returns the number of
  // datagrams staged, the pacing period via `period`, and via `cap_bound`
  // whether max_bandwidth_mbps (not the controller) set that period.
  std::size_t fill_tx_batch(std::chrono::nanoseconds& period,
                            bool& cap_bound);
  // Pushes `count` staged datagrams to the wire (lock dropped).  Returns
  // true when the batch went out asynchronously (uring backend): the pin is
  // then released by on_tx_reaped when the completion lands, and the caller
  // must NOT unpin inline.
  bool send_tx_batch(std::size_t count);
  // Completion callback for send_gather_async: runs on whichever thread
  // reaps the batch's last CQE (lock order: the engine's cq_mu, then our
  // state_mu_).  Unpins the batch's chunk range and wakes overlapped
  // senders.
  static void on_tx_reaped(void* ctx, std::uint64_t token);
  // One multiplexed sender service round: fill, send, advance the pacer.
  // Returns the socket's next deadline — time_point::max() parks the socket
  // until a state change kicks it again.
  [[nodiscard]] Pacer::Clock::time_point tx_round();
  // Receive-thread entry for one demultiplexed datagram (>= kHeaderBytes,
  // already routed by destination id).  Takes state_mu_.  Returns true when
  // the datagram raised the reader-wake flag: the calling receive thread
  // must call wake_reader() once its round ends.
  bool mux_ingest(std::span<const std::uint8_t> pkt, RecvSlab* slab,
                  int slab_slot);
  // Wakes recv()/recvmsg()/recvfile() waiters and Poller watchers if a
  // wake is pending.  Called without state_mu_ by the receive thread that
  // listed this socket, under its shard's attach lock.
  void wake_reader();
  // Timer-wheel sweep: check_timers() under state_mu_, then return the
  // earliest §4.8 deadline (ACK / NAK / EXP, as applicable) so the
  // multiplexer can re-arm this socket's wheel entry — an idle socket parks
  // at EXP cadence instead of being polled every millisecond.
  [[nodiscard]] Pacer::Clock::time_point sweep_timers_next();
  // Earliest next timer deadline in epoch-relative microseconds (state_mu_
  // held).
  [[nodiscard]] std::uint64_t next_timer_due_us(std::uint64_t now) const;
  // Marks the sender dirty and kicks the multiplexer's send heap.
  void wake_sender();

  // --- poller plumbing (definitions in poller.cpp) ------------------------
  void poke_watchers();
  void drop_watchers();

  // Receiver-thread handlers (state_mu_ held).
  // `slab`/`slab_slot` describe where `pkt` physically lives: when non-null
  // the payload is parked in RcvBuffer by reference (slot ownership moves,
  // no copy); when null (the slab ran dry) the payload is copied into owned
  // slot storage.
  // handle_data returns true when it raised rcv_wake_pending_ (see
  // mux_ingest).
  [[nodiscard]] bool handle_data(std::span<const std::uint8_t> pkt,
                                 RecvSlab* slab, int slab_slot);
  void handle_ctrl(std::span<const std::uint8_t> pkt);
  void check_timers();
  // EXP budget exhausted: mark the connection dead and release every
  // blocked thread (state_mu_ held).
  void declare_broken();
  void send_ack();
  void send_nak(std::span<const std::pair<udtr::SeqNo, udtr::SeqNo>> ranges);
  void send_ctrl_simple(CtrlType type, std::uint32_t info = 0);
  // Message mode: TTL sweep (expire unacked messages, emit kMsgDrop) and the
  // kMsgDrop emitter.  state_mu_ held.
  void sweep_msg_ttl(std::uint64_t now);
  void send_msg_drop(std::uint32_t msg_no, std::int64_t first,
                     std::int64_t last);

  // --- file transfer (socket.cpp, file_pipeline.hpp stages) --------------
  [[nodiscard]] std::chrono::milliseconds file_deadline_ms() const {
    return std::chrono::milliseconds{static_cast<std::int64_t>(
        std::max(opts_.file_flush_timeout_s, 0.001) * 1e3)};
  }

  [[nodiscard]] std::uint64_t now_us() const;
  [[nodiscard]] double now_s() const {
    return static_cast<double>(now_us()) * 1e-6;
  }
  [[nodiscard]] udtr::SeqNo seq_of(std::int64_t index) const {
    return udtr::SeqNo{static_cast<std::int32_t>(
        (isn_ + index) & udtr::SeqNo::kMax)};
  }
  [[nodiscard]] std::int64_t index_of(udtr::SeqNo seq,
                                      std::int64_t near) const {
    return near + udtr::SeqNo::offset(seq_of(near), seq);
  }

  SocketOptions opts_;
  Mode mode_ = Mode::kConnected;
  // The multiplexer owning the channel this socket uses.  Held for the
  // socket's whole lifetime (not reset on close) so diagnostics stay valid;
  // `net_` points at the owning shard's channel.
  std::shared_ptr<Multiplexer> mux_;
  UdpChannel* net_ = nullptr;
  Endpoint peer_{};
  std::uint32_t socket_id_ = 0;
  std::uint32_t peer_socket_id_ = 0;
  // The shard that owns this socket (socket_id_ % shards,
  // set at attach) and the socket's current timer-wheel deadline in
  // steady_clock nanoseconds — a CAS-min shared between the owning shard's
  // expiry path and cross-thread deadline tightening (Multiplexer::
  // tighten_timer).
  std::uint32_t mux_shard_ = 0;
  std::atomic<std::int64_t> wheel_deadline_ns_{0};
  std::int64_t isn_ = 0;
  std::chrono::steady_clock::time_point epoch_{};

  std::atomic<bool> running_{false};
  std::atomic<bool> peer_shutdown_{false};
  std::atomic<ConnState> state_{ConnState::kConnecting};
  std::atomic<SocketError> last_error_{SocketError::kNone};
  // Serializes close(): two threads closing concurrently (or close racing
  // the destructor) must not both reach the multiplexer detach.
  std::mutex close_mu_;

  mutable std::mutex state_mu_;
  std::condition_variable app_snd_cv_;  // buffer space for send()
  std::condition_variable app_rcv_cv_;  // data available for recv()

  // Invoked (state_mu_ held) wherever send progress frees buffer storage —
  // ACK advance and syscall unpin.  sendfile_pipelined installs its
  // chunk-recycle step here so the FileSource ring refills the moment the
  // ACK clock releases a chunk, even while the pump thread is blocked
  // waiting for the next disk read; null otherwise.
  std::function<void()> snd_release_hook_;

  // --- sender state (guarded by state_mu_) -------------------------------
  SndBuffer snd_buffer_;
  LossList snd_loss_;
  std::unique_ptr<CongestionControl> cc_;
  std::int64_t snd_next_ = 0;   // next new packet index
  std::int64_t snd_una_ = 0;    // first unacknowledged index
  Pacer pacer_;
  // Flow control (sender side): free receiver buffer advertised by the
  // freshest ACK seen (ack-id monotonicity, not cumulative-seq advancement —
  // a pure window update repeats its ack_seq).  Zero closes the window for
  // new data; the persist-style probe below reopens it without deadlock.
  double peer_avail_pkts_ = 1e9;
  std::int32_t last_peer_ack_id_ = 0;
  bool peer_ack_seen_ = false;
  std::uint64_t next_zw_probe_us_ = 0;
  std::uint64_t zw_probe_backoff_us_ = 0;  // 0 = probe timer disarmed

  // Transmit scratch, reused every round so the steady state never
  // allocates.  Owned by the owning shard's send thread.
  std::vector<std::array<std::uint8_t, kHeaderBytes>> tx_headers_;
  std::vector<UdpChannel::TxDatagram> tx_gather_;
  // 0 until the first fill_tx_batch materializes the scratch (lazy: an
  // idle socket never stages a batch, so it never pays for one).
  int tx_max_batch_ = 0;
  // Pin token of the batch currently staged in tx_gather_.
  // Written by fill_tx_batch under state_mu_, consumed by the same service
  // thread: either inline (sync send) or via on_tx_reaped (async).
  std::uint64_t tx_pin_token_ = 0;
  // True when the sender may have work (set with every wake_sender, cleared
  // by a tx round that found nothing to do).  The multiplexer's heartbeat
  // sweep only re-kicks dirty sockets, so a 100k-socket idle fleet costs
  // one relaxed load per socket per sweep instead of a full service round.
  std::atomic<bool> tx_dirty_{false};
  // True while a send-heap entry for this socket exists
  // (at most one).  See Multiplexer::kick / serve for the protocol.
  std::atomic<bool> tx_scheduled_{false};
  // connect(): handshake response stashed by the receive thread
  // for the connecting thread (guarded by state_mu_, signalled via
  // app_rcv_cv_).
  std::optional<HandshakePayload> hs_resp_;

  // --- message mode (guarded by state_mu_) -------------------------------
  // One socket speaks either stream or message, never both: boundary bits
  // forbid splicing stream bytes into a message's sequence range, so the
  // first send()/sendmsg() (resp. first data arrival / kMsgDrop) latches
  // the direction's mode and the other API returns 0 from then on.
  enum class XferMode : std::uint8_t { kUnset, kStream, kMessage };
  XferMode snd_mode_ = XferMode::kUnset;
  XferMode rcv_mode_ = XferMode::kUnset;
  std::uint32_t next_msg_no_ = 1;  // 29-bit, wraps skipping the 0 sentinel
  struct SndMsgRecord {
    std::uint32_t msg_no;
    std::int64_t first;     // first packet index
    std::int64_t last;      // last packet index (inclusive)
    std::uint64_t deadline_us;
  };
  // Finite-TTL messages awaiting full acknowledgment, in creation (and thus
  // deadline, for a steady TTL) order; swept by check_timers.
  std::deque<SndMsgRecord> snd_msgs_;
  // Expired messages whose kMsgDrop may need re-sending (NAK for a dead
  // range, EXP with the drop unacknowledged); purged once snd_una_ passes.
  std::vector<SndMsgRecord> snd_dropped_;
  // Cached min deadline over snd_msgs_ (never late, may be stale-early);
  // UINT64_MAX when no finite-TTL message is outstanding.
  std::uint64_t snd_msg_deadline_us_ = UINT64_MAX;

  // --- receiver state (guarded by state_mu_) -----------------------------
  // Declared before rcv_buffer_: the buffer's destructor releases slab
  // references, so the multiplexer's shared slab must outlive it.
  std::shared_ptr<RecvSlab> mux_slab_;
  RcvBuffer rcv_buffer_;
  LossList rcv_loss_;
  std::int64_t lrsn_ = -1;      // largest received index
  udtr::ArrivalSpeedEstimator speed_{16};
  udtr::PacketPairEstimator pair_{16};
  // PCT/PDT detector over data-arrival one-way delays (delay_warnings only).
  udtr::DelayTrendDetector delay_trend_{16};
  std::uint64_t last_arrival_us_ = 0;
  bool any_arrival_ = false;
  std::uint64_t probe_head_us_ = 0;
  std::int64_t probe_head_index_ = -2;
  double rtt_s_ = 0.0;

  std::uint64_t last_ack_us_ = 0;
  std::uint64_t last_nak_check_us_ = 0;
  std::uint64_t last_ctrl_us_ = 0;      // EXP timer basis
  int consecutive_timeouts_ = 0;
  std::int32_t next_ack_id_ = 1;
  // In-flight ACK departure times for RTT measurement, keyed by ack id mod
  // size.  16 is ample: ACKs leave at SYN cadence (10 ms), so 16 slots cover
  // a 160 ms ACK->ACK2 turnaround — far beyond loopback RTTs — at a quarter
  // of the old 64-slot footprint (this array is per socket, and a 100k
  // fleet notices).
  std::array<std::pair<std::int32_t, std::uint64_t>, 16> ack_times_{};
  std::int64_t last_acked_index_ = -1;
  bool data_since_ack_ = false;
  // Data arrived since the last wake_reader(): the receive round that
  // raised it wakes the reader once when the round ends.  Raised under
  // state_mu_, cleared by wake_reader without it.
  std::atomic<bool> rcv_wake_pending_{false};
  // True after an ACK advertised zero free buffer: arms the receiver-side
  // reopen paths (immediate window-update ACK on drain, ACK response to the
  // sender's zero-window probes).
  bool advertised_zero_ = false;

  PerfStats stats_;
  Profiler profiler_;

  // --- poller wiring (guarded by the poller registry mutex) ---------------
  std::atomic<bool> watched_{false};
  std::vector<Poller*> watchers_;
};

}  // namespace udtr::udt
