// Raw io_uring engine for UdpChannel (see channel_uring.hpp for the model).
//
// Everything kernel-facing lives in this translation unit: the three
// syscalls, the ring mmaps, SQE/CQE layout.  Builds to a stub (probe() ==
// false) where <linux/io_uring.h> is unavailable.
#include "udt/channel_uring.hpp"

#if defined(__linux__) && __has_include(<linux/io_uring.h>)
#include <linux/io_uring.h>
// The rx side rides on a provided-buffer ring and multishot recvmsg; uapi
// headers without IORING_RECV_MULTISHOT predate both, so build the stub.
#if defined(IORING_RECV_MULTISHOT)
#define UDTR_HAVE_URING 1
#else
#define UDTR_HAVE_URING 0
#endif
#else
#define UDTR_HAVE_URING 0
#endif

#if UDTR_HAVE_URING

#include <linux/time_types.h>
#include <netinet/udp.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

namespace udtr::udt {

namespace {

constexpr unsigned kSqEntries = 128;
// CQ sized for the worst case of in-flight ops: every tx record full plus
// the whole rx slot ring (NODROP makes overflow non-fatal regardless).
constexpr unsigned kCqEntries = 1024;
constexpr std::size_t kMaxTxRecords = 8;
constexpr std::size_t kMaxBatchDgrams = 64;
constexpr std::size_t kMaxRxBufs = 64;

// user_data layout: one tag bit picks the direction; tx packs the
// (record, msg) pair in the low bits.  The single multishot recvmsg SQE
// carries the bare rx tag — its buffer id arrives in the CQE flags.
constexpr std::uint64_t kRxTag = 0x1ull << 56;
constexpr std::uint64_t kTxTag = 0x2ull << 56;

// Per-buffer header multishot recvmsg writes ahead of the payload: the
// io_uring_recvmsg_out summary, then name and control areas sized by the
// capacities in the msghdr template.
constexpr unsigned kRxNameCap = sizeof(sockaddr_in);
constexpr unsigned kRxCtrlCap = CMSG_SPACE(sizeof(int));
constexpr std::size_t kRxHdr =
    sizeof(io_uring_recvmsg_out) + kRxNameCap + kRxCtrlCap;
static_assert(kRxHdr <= UdpChannel::kUringRxHeadroom,
              "slab headroom must cover the multishot recvmsg header");

constexpr unsigned kNeededFeatures =
    IORING_FEAT_NODROP | IORING_FEAT_SINGLE_MMAP | IORING_FEAT_EXT_ARG;

int uring_setup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

int uring_enter(int fd, unsigned to_submit, unsigned min_complete,
                unsigned flags, const void* arg, std::size_t argsz) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit,
                                    min_complete, flags, arg, argsz));
}

[[maybe_unused]] int uring_register(int fd, unsigned opcode, void* arg,
                                    unsigned nr) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_register, fd, opcode, arg, nr));
}

// Page-aligned allocation for PBUF_RING memory.  aligned_alloc demands a
// size that is a multiple of the alignment (glibc forgives, sanitizers
// abort), so round the ring size up to whole pages.
void* alloc_ring_pages(std::size_t bytes) {
  constexpr std::size_t kPage = 4096;
  return std::aligned_alloc(kPage, (bytes + kPage - 1) & ~(kPage - 1));
}

// Engines whose teardown gave up on the ring and leaked its receive
// buffers (UringEngine::teardown_leaks).
std::atomic<std::uint64_t> g_teardown_leaks{0};

}  // namespace

struct UringEngine::Impl {
  UdpChannel* ch = nullptr;

  int ring_fd = -1;
  std::uint8_t* ring_ptr = nullptr;  // SINGLE_MMAP: covers SQ and CQ rings
  std::size_t ring_len = 0;
  io_uring_sqe* sqes = nullptr;
  std::size_t sqes_len = 0;

  unsigned* sq_head = nullptr;
  unsigned* sq_tail = nullptr;
  unsigned* sq_array = nullptr;
  unsigned sq_mask = 0;
  unsigned sq_entries = 0;
  unsigned* cq_head = nullptr;
  unsigned* cq_tail = nullptr;
  io_uring_cqe* cqes = nullptr;
  unsigned cq_mask = 0;

  // SQE allocation and tail publication.  tail_local runs ahead of the
  // published *sq_tail while a batch is being prepped; unsubmitted counts
  // published entries no io_uring_enter has consumed yet.
  std::mutex sq_mu;
  unsigned tail_local = 0;
  unsigned unsubmitted = 0;

  // CQ reaping, tx records and the reaped-but-undelivered rx list.
  std::mutex cq_mu;
  std::condition_variable cq_cv;

  // ---- rx: provided-buffer ring + one multishot recvmsg ------------------
  //
  // The kernel holds a single armed RECVMSG SQE; each arriving datagram
  // picks the next buffer off the registered ring and posts a CQE tagged
  // with its buffer id.  One armed op means one poll waiter — a slot-per-SQE
  // scheme makes every arrival wake all armed slots and punts the losers to
  // io-wq worker threads that then sit in blocking recvmsg.
  struct RxBuf {
    int slab_slot = -1;    // current backing slab slot, -1 = arena / starved
    bool provided = false; // handed to the kernel via the buffer ring
  };
  std::vector<RxBuf> rxb;
  std::shared_ptr<RecvSlab> slab;      // kept alive for the ring's lifetime
  std::vector<std::uint8_t> rx_arena;  // slab-less (exclusive test) storage
  std::size_t rx_slot_bytes = 0;       // provided size, kRxHdr included
  bool rx_init = false;
  // Multishot refused at runtime: revert to mmsg rx.  Atomic because the
  // EINVAL latch is set by whichever thread reaps the CQ (a sender inside
  // drain_tx included) while the rx thread reads it lock-free.
  std::atomic<bool> rx_dead{false};
  bool rx_released = false;  // slab refs handed back after rx_dead
  msghdr rx_msg{};          // layout template; kernel reads it while armed
  io_uring_buf_ring* br = nullptr;
  unsigned br_entries = 0;
  unsigned br_mask = 0;
  std::uint16_t br_tail = 0;
  unsigned provided_n = 0;  // buffers currently on the ring (rx thread)
  std::atomic<unsigned> rx_inflight{0};  // armed multishot SQEs (0 or 1)
  std::uint64_t rx_ok = 0;               // delivered CQEs (cq_mu)
  std::atomic<std::uint64_t> rx_backpressure{0};  // ENOBUFS completions
  struct RxDone {
    unsigned bid;
    int res;
  };
  std::vector<RxDone> rx_done;  // guarded by cq_mu
  // rx thread's drain scratch.  Persistent so the capacity ping-pongs
  // between rx_done and rx_take across swaps instead of being freed and
  // re-grown every round (the steady-state datapath must not allocate).
  std::vector<RxDone> rx_take;  // rx thread only

  // ---- tx: pin-until-CQE batch records ----------------------------------
  struct Run {  // one sendmsg SQE: a GSO run or a single plain datagram
    unsigned dgram_first = 0;
    unsigned dgram_count = 0;
    bool gso = false;
    bool resent = false;
  };
  struct CtrlBuf {
    alignas(cmsghdr) char b[CMSG_SPACE(sizeof(std::uint16_t))];
  };
  struct TxRecord {
    bool in_use = false;  // guarded by cq_mu; contents owned by the filler
    UdpChannel::TxDoneFn done = nullptr;
    void* ctx = nullptr;
    std::uint64_t token = 0;
    sockaddr_in sa{};
    // Header bytes are copied here (the caller reuses its staging arrays
    // next round); body spans keep pointing into pinned SndBuffer chunks.
    std::vector<std::uint8_t> heads;
    std::vector<UdpChannel::TxDatagram> dgrams;
    // msghdr/iovec/cmsg storage the kernel may read until the CQE: sized
    // up front, never reallocated while outstanding > 0.
    std::vector<iovec> iovs;
    std::vector<msghdr> msgs;
    std::vector<CtrlBuf> ctrls;
    std::vector<Run> runs;
    unsigned outstanding = 0;
  };
  std::array<TxRecord, kMaxTxRecords> recs;

  // ---- ring plumbing -----------------------------------------------------

  bool init(UdpChannel* channel) {
    ch = channel;
    io_uring_params p{};
    p.flags = IORING_SETUP_CQSIZE;
    p.cq_entries = kCqEntries;
    ring_fd = uring_setup(kSqEntries, &p);
    if (ring_fd < 0) return false;
    if ((p.features & kNeededFeatures) != kNeededFeatures) {
      ::close(ring_fd);
      ring_fd = -1;
      return false;
    }
    sq_entries = p.sq_entries;
    ring_len = std::max<std::size_t>(
        p.sq_off.array + p.sq_entries * sizeof(unsigned),
        p.cq_off.cqes + p.cq_entries * sizeof(io_uring_cqe));
    void* m = ::mmap(nullptr, ring_len, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_POPULATE, ring_fd, IORING_OFF_SQ_RING);
    if (m == MAP_FAILED) {
      ::close(ring_fd);
      ring_fd = -1;
      return false;
    }
    ring_ptr = static_cast<std::uint8_t*>(m);
    sqes_len = p.sq_entries * sizeof(io_uring_sqe);
    m = ::mmap(nullptr, sqes_len, PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_POPULATE, ring_fd, IORING_OFF_SQES);
    if (m == MAP_FAILED) {
      ::munmap(ring_ptr, ring_len);
      ring_ptr = nullptr;
      ::close(ring_fd);
      ring_fd = -1;
      return false;
    }
    sqes = static_cast<io_uring_sqe*>(m);
    sq_head = reinterpret_cast<unsigned*>(ring_ptr + p.sq_off.head);
    sq_tail = reinterpret_cast<unsigned*>(ring_ptr + p.sq_off.tail);
    sq_array = reinterpret_cast<unsigned*>(ring_ptr + p.sq_off.array);
    sq_mask = *reinterpret_cast<unsigned*>(ring_ptr + p.sq_off.ring_mask);
    cq_head = reinterpret_cast<unsigned*>(ring_ptr + p.cq_off.head);
    cq_tail = reinterpret_cast<unsigned*>(ring_ptr + p.cq_off.tail);
    cq_mask = *reinterpret_cast<unsigned*>(ring_ptr + p.cq_off.ring_mask);
    cqes = reinterpret_cast<io_uring_cqe*>(ring_ptr + p.cq_off.cqes);
    tail_local = __atomic_load_n(sq_tail, __ATOMIC_ACQUIRE);
    return true;
  }

  // sq_mu held.  Zeroed SQE with its array slot wired, or nullptr when the
  // SQ is full.  Nothing is visible to the kernel until publish().
  io_uring_sqe* get_sqe() {
    const unsigned head = __atomic_load_n(sq_head, __ATOMIC_ACQUIRE);
    if (tail_local - head >= sq_entries) return nullptr;
    const unsigned idx = tail_local & sq_mask;
    ++tail_local;
    io_uring_sqe* sqe = &sqes[idx];
    std::memset(sqe, 0, sizeof *sqe);
    sq_array[idx] = idx;
    return sqe;
  }

  // sq_mu held.
  void publish(unsigned n) {
    __atomic_store_n(sq_tail, tail_local, __ATOMIC_RELEASE);
    unsubmitted += n;
  }

  unsigned take_unsubmitted() {
    std::lock_guard lk{sq_mu};
    const unsigned n = unsubmitted;
    unsubmitted = 0;
    return n;
  }

  void give_back(unsigned n) {
    std::lock_guard lk{sq_mu};
    unsubmitted += n;
  }

  // Hands published SQEs to the kernel without waiting.  `counter`, when
  // set, takes one tick per actual syscall (the Table-3 accounting).
  void flush(unsigned n, std::atomic<std::uint64_t>* counter) {
    if (n == 0) return;
    if (counter != nullptr) ++*counter;
    const int ret = uring_enter(ring_fd, n, 0, 0, nullptr, 0);
    if (ret < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EBUSY) give_back(n);
      return;  // ring broken: the count is lost with it
    }
    if (static_cast<unsigned>(ret) < n) give_back(n - ret);
  }

  // One combined submit-and-wait: pushes everything published (rx re-arms
  // included) and blocks for >= 1 completion, bounded by the channel's
  // receive timeout.  This is the rx thread's only blocking syscall.
  void wait_enter() {
    const unsigned n = take_unsubmitted();
    const auto us = ch->recv_timeout_us_.count() > 0
                        ? ch->recv_timeout_us_
                        : std::chrono::microseconds{5000};
    __kernel_timespec ts{};
    ts.tv_sec = us.count() / 1000000;
    ts.tv_nsec = (us.count() % 1000000) * 1000;
    io_uring_getevents_arg arg{};
    arg.ts = reinterpret_cast<std::uint64_t>(&ts);
    ++ch->recv_calls_;
    const int ret =
        uring_enter(ring_fd, n, 1, IORING_ENTER_GETEVENTS | IORING_ENTER_EXT_ARG,
                    &arg, sizeof arg);
    if (ret < 0) {
      // -ETIME means nothing was consumed (the kernel reports a positive
      // submit count even when the wait times out), so the SQEs are still
      // published and the count must survive for the next enter.
      if (errno == EINTR || errno == EAGAIN || errno == EBUSY ||
          errno == ETIME) {
        give_back(n);
      }
      return;
    }
    if (static_cast<unsigned>(ret) < n) give_back(n - ret);
  }

  // ---- completion handling (cq_mu held) ----------------------------------

  void handle_cqe(const io_uring_cqe& cqe) {
    if ((cqe.user_data & kRxTag) != 0) {
      if ((cqe.flags & IORING_CQE_F_MORE) == 0) {
        rx_inflight.fetch_sub(1, std::memory_order_relaxed);
      }
      if ((cqe.flags & IORING_CQE_F_BUFFER) != 0) {
        ++rx_ok;
        rx_done.push_back(RxDone{
            static_cast<unsigned>(cqe.flags >> IORING_CQE_BUFFER_SHIFT),
            cqe.res});
      } else if (cqe.res == -ENOBUFS) {
        // Buffer ring ran dry: datagrams back up in the socket receive
        // buffer until the rx thread recycles slots — backpressure, not
        // silent drops.
        rx_backpressure.fetch_add(1, std::memory_order_relaxed);
      } else if (cqe.res == -EINVAL && rx_ok == 0) {
        // The kernel accepted the ring but refuses multishot recvmsg
        // (5.19..5.x window): permanent per-channel fallback to mmsg rx.
        rx_dead.store(true, std::memory_order_relaxed);
      }
      return;
    }
    if ((cqe.user_data & kTxTag) == 0) return;
    const auto rec_idx = static_cast<unsigned>((cqe.user_data >> 16) & 0xff);
    const auto run_idx = static_cast<unsigned>(cqe.user_data & 0xffff);
    TxRecord& r = recs[rec_idx];
    Run& run = r.runs[run_idx];
    if (cqe.res >= 0) {
      if (run.gso) ++ch->gso_sends_;
    } else if (cqe.res == -EINVAL && run.gso && !run.resent) {
      // The kernel refused UDP_SEGMENT: latch GSO off for the socket and
      // resend this run plainly — same recovery as the synchronous path.
      // The record's iovecs still point at pinned chunks, so the resend
      // reads valid bytes.
      ch->gso_ok_.store(false, std::memory_order_relaxed);
      run.resent = true;
      ch->send_plain(r.sa, std::span<const UdpChannel::TxDatagram>{
                               r.dgrams.data() + run.dgram_first,
                               run.dgram_count});
    } else if (cqe.res == -ECANCELED) {
      run.resent = true;
      ch->send_plain(r.sa, std::span<const UdpChannel::TxDatagram>{
                               r.dgrams.data() + run.dgram_first,
                               run.dgram_count});
    }
    // ENOBUFS / EAGAIN / anything else: ordinary UDP loss semantics.
    if (--r.outstanding == 0) {
      const UdpChannel::TxDoneFn done = r.done;
      void* ctx = r.ctx;
      const std::uint64_t token = r.token;
      r.done = nullptr;
      r.ctx = nullptr;
      r.in_use = false;
      if (done != nullptr) done(ctx, token);  // cq_mu -> state_mu_ order
      cq_cv.notify_all();
    }
  }

  unsigned reap_locked() {
    unsigned head = __atomic_load_n(cq_head, __ATOMIC_RELAXED);
    const unsigned tail = __atomic_load_n(cq_tail, __ATOMIC_ACQUIRE);
    unsigned n = 0;
    while (head != tail) {
      handle_cqe(cqes[head & cq_mask]);
      ++head;
      ++n;
    }
    if (n != 0) __atomic_store_n(cq_head, head, __ATOMIC_RELEASE);
    return n;
  }

  // ---- rx ----------------------------------------------------------------

  [[nodiscard]] std::uint8_t* buf_base(unsigned bid) {
    return rxb[bid].slab_slot >= 0 ? slab->data(rxb[bid].slab_slot)
                                   : rx_arena.data() + bid * rx_slot_bytes;
  }

  // Entry `idx` of the registered buffer ring.  Never go through
  // io_uring_buf_ring::bufs: under C++ the uapi __DECLARE_FLEX_ARRAY wraps
  // the flexible member in a struct whose empty first field has sizeof 1,
  // padding bufs[] to offset 8 — the kernel reads entries at offset 0.
  [[nodiscard]] io_uring_buf* ring_entry(unsigned idx) const {
    return reinterpret_cast<io_uring_buf*>(br) + idx;
  }

  // Stages a buffer-ring entry.  Entry 0 of the ring overlays the tail
  // word, so only addr/len/bid are written; publish_bufs() makes the batch
  // visible to the kernel with one release store.
  void provide(unsigned bid) {
    io_uring_buf& e = *ring_entry(br_tail & br_mask);
    e.addr = reinterpret_cast<std::uint64_t>(buf_base(bid));
    e.len = static_cast<std::uint32_t>(rx_slot_bytes);
    e.bid = static_cast<std::uint16_t>(bid);
    ++br_tail;
    rxb[bid].provided = true;
    ++provided_n;
  }

  void publish_bufs() { __atomic_store_n(&br->tail, br_tail, __ATOMIC_RELEASE); }

  // Copy-mode fallback storage for slab starvation, allocated at most once:
  // the kernel may hold addresses of provided arena entries, so the arena
  // must never reallocate.  (Slab-less channels size it in init_rx with the
  // same formula, making this a no-op there.)
  void ensure_arena() {
    if (!rx_arena.empty()) return;
    rx_arena.resize(rxb.size() * rx_slot_bytes);
  }

  // Re-acquires backing slots for buffers whose slab slot is still held by
  // consumers (RcvBuffer spans).  A starved buffer falls back to the copy
  // arena rather than leaving the ring: every slab slot can be parked
  // against a lost packet, and that retransmission has to be receivable or
  // the connection deadlocks.  Arena deliveries carry slab == nullptr, so
  // the sink copies.
  void refill() {
    bool any = false;
    for (unsigned i = 0; i < rxb.size(); ++i) {
      if (rxb[i].provided) continue;
      if (slab && rxb[i].slab_slot < 0) {
        rxb[i].slab_slot = slab->acquire();
        if (rxb[i].slab_slot < 0) {
          ensure_arena();
          if (rx_arena.empty()) continue;  // allocation failed: wait
        }
      }
      provide(i);
      any = true;
    }
    if (any) publish_bufs();
  }

  // Arms the single multishot recvmsg SQE if none is in flight.  Called
  // only from the rx thread; the SQE goes out with the next flush/enter.
  void arm_rx() {
    if (rx_dead.load(std::memory_order_relaxed) ||
        rx_inflight.load(std::memory_order_relaxed) != 0) {
      return;
    }
    // Fully starved ring: arming now would only bounce straight back with
    // ENOBUFS and turn the rx loop into a spin.  Arrivals wait in the
    // socket buffer until refill() recovers a slot.
    if (provided_n == 0) return;
    std::lock_guard lk{sq_mu};
    io_uring_sqe* sqe = get_sqe();
    if (sqe == nullptr) return;  // SQ full: re-arm next round
    sqe->opcode = IORING_OP_RECVMSG;
    sqe->fd = ch->fd_;
    sqe->addr = reinterpret_cast<std::uint64_t>(&rx_msg);
    sqe->len = 1;
    sqe->ioprio = IORING_RECV_MULTISHOT;
    sqe->flags = IOSQE_BUFFER_SELECT;
    sqe->buf_group = 0;
    sqe->user_data = kRxTag;
    rx_inflight.fetch_add(1, std::memory_order_relaxed);
    publish(1);
  }

  bool init_rx(const UdpChannel::RxState& st) {
    const std::size_t payload = st.slot_bytes != 0 ? st.slot_bytes : 2048;
    slab = st.slab;
    // Slab slots carry kUringRxHeadroom beyond the payload capacity for
    // exactly this header; the slab-less arena adds it explicitly.
    rx_slot_bytes = slab ? slab->slot_bytes()
                         : payload + UdpChannel::kUringRxHeadroom;
    // Deeper than the caller's mmsg batch so a busy round reaps many
    // datagrams per enter, bounded so the slab keeps slots for parked
    // payloads (RcvBuffer references).
    const std::size_t want =
        slab ? std::max<std::size_t>(slab->slot_count() / 4, st.batch)
             : std::max<std::size_t>(st.batch, 1) * 4;
    const std::size_t nrx = std::clamp<std::size_t>(
        want, std::max<std::size_t>(st.batch, 1), kMaxRxBufs);
    rxb.resize(nrx);
    if (!slab) rx_arena.resize(nrx * rx_slot_bytes);
    rx_done.reserve(nrx);
    rx_take.reserve(nrx);

    br_entries = 1;
    while (br_entries < nrx) br_entries <<= 1;
    br_mask = br_entries - 1;
    br = static_cast<io_uring_buf_ring*>(
        alloc_ring_pages(br_entries * sizeof(io_uring_buf)));
    if (br == nullptr) {
      rx_dead.store(true, std::memory_order_relaxed);
      return false;
    }
    std::memset(br, 0, br_entries * sizeof(io_uring_buf));
    io_uring_buf_reg reg{};
    reg.ring_addr = reinterpret_cast<std::uint64_t>(br);
    reg.ring_entries = br_entries;
    reg.bgid = 0;
    if (uring_register(ring_fd, IORING_REGISTER_PBUF_RING, &reg, 1) < 0) {
      std::free(br);
      br = nullptr;
      rx_dead.store(true, std::memory_order_relaxed);
      return false;
    }
    // msghdr template: only the name/control capacities matter — multishot
    // recvmsg lays name, control and payload out inside the picked buffer.
    std::memset(&rx_msg, 0, sizeof rx_msg);
    rx_msg.msg_namelen = kRxNameCap;
    rx_msg.msg_controllen = kRxCtrlCap;
    refill();
    arm_rx();
    return true;
  }

  // The GRO size is the only cmsg requested, so the first header in the
  // buffer's control area tells all.  `out` carries the actual lengths;
  // offsets inside the buffer use the template capacities.
  std::size_t parse_gro(const std::uint8_t* base,
                        const io_uring_recvmsg_out& out,
                        std::size_t bytes) const {
#if defined(UDP_GRO)
    if (!ch->gro_enabled_.load(std::memory_order_relaxed)) return 0;
    if (out.controllen < CMSG_LEN(sizeof(int))) return 0;
    const std::uint8_t* ctrl = base + sizeof(io_uring_recvmsg_out) + kRxNameCap;
    cmsghdr cm{};
    std::memcpy(&cm, ctrl, sizeof cm);
    if (cm.cmsg_len >= CMSG_LEN(sizeof(int)) && cm.cmsg_level == SOL_UDP &&
        cm.cmsg_type == UDP_GRO) {
      int v = 0;
      std::memcpy(&v, ctrl + CMSG_LEN(0), sizeof v);
      if (v > 0 && static_cast<std::size_t>(v) < bytes) {
        return static_cast<std::size_t>(v);
      }
    }
#else
    (void)base;
    (void)out;
    (void)bytes;
#endif
    return 0;
  }

  // Delivers one reaped completion to the sink (post fault filter), then
  // recycles the buffer id onto the ring with a fresh backing slot (the
  // delivered slot may be ref-held by consumers).  Returns callbacks made.
  std::size_t deliver(const RxDone& rd, UdpChannel::RxSinkFn sink, void* ctx) {
    RxBuf& b = rxb[rd.bid];
    if (b.provided) {
      b.provided = false;
      --provided_n;
    }
    std::size_t made = 0;
    if (rd.res >= static_cast<int>(kRxHdr)) {
      std::uint8_t* base = buf_base(rd.bid);
      io_uring_recvmsg_out out{};
      std::memcpy(&out, base, sizeof out);
      std::uint8_t* payload = base + kRxHdr;
      std::size_t bytes = static_cast<std::size_t>(rd.res) - kRxHdr;
      std::size_t gro = parse_gro(base, out, bytes);
      sockaddr_in sa{};
      if (out.namelen >= sizeof sa) {
        std::memcpy(&sa, base + sizeof out, sizeof sa);
      }
      const Endpoint src = Endpoint::from_sockaddr(sa);
      bool survived = true;
      if (ch->faults_) {
        auto delivered = ch->faults_->filter_recv({payload, bytes},
                                                  src.ip_host_order, src.port);
        if (delivered) {
          bytes = std::min(rx_slot_bytes - kRxHdr, *delivered);
          gro = 0;
        } else {
          survived = false;  // swallowed by the simulated net
        }
      }
      if (survived) {
        UdpChannel::RxDelivery d;
        d.data = {payload, bytes};
        d.src = src;
        d.gro_size = gro;
        d.slab = b.slab_slot >= 0 ? slab.get() : nullptr;
        d.slab_slot = b.slab_slot;
        sink(ctx, d);
        made = 1;
      }
    }
    if (slab) {
      if (b.slab_slot >= 0) {
        slab->release(b.slab_slot);  // the sink add_ref'd if it kept the slot
      }
      b.slab_slot = slab->acquire();  // arena-backed bids upgrade here too
      if (b.slab_slot < 0) {
        // Every slot is ref-held by consumers.  Recycle the bid onto the
        // copy arena so the ring stays armed — the packet that frees those
        // slots (a gap-filling retransmission) must remain receivable.
        ensure_arena();
        if (rx_arena.empty()) return made;  // allocation failed: starve
        rx_backpressure.fetch_add(1, std::memory_order_relaxed);
      }
    }
    provide(rd.bid);
    return made;
  }

  // One-time handover when multishot recvmsg turns out unsupported: with
  // no armed SQE the kernel cannot touch the provided buffers, so the slab
  // references go back to the pool before mmsg rx takes over.
  void release_rx_bufs() {
    if (rx_released) return;
    rx_released = true;
    if (slab) {
      for (RxBuf& b : rxb) {
        if (b.slab_slot >= 0) {
          slab->release(b.slab_slot);
          b.slab_slot = -1;
        }
      }
    }
  }

  UdpChannel::RecvBatchResult rx_round(UdpChannel::RxState& st,
                                       UdpChannel::RxSinkFn sink, void* ctx) {
    if (!rx_init) {
      rx_init = true;
      init_rx(st);
    }
    if (rx_dead.load(std::memory_order_relaxed) &&
        rx_inflight.load(std::memory_order_relaxed) == 0) {
      release_rx_bufs();
      return ch->rx_round_mmsg(st, sink, ctx);
    }
    std::size_t owed = 0;
    if (ch->faults_) {
      // Injector-owed datagrams (reorder releases, duplicates) were "on the
      // wire" before anything still in the ring.
      while (auto o = ch->faults_->pop_ready_recv()) {
        UdpChannel::RxDelivery d;
        d.data = {o->bytes.data(), o->bytes.size()};
        d.src = Endpoint{o->src_ip, o->src_port};
        sink(ctx, d);
        ++owed;
      }
    }
    std::size_t raw = 0;        // kernel-level arrivals (pre fault filter)
    std::size_t callbacks = 0;  // sink callbacks made
    const auto drain = [&] {
      rx_take.clear();
      {
        std::lock_guard lk{cq_mu};
        reap_locked();
        rx_take.swap(rx_done);
      }
      for (const RxDone& rd : rx_take) {
        ++raw;
        callbacks += deliver(rd, sink, ctx);
      }
      if (!rx_take.empty()) publish_bufs();  // recycled ids, one store
    };
    drain();  // syscall-free when completions are already posted
    if (raw == 0 && owed == 0) {
      refill();
      arm_rx();
      wait_enter();  // submits pending re-arms and blocks (bounded) as one
      drain();
    }
    refill();
    arm_rx();
    flush(take_unsubmitted(), &ch->recv_calls_);
    if (raw == 0 && owed == 0) return {RecvStatus::kTimeout, 0};
    // Traffic arrived even if the injector swallowed it all: report a
    // datagram wakeup so the caller's timer pass runs with fresh timing.
    return {RecvStatus::kDatagram, owed + callbacks};
  }

  // ---- tx ----------------------------------------------------------------

  bool send_gather_async(const Endpoint& dst,
                         std::span<const UdpChannel::TxDatagram> dgrams,
                         bool allow_gso, UdpChannel::TxDoneFn done, void* ctx,
                         std::uint64_t token) {
    if (dgrams.size() > kMaxBatchDgrams) return false;
    TxRecord* rec = nullptr;
    unsigned rec_idx = 0;
    {
      // The owner (done, ctx) is set under the same lock as in_use:
      // drain_tx matches in-use records by ctx from another thread.
      std::lock_guard lk{cq_mu};
      for (unsigned i = 0; i < recs.size(); ++i) {
        if (!recs[i].in_use) {
          rec = &recs[i];
          rec_idx = i;
          rec->in_use = true;
          rec->done = done;
          rec->ctx = ctx;
          rec->token = token;
          break;
        }
      }
    }
    if (rec == nullptr) return false;  // all records in flight: go sync

    rec->sa = dst.to_sockaddr();
    rec->heads.clear();
    rec->dgrams.clear();
    rec->iovs.clear();
    rec->msgs.clear();
    rec->runs.clear();

    // Headers move into the record (the caller's staging arrays are reused
    // next pacing round); bodies stay where they are — pinned chunks.
    std::size_t head_bytes = 0;
    for (const auto& d : dgrams) head_bytes += d.head.size();
    rec->heads.reserve(head_bytes);
    rec->dgrams.reserve(dgrams.size());
    for (const auto& d : dgrams) {
      const std::size_t off = rec->heads.size();
      rec->heads.insert(rec->heads.end(), d.head.begin(), d.head.end());
      rec->dgrams.push_back(UdpChannel::TxDatagram{
          {rec->heads.data() + off, d.head.size()}, d.body, d.keep_with_next});
    }
    const std::span<const UdpChannel::TxDatagram> ds{rec->dgrams.data(),
                                                     rec->dgrams.size()};

    bool use_gso = allow_gso && ch->gso_active();
#if !defined(UDP_SEGMENT)
    use_gso = false;
#endif
    // Pass 1: size the kernel-visible arrays so they never reallocate while
    // the kernel may still read them (outstanding > 0).
    std::size_t nruns = 0;
    std::size_t niov = 0;
    for (std::size_t i = 0; i < ds.size();) {
      std::size_t run = use_gso ? gso_run_length(ds, i) : std::size_t{1};
      if (run < 2) run = 1;
      ++nruns;
      for (std::size_t j = i; j < i + run; ++j) {
        niov += ds[j].body.empty() ? 1 : 2;
      }
      i += run;
    }
    rec->iovs.reserve(niov);
    rec->msgs.reserve(nruns);
    rec->ctrls.resize(nruns);
    rec->runs.reserve(nruns);

    for (std::size_t i = 0; i < ds.size();) {
      std::size_t run = use_gso ? gso_run_length(ds, i) : std::size_t{1};
      if (run < 2) run = 1;
      const std::size_t iov_first = rec->iovs.size();
      for (std::size_t j = i; j < i + run; ++j) {
        rec->iovs.push_back(
            {const_cast<std::uint8_t*>(ds[j].head.data()), ds[j].head.size()});
        if (!ds[j].body.empty()) {
          rec->iovs.push_back({const_cast<std::uint8_t*>(ds[j].body.data()),
                               ds[j].body.size()});
        }
      }
      msghdr m{};
      m.msg_name = &rec->sa;
      m.msg_namelen = sizeof rec->sa;
      m.msg_iov = rec->iovs.data() + iov_first;
      m.msg_iovlen = rec->iovs.size() - iov_first;
#if defined(UDP_SEGMENT)
      if (run >= 2) {
        CtrlBuf& cb = rec->ctrls[rec->msgs.size()];
        std::memset(cb.b, 0, sizeof cb.b);
        m.msg_control = cb.b;
        m.msg_controllen = sizeof cb.b;
        cmsghdr* cm = CMSG_FIRSTHDR(&m);
        cm->cmsg_level = SOL_UDP;
        cm->cmsg_type = UDP_SEGMENT;
        cm->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
        const auto seg16 = static_cast<std::uint16_t>(ds[i].head.size() +
                                                      ds[i].body.size());
        std::memcpy(CMSG_DATA(cm), &seg16, sizeof seg16);
      }
#endif
      rec->msgs.push_back(m);
      rec->runs.push_back(Run{static_cast<unsigned>(i),
                              static_cast<unsigned>(run), run >= 2, false});
      i += run;
    }
    {
      // Publish the filled contents to the reaper.  The CQE that makes
      // handle_cqe read this record cannot be posted until after the
      // enter below, so every reaper lock of cq_mu from here on
      // happens-after this unlock — without this section the record
      // fill and the reaper's reads have no common synchronization in
      // the C++ memory model (the kernel round-trip orders them only
      // physically).
      std::lock_guard lk{cq_mu};
      rec->outstanding = static_cast<unsigned>(rec->msgs.size());
    }

    {
      std::lock_guard lk{sq_mu};
      const unsigned saved_tail = tail_local;
      bool full = false;
      for (unsigned m = 0; m < rec->msgs.size(); ++m) {
        io_uring_sqe* sqe = get_sqe();
        if (sqe == nullptr) {
          tail_local = saved_tail;  // nothing published: clean rollback
          full = true;
          break;
        }
        sqe->opcode = IORING_OP_SENDMSG;
        sqe->fd = ch->fd_;
        sqe->addr = reinterpret_cast<std::uint64_t>(&rec->msgs[m]);
        sqe->len = 1;
        sqe->user_data =
            kTxTag | (static_cast<std::uint64_t>(rec_idx) << 16) | m;
      }
      if (full) {
        std::lock_guard clk{cq_mu};
        rec->in_use = false;
        return false;
      }
      publish(static_cast<unsigned>(rec->msgs.size()));
    }
    ch->sent_ += dgrams.size();
    flush(take_unsubmitted(), &ch->send_calls_);
    return true;
  }

  void drain_tx(void* ctx) {
    std::unique_lock lk{cq_mu};
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds{1};
    const auto busy = [&] {
      for (const TxRecord& r : recs) {
        if (r.in_use && r.ctx == ctx) return true;
      }
      return false;
    };
    while (busy()) {
      reap_locked();  // self-service: no dependence on a live rx thread
      if (!busy()) break;
      if (std::chrono::steady_clock::now() >= deadline) {
        // Wedged ring: orphan the records so close() never hangs.  The
        // pins they cover leak until the buffer dies — acceptable on this
        // already-broken channel.
        for (TxRecord& r : recs) {
          if (r.in_use && r.ctx == ctx) {
            r.done = nullptr;
            r.ctx = nullptr;
          }
        }
        break;
      }
      cq_cv.wait_for(lk, std::chrono::milliseconds{1});
    }
  }

  // Synchronously cancels every request still on the ring.  No feature
  // guard: IORING_REGISTER_SYNC_CANCEL shipped with IORING_RECV_MULTISHOT
  // (6.0 uapi), which UDTR_HAVE_URING already requires — and it is an
  // enum, so `#if defined` would always be false.  Older kernels answer
  // -EINVAL and the teardown wait absorbs it.
  void cancel_all() {
    io_uring_sync_cancel_reg creg{};
    creg.flags = IORING_ASYNC_CANCEL_ANY;
    creg.timeout.tv_sec = 0;
    creg.timeout.tv_nsec = 100000000;  // 100ms
    uring_register(ring_fd, IORING_REGISTER_SYNC_CANCEL, &creg, 1);
  }

  ~Impl() {
    if (ring_fd < 0) return;
    // The armed multishot recvmsg may write into the slab/arena buffers
    // until its terminal CQE (no F_MORE) is reaped, so wait for that CQE
    // before releasing them.  UdpChannel::close() has shut the socket's
    // read side, which ends the receive; the cancel covers a ring torn
    // down without that (set_io_backend).  The CQE is posted by kernel
    // work that runs after the submitting rx thread has exited: about 5 ms
    // later on an idle host, far later on a loaded one, so there is no
    // short budget here.  The cancel is re-issued every 100 ms in case one
    // raced a re-arm.
    constexpr auto kRecancelGap = std::chrono::milliseconds{100};
    constexpr auto kPatience = std::chrono::seconds{10};
    cancel_all();
    const auto start = std::chrono::steady_clock::now();
    auto next_cancel = start + kRecancelGap;
    for (;;) {
      {
        std::lock_guard lk{cq_mu};
        reap_locked();
      }
      if (rx_inflight.load(std::memory_order_relaxed) == 0) break;
      const auto now = std::chrono::steady_clock::now();
      if (now - start >= kPatience) break;
      if (now >= next_cancel) {
        next_cancel = now + kRecancelGap;
        cancel_all();
      }
      __kernel_timespec ts{};
      ts.tv_nsec = 5000000;  // 5ms
      io_uring_getevents_arg arg{};
      arg.ts = reinterpret_cast<std::uint64_t>(&ts);
      uring_enter(ring_fd, 0, 1, IORING_ENTER_GETEVENTS | IORING_ENTER_EXT_ARG,
                  &arg, sizeof arg);
    }
    if (rx_inflight.load(std::memory_order_relaxed) != 0) {
      // A ring that has not retired its receive in kPatience is broken;
      // the kernel may still pick provided buffers and write into them, so
      // leak the arena, the slab reference and the registered ring memory
      // instead of risking use-after-free.
      (void)new std::vector<std::uint8_t>(std::move(rx_arena));
      (void)new std::shared_ptr<RecvSlab>(slab);
      br = nullptr;  // intentionally leaked with the ring registration
      g_teardown_leaks.fetch_add(1, std::memory_order_relaxed);
    } else {
      release_rx_bufs();
      if (br != nullptr) {
        io_uring_buf_reg reg{};
        reg.bgid = 0;
        uring_register(ring_fd, IORING_UNREGISTER_PBUF_RING, &reg, 1);
        std::free(br);
        br = nullptr;
      }
    }
    ::munmap(sqes, sqes_len);
    ::munmap(ring_ptr, ring_len);
    ::close(ring_fd);
    ring_fd = -1;
  }
};

UringEngine::UringEngine(UdpChannel* ch) : ch_(ch) {}

UringEngine::~UringEngine() { delete impl_; }

std::uint64_t UringEngine::teardown_leaks() {
  return g_teardown_leaks.load(std::memory_order_relaxed);
}

bool UringEngine::probe() {
  static const bool ok = [] {
    if (std::getenv("UDTR_NO_URING") != nullptr) return false;
    // Feature probe is end-to-end: ring with the required features, a
    // registered provided-buffer ring, and a multishot recvmsg armed on a
    // throwaway UDP socket.  Unsupported flags fail inline at submit with
    // a CQE, so an empty CQ after the enter means the arm stuck.
    Impl im;
    if (!im.init(nullptr)) return false;
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) return false;
    // Static probe storage: ring teardown is asynchronous after close(),
    // so nothing here may unwind while the kernel can still read it.
    static io_uring_buf_ring* pbr = static_cast<io_uring_buf_ring*>(
        alloc_ring_pages(8 * sizeof(io_uring_buf)));
    static std::uint8_t pbuf[2048];
    static msghdr pmsg{};
    if (pbr == nullptr) {
      ::close(fd);
      return false;
    }
    std::memset(pbr, 0, 8 * sizeof(io_uring_buf));
    io_uring_buf_reg reg{};
    reg.ring_addr = reinterpret_cast<std::uint64_t>(pbr);
    reg.ring_entries = 8;
    reg.bgid = 0;
    if (uring_register(im.ring_fd, IORING_REGISTER_PBUF_RING, &reg, 1) < 0) {
      ::close(fd);
      return false;
    }
    // Entry 0 indexed off the base, not via pbr->bufs: the uapi
    // __DECLARE_FLEX_ARRAY pads bufs[] to offset 8 under C++ (see
    // Impl::ring_entry); the kernel reads entries at offset 0.
    io_uring_buf* e0 = reinterpret_cast<io_uring_buf*>(pbr);
    e0->addr = reinterpret_cast<std::uint64_t>(pbuf);
    e0->len = sizeof pbuf;
    e0->bid = 0;
    __atomic_store_n(&pbr->tail, std::uint16_t{1}, __ATOMIC_RELEASE);
    pmsg.msg_namelen = kRxNameCap;
    pmsg.msg_controllen = kRxCtrlCap;
    {
      std::lock_guard lk{im.sq_mu};
      io_uring_sqe* sqe = im.get_sqe();
      if (sqe == nullptr) {
        ::close(fd);
        return false;
      }
      sqe->opcode = IORING_OP_RECVMSG;
      sqe->fd = fd;
      sqe->addr = reinterpret_cast<std::uint64_t>(&pmsg);
      sqe->len = 1;
      sqe->ioprio = IORING_RECV_MULTISHOT;
      sqe->flags = IOSQE_BUFFER_SELECT;
      sqe->buf_group = 0;
      im.publish(1);
    }
    if (uring_enter(im.ring_fd, 1, 0, 0, nullptr, 0) != 1) {
      ::close(fd);
      return false;
    }
    const unsigned head = __atomic_load_n(im.cq_head, __ATOMIC_RELAXED);
    const unsigned tail = __atomic_load_n(im.cq_tail, __ATOMIC_ACQUIRE);
    ::close(fd);  // Impl dtor cancels the armed op and closes the ring
    return head == tail;
  }();
  return ok;
}

bool UringEngine::init() {
  auto impl = std::make_unique<Impl>();
  if (!impl->init(ch_)) return false;
  impl_ = impl.release();
  return true;
}

UdpChannel::RecvBatchResult UringEngine::rx_round(UdpChannel::RxState& st,
                                                  UdpChannel::RxSinkFn sink,
                                                  void* ctx) {
  return impl_->rx_round(st, sink, ctx);
}

bool UringEngine::send_gather_async(
    const Endpoint& dst, std::span<const UdpChannel::TxDatagram> dgrams,
    bool allow_gso, UdpChannel::TxDoneFn done, void* ctx, std::uint64_t token) {
  return impl_->send_gather_async(dst, dgrams, allow_gso, done, ctx, token);
}

void UringEngine::drain_tx(void* ctx) { impl_->drain_tx(ctx); }

std::uint64_t UringEngine::rx_backpressure() const {
  return impl_ != nullptr
             ? impl_->rx_backpressure.load(std::memory_order_relaxed)
             : 0;
}

// ------------------------------------------------------------- FileUring ---
//
// Single-owner positional READ/WRITE ring.  The same three syscalls as the
// UDP engine above, none of its machinery: no provided buffers, no multishot,
// no cross-thread reaping — the owning pipeline thread queues a batch,
// submits, and waits for its own CQEs.

struct FileUring::Impl {
  int ring_fd = -1;
  std::uint8_t* ring_ptr = nullptr;
  std::size_t ring_len = 0;
  io_uring_sqe* sqes = nullptr;
  std::size_t sqes_len = 0;
  unsigned* sq_head = nullptr;
  unsigned* sq_tail = nullptr;
  unsigned* sq_array = nullptr;
  unsigned sq_mask = 0;
  unsigned sq_entries = 0;
  unsigned* cq_head = nullptr;
  unsigned* cq_tail = nullptr;
  io_uring_cqe* cqes = nullptr;
  unsigned cq_mask = 0;
  unsigned tail_local = 0;
  unsigned unsubmitted = 0;

  bool init(unsigned entries) {
    io_uring_params p{};
    ring_fd = uring_setup(entries, &p);
    if (ring_fd < 0) return false;
    // SINGLE_MMAP keeps the mapping logic shared with the engine; READ /
    // WRITE opcodes predate it, so the feature bit is the whole gate.
    if ((p.features & IORING_FEAT_SINGLE_MMAP) == 0) {
      ::close(ring_fd);
      ring_fd = -1;
      return false;
    }
    sq_entries = p.sq_entries;
    ring_len = std::max<std::size_t>(
        p.sq_off.array + p.sq_entries * sizeof(unsigned),
        p.cq_off.cqes + p.cq_entries * sizeof(io_uring_cqe));
    void* m = ::mmap(nullptr, ring_len, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_POPULATE, ring_fd, IORING_OFF_SQ_RING);
    if (m == MAP_FAILED) {
      ::close(ring_fd);
      ring_fd = -1;
      return false;
    }
    ring_ptr = static_cast<std::uint8_t*>(m);
    sqes_len = p.sq_entries * sizeof(io_uring_sqe);
    m = ::mmap(nullptr, sqes_len, PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_POPULATE, ring_fd, IORING_OFF_SQES);
    if (m == MAP_FAILED) {
      ::munmap(ring_ptr, ring_len);
      ring_ptr = nullptr;
      ::close(ring_fd);
      ring_fd = -1;
      return false;
    }
    sqes = static_cast<io_uring_sqe*>(m);
    sq_head = reinterpret_cast<unsigned*>(ring_ptr + p.sq_off.head);
    sq_tail = reinterpret_cast<unsigned*>(ring_ptr + p.sq_off.tail);
    sq_array = reinterpret_cast<unsigned*>(ring_ptr + p.sq_off.array);
    sq_mask = *reinterpret_cast<unsigned*>(ring_ptr + p.sq_off.ring_mask);
    cq_head = reinterpret_cast<unsigned*>(ring_ptr + p.cq_off.head);
    cq_tail = reinterpret_cast<unsigned*>(ring_ptr + p.cq_off.tail);
    cq_mask = *reinterpret_cast<unsigned*>(ring_ptr + p.cq_off.ring_mask);
    cqes = reinterpret_cast<io_uring_cqe*>(ring_ptr + p.cq_off.cqes);
    tail_local = __atomic_load_n(sq_tail, __ATOMIC_ACQUIRE);
    return true;
  }

  io_uring_sqe* get_sqe() {
    const unsigned head = __atomic_load_n(sq_head, __ATOMIC_ACQUIRE);
    if (tail_local - head >= sq_entries) return nullptr;
    const unsigned idx = tail_local & sq_mask;
    ++tail_local;
    io_uring_sqe* sqe = &sqes[idx];
    std::memset(sqe, 0, sizeof *sqe);
    sq_array[idx] = idx;
    return sqe;
  }

  bool push(std::uint8_t opcode, int fd, const void* buf, std::size_t len,
            std::uint64_t off, std::uint64_t token) {
    io_uring_sqe* sqe = get_sqe();
    if (sqe == nullptr) return false;
    sqe->opcode = opcode;
    sqe->fd = fd;
    sqe->addr = reinterpret_cast<std::uint64_t>(buf);
    sqe->len = static_cast<unsigned>(len);
    sqe->off = off;
    sqe->user_data = token;
    __atomic_store_n(sq_tail, tail_local, __ATOMIC_RELEASE);
    ++unsubmitted;
    return true;
  }

  std::size_t reap(std::vector<FileUring::Completion>& out) {
    std::size_t n = 0;
    unsigned head = __atomic_load_n(cq_head, __ATOMIC_RELAXED);
    const unsigned tail = __atomic_load_n(cq_tail, __ATOMIC_ACQUIRE);
    while (head != tail) {
      const io_uring_cqe& cqe = cqes[head & cq_mask];
      out.push_back(FileUring::Completion{cqe.user_data, cqe.res});
      ++head;
      ++n;
    }
    __atomic_store_n(cq_head, head, __ATOMIC_RELEASE);
    return n;
  }

  void shutdown() {
    if (ring_fd < 0) return;
    ::munmap(sqes, sqes_len);
    ::munmap(ring_ptr, ring_len);
    ::close(ring_fd);
    ring_fd = -1;
  }
};

FileUring::~FileUring() { close(); }

bool FileUring::open(unsigned entries) {
  if (impl_ != nullptr) return true;
  if (std::getenv("UDTR_NO_URING") != nullptr) return false;
  auto impl = std::make_unique<Impl>();
  if (!impl->init(entries)) return false;
  impl_ = impl.release();
  return true;
}

bool FileUring::push_read(int fd, void* buf, std::size_t len, std::uint64_t off,
                          std::uint64_t token) {
  return impl_ != nullptr &&
         impl_->push(IORING_OP_READ, fd, buf, len, off, token);
}

bool FileUring::push_write(int fd, const void* buf, std::size_t len,
                           std::uint64_t off, std::uint64_t token) {
  return impl_ != nullptr &&
         impl_->push(IORING_OP_WRITE, fd, buf, len, off, token);
}

bool FileUring::push_writev(int fd, const struct iovec* iov, unsigned nr_vecs,
                            std::uint64_t off, std::uint64_t token) {
  return impl_ != nullptr &&
         impl_->push(IORING_OP_WRITEV, fd, iov, nr_vecs, off, token);
}

bool FileUring::submit_and_wait(unsigned min_complete,
                                std::vector<Completion>& out) {
  if (impl_ == nullptr) return false;
  std::size_t have = impl_->reap(out);
  while (true) {
    const unsigned to_submit = impl_->unsubmitted;
    const unsigned want =
        min_complete > have ? static_cast<unsigned>(min_complete - have) : 0;
    if (to_submit == 0 && want == 0) return true;
    const int ret = uring_enter(impl_->ring_fd, to_submit, want,
                                want > 0 ? IORING_ENTER_GETEVENTS : 0, nullptr,
                                0);
    if (ret < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    impl_->unsubmitted -= std::min<unsigned>(impl_->unsubmitted,
                                             static_cast<unsigned>(ret));
    have += impl_->reap(out);
    if (have >= min_complete && impl_->unsubmitted == 0) return true;
  }
}

void FileUring::close() {
  if (impl_ == nullptr) return;
  impl_->shutdown();
  delete impl_;
  impl_ = nullptr;
}

}  // namespace udtr::udt

#else  // !UDTR_HAVE_URING

namespace udtr::udt {

struct UringEngine::Impl {};

UringEngine::UringEngine(UdpChannel* ch) : ch_(ch) {}
UringEngine::~UringEngine() = default;
std::uint64_t UringEngine::teardown_leaks() { return 0; }
bool UringEngine::probe() { return false; }
bool UringEngine::init() { return false; }

UdpChannel::RecvBatchResult UringEngine::rx_round(UdpChannel::RxState& st,
                                                  UdpChannel::RxSinkFn sink,
                                                  void* ctx) {
  (void)st;
  (void)sink;
  (void)ctx;
  return {RecvStatus::kTimeout, 0};
}

bool UringEngine::send_gather_async(
    const Endpoint& dst, std::span<const UdpChannel::TxDatagram> dgrams,
    bool allow_gso, UdpChannel::TxDoneFn done, void* ctx, std::uint64_t token) {
  (void)dst;
  (void)dgrams;
  (void)allow_gso;
  (void)done;
  (void)ctx;
  (void)token;
  return false;
}

void UringEngine::drain_tx(void* ctx) { (void)ctx; }

std::uint64_t UringEngine::rx_backpressure() const { return 0; }

struct FileUring::Impl {};

FileUring::~FileUring() = default;
bool FileUring::open(unsigned entries) {
  (void)entries;
  return false;
}
bool FileUring::push_read(int fd, void* buf, std::size_t len, std::uint64_t off,
                          std::uint64_t token) {
  (void)fd;
  (void)buf;
  (void)len;
  (void)off;
  (void)token;
  return false;
}
bool FileUring::push_write(int fd, const void* buf, std::size_t len,
                           std::uint64_t off, std::uint64_t token) {
  (void)fd;
  (void)buf;
  (void)len;
  (void)off;
  (void)token;
  return false;
}
bool FileUring::push_writev(int fd, const struct iovec* iov, unsigned nr_vecs,
                            std::uint64_t off, std::uint64_t token) {
  (void)fd;
  (void)iov;
  (void)nr_vecs;
  (void)off;
  (void)token;
  return false;
}
bool FileUring::submit_and_wait(unsigned min_complete,
                                std::vector<Completion>& out) {
  (void)min_complete;
  (void)out;
  return false;
}
void FileUring::close() {}

}  // namespace udtr::udt

#endif  // UDTR_HAVE_URING
