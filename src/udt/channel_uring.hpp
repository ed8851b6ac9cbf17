// io_uring datapath engine behind UdpChannel (IoBackend::kUring).
//
// One ring per channel, built on the raw io_uring syscalls (setup / enter /
// register — no liburing):
//
//   rx: one multishot recvmsg SQE fed by a registered provided-buffer ring
//       whose buffers are refcounted RecvSlab slots (arena storage when the
//       caller has no slab).  Each CQE resolves to the buffer id the kernel
//       picked, is fault-filtered per datagram and handed to the caller's
//       sink; the id is then recycled onto the ring with a fresh slab slot
//       (consumers may still hold the delivered one).  When the ring runs
//       dry the kernel reports ENOBUFS and datagrams wait in the socket
//       buffer — backpressure, not drops.  A busy socket reaps many
//       datagrams per io_uring_enter, and reaping posted CQEs is
//       syscall-free.
//   tx: send_gather_async turns one pacing batch into sendmsg SQEs (GSO
//       runs coalesced exactly like the mmsg path) whose iovecs point into
//       pinned SndBuffer chunks; the batch's done-callback fires when the
//       last CQE is reaped, which is when the caller may unpin.
//
// Locking: sq_mu guards SQE allocation and tail publication; cq_mu guards
// CQ reaping plus tx-record and rx-slot bookkeeping.  cq_mu is taken before
// sq_mu (reap → re-arm) and before any socket's state_mu_ (tx done
// callbacks); no code path takes them in the other order.
//
// On kernels without the required io_uring features (EXT_ARG, NODROP,
// SINGLE_MMAP) — or with UDTR_NO_URING set — probe() reports false and the
// channel stays on the mmsg backend.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "udt/channel.hpp"

namespace udtr::udt {

class UringEngine {
 public:
  explicit UringEngine(UdpChannel* ch);
  ~UringEngine();
  UringEngine(const UringEngine&) = delete;
  UringEngine& operator=(const UringEngine&) = delete;

  // Process-wide cached probe: can a ring with the features we rely on be
  // created here (and is UDTR_NO_URING unset)?
  [[nodiscard]] static bool probe();

  // Builds the ring for ch's fd.  False on failure (caller stays on mmsg).
  [[nodiscard]] bool init();

  UdpChannel::RecvBatchResult rx_round(UdpChannel::RxState& st,
                                       UdpChannel::RxSinkFn sink, void* ctx);
  bool send_gather_async(const Endpoint& dst,
                         std::span<const UdpChannel::TxDatagram> dgrams,
                         bool allow_gso, UdpChannel::TxDoneFn done, void* ctx,
                         std::uint64_t token);
  void drain_tx(void* ctx);

  // ENOBUFS completions observed: each one is a stretch where the provided
  // ring ran dry and arrivals backed up in the socket buffer.
  [[nodiscard]] std::uint64_t rx_backpressure() const;
  // Process-wide count of engines torn down while the kernel still held
  // their multishot receive, whose buffers were leaked rather than freed
  // under it.  Stays 0 unless a ring stops answering.
  [[nodiscard]] static std::uint64_t teardown_leaks();

 private:
  struct Impl;       // all ring state; opaque so <linux/io_uring.h> stays
  Impl* impl_ = nullptr;  // out of every other translation unit
  UdpChannel* ch_;
};

// Minimal raw-syscall io_uring for regular-file READ/WRITE batches — the
// disk half of the sendfile/recvfile pipeline (file_pipeline.hpp).  Unlike
// UringEngine this ring is single-owner: the FileSource reader thread or
// FileSink writer thread queues a batch of positional ops, submits, and
// reaps its own completions — no locks, no callbacks, no multishot.  Where
// the kernel (or UDTR_NO_URING) rules io_uring out, open() fails and the
// pipeline stages fall back to pread/pwrite.
class FileUring {
 public:
  FileUring() = default;
  ~FileUring();
  FileUring(const FileUring&) = delete;
  FileUring& operator=(const FileUring&) = delete;

  // Builds a ring with `entries` SQ slots.  False when io_uring is
  // unavailable (stub build, kernel refusal, UDTR_NO_URING).
  [[nodiscard]] bool open(unsigned entries);
  [[nodiscard]] bool is_open() const { return impl_ != nullptr; }

  // Queue one positional op; `token` comes back with its completion.
  // False when the SQ is full (submit first) or the ring is closed.
  bool push_read(int fd, void* buf, std::size_t len, std::uint64_t off,
                 std::uint64_t token);
  bool push_write(int fd, const void* buf, std::size_t len, std::uint64_t off,
                  std::uint64_t token);
  // Gathered positional write (IORING_OP_WRITEV).  The iovec array must
  // stay valid until the op completes — with the synchronous
  // submit_and_wait below, a stack array on the caller's frame suffices.
  bool push_writev(int fd, const struct iovec* iov, unsigned nr_vecs,
                   std::uint64_t off, std::uint64_t token);

  struct Completion {
    std::uint64_t token = 0;
    std::int32_t res = 0;  // bytes transferred, or -errno
  };
  // Submits everything queued and blocks until at least `min_complete`
  // completions (counting previously pending ones) have been appended to
  // `out`.  False on a submit error — the caller should fall back to
  // pread/pwrite for the batch.
  bool submit_and_wait(unsigned min_complete, std::vector<Completion>& out);

  void close();

 private:
  struct Impl;
  Impl* impl_ = nullptr;
};

}  // namespace udtr::udt
