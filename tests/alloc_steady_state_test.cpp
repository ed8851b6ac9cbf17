// Allocation regression guard for the zero-copy datapath: once a transfer
// reaches steady state, moving data must not allocate — the sender reuses
// pooled header slots and SndBuffer chunk storage, the receiver reuses the
// recv slab, and every syscall-side scratch buffer lives on the stack or is
// reused across wakeups.  The test hooks global operator new, warms a
// loopback connection up past every pool's growth phase, then transfers
// multiple megabytes with the counter armed and asserts the per-packet
// allocation rate is (amortized) zero.
#include "udt/socket.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <new>
#include <vector>

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n > 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = (n + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded > 0 ? rounded : align);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace udtr::udt {
namespace {

// Streams `total` bytes client->server; returns bytes actually delivered.
std::size_t pump(Socket& client, Socket& server, std::size_t total) {
  std::vector<std::uint8_t> block(64 << 10, 0x5A);
  std::vector<std::uint8_t> rbuf(64 << 10);
  auto tx = std::async(std::launch::async, [&] {
    std::size_t sent = 0;
    while (sent < total) {
      sent += client.send(std::span{block.data(),
                                    std::min(block.size(), total - sent)});
    }
    client.flush(std::chrono::seconds{30});
    return sent;
  });
  std::size_t received = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{30};
  while (received < total && std::chrono::steady_clock::now() < deadline) {
    received += server.recv(rbuf, std::chrono::milliseconds{200});
  }
  EXPECT_EQ(tx.get(), total);
  return received;
}

TEST(AllocSteadyState, ZeroAllocationsPerPacketInSteadyState) {
  SocketOptions opts;  // defaults: gso on
  // Pace below what loopback absorbs without dropping: the assertion is
  // about the clean steady-state datapath, not the loss-recovery control
  // path (which may legitimately allocate NAK ranges and loss-list nodes).
  opts.max_bandwidth_mbps = 500.0;
  auto listener = Socket::listen(0, opts);
  ASSERT_NE(listener, nullptr);
  auto accepted = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{5});
  });
  auto client = Socket::connect("127.0.0.1", listener->local_port(), opts);
  auto server = accepted.get();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);

  // Warm-up: grow every pool past its steady-state size.  Must exceed the
  // 16 MB send-buffer capacity (the chunk free store grows to the
  // occupancy high-water mark) and one full lap of the receive ring (the
  // copy-fallback slots allocate on first touch), so it is sized at 2x the
  // send buffer.
  constexpr std::size_t kWarmup = 32u << 20;
  ASSERT_EQ(pump(*client, *server, kWarmup), kWarmup);

  const auto pkts_before = server->perf().data_packets_recv;
  g_allocs.store(0);
  g_counting.store(true);
  constexpr std::size_t kMeasured = 8u << 20;
  const std::size_t got = pump(*client, *server, kMeasured);
  g_counting.store(false);

  ASSERT_EQ(got, kMeasured);
  const auto packets = server->perf().data_packets_recv - pkts_before;
  const auto allocs = g_allocs.load();
  ASSERT_GT(packets, 1000u);
  // The budget covers the fixed per-phase cost of the harness itself (two
  // std::async invocations, thread bring-up) plus a bounded number of
  // loss-recovery allocations (NAK ranges, loss-list nodes — explicitly
  // out of scope per the pacing note above) when an oversubscribed CI box
  // starves the receiver into drops anyway.  It is not a per-packet
  // allowance: ~5700 data packets move in the measured window, so any
  // per-packet allocation would show up as thousands, not dozens.
  EXPECT_LE(allocs, 128u)
      << "steady-state datapath allocated " << allocs << " times over "
      << packets << " packets (" << static_cast<double>(allocs) / packets
      << " per packet)";

  client->close();
  server->close();
}

}  // namespace
}  // namespace udtr::udt
