// Sender-side overlapped IO (§4.7): data leaves from the caller's memory
// with no protocol-buffer copy, and the call returns only once the memory
// is safe to reuse.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <random>
#include <vector>

#include "udt/socket.hpp"

namespace udtr::udt {
namespace {

std::vector<std::uint8_t> make_payload(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  std::mt19937_64 rng{seed};
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

struct Pair {
  std::unique_ptr<Socket> listener, client, server;
};

Pair make_pair(SocketOptions opts = {}) {
  Pair p;
  p.listener = Socket::listen(0, opts);
  auto accepted = std::async(std::launch::async, [&] {
    return p.listener->accept(std::chrono::seconds{5});
  });
  p.client = Socket::connect("127.0.0.1", p.listener->local_port(), opts);
  p.server = accepted.get();
  return p;
}

std::vector<std::uint8_t> drain(Socket& s, std::size_t want) {
  std::vector<std::uint8_t> all, buf(1 << 16);
  while (all.size() < want) {
    const std::size_t n = s.recv(buf, std::chrono::seconds{15});
    if (n == 0) break;
    all.insert(all.end(), buf.begin(), buf.begin() + n);
  }
  return all;
}

TEST(SendOverlapped, RoundTripExact) {
  Pair p = make_pair();
  ASSERT_NE(p.client, nullptr);
  ASSERT_NE(p.server, nullptr);
  const auto payload = make_payload(1 << 20, 21);
  auto sent = std::async(std::launch::async, [&] {
    return p.client->send_overlapped(payload);
  });
  EXPECT_EQ(drain(*p.server, payload.size()), payload);
  EXPECT_EQ(sent.get(), payload.size());
  p.client->close();
  p.server->close();
}

TEST(SendOverlapped, ReturnImpliesBufferReusable) {
  Pair p = make_pair();
  ASSERT_NE(p.client, nullptr);
  ASSERT_NE(p.server, nullptr);
  auto block = make_payload(256 << 10, 22);
  const auto original = block;

  auto receiver = std::async(std::launch::async, [&] {
    return drain(*p.server, block.size());
  });
  const std::size_t n = p.client->send_overlapped(block);
  EXPECT_EQ(n, block.size());
  // The call returned: every borrowed chunk is acknowledged, so scribbling
  // over the buffer must not corrupt what the receiver got.
  std::fill(block.begin(), block.end(), std::uint8_t{0xEE});
  EXPECT_EQ(receiver.get(), original);
  p.client->close();
  p.server->close();
}

TEST(SendOverlapped, SurvivesLossWithRetransmissionsFromBorrowedMemory) {
  SocketOptions opts;
  opts.faults = make_loss_injector(0.05, 23, kHeaderBytes + 16);
  Pair p = make_pair(opts);
  ASSERT_NE(p.client, nullptr);
  ASSERT_NE(p.server, nullptr);
  const auto payload = make_payload(512 << 10, 24);
  auto sent = std::async(std::launch::async, [&] {
    return p.client->send_overlapped(payload);
  });
  EXPECT_EQ(drain(*p.server, payload.size()), payload);
  EXPECT_EQ(sent.get(), payload.size());
  EXPECT_GT(p.client->perf().retransmitted, 0u);
  p.client->close();
  p.server->close();
}

TEST(SendOverlapped, InterleavesWithCopyingSendInOrder) {
  Pair p = make_pair();
  ASSERT_NE(p.client, nullptr);
  ASSERT_NE(p.server, nullptr);
  const auto a = make_payload(64 << 10, 25);
  const auto b = make_payload(64 << 10, 26);
  const auto c = make_payload(64 << 10, 27);
  auto receiver = std::async(std::launch::async, [&] {
    return drain(*p.server, a.size() + b.size() + c.size());
  });
  p.client->send(a);
  p.client->send_overlapped(b);
  p.client->send(c);
  const auto got = receiver.get();
  ASSERT_EQ(got.size(), a.size() + b.size() + c.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), got.begin()));
  EXPECT_TRUE(std::equal(b.begin(), b.end(), got.begin() + a.size()));
  EXPECT_TRUE(std::equal(c.begin(), c.end(),
                         got.begin() + a.size() + b.size()));
  p.client->close();
  p.server->close();
}

TEST(SndBufferBorrowed, NoCopyAndCorrectChunks) {
  SndBuffer sb{100, 10000};
  const auto data = make_payload(250, 28);
  EXPECT_EQ(sb.add_borrowed(data), 250u);
  EXPECT_EQ(sb.chunk_count(), 3u);
  // The chunk views alias the caller's memory (zero copy).
  EXPECT_EQ(sb.chunk(0)->data(), data.data());
  EXPECT_EQ(sb.chunk(2)->data(), data.data() + 200);
  EXPECT_EQ(sb.chunk(2)->size(), 50u);
  sb.ack_up_to(3);
  EXPECT_EQ(sb.bytes(), 0u);
}

}  // namespace
}  // namespace udtr::udt
