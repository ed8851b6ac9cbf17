// Fig. 15: UDT throughput vs packet size (path MTU 1500).
// The paper measured this on the real stack and notes "in practice, this is
// highly affected by the protocol stack implementation of the OS" — so this
// bench also runs the real library over loopback.  Two effects shape the
// curve: below the MTU, fixed per-packet costs (headers, syscalls,
// timestamping) penalize small packets; above it, IP fragmentation sets in —
// emulated here by an injected per-packet loss of 1-(1-p)^nfrags, since any
// lost fragment destroys the whole UDT packet ("segmentation collapse").
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <vector>

#include "bench_util.hpp"
#include "udt/socket.hpp"

namespace {

constexpr int kMtu = 1500;       // emulated path MTU (IP packet size)
constexpr int kIpUdpHdr = 28;
constexpr double kFragLoss = 2e-3;  // per-fragment loss on the "path"

struct Out {
  double goodput_mbps;
  std::uint64_t retransmitted;
};

Out run(int payload_bytes, double seconds) {
  using namespace udtr::udt;
  const int ip_payload = payload_bytes + 16 + kIpUdpHdr;
  const int frags = (ip_payload + kMtu - 1) / kMtu;
  const double pkt_loss = 1.0 - std::pow(1.0 - kFragLoss, frags);

  SocketOptions opts;
  opts.mss_bytes = payload_bytes;
  opts.faults = make_loss_injector(pkt_loss, 11, kHeaderBytes + 16);
  auto listener = Socket::listen(0, opts);
  auto accepted = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{5});
  });
  auto client = Socket::connect("127.0.0.1", listener->local_port(), opts);
  auto server = accepted.get();
  if (!client || !server) return {0.0, 0};

  std::atomic<bool> stop{false};
  auto snd = std::async(std::launch::async, [&] {
    std::vector<std::uint8_t> block(1 << 20, 0x42);
    while (!stop) client->send(block);
  });
  auto rcv = std::async(std::launch::async, [&] {
    std::vector<std::uint8_t> buf(1 << 20);
    while (!stop) server->recv(buf, std::chrono::milliseconds{100});
  });
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  const auto bytes = server->perf().bytes_delivered;
  const auto rtx = client->perf().retransmitted;
  stop = true;
  client->close();
  server->close();
  snd.get();
  rcv.get();
  return {static_cast<double>(bytes) * 8.0 / seconds / 1e6, rtx};
}

}  // namespace

int main(int argc, char** argv) {
  const auto scale = udtr::bench::parse_scale(argc, argv);
  udtr::bench::banner("Fig 15", "throughput vs UDT packet size on the real "
                      "stack (MTU 1500)", scale);
  const double seconds = scale.seconds(3, 8);
  const int sizes[] = {204, 508, 1004, 1456, 2944, 4464, 8948};

  std::printf("%14s %8s %14s %14s\n", "payload (B)", "frags",
              "goodput Mb/s", "retransmits");
  for (const int s : sizes) {
    const int frags = (s + 16 + kIpUdpHdr + kMtu - 1) / kMtu;
    const Out o = run(s, seconds);
    std::printf("%14d %8d %14.0f %14llu\n", s, frags, o.goodput_mbps,
                (unsigned long long)o.retransmitted);
  }
  std::printf("\npaper: throughput peaks at the path MTU (1500 B) — smaller "
              "packets pay per-packet overhead, larger ones pay "
              "fragmentation overhead and loss amplification.  (The paper "
              "also notes a Windows-stack artifact at 1024 B that a Linux "
              "host does not show.)\n");
  return 0;
}
