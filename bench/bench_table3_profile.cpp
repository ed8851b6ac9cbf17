// Table 3: CPU utilization ratio of the protocol's functional units.
// Runs a profiled memory-to-memory transfer with the real library and
// prints the share of instrumented CPU time per unit for the sending and
// receiving entities.  The paper (VTune, dual Xeon): UDP writing dominates
// sending at 66.7%, UDP reading dominates receiving at 90.9%; everything
// else — timing, packing, control/loss processing — is single-digit.
//
// Since udp-io dominates both sides, the batched-I/O path (sendmmsg /
// recvmmsg, SocketOptions::io_batch) attacks exactly this row.  The run is
// repeated with batching on (16) and off (1), and the udp-io *invocations
// per data packet* are reported — the syscall-amortization factor.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <vector>

#include "bench_util.hpp"
#include "udt/multiplexer.hpp"
#include "udt/socket.hpp"

namespace {

using namespace udtr::udt;

struct ProfiledRun {
  double rate_mbps = 0.0;
  // udp-io ScopedTimer invocations per data packet, each side.  One
  // invocation is one batch (one syscall round), so this is the direct
  // measure of syscall amortization.
  double snd_calls_per_packet = 0.0;
  double rcv_calls_per_packet = 0.0;
  // Payload bytes memcpy'd per data packet on each side, summed over every
  // copy the packet's payload passes through (app<->buffer staging, wire
  // packing/unpacking).  The zero-copy datapath's whole point: ~1 payload
  // size per direction instead of 2-3.
  double snd_copied_per_packet = 0.0;
  double rcv_copied_per_packet = 0.0;
  // Same, normalized by payload bytes: copies each payload byte suffers.
  double snd_copies_per_byte = 0.0;
  double rcv_copies_per_byte = 0.0;
  // Real UDP I/O system calls per data packet (UdpChannel counters summed
  // over the multiplexer's shards) — unlike the profiler rows these count
  // actual kernel entries, so the io_uring column (many datagrams per
  // io_uring_enter) is directly comparable with mmsg.
  double snd_syscalls_per_packet = 0.0;
  double rcv_syscalls_per_packet = 0.0;
  std::vector<Profiler::Share> snd_report;
  std::vector<Profiler::Share> rcv_report;
  // Multiplexer shards behind the server side — the thread layout the
  // shares were measured under (see Profiler::set_shards).
  int shards = 1;
  // The client's sends left as GSO super-datagrams, whose batch ceiling is
  // one whole super-datagram rather than io_batch (send_batch_ceiling).
  bool gso_active = false;
  bool ok = false;
};

ProfiledRun run_profiled(double seconds, int io_batch,
                         IoBackend backend = IoBackend::kMmsg) {
  SocketOptions opts;
  opts.enable_profiler = true;
  // Match the paper's conditions: a ~GigE-rate transfer, where pacing waits
  // (the "timing" row) are a real cost rather than rounding noise.
  opts.max_bandwidth_mbps = 950.0;
  opts.io_batch = io_batch;
  opts.io_backend = backend;
  auto listener = Socket::listen(0, opts);
  auto accepted = std::async(std::launch::async, [&] {
    return listener->accept(std::chrono::seconds{5});
  });
  auto client = Socket::connect("127.0.0.1", listener->local_port(), opts);
  auto server = accepted.get();
  ProfiledRun out;
  if (!client || !server) return out;

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
  out.rate_mbps = static_cast<double>(server->perf().bytes_delivered) * 8.0 /
                  seconds / 1e6;
  const auto snd_pkts = client->perf().data_packets_sent;
  const auto rcv_pkts = server->perf().data_packets_recv;
  const auto snd_calls = client->profiler().calls(ProfUnit::kUdpIo);
  const auto rcv_calls = server->profiler().calls(ProfUnit::kUdpIo);
  out.snd_calls_per_packet =
      snd_pkts > 0 ? static_cast<double>(snd_calls) / snd_pkts : 0.0;
  out.rcv_calls_per_packet =
      rcv_pkts > 0 ? static_cast<double>(rcv_calls) / rcv_pkts : 0.0;
  const auto& sp = client->profiler();
  const auto& rp = server->profiler();
  const double snd_copied = static_cast<double>(
      sp.bytes(ProfUnit::kPacking) + sp.bytes(ProfUnit::kAppInteraction));
  const double rcv_copied = static_cast<double>(
      rp.bytes(ProfUnit::kUnpacking) + rp.bytes(ProfUnit::kAppInteraction));
  out.snd_copied_per_packet = snd_pkts > 0 ? snd_copied / snd_pkts : 0.0;
  out.rcv_copied_per_packet = rcv_pkts > 0 ? rcv_copied / rcv_pkts : 0.0;
  const auto snd_bytes = client->perf().bytes_sent;
  const auto rcv_bytes = server->perf().bytes_delivered;
  out.snd_copies_per_byte = snd_bytes > 0 ? snd_copied / snd_bytes : 0.0;
  out.rcv_copies_per_byte = rcv_bytes > 0 ? rcv_copied / rcv_bytes : 0.0;
  out.snd_syscalls_per_packet =
      snd_pkts > 0 ? static_cast<double>(
                         client->multiplexer()->send_syscalls()) / snd_pkts
                   : 0.0;
  out.rcv_syscalls_per_packet =
      rcv_pkts > 0 ? static_cast<double>(
                         server->multiplexer()->recv_syscalls()) / rcv_pkts
                   : 0.0;
  out.snd_report = sp.report();
  out.rcv_report = rp.report();
  out.shards = rp.shards();
  out.gso_active =
      client->multiplexer()->channel_for(client->id()).gso_active();
  out.ok = true;
  stop = true;
  client->close();
  server->close();
  snd.get();
  rcv.get();
  return out;
}

void print_side(const char* side, const std::vector<Profiler::Share>& report) {
  std::printf("\n%s entity:\n", side);
  std::printf("  %-18s %12s %8s %10s %14s\n", "unit", "time (ms)", "share",
              "calls", "bytes copied");
  for (const auto& s : report) {
    std::printf("  %-18s %12.2f %7.1f%% %10llu %14llu\n",
                std::string{prof_unit_name(s.unit)}.c_str(),
                static_cast<double>(s.nanos) / 1e6, s.percent,
                static_cast<unsigned long long>(s.calls),
                static_cast<unsigned long long>(s.bytes));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto scale = udtr::bench::parse_scale(argc, argv);
  udtr::bench::banner("Table 3", "CPU share per functional unit "
                      "(instrumented transfer)", scale);
  const double seconds = scale.seconds(4, 15);

  const bool uring = UdpChannel::uring_supported();
  const ProfiledRun batched = run_profiled(seconds, /*io_batch=*/16);
  const ProfiledRun single = run_profiled(seconds, /*io_batch=*/1);
  // Second datapath column: the same transfer on the io_uring backend,
  // where one io_uring_enter submits/reaps many datagrams.
  const ProfiledRun uring_run =
      uring ? run_profiled(seconds, /*io_batch=*/16, IoBackend::kUring)
            : ProfiledRun{};
  if (!batched.ok || !single.ok || (uring && !uring_run.ok)) {
    std::fprintf(stderr, "connection failed\n");
    return 1;
  }

  std::printf("transfer rate: %.0f Mb/s (batch=16), %.0f Mb/s (batch=1), "
              "%d mux shard(s)\n",
              batched.rate_mbps, single.rate_mbps, batched.shards);
  print_side("sending (client, batch=16)", batched.snd_report);
  print_side("receiving (server, batch=16)", batched.rcv_report);

  std::printf("\nudp-io invocations per data packet (syscall "
              "amortization):\n");
  std::printf("  %-10s %14s %14s\n", "side", "batch=16", "batch=1");
  std::printf("  %-10s %14.3f %14.3f\n", "sending", batched.snd_calls_per_packet,
              single.snd_calls_per_packet);
  std::printf("  %-10s %14.3f %14.3f\n", "receiving",
              batched.rcv_calls_per_packet, single.rcv_calls_per_packet);
  const double snd_x = batched.snd_calls_per_packet > 0
      ? single.snd_calls_per_packet / batched.snd_calls_per_packet : 0.0;
  const double rcv_x = batched.rcv_calls_per_packet > 0
      ? single.rcv_calls_per_packet / batched.rcv_calls_per_packet : 0.0;
  std::printf("  amortization: %.1fx fewer sends, %.1fx fewer receives per "
              "packet\n", snd_x, rcv_x);

  std::printf("\nreal UDP syscalls per data packet (channel counters — "
              "mmsg vs io_uring):\n");
  std::printf("  %-10s %14s %14s\n", "side", "mmsg b=16", "io_uring");
  if (uring) {
    std::printf("  %-10s %14.3f %14.3f\n", "sending",
                batched.snd_syscalls_per_packet,
                uring_run.snd_syscalls_per_packet);
    std::printf("  %-10s %14.3f %14.3f\n", "receiving",
                batched.rcv_syscalls_per_packet,
                uring_run.rcv_syscalls_per_packet);
    std::printf("  io_uring rate: %.0f Mb/s\n", uring_run.rate_mbps);
  } else {
    std::printf("  %-10s %14.3f %14s\n", "sending",
                batched.snd_syscalls_per_packet, "SKIPPED");
    std::printf("  %-10s %14.3f %14s\n", "receiving",
                batched.rcv_syscalls_per_packet, "SKIPPED (no io_uring)");
  }

  std::printf("\npayload bytes memcpy'd per data packet (zero-copy "
              "datapath):\n");
  std::printf("  %-10s %16s %14s\n", "side", "B/pkt", "copies/B");
  std::printf("  %-10s %16.0f %14.2f\n", "sending",
              batched.snd_copied_per_packet, batched.snd_copies_per_byte);
  std::printf("  %-10s %16.0f %14.2f\n", "receiving",
              batched.rcv_copied_per_packet, batched.rcv_copies_per_byte);

  std::printf("\npaper Table 3 (dual Xeon, 970 Mb/s): sending = UDP writing "
              "66.7%%, timing 4.9%%, packing 5.9%%, ctrl 5.1%%, app 3.5%%; "
              "receiving = UDP reading 90.9%%, rate measurement 2.7%%, "
              "unpacking 0.9%%, loss 0.6%%.\n");
  udtr::bench::write_json(scale.json_path, {
      {"rate_mbps_batched", batched.rate_mbps},
      {"rate_mbps_unbatched", single.rate_mbps},
      {"udpio_calls_per_packet_snd_batched", batched.snd_calls_per_packet},
      {"udpio_calls_per_packet_rcv_batched", batched.rcv_calls_per_packet},
      {"udpio_calls_per_packet_snd_unbatched", single.snd_calls_per_packet},
      {"udpio_calls_per_packet_rcv_unbatched", single.rcv_calls_per_packet},
      {"send_amortization_x", snd_x},
      {"recv_amortization_x", rcv_x},
      {"copied_bytes_per_packet_snd_zerocopy", batched.snd_copied_per_packet},
      {"copied_bytes_per_packet_rcv_zerocopy", batched.rcv_copied_per_packet},
      {"payload_copies_per_byte_snd_zerocopy", batched.snd_copies_per_byte},
      {"payload_copies_per_byte_rcv_zerocopy", batched.rcv_copies_per_byte},
      {"shards", static_cast<double>(batched.shards)},
      {"uring_supported", uring ? 1.0 : 0.0},
      {"gso_active", batched.gso_active ? 1.0 : 0.0},
      {"syscalls_per_packet_snd_mmsg", batched.snd_syscalls_per_packet},
      {"syscalls_per_packet_rcv_mmsg", batched.rcv_syscalls_per_packet},
      {"syscalls_per_packet_snd_uring", uring_run.snd_syscalls_per_packet},
      {"syscalls_per_packet_rcv_uring", uring_run.rcv_syscalls_per_packet},
      {"rate_mbps_uring", uring_run.rate_mbps},
  });
  return 0;
}
