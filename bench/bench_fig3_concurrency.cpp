// Fig. 3: UDT performance vs number of parallel flows.
// Reports aggregate bandwidth utilization and the standard deviation of
// per-flow throughput as the flow count grows (paper: oscillations grow with
// concurrency — UDT targets a small number of bulk sources, §3.6).
//
// On top of the simulated sweep, a real-socket section measures the
// loopback stack as the flow count grows, in both connection modes: the
// multiplexed default (all flows share one UDP port and one pair of service
// threads per shard per endpoint) and exclusive-port mode (every socket on
// a private single-shard multiplexer: its own port and two threads).  The
// paper's §3.6 concern — per-connection cost limits concurrency — is
// exactly what sharing the multiplexer removes.  The bench exits non-zero
// when any real-socket run fails.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/metrics.hpp"
#include "netsim/stats.hpp"
#include "netsim/topology.hpp"
#include "udt/multiplexer.hpp"
#include "udt/poller.hpp"
#include "udt/socket.hpp"

using namespace udtr;
using namespace udtr::sim;

namespace {

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                    ru.ru_stime.tv_usec);
}

int thread_count() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

struct RealRun {
  double goodput_mbps = 0.0;
  int threads = 0;        // OS threads serving the flows (delta over idle)
  double cpu_percent = 0.0;  // of one core, over the transfer window
  bool ok = false;
};

// `flows` loopback connections, every client buffering one payload and the
// server side drained from a single Poller loop; both endpoints live in
// this process, so `threads` counts the service cost of BOTH sides.
RealRun run_real(int flows, bool exclusive, std::size_t total_bytes,
                 int mux_shards = 0) {
  using namespace udtr::udt;
  RealRun out;
  const std::size_t per_flow = std::clamp<std::size_t>(
      total_bytes / static_cast<std::size_t>(flows), 64 << 10, 4 << 20);

  SocketOptions opts;
  opts.exclusive_port = exclusive;
  opts.mux_shards = mux_shards;
  opts.snd_buffer_bytes = per_flow;  // send() returns once buffered
  opts.rcv_buffer_pkts = 256;

  const int threads_idle = thread_count();
  auto listener = Socket::listen(0, opts);
  if (!listener) return out;
  const std::uint16_t port = listener->local_port();

  std::vector<std::unique_ptr<Socket>> clients(
      static_cast<std::size_t>(flows));
  auto connector = std::async(std::launch::async, [&] {
    for (auto& c : clients) {
      c = Socket::connect("127.0.0.1", port, opts);
      if (!c) return false;
    }
    return true;
  });
  std::vector<std::unique_ptr<Socket>> servers;
  servers.reserve(static_cast<std::size_t>(flows));
  for (int i = 0; i < flows; ++i) {
    auto s = listener->accept(std::chrono::seconds{30});
    if (!s) return out;
    servers.push_back(std::move(s));
  }
  if (!connector.get()) return out;
  out.threads = thread_count() - threads_idle;

  const std::vector<std::uint8_t> payload(per_flow, 0x5a);
  const std::size_t expected =
      per_flow * static_cast<std::size_t>(flows);

  const double cpu0 = cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& c : clients) {
    if (c->send(payload) != payload.size()) return out;
  }
  Poller poller;
  for (auto& s : servers) poller.add(s.get(), kPollIn);
  std::vector<PollEvent> events(servers.size());
  std::vector<std::uint8_t> buf(1 << 16);
  std::size_t drained = 0;
  const auto deadline = t0 + std::chrono::seconds{120};
  while (drained < expected && std::chrono::steady_clock::now() < deadline) {
    const std::size_t n = poller.wait(events, std::chrono::milliseconds{500});
    for (std::size_t e = 0; e < n; ++e) {
      drained += events[e].sock->recv(buf, std::chrono::milliseconds{0});
    }
  }
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  const double cpu = cpu_seconds() - cpu0;
  if (drained < expected || wall <= 0.0) return out;
  out.goodput_mbps = static_cast<double>(drained) * 8.0 / wall / 1e6;
  out.cpu_percent = 100.0 * cpu / wall;
  out.ok = true;
  return out;
}

// Idle-fleet timer cost: `flows` established-but-silent connections, and
// the number of per-socket timer sweeps the server-side multiplexer runs
// over a one-second window.  The timer wheel only fires the entries
// actually due, so idle sockets park at EXP cadence instead of being swept
// every millisecond.
struct IdleSweepRun {
  double sweeps_per_sock_per_s = 0.0;
  bool ok = false;
};

IdleSweepRun run_idle_sweep(int flows) {
  using namespace udtr::udt;
  IdleSweepRun out;
  SocketOptions opts;
  opts.snd_buffer_bytes = 64 << 10;
  opts.rcv_buffer_pkts = 128;
  {
    auto listener = Socket::listen(0, opts);
    if (!listener) return out;
    auto connector = std::async(std::launch::async, [&] {
      std::vector<std::unique_ptr<Socket>> clients;
      for (int i = 0; i < flows; ++i) {
        auto c = Socket::connect("127.0.0.1", listener->local_port(), opts);
        if (!c) break;
        clients.push_back(std::move(c));
      }
      return clients;
    });
    std::vector<std::unique_ptr<Socket>> servers;
    for (int i = 0; i < flows; ++i) {
      auto s = listener->accept(std::chrono::seconds{30});
      if (!s) return out;
      servers.push_back(std::move(s));
    }
    auto clients = connector.get();
    if (static_cast<int>(clients.size()) != flows) return out;
    auto mux = servers.front()->multiplexer();
    if (!mux) return out;
    const std::uint64_t before = mux->timer_socket_sweeps();
    const auto t0 = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::seconds{1});
    const double window = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    const std::uint64_t swept = mux->timer_socket_sweeps() - before;
    out.sweeps_per_sock_per_s =
        static_cast<double>(swept) / flows / window;
    out.ok = true;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto scale = udtr::bench::parse_scale(argc, argv);
  udtr::bench::banner("Fig 3", "UDT multiplexing: stddev vs #flows", scale);

  const Bandwidth link = Bandwidth::mbps(scale.mbps(100, 1000));
  const double seconds = scale.seconds(20, 100);
  const std::vector<int> flow_counts =
      scale.full ? std::vector<int>{2, 10, 40, 100, 200, 400}
                 : std::vector<int>{2, 10, 40, 100};
  const double rtts_ms[] = {1, 10, 100};

  std::printf("%8s", "#flows");
  for (const double r : rtts_ms) std::printf("   rtt=%-4.0fms sd | util%%", r);
  std::printf("\n");

  for (const int n : flow_counts) {
    std::printf("%8d", n);
    for (const double rtt_ms : rtts_ms) {
      Simulator sim;
      const auto queue = static_cast<std::size_t>(
          std::max(1000.0, bdp_packets(link, rtt_ms * 1e-3, 1500)));
      Dumbbell net{sim, {link, queue}};
      for (int i = 0; i < n; ++i) net.add_udt_flow({}, rtt_ms * 1e-3);
      sim.run_until(seconds);
      std::vector<double> tput;
      double total = 0.0;
      for (int i = 0; i < n; ++i) {
        const double mbps = average_mbps(
            net.udt_receiver(static_cast<std::size_t>(i)).stats().delivered,
            1500, 0.0, seconds);
        tput.push_back(mbps);
        total += mbps;
      }
      std::printf("   %10.3f | %5.1f", sample_stddev(tput),
                  100.0 * total / link.mbits_per_sec());
    }
    std::printf("\n");
  }
  std::printf("\npaper: stddev (oscillation) grows with concurrency while "
              "aggregate utilization stays high; UDT is not designed for "
              "high-concurrency regimes.\n");

  // --- real loopback sockets: multiplexed vs per-socket threads ----------
  const std::size_t total_bytes =
      scale.full ? (std::size_t{128} << 20) : (std::size_t{32} << 20);
  const std::vector<int> real_flows = {1, 8, 64, 512};
  // Exclusive-port mode spends two threads (and one UDP port) per socket on
  // each side; 512 flows would need 2048 service threads in this process,
  // so its sweep stops at 64 — which is itself the point of the figure.
  const int exclusive_cap = 64;

  std::printf("\nreal loopback sockets (%zu MB aggregate per run):\n",
              total_bytes >> 20);
  std::printf("%8s %12s %22s %22s\n", "", "", "multiplexed", "exclusive-port");
  std::printf("%8s %12s %9s %7s %4s %9s %7s %4s\n", "#flows", "", "Mb/s",
              "cpu%", "thr", "Mb/s", "cpu%", "thr");
  std::vector<std::pair<std::string, double>> json;
  bool all_ok = true;
  for (const int n : real_flows) {
    const RealRun mux = run_real(n, /*exclusive=*/false, total_bytes);
    RealRun excl;
    if (n <= exclusive_cap) excl = run_real(n, /*exclusive=*/true, total_bytes);
    std::printf("%8d %12s", n, "");
    if (mux.ok) {
      std::printf(" %9.0f %6.0f%% %4d", mux.goodput_mbps, mux.cpu_percent,
                  mux.threads);
      json.emplace_back("fig3_real_goodput_mbps_mux_" + std::to_string(n),
                        mux.goodput_mbps);
      json.emplace_back("fig3_real_cpu_pct_mux_" + std::to_string(n),
                        mux.cpu_percent);
      json.emplace_back("fig3_real_threads_mux_" + std::to_string(n),
                        mux.threads);
    } else {
      std::printf(" %9s %7s %4s", "FAIL", "-", "-");
      all_ok = false;
    }
    if (excl.ok) {
      std::printf(" %9.0f %6.0f%% %4d", excl.goodput_mbps, excl.cpu_percent,
                  excl.threads);
      json.emplace_back("fig3_real_goodput_mbps_excl_" + std::to_string(n),
                        excl.goodput_mbps);
      json.emplace_back("fig3_real_cpu_pct_excl_" + std::to_string(n),
                        excl.cpu_percent);
      json.emplace_back("fig3_real_threads_excl_" + std::to_string(n),
                        excl.threads);
    } else {
      std::printf(" %9s %7s %4s", n > exclusive_cap ? "skip" : "FAIL", "-",
                  "-");
      if (n <= exclusive_cap) all_ok = false;
    }
    std::printf("\n");
  }
  std::printf("multiplexed flows share 2 service threads per shard per "
              "endpoint; exclusive-port spends 4 per connection (a private "
              "single-shard multiplexer at each end).\n");

  // --- shard sweep: the same fleet over 1 / 2 / 4 datapath shards --------
  // Each shard adds an rx/tx thread pair, its own reuseport fd and timer
  // wheel; on a multi-core host the 4-shard aggregate goodput at high flow
  // counts is the headline number (single-core hosts serialize the shards
  // and should show parity, not gains).
  const std::vector<int> shard_counts = {1, 2, 4};
  const std::vector<int> shard_flows = {64, 512};
  std::printf("\nsharded multiplexer (%zu MB aggregate per run, "
              "hw_concurrency=%u):\n",
              total_bytes >> 20, std::thread::hardware_concurrency());
  std::printf("%8s %10s %9s %7s %4s\n", "#flows", "#shards", "Mb/s", "cpu%",
              "thr");
  for (const int n : shard_flows) {
    for (const int s : shard_counts) {
      const RealRun r = run_real(n, /*exclusive=*/false, total_bytes, s);
      std::printf("%8d %10d", n, s);
      if (r.ok) {
        std::printf(" %9.0f %6.0f%% %4d\n", r.goodput_mbps, r.cpu_percent,
                    r.threads);
        const std::string tag =
            "_s" + std::to_string(s) + "_f" + std::to_string(n);
        json.emplace_back("fig3_shard_goodput_mbps" + tag, r.goodput_mbps);
        json.emplace_back("fig3_shard_cpu_pct" + tag, r.cpu_percent);
        json.emplace_back("fig3_shard_threads" + tag, r.threads);
      } else {
        std::printf(" %9s %7s %4s\n", "FAIL", "-", "-");
        all_ok = false;
      }
    }
  }

  // --- idle timer cost: the timing wheel parks silent sockets -----------
  const int idle_flows = scale.full ? 256 : 64;
  const IdleSweepRun wheel = run_idle_sweep(idle_flows);
  std::printf("\nidle timer sweeps (%d silent flows, per socket per "
              "second):\n", idle_flows);
  if (wheel.ok) {
    std::printf("%16s %10.1f\n", "timer wheel", wheel.sweeps_per_sock_per_s);
    json.emplace_back("fig3_idle_sweeps_per_sock_wheel",
                      wheel.sweeps_per_sock_per_s);
  } else {
    std::printf("  FAIL\n");
    all_ok = false;
  }
  udtr::bench::write_json(scale.json_path, json);
  return all_ok ? 0 : 1;
}
