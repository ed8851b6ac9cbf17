// Checks of the benchmark's own helpers (bench_core.hpp).
// Exits non-zero and names the failed check when one fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_core.hpp"

namespace pb = udtr::perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void percentile_needs_ten_beyond() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const auto p99 = pb::percentile(v, 99);
  check(p99 && *p99 == 990.0, "p99 of 1..1000 is 990 (10 samples beyond)");
  v.pop_back();
  check(!pb::percentile(v, 99), "p99 of 999 samples is refused");
  std::vector<double> small(20, 1.0);
  check(pb::percentile(small, 50).has_value(), "p50 of 20 samples is given");
  small.pop_back();
  check(!pb::percentile(small, 50), "p50 of 19 samples is refused");
  check(!pb::percentile({}, 50), "empty sample is refused");
}

void sliced_percentile_averages_middle_groups() {
  std::vector<double> v(10000, 1.0);
  for (std::size_t i = 0; i < 1000; ++i) v[i] = 500.0;  // one stalled group
  const auto p99 = pb::sliced_percentile(v, 99, 10);
  check(p99 && *p99 == 1.0, "a stall confined to one group does not move the sliced p99");
  check(pb::percentile(v, 99) == 500.0, "while it does move the plain p99");
  check(!pb::sliced_percentile(std::vector<double>(999, 1.0), 99, 10),
        "sliced p99 of 999 samples is refused");
  check(pb::sliced_percentile(std::vector<double>(1000, 2.0), 99, 10) == 2.0,
        "sliced p99 of 1000 samples is one group");
  check(pb::sliced_percentile(v, 99, 2) > 1.0,
        "with two groups the stalled one is half of them and moves the figure");
}

void interquartile_mean_drops_the_outer_quarters() {
  check(pb::interquartile_mean({1, 2, 3, 4, 5, 6, 7, 1000}) == 4.5,
        "interquartile mean ignores one outlier in the top quarter");
  check(pb::interquartile_mean({7}) == 7.0, "interquartile mean of one value");
}

void rising_latency_is_flagged() {
  std::vector<double> steady, backlog, small_drift;
  for (int i = 0; i < 4000; ++i) {
    const double jitter = (i * 7919 % 100) * 0.002;  // 0 to 0.2 ms
    steady.push_back(0.1 + jitter + (i % 500 == 0 ? 30.0 : 0.0));
    backlog.push_back(0.1 + jitter + i * 0.002);  // ends 8 ms behind
    small_drift.push_back(0.1 + jitter + i * 0.0001);  // ends 0.4 ms behind
  }
  check(!pb::latency_rising(steady), "steady latency with spikes is not rising");
  check(pb::latency_rising(backlog), "a growing backlog is flagged as rising");
  check(!pb::latency_rising(small_drift), "a drift under 1 ms is not flagged");
  check(!pb::latency_rising({}), "no samples is not rising");
}

void stratified_draws_cover_the_range() {
  pb::Rng rng{5};
  pb::StratifiedDraw d{64, 1024, 16};
  std::vector<int> hits(16, 0);
  bool in_range = true;
  for (int i = 0; i < 16 * 50; ++i) {
    const auto v = d.next(rng);
    in_range = in_range && v >= 64 && v <= 1024;
    for (std::uint64_t k = 0; k < 16; ++k) {  // the stratum holding v
      const std::uint64_t off = v - 64, span = 1024 - 64 + 1;
      if (k * span / 16 <= off && off < (k + 1) * span / 16) ++hits[k];
    }
  }
  check(in_range, "stratified draws stay in [lo, hi]");
  check(std::all_of(hits.begin(), hits.end(), [](int h) { return h == 50; }),
        "every stratum is drawn once per round");
}

std::vector<std::uint8_t> stream_bytes(const pb::StreamPattern& p,
                                       std::size_t blocks) {
  constexpr std::size_t kB = pb::StreamPattern::kBlockBytes;
  std::vector<std::uint8_t> s(blocks * kB);
  for (std::size_t k = 0; k < blocks; ++k) {
    p.make_block(k, std::span{s}.subspan(k * kB, kB));
  }
  return s;
}

// Feeds `data` in uneven pieces, as recv() hands them over.
bool verify(const pb::StreamPattern& p, std::span<const std::uint8_t> data) {
  pb::StreamVerifier v{p};
  std::size_t piece = 1;
  while (!data.empty()) {
    const std::size_t n = std::min(data.size(), piece);
    v.consume(data.first(n));
    data = data.subspan(n);
    piece = piece * 7 % 300007 + 1;
  }
  return v.ok();
}

void stream_verifier_catches_corruption() {
  constexpr std::size_t kB = pb::StreamPattern::kBlockBytes;
  const pb::StreamPattern p{42};
  auto s = stream_bytes(p, 3);
  check(verify(p, s), "intact stream verifies");
  auto flipped = s;
  flipped[kB + 12345] ^= 0x10;
  check(!verify(p, flipped), "flipped byte is caught");
  check(!verify(p, std::span{s}.subspan(1)), "stream shifted by one byte is caught");
  check(!verify(p, std::span{s}.subspan(kB)), "stream shifted by a whole block is caught");
  check(!verify(pb::StreamPattern{43}, s), "stream of another seed is caught");
}

void messages_are_checked() {
  std::vector<std::uint8_t> m(700), scratch;
  pb::fill_message(7, 5, m);
  check(pb::check_message(7, 5, 700, m, scratch), "intact message verifies");
  check(!pb::check_message(7, 6, 700, m, scratch), "message out of order is caught");
  check(!pb::check_message(7, 5, 700, std::span{m}.first(699), scratch),
        "truncated message is caught");
  m[300] ^= 1;
  check(!pb::check_message(7, 5, 700, m, scratch), "corrupted message is caught");
}

void file_digest_catches_truncation(const std::filesystem::path& dir) {
  const auto a = (dir / "selftest_a.bin").string();
  const auto b = (dir / "selftest_b.bin").string();
  constexpr std::uint64_t kBytes = (std::uint64_t{3} << 20) + 13;
  check(pb::write_seeded_file(a, 9, kBytes), "seeded file written");
  check(pb::write_seeded_file(b, 9, kBytes), "same seed written again");
  const auto da = pb::digest_file(a);
  check(da.readable && da.length == kBytes, "digest reads the whole file");
  check(da == pb::digest_file(b), "same seed gives the same digest");
  {  // b := bytes [1 MiB, 2 MiB + 5) of a
    std::vector<char> piece((std::size_t{1} << 20) + 5);
    std::FILE* in = std::fopen(a.c_str(), "rb");
    std::FILE* out = std::fopen(b.c_str(), "wb");
    const bool copied =
        in != nullptr && out != nullptr && std::fseek(in, 1 << 20, SEEK_SET) == 0 &&
        std::fread(piece.data(), 1, piece.size(), in) == piece.size() &&
        std::fwrite(piece.data(), 1, piece.size(), out) == piece.size();
    if (in != nullptr) std::fclose(in);
    if (out != nullptr) std::fclose(out);
    check(copied && pb::digest_file(a, 1 << 20, piece.size()) == pb::digest_file(b),
          "a piece of a file digests like a file of its own");
    check(!(pb::digest_file(a, (1 << 20) + 8, piece.size()) == pb::digest_file(b)),
          "a piece at another offset is caught");
  }
  check(pb::write_seeded_file(b, 9, kBytes), "seeded file written once more");
  std::filesystem::resize_file(b, kBytes - 4096);
  check(!(da == pb::digest_file(b)), "truncated file is caught");
  std::filesystem::resize_file(b, kBytes);  // zero-filled tail, same length
  check(!(da == pb::digest_file(b)), "zero-filled tail of the same length is caught");
  check(pb::write_seeded_file(b, 10, kBytes) && !(da == pb::digest_file(b)),
        "file of another seed is caught");
  std::filesystem::remove(a);
  std::filesystem::remove(b);
}

// measure_slices gives a slice that verified no bytes an infinite CPU per
// GB.  Up to a quarter of such slices are dropped by the interquartile
// mean; more make the figure infinite, and the report must refuse it
// rather than print a number.
void stalled_slices_are_refused() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> slices(20, 1.5);
  std::fill(slices.begin(), slices.begin() + 5, kInf);
  check(pb::interquartile_mean(slices) == 1.5,
        "five stalled slices of twenty do not move the figure");
  slices[5] = kInf;
  check(std::isinf(pb::interquartile_mean(slices)),
        "six stalled slices of twenty make it infinite");
  pb::Report r;
  bool refused = false;
  try {
    r.put("cpu_s_per_gb", pb::interquartile_mean(slices), "s/GB");
  } catch (const std::domain_error&) {
    refused = true;
  }
  check(refused, "the report refuses an infinite value");
  refused = false;
  try {
    r.put("x", std::nan(""), "s");
  } catch (const std::domain_error&) {
    refused = true;
  }
  check(refused, "the report refuses NaN");
  r.put("setup_s", 0.25, "s");
  r.put("rss_mb", 30, "MB");
  check(r.json(true, 3, 0) ==
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, "
            "\"rss_mb\": {\"value\": 30, \"unit\": \"MB\"}}}",
        "the result line lists the values put, in order, with their units");
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path dir =
      argc > 1 ? argv[1] : std::filesystem::temp_directory_path();
  std::filesystem::create_directories(dir);
  percentile_needs_ten_beyond();
  sliced_percentile_averages_middle_groups();
  interquartile_mean_drops_the_outer_quarters();
  rising_latency_is_flagged();
  stratified_draws_cover_the_range();
  stream_verifier_catches_corruption();
  messages_are_checked();
  file_digest_catches_truncation(dir);
  stalled_slices_are_refused();
  std::printf("%s (%d failed)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
