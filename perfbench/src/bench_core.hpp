// Pure helpers of the repository benchmark: seeded input generation,
// delivery verification, percentiles and the result line.  Nothing here
// touches the network, so tests/selftest.cpp can check each piece alone.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace udtr::perfbench {

// SplitMix64: a fast, well-mixed 64-bit generator.  Every input the
// benchmark makes (stream bytes, message sizes and bodies, the blast file)
// derives from it and the run's seed, so one seed always gives one input.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ += 0x9E3779B97F4A7C15ULL;
    return splitmix64(state_);
  }
  // Uniform integer in [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }

 private:
  std::uint64_t state_;
};

// Seeded draws from [lo, hi] that cover the range evenly: the range is cut
// into `strata` equal parts, each run of `strata` draws takes one value from
// every part, in shuffled order.  Any stretch of a message schedule then
// holds about the same mix of sizes, so a run's figures vary with the
// transport rather than with the luck of the draw.
class StratifiedDraw {
 public:
  StratifiedDraw(std::uint64_t lo, std::uint64_t hi, std::size_t strata)
      : lo_(lo), span_(hi - lo + 1), deck_(strata), pos_(strata) {}

  std::uint64_t next(Rng& rng) {
    if (pos_ == deck_.size()) {
      for (std::size_t i = 0; i < deck_.size(); ++i) deck_[i] = i;
      for (std::size_t i = deck_.size(); i > 1; --i) {
        std::swap(deck_[i - 1], deck_[rng.range(0, i - 1)]);
      }
      pos_ = 0;
    }
    const std::uint64_t n = deck_.size();
    const std::uint64_t s = deck_[pos_++];
    const std::uint64_t begin = s * span_ / n;
    const std::uint64_t end = (s + 1) * span_ / n;  // exclusive
    return lo_ + rng.range(begin, std::max(begin, end - 1));
  }

 private:
  std::uint64_t lo_;
  std::uint64_t span_;
  std::vector<std::size_t> deck_;
  std::size_t pos_;  // next card; deck_.size() = shuffle before drawing
};

// Fills `out` with the bytes that start at byte offset `word_index * 8` of
// the key's pseudo-random byte stream.
inline void fill_words(std::uint64_t key, std::uint64_t word_index,
                       std::span<std::uint8_t> out) {
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    const std::uint64_t w = splitmix64(key ^ (word_index + i / 8));
    std::memcpy(out.data() + i, &w, 8);
  }
  if (i < out.size()) {
    const std::uint64_t w = splitmix64(key ^ (word_index + i / 8));
    std::memcpy(out.data() + i, &w, out.size() - i);
  }
}

// Nearest-rank percentile `p` (0 < p < 100) of `samples`, or nullopt when
// fewer than ten samples lie beyond it: a tail figure resting on a handful
// of points is not a measurement.
[[nodiscard]] inline std::optional<double> percentile(
    std::vector<double> samples, double p) {
  const std::size_t n = samples.size();
  if (n == 0 || !(p > 0.0 && p < 100.0)) return std::nullopt;
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (n - 1 - idx < 10) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

// Median of a small set (setup rounds, per-transfer times): no tail rule.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Mean of the middle half of `v` (the lowest and highest quarter dropped):
// steadier than the median, yet one outlier in a quarter cannot move it.
[[nodiscard]] inline double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

// Splits time-ordered `samples` into consecutive equal groups, takes
// percentile `p` of each and returns the interquartile mean of those: a
// stall from outside the program moves one group, not the figure.  Uses as
// many groups as leave every group's percentile ten samples beyond it, at
// most `max_groups`; nullopt when the whole sample is too small for one.
[[nodiscard]] inline std::optional<double> sliced_percentile(
    const std::vector<double>& samples, double p, std::size_t max_groups) {
  if (!(p > 0.0 && p < 100.0)) return std::nullopt;
  std::size_t need = 1;  // smallest group percentile() accepts
  while (!percentile(std::vector<double>(need, 0.0), p)) ++need;
  const std::size_t groups = std::min(max_groups, samples.size() / need);
  if (groups == 0) return std::nullopt;
  std::vector<double> per_group;
  for (std::size_t g = 0; g < groups; ++g) {
    const auto begin = samples.begin() + static_cast<std::ptrdiff_t>(
                                             g * samples.size() / groups);
    const auto end = samples.begin() + static_cast<std::ptrdiff_t>(
                                           (g + 1) * samples.size() / groups);
    per_group.push_back(*percentile({begin, end}, p));
  }
  return interquartile_mean(per_group);
}

// True when time-ordered latencies keep rising across a run: the median of
// each quarter exceeds the one before, and the last ends at more than
// twice, and 1 ms above, the first.  An open loop that does so built a
// backlog, and its percentiles describe the backlog, not the transport.
[[nodiscard]] inline bool latency_rising(const std::vector<double>& ms) {
  const std::size_t q = ms.size() / 4;
  if (q == 0) return false;
  double med[4];
  for (std::size_t k = 0; k < 4; ++k) {
    med[k] = median({ms.begin() + static_cast<std::ptrdiff_t>(k * q),
                     ms.begin() + static_cast<std::ptrdiff_t>((k + 1) * q)});
  }
  return med[0] < med[1] && med[1] < med[2] && med[2] < med[3] &&
         med[3] > 2 * med[0] && med[3] - med[0] > 1.0;
}

// The stream workload's byte sequence.  Block k is a fixed seeded 1 MiB
// base with a stamp word every 4 KiB holding that word's absolute stream
// offset (keyed by the seed).  The random base catches a shift by any
// amount that is not a whole number of blocks; the stamps catch the rest.
// Building a block is one memcpy plus 256 stores, so checking stays far
// cheaper than the transport it checks.
class StreamPattern {
 public:
  static constexpr std::size_t kBlockBytes = std::size_t{1} << 20;
  static constexpr std::size_t kStampEvery = 4096;

  explicit StreamPattern(std::uint64_t seed)
      : key_(splitmix64(seed ^ 0x5354524541ULL)), base_(kBlockBytes) {
    fill_words(key_, 0, base_);
  }

  void make_block(std::uint64_t k, std::span<std::uint8_t> out) const {
    std::memcpy(out.data(), base_.data(), kBlockBytes);
    for (std::size_t off = 0; off < kBlockBytes; off += kStampEvery) {
      const std::uint64_t stamp = (k * kBlockBytes + off) ^ key_;
      std::memcpy(out.data() + off, &stamp, sizeof stamp);
    }
  }

 private:
  std::uint64_t key_;
  std::vector<std::uint8_t> base_;
};

// Checks a received stream piece by piece, in arrival order, against the
// pattern.  Once a mismatch is seen the verifier stays failed.
class StreamVerifier {
 public:
  explicit StreamVerifier(const StreamPattern& pattern)
      : pattern_(pattern), expected_(StreamPattern::kBlockBytes) {}

  bool consume(std::span<const std::uint8_t> data) {
    constexpr std::size_t kB = StreamPattern::kBlockBytes;
    while (ok_ && !data.empty()) {
      const std::uint64_t block = offset_ / kB;
      if (block != cur_block_) {
        pattern_.make_block(block, expected_);
        cur_block_ = block;
      }
      const std::size_t at = offset_ % kB;
      const std::size_t n = std::min(data.size(), kB - at);
      ok_ = std::memcmp(data.data(), expected_.data() + at, n) == 0;
      offset_ += n;
      data = data.subspan(n);
    }
    return ok_;
  }
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::uint64_t offset() const { return offset_; }

 private:
  const StreamPattern& pattern_;
  std::vector<std::uint8_t> expected_;
  std::uint64_t cur_block_ = ~std::uint64_t{0};
  std::uint64_t offset_ = 0;
  bool ok_ = true;
};

// Message bodies: message i starts with its index (8 bytes), the rest is
// the (seed, i) byte stream, so a swapped, duplicated, truncated or
// corrupted message fails the check.
inline void fill_message(std::uint64_t seed, std::uint64_t index,
                         std::span<std::uint8_t> out) {
  fill_words(splitmix64(seed ^ (index * 0xA24BAED4963EE407ULL)), 1, out);
  std::memcpy(out.data(), &index, std::min<std::size_t>(8, out.size()));
}

[[nodiscard]] inline bool check_message(std::uint64_t seed,
                                        std::uint64_t index,
                                        std::size_t expected_size,
                                        std::span<const std::uint8_t> got,
                                        std::vector<std::uint8_t>& scratch) {
  if (got.size() != expected_size) return false;
  scratch.resize(expected_size);
  fill_message(seed, index, scratch);
  return std::memcmp(got.data(), scratch.data(), expected_size) == 0;
}

// Content digest of `length` bytes of a file from `offset` on (to its end by
// default): length plus a position-keyed sum over 64-bit words, positions
// counted from `offset`, so truncation, reordering and corruption all
// change it, and a piece of a file digests like a file of its own.
struct FileDigest {
  std::uint64_t length = 0;
  std::uint64_t sum = 0;
  bool readable = false;
  bool operator==(const FileDigest&) const = default;
};

[[nodiscard]] inline FileDigest digest_file(
    const std::string& path, std::uint64_t offset = 0,
    std::uint64_t length = ~std::uint64_t{0}) {
  FileDigest d;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return d;
  d.readable = std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0;
  std::vector<std::uint8_t> buf(std::size_t{1} << 20);
  std::uint64_t word = 0;
  while (d.readable && d.length < length) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(buf.size(), length - d.length));
    const std::size_t got = std::fread(buf.data(), 1, want, f);
    if (got == 0) break;
    std::size_t i = 0;
    for (; i + 8 <= got; i += 8, ++word) {
      std::uint64_t w = 0;
      std::memcpy(&w, buf.data() + i, 8);
      d.sum += splitmix64(w ^ (word * 0xD6E8FEB86659FD93ULL));
    }
    for (; i < got; ++i) d.sum += splitmix64(buf[i] + (d.length + i) * 31);
    d.length += got;
  }
  if (std::ferror(f) != 0) d.readable = false;
  std::fclose(f);
  return d;
}

// Writes `bytes` of the seeded file stream to `path`.
inline bool write_seeded_file(const std::string& path, std::uint64_t seed,
                              std::uint64_t bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::uint64_t key = splitmix64(seed ^ 0x46494C45ULL);
  std::vector<std::uint8_t> buf(std::size_t{1} << 20);
  bool ok = true;
  for (std::uint64_t off = 0; ok && off < bytes; off += buf.size()) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(buf.size(), bytes - off));
    fill_words(key, off / 8, std::span{buf}.first(n));
    ok = std::fwrite(buf.data(), 1, n, f) == n;
  }
  return std::fclose(f) == 0 && ok;
}

// The result line: metric values with their units, in the order they were
// put, printed as the one JSON object the benchmark ends with.  A value that
// is not finite is refused: JSON has no spelling for it, and reading it as
// any number would turn a stall into a score.
class Report {
 public:
  void put(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      throw std::domain_error("metric " + name + " is not finite");
    }
    values_.push_back({name, value, unit});
  }

  [[nodiscard]] std::string json(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < values_.size(); ++i) {
      char num[64];
      std::snprintf(num, sizeof num, "%.10g", values_[i].value);
      out += i == 0 ? "\"" : ", \"";
      out += values_[i].name + "\": {\"value\": " + num + ", \"unit\": \"" +
             values_[i].unit + "\"}";
    }
    return out + "}}";
  }

 private:
  struct Value {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Value> values_;
};

}  // namespace udtr::perfbench
