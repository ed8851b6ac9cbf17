// A bounded FIFO+TTL map for duplicate-handshake memory.
//
// The multiplexer's answered_ index needs this shape of state: "remember
// the response I sent for this (addr, socket) key for a while, so a
// retransmitted request gets the same answer instead of a second
// connection" — bounded in count (a flood cannot balloon it) and in time (a
// recycled client address is not haunted by a stale response forever).
//
// Eviction is FIFO by insertion order plus a TTL sweep from the FIFO front;
// find() does not check the TTL (the owner sweeps on its own cadence, which
// keeps find() allocation- and clock-free).  Externally synchronized.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <utility>

namespace udtr::udt {

template <typename Key, typename Value>
class BoundedTtlMap {
 public:
  using Clock = std::chrono::steady_clock;

  BoundedTtlMap(std::size_t max_entries, Clock::duration ttl)
      : max_(max_entries), ttl_(ttl) {}

  // Inserts or refreshes; evicts from the FIFO front when over capacity.
  void put(const Key& k, Value v, Clock::time_point now) {
    auto it = map_.find(k);
    if (it != map_.end()) {
      it->second.value = std::move(v);
      it->second.at = now;  // refreshed entries still age out of the FIFO
      return;
    }
    const std::uint64_t seq = next_seq_++;
    map_.emplace(k, Entry{std::move(v), now, seq});
    order_.push_back({k, seq});
    while (map_.size() > max_ && !order_.empty()) pop_front_entry();
  }

  [[nodiscard]] const Value* find(const Key& k) const {
    const auto it = map_.find(k);
    return it == map_.end() ? nullptr : &it->second.value;
  }

  void erase(const Key& k) { map_.erase(k); }  // FIFO entry lazily skipped

  // Drops expired entries from the FIFO front.  Stops at the first live
  // entry, so the amortized cost per call is O(evicted).
  void sweep(Clock::time_point now) {
    while (!order_.empty()) {
      const auto it = map_.find(order_.front().first);
      if (it == map_.end() || it->second.seq != order_.front().second) {
        order_.pop_front();  // erased or superseded out-of-band: stale key
        continue;
      }
      if (now - it->second.at < ttl_) break;
      map_.erase(it);
      order_.pop_front();
    }
  }

  [[nodiscard]] std::size_t size() const { return map_.size(); }

 private:
  struct Entry {
    Value value;
    Clock::time_point at;
    std::uint64_t seq = 0;  // ties the FIFO slot to this incarnation
  };

  void pop_front_entry() {
    const auto it = map_.find(order_.front().first);
    if (it != map_.end() && it->second.seq == order_.front().second) {
      map_.erase(it);
    }
    order_.pop_front();
  }

  std::size_t max_;
  Clock::duration ttl_;
  std::map<Key, Entry> map_;
  std::deque<std::pair<Key, std::uint64_t>> order_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace udtr::udt
