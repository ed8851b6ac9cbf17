#include "netsim/tcp_agent.hpp"

#include <algorithm>

#include "cc/tcp_cavoid.hpp"

namespace udtr::sim {

namespace {
constexpr int kTcpAckBase = 40;
constexpr double kRtoMax = 60.0;
}  // namespace

// ---------------------------------------------------------------- sender ---

TcpSender::TcpSender(Simulator& sim, TcpFlowConfig cfg)
    : sim_(sim),
      cfg_(cfg),
      ca_(cc::make_cong_avoid(cfg.cong_avoid)),
      cwnd_(cfg.initial_cwnd) {
  ssthresh_ = cfg.recv_window_pkts;
}

void TcpSender::start() {
  sim_.at(cfg_.start_time, [this] {
    started_ = true;
    last_progress_time_ = sim_.now();
    try_send();
  });
}

double TcpSender::pipe() const {
  const double outstanding =
      static_cast<double>(udtr::SeqNo::offset(snd_una_, next_seq_));
  return outstanding - static_cast<double>(sacked_.size()) -
         static_cast<double>(lost_.size());
}

void TcpSender::send_data(udtr::SeqNo seq, bool retransmit) {
  Packet p;
  p.kind = PacketKind::kTcpData;
  p.flow = cfg_.flow_id;
  p.size_bytes = cfg_.mss_bytes;
  p.seq = seq;
  p.retransmit = retransmit;
  p.sent_at = sim_.now();
  if (retransmit) {
    ++stats_.retransmitted;
  } else {
    ++stats_.data_sent;
  }
  if (out_ != nullptr) out_->receive(std::move(p));
}

void TcpSender::try_send() {
  if (finished_ || !started_) return;
  bool sent = false;
  while (pipe() < cwnd_) {
    if (!lost_.empty()) {
      const udtr::SeqNo seq = *lost_.begin();
      lost_.erase(lost_.begin());
      send_data(seq, true);
      sent = true;
    } else if (!all_sent_ &&
               static_cast<double>(udtr::SeqNo::offset(snd_una_, next_seq_)) <
                   cfg_.recv_window_pkts) {
      send_data(next_seq_, false);
      next_seq_ = next_seq_.next();
      ++new_packets_sent_;
      all_sent_ = new_packets_sent_ >= cfg_.total_packets;
      sent = true;
    } else {
      break;
    }
  }
  if (sent) arm_rto();
}

void TcpSender::update_rtt(double sample_s) {
  if (sample_s <= 0.0) return;
  if (base_rtt_s_ <= 0.0 || sample_s < base_rtt_s_) base_rtt_s_ = sample_s;
  if (srtt_s_ <= 0.0) {
    srtt_s_ = sample_s;
    rttvar_s_ = sample_s / 2.0;
  } else {
    rttvar_s_ = 0.75 * rttvar_s_ + 0.25 * std::abs(srtt_s_ - sample_s);
    srtt_s_ = 0.875 * srtt_s_ + 0.125 * sample_s;
  }
  rto_s_ = std::clamp(srtt_s_ + std::max(4.0 * rttvar_s_, 0.01),
                      cfg_.rto_min_s, kRtoMax);
}

void TcpSender::arm_rto() {
  const std::uint64_t epoch = ++rto_epoch_;
  const double backoff = static_cast<double>(1 << std::min(rto_backoff_, 6));
  sim_.at(last_progress_time_ + rto_s_ * backoff, [this, epoch] {
    if (epoch != rto_epoch_) return;
    on_rto();
  });
}

void TcpSender::on_rto() {
  if (finished_) return;
  if (udtr::SeqNo::offset(snd_una_, next_seq_) == 0) return;  // nothing out
  const double backoff = static_cast<double>(1 << std::min(rto_backoff_, 6));
  if (sim_.now() - last_progress_time_ + 1e-12 < rto_s_ * backoff) {
    arm_rto();
    return;
  }
  ++stats_.timeouts;
  ++rto_backoff_;
  // Timeout: everything unsacked in flight is presumed lost; restart in
  // slow start from a one-packet window.
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
  cwnd_ = 1.0;
  in_recovery_ = false;
  dupacks_ = 0;
  lost_.clear();
  for (udtr::SeqNo s = snd_una_; udtr::SeqNo::cmp(s, next_seq_) < 0;
       s = s.next()) {
    if (!sacked_.contains(s)) lost_.insert(s);
  }
  scan_next_ = next_seq_;
  recovery_point_ = next_seq_;
  last_progress_time_ = sim_.now();
  try_send();
  arm_rto();
}

void TcpSender::detect_losses() {
  // SACK-based loss inference: a hole is lost once `dupack_threshold`
  // packets above it have been selectively acknowledged.  A monotone scan
  // watermark keeps total work linear in packets sent.
  if (static_cast<int>(sacked_.size()) < cfg_.dupack_threshold) return;
  auto it = sacked_.rbegin();
  std::advance(it, cfg_.dupack_threshold - 1);
  const udtr::SeqNo threshold = *it;  // k-th highest SACKed sequence
  if (udtr::SeqNo::cmp(scan_next_, snd_una_) < 0) scan_next_ = snd_una_;
  for (udtr::SeqNo s = scan_next_; udtr::SeqNo::cmp(s, threshold) < 0;
       s = s.next()) {
    if (!sacked_.contains(s)) lost_.insert(s);
  }
  if (udtr::SeqNo::cmp(threshold, scan_next_) > 0) scan_next_ = threshold;
}

void TcpSender::enter_recovery() {
  ++stats_.fast_recoveries;
  in_recovery_ = true;
  recovery_point_ = next_seq_;
  ssthresh_ = ca_->on_loss(cwnd_);
  cwnd_ = ssthresh_;
  // Fast retransmit of the first hole.
  if (!sacked_.contains(snd_una_)) lost_.insert(snd_una_);
}

void TcpSender::receive(Packet pkt) {
  if (pkt.kind != PacketKind::kTcpAck || finished_) return;
  const udtr::SeqNo ack = pkt.tcp_ack;

  // Fold in the SACK information first.
  for (const auto& [first, last] : pkt.sack) {
    for (udtr::SeqNo s = first;;) {
      if (udtr::SeqNo::cmp(s, snd_una_) >= 0 &&
          udtr::SeqNo::cmp(s, next_seq_) < 0) {
        if (sacked_.insert(s).second) lost_.erase(s);
      }
      if (s == last) break;
      s = s.next();
    }
  }

  if (udtr::SeqNo::cmp(ack, snd_una_) > 0) {
    const std::int32_t newly = udtr::SeqNo::offset(snd_una_, ack);
    snd_una_ = ack;
    sacked_.erase(sacked_.begin(), sacked_.lower_bound(snd_una_));
    lost_.erase(lost_.begin(), lost_.lower_bound(snd_una_));
    dupacks_ = 0;
    rto_backoff_ = 0;
    last_progress_time_ = sim_.now();

    if (!pkt.retransmit) update_rtt(sim_.now() - pkt.sent_at);

    if (in_recovery_ && udtr::SeqNo::cmp(ack, recovery_point_) >= 0) {
      in_recovery_ = false;
      cwnd_ = ssthresh_;
    }
    if (!in_recovery_) {
      if (cwnd_ < ssthresh_) {
        cwnd_ = std::min(cwnd_ + newly, ssthresh_);  // slow start
      } else if (ca_->wants_context()) {
        // Delay-aware strategies (Vegas/FAST) consume RTT context.
        cwnd_ = ca_->on_ack_ctx(cwnd_,
                                cc::CaContext{srtt_s_, base_rtt_s_});
      } else {
        cwnd_ = ca_->on_ack(cwnd_);  // congestion avoidance (per ACK)
      }
      cwnd_ = std::min(cwnd_, cfg_.recv_window_pkts);
    }

    if (all_sent_ && udtr::SeqNo::offset(snd_una_, next_seq_) == 0) {
      finished_ = true;
      finish_time_ = sim_.now();
      if (on_finish_) on_finish_();
      return;
    }
  } else if (!pkt.sack.empty()) {
    ++dupacks_;
  }

  detect_losses();
  // One recovery per window: loss evidence inside the epoch we are already
  // repairing (snd_una below the recovery point, e.g. right after an RTO)
  // must not collapse cwnd again.
  if (!in_recovery_ &&
      udtr::SeqNo::cmp(snd_una_, recovery_point_) >= 0 &&
      (dupacks_ >= cfg_.dupack_threshold || !lost_.empty())) {
    enter_recovery();
  }
  try_send();
}

// -------------------------------------------------------------- receiver ---

void TcpReceiver::receive(Packet pkt) {
  if (pkt.kind != PacketKind::kTcpData) return;
  ++stats_.data_received;
  const udtr::SeqNo seq = pkt.seq;

  if (seq == rcv_next_) {
    rcv_next_ = rcv_next_.next();
    ++stats_.delivered;
    if (on_deliver_) on_deliver_(seq);
    // Absorb any out-of-order ranges that are now contiguous.
    while (!ooo_.empty() && ooo_.begin()->first == rcv_next_) {
      const auto [first, last] = *ooo_.begin();
      ooo_.erase(ooo_.begin());
      for (udtr::SeqNo s = first;;) {
        ++stats_.delivered;
        if (on_deliver_) on_deliver_(s);
        rcv_next_ = s.next();
        if (s == last) break;
        s = s.next();
      }
    }
  } else if (udtr::SeqNo::cmp(seq, rcv_next_) > 0) {
    // Insert into the out-of-order interval map, merging neighbours.
    udtr::SeqNo first = seq, last = seq;
    auto next_it = ooo_.upper_bound(seq);
    if (next_it != ooo_.begin()) {
      auto prev_it = std::prev(next_it);
      if (udtr::SeqNo::cmp(seq, prev_it->second) <= 0) {
        return;  // duplicate inside an existing range
      }
      if (prev_it->second.next() == seq) {
        first = prev_it->first;
        ooo_.erase(prev_it);
      }
    }
    next_it = ooo_.upper_bound(seq);
    if (next_it != ooo_.end() && next_it->first == seq.next()) {
      last = next_it->second;
      ooo_.erase(next_it);
    }
    ooo_[first] = last;
  }
  // else: duplicate below rcv_next — still triggers an ACK.

  Packet ack;
  ack.kind = PacketKind::kTcpAck;
  ack.flow = cfg_.flow_id;
  ack.tcp_ack = rcv_next_;
  ack.sent_at = pkt.sent_at;       // echoed for the sender's RTT sample
  ack.retransmit = pkt.retransmit; // Karn: no RTT sample from retransmits
  // SACK blocks: the range containing this arrival first, then the lowest
  // remaining ranges (up to 4 blocks total, as on-the-wire SACK would).
  int blocks = 0;
  auto containing = ooo_.end();
  for (auto it = ooo_.begin(); it != ooo_.end(); ++it) {
    if (udtr::SeqNo::cmp(it->first, seq) <= 0 &&
        udtr::SeqNo::cmp(seq, it->second) <= 0) {
      containing = it;
      break;
    }
  }
  // Long ranges are advertised by their most recent 64 packets — the sender
  // accumulates SACK state across ACKs, so earlier parts were already
  // reported, and bounding the block keeps per-ACK processing O(1).
  const auto clamp_range = [](udtr::SeqNo first, udtr::SeqNo last) {
    if (udtr::SeqNo::length(first, last) > 64) {
      first = last.advanced_by(-63);
    }
    return std::pair{first, last};
  };
  if (containing != ooo_.end()) {
    ack.sack.push_back(clamp_range(containing->first, containing->second));
    ++blocks;
  }
  for (auto it = ooo_.begin(); it != ooo_.end() && blocks < 4; ++it) {
    if (it == containing) continue;
    ack.sack.push_back(clamp_range(it->first, it->second));
    ++blocks;
  }
  ack.size_bytes = kTcpAckBase + 8 * blocks;
  ++stats_.acks_sent;
  if (out_ != nullptr) out_->receive(std::move(ack));
}

}  // namespace udtr::sim
