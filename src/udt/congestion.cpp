#include "udt/congestion.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cc/tcp_cavoid.hpp"

namespace udtr::udt {

namespace {

// ------------------------------------------------------------- default ---
//
// The paper's native controller, unchanged: every event and output is a
// straight delegation to cc::UdtCc, so a socket built with the default name
// behaves byte-for-byte like the pre-interface hardwired member.
class UdtNativeCc final : public CongestionControl {
 public:
  explicit UdtNativeCc(const CcConfig& cfg)
      : cc_([&] {
          cc::UdtCcConfig c;
          c.mss_bytes = cfg.mss_bytes;
          c.syn_s = cfg.syn_s;
          c.window_control = cfg.window_control;
          c.max_window = cfg.max_window;
          c.seed = cfg.seed;
          return c;
        }()) {}

  void set_now(double now_s) override { cc_.set_now(now_s); }
  void on_ack(const cc::AckInfo& info) override { cc_.on_ack(info); }
  void on_nak(udtr::SeqNo biggest_loss, udtr::SeqNo largest_sent) override {
    cc_.on_nak(biggest_loss, largest_sent);
  }
  void on_timeout() override { cc_.on_timeout(); }
  void on_delay_warning() override { cc_.on_delay_warning(); }

  [[nodiscard]] double pkt_send_period_s() const override {
    return cc_.pkt_send_period_s();
  }
  [[nodiscard]] double window_packets() const override {
    return cc_.window_packets();
  }
  [[nodiscard]] double freeze_deadline_s() const override {
    return cc_.freeze_deadline_s();
  }
  [[nodiscard]] double last_rtt_s() const override { return cc_.last_rtt_s(); }
  [[nodiscard]] const char* name() const override { return "udt"; }

 private:
  cc::UdtCc cc_;
};

// ----------------------------------------------------- TCP-law adapters ---
//
// Ports the simulator's TcpCongAvoid strategies (tcp_cavoid*.hpp) onto the
// real socket's event stream.  The strategies define per-ACK window growth
// and the on-loss decrease; this adapter supplies what a real TCP sender
// would around them: slow start with an ssthresh, RTT tracking for the
// delay-aware strategies (Vegas/FAST), one decrease per congestion event
// (tracked exactly like UdtCc's epoch bookkeeping, by the largest sequence
// sent at the previous decrease), and RTO-style collapse on timeout.
//
// Our ACKs are SYN-clocked cumulative reports, not per-segment, so the
// strategy's per-ACK step is scaled by the number of packets the ACK newly
// covers — the closed-form equivalent of applying it once per segment.
//
// Pacing: the sender stays window-limited (cwnd bounds in-flight), and the
// period spreads the window over one smoothed RTT (cwnd/srtt packets per
// second) so a window's worth never leaves as a line-rate burst.  Until an
// RTT is measured the period is effectively zero and the window alone
// governs, exactly as UdtCc's slow start behaves.
class TcpStyleCc final : public CongestionControl {
 public:
  TcpStyleCc(std::unique_ptr<cc::TcpCongAvoid> strategy, const CcConfig& cfg)
      : cfg_(cfg),
        strategy_(std::move(strategy)),
        name_(strategy_->name()),
        ssthresh_(cfg.max_window) {}

  void set_now(double now_s) override { now_s_ = now_s; }

  void on_ack(const cc::AckInfo& info) override {
    if (info.rtt_s > 0.0) {
      srtt_ = srtt_ <= 0.0 ? info.rtt_s : srtt_ * 0.875 + info.rtt_s * 0.125;
      base_rtt_ = std::min(base_rtt_, info.rtt_s);
    }
    avail_ = info.avail_buffer_pkts;
    const std::int32_t acked =
        ack_seen_ ? udtr::SeqNo::offset(last_ack_seq_, info.ack_seq) : 1;
    last_ack_seq_ = info.ack_seq;
    ack_seen_ = true;
    if (acked <= 0) return;  // host gates these out; keep the belt anyway

    if (slow_start_) {
      cwnd_ += acked;
      if (cwnd_ >= ssthresh_) slow_start_ = false;
    } else {
      cc::CaContext ctx;
      ctx.srtt_s = srtt_;
      ctx.base_rtt_s = base_rtt_ < std::numeric_limits<double>::max()
                           ? base_rtt_
                           : 0.0;
      const double next = strategy_->wants_context()
                              ? strategy_->on_ack_ctx(cwnd_, ctx)
                              : strategy_->on_ack(cwnd_);
      // One strategy step is the per-segment-ACK update; this cumulative
      // ACK stands for `acked` of them.
      cwnd_ += (next - cwnd_) * acked;
    }
    cwnd_ = std::clamp(cwnd_, 2.0, cfg_.max_window);
  }

  void on_nak(udtr::SeqNo biggest_loss, udtr::SeqNo largest_sent) override {
    // One multiplicative decrease per congestion event: a NAK naming only
    // packets sent before the previous decrease is the same loss burst
    // still being repaired, not a new signal (§6's continuous-loss lesson,
    // same rule as UdtCc's epoch tracking).
    const bool new_event =
        !any_decrease_ || udtr::SeqNo::cmp(biggest_loss, last_dec_seq_) > 0;
    if (!new_event) return;
    any_decrease_ = true;
    last_dec_seq_ = largest_sent;
    slow_start_ = false;
    cwnd_ = std::max(strategy_->on_loss(cwnd_), 2.0);
    ssthresh_ = cwnd_;
  }

  void on_timeout() override {
    // RTO semantics: collapse to a minimal window and slow-start back up to
    // half the pre-timeout window.
    ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
    cwnd_ = 2.0;
    slow_start_ = true;
  }

  void on_delay_warning() override {
    // Early (pre-loss) congestion signal: one mild decrease per RTT.
    const double rtt = last_rtt_s();
    if (last_delay_warn_s_ >= 0.0 && now_s_ - last_delay_warn_s_ < rtt) return;
    last_delay_warn_s_ = now_s_;
    cwnd_ = std::max(cwnd_ * 0.875, 2.0);
  }

  [[nodiscard]] double pkt_send_period_s() const override {
    if (srtt_ <= 0.0) return 1e-6;  // window-limited until an RTT exists
    return std::clamp(srtt_ / std::max(cwnd_, 1.0), 1e-9, 10.0);
  }
  [[nodiscard]] double window_packets() const override {
    const double w = std::min(cwnd_, cfg_.max_window);
    return cfg_.window_control ? std::min(w, avail_) : w;
  }
  [[nodiscard]] double last_rtt_s() const override {
    return srtt_ > 0.0 ? srtt_ : 0.1;
  }
  [[nodiscard]] const char* name() const override { return name_.c_str(); }

 private:
  CcConfig cfg_;
  std::unique_ptr<cc::TcpCongAvoid> strategy_;
  std::string name_;
  double cwnd_ = 16.0;
  double ssthresh_;
  bool slow_start_ = true;
  double srtt_ = 0.0;
  double base_rtt_ = std::numeric_limits<double>::max();
  double avail_ = 1e9;
  udtr::SeqNo last_ack_seq_{};
  bool ack_seen_ = false;
  udtr::SeqNo last_dec_seq_{};
  bool any_decrease_ = false;
  double now_s_ = 0.0;
  double last_delay_warn_s_ = -1.0;
};

}  // namespace

std::unique_ptr<CongestionControl> make_congestion(const std::string& name,
                                                   const CcConfig& cfg) {
  if (name.empty() || name == "udt") {
    return std::make_unique<UdtNativeCc>(cfg);
  }
  for (const std::string& known : congestion_names()) {
    if (name == known && name != "udt") {
      return std::make_unique<TcpStyleCc>(cc::make_cong_avoid(name), cfg);
    }
  }
  return nullptr;
}

const std::vector<std::string>& congestion_names() {
  static const std::vector<std::string> names{
      "udt", "reno-sack", "scalable", "highspeed", "bic", "vegas", "fast"};
  return names;
}

}  // namespace udtr::udt
