// Window-growth strategies for the TCP comparators (paper §2.2, §5.2).
//
// The simulator's TCP agent implements connection mechanics (slow start,
// SACK-based recovery, retransmission timeout) once; the congestion-avoidance
// increase/decrease rule is pluggable so TCP SACK ("standard TCP" in the
// paper), Scalable TCP, HighSpeed TCP, Bic TCP, TCP Vegas and a FAST-style
// controller share the rest of the machinery.  The loss-only strategies are
// stateless; Bic keeps its search target, and the delay-aware ones (Vegas,
// FAST) take per-ACK RTT context through on_ack_ctx.
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

namespace udtr::cc {

// Per-ACK context the TCP sender provides to delay-aware strategies.
struct CaContext {
  double srtt_s = 0.0;      // smoothed RTT
  double base_rtt_s = 0.0;  // minimum observed RTT (propagation estimate)
};

class TcpCongAvoid {
 public:
  virtual ~TcpCongAvoid() = default;
  // Window growth applied per received ACK while in congestion avoidance.
  // `cwnd` is in packets; returns the new cwnd.
  [[nodiscard]] virtual double on_ack(double cwnd) const = 0;
  // Multiplicative decrease applied on entering loss recovery.
  [[nodiscard]] virtual double on_loss(double cwnd) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  // Delay-aware strategies (Vegas, FAST) override these to receive RTT
  // context; loss-only strategies keep the defaults.
  [[nodiscard]] virtual bool wants_context() const { return false; }
  [[nodiscard]] virtual double on_ack_ctx(double cwnd,
                                          const CaContext& /*ctx*/) const {
    return on_ack(cwnd);
  }
};

// Standard AIMD: +1 segment per RTT (1/cwnd per ACK), halve on loss.
class RenoCongAvoid final : public TcpCongAvoid {
 public:
  [[nodiscard]] double on_ack(double cwnd) const override {
    return cwnd + 1.0 / std::max(cwnd, 1.0);
  }
  [[nodiscard]] double on_loss(double cwnd) const override {
    return std::max(cwnd / 2.0, 2.0);
  }
  [[nodiscard]] std::string name() const override { return "reno-sack"; }
};

// Scalable TCP [Kelly 03]: MIMD — cwnd += 0.01 per ACK, cwnd *= 0.875 on
// loss, for cwnd above the legacy-TCP threshold.
class ScalableCongAvoid final : public TcpCongAvoid {
 public:
  explicit ScalableCongAvoid(double legacy_threshold = 16.0)
      : threshold_(legacy_threshold) {}
  [[nodiscard]] double on_ack(double cwnd) const override {
    if (cwnd < threshold_) return cwnd + 1.0 / std::max(cwnd, 1.0);
    return cwnd + 0.01;
  }
  [[nodiscard]] double on_loss(double cwnd) const override {
    if (cwnd < threshold_) return std::max(cwnd / 2.0, 2.0);
    return std::max(cwnd * 0.875, 2.0);
  }
  [[nodiscard]] std::string name() const override { return "scalable"; }

 private:
  double threshold_;
};

// HighSpeed TCP [RFC 3649]: a(w)/w per ACK, (1-b(w)) on loss, interpolated on
// a log scale between (W_low=38, 1, 0.5) and (W_high=83000, 72, 0.1).
class HighSpeedCongAvoid final : public TcpCongAvoid {
 public:
  [[nodiscard]] double on_ack(double cwnd) const override {
    return cwnd + a(cwnd) / std::max(cwnd, 1.0);
  }
  [[nodiscard]] double on_loss(double cwnd) const override {
    return std::max(cwnd * (1.0 - b(cwnd)), 2.0);
  }
  [[nodiscard]] std::string name() const override { return "highspeed"; }

  // Exposed for unit tests against the RFC's reference values.
  [[nodiscard]] static double a(double w) {
    if (w <= kWLow) return 1.0;
    const double bw = b(w);
    // RFC 3649 section 5: a(w) = w^2 * p(w) * 2 * b(w) / (2 - b(w)).
    return (w * w * p(w) * 2.0 * bw) / (2.0 - bw);
  }
  [[nodiscard]] static double b(double w) {
    if (w <= kWLow) return 0.5;
    const double f = (std::log(w) - std::log(kWLow)) /
                     (std::log(kWHigh) - std::log(kWLow));
    return (kBHigh - 0.5) * f + 0.5;
  }

 private:
  [[nodiscard]] static double p(double w) {
    // Response-function inverse: p(w) on the straight line (in log-log space)
    // through (W_low, P_low) and (W_high, P_high).
    const double s = (std::log(kPHigh) - std::log(kPLow)) /
                     (std::log(kWHigh) - std::log(kWLow));
    return std::exp(std::log(kPLow) + s * (std::log(w) - std::log(kWLow)));
  }
  static constexpr double kWLow = 38.0;
  static constexpr double kWHigh = 83000.0;
  static constexpr double kPLow = 1.5 / (kWLow * kWLow);
  static constexpr double kPHigh = 1e-7;  // ~ 10^-7 at W_high
  static constexpr double kBHigh = 0.1;
};

// Bic TCP [Xu/Harfoush/Rhee 04]: binary search toward the window where the
// last loss occurred, additive "max probing" above it.  The paper credits
// it with fast probing without worsening TCP's RTT bias.
class BicCongAvoid final : public TcpCongAvoid {
 public:
  [[nodiscard]] double on_ack(double cwnd) const override {
    // Per-ACK growth of inc(cwnd)/cwnd, where inc is the per-RTT step.
    double inc;
    if (have_max_ && cwnd < last_max_) {
      const double dist = (last_max_ - cwnd) / 2.0;  // binary search step
      inc = std::clamp(dist, kSmin, kSmax);
    } else {
      // Max probing: slow-start-like ramp away from the old maximum.
      inc = std::min(kSmax, 1.0 + (have_max_ ? (cwnd - last_max_) / 16.0
                                             : 1.0));
    }
    return cwnd + inc / std::max(cwnd, 1.0);
  }
  [[nodiscard]] double on_loss(double cwnd) const override {
    // Fast convergence: a loss below the previous maximum means another
    // flow is competing — concede by lowering the search target.
    if (have_max_ && cwnd < last_max_) {
      last_max_ = cwnd * (2.0 - kBeta) / 2.0;
    } else {
      last_max_ = cwnd;
    }
    have_max_ = true;
    return std::max(cwnd * (1.0 - kBeta), 2.0);
  }
  [[nodiscard]] std::string name() const override { return "bic"; }

 private:
  static constexpr double kSmin = 0.01;
  static constexpr double kSmax = 32.0;
  static constexpr double kBeta = 0.125;
  mutable double last_max_ = 0.0;  // window at the last loss event
  mutable bool have_max_ = false;
};

// TCP Vegas [Brakmo/Peterson 95]: keep alpha..beta packets queued, using
// delay as the congestion signal (paper §2.2: "use delay instead of loss as
// the main indication of congestion").
class VegasCongAvoid final : public TcpCongAvoid {
 public:
  explicit VegasCongAvoid(double alpha = 2.0, double beta = 4.0)
      : alpha_(alpha), beta_(beta) {}

  [[nodiscard]] bool wants_context() const override { return true; }

  [[nodiscard]] double on_ack_ctx(double cwnd,
                                  const CaContext& ctx) const override {
    if (ctx.base_rtt_s <= 0.0 || ctx.srtt_s <= 0.0) {
      return cwnd + 1.0 / std::max(cwnd, 1.0);  // no estimate yet: Reno
    }
    // Backlog estimate: packets we keep in the queue.
    const double diff =
        cwnd * (1.0 - ctx.base_rtt_s / ctx.srtt_s);
    if (diff < alpha_) return cwnd + 1.0 / std::max(cwnd, 1.0);
    if (diff > beta_) return std::max(cwnd - 1.0 / std::max(cwnd, 1.0), 2.0);
    return cwnd;
  }
  [[nodiscard]] double on_ack(double cwnd) const override {
    return cwnd + 1.0 / std::max(cwnd, 1.0);
  }
  [[nodiscard]] double on_loss(double cwnd) const override {
    return std::max(cwnd / 2.0, 2.0);
  }
  [[nodiscard]] std::string name() const override { return "vegas"; }

 private:
  double alpha_;
  double beta_;
};

// FAST-style controller [Jin/Wei/Low 04]: the equation-based window update
//   w <- min(2w, (1-g) w + g (base/rtt * w + alpha))
// applied fractionally per ACK.  `alpha` is the manually configured
// parameter the paper calls FAST's main deficiency (§5.2).
class FastCongAvoid final : public TcpCongAvoid {
 public:
  explicit FastCongAvoid(double alpha_pkts = 200.0, double gamma = 0.5)
      : alpha_(alpha_pkts), gamma_(gamma) {}

  [[nodiscard]] bool wants_context() const override { return true; }

  [[nodiscard]] double on_ack_ctx(double cwnd,
                                  const CaContext& ctx) const override {
    if (ctx.base_rtt_s <= 0.0 || ctx.srtt_s <= 0.0) {
      return cwnd + 1.0 / std::max(cwnd, 1.0);
    }
    const double target =
        ctx.base_rtt_s / ctx.srtt_s * cwnd + alpha_;
    const double next = std::min(
        2.0 * cwnd, (1.0 - gamma_) * cwnd + gamma_ * target);
    // The update above is the once-per-RTT map; apply 1/cwnd of it per ACK.
    return std::max(cwnd + (next - cwnd) / std::max(cwnd, 1.0), 2.0);
  }
  [[nodiscard]] double on_ack(double cwnd) const override {
    return cwnd + 1.0 / std::max(cwnd, 1.0);
  }
  [[nodiscard]] double on_loss(double cwnd) const override {
    return std::max(cwnd / 2.0, 2.0);
  }
  [[nodiscard]] std::string name() const override { return "fast"; }

 private:
  double alpha_;
  double gamma_;
};

[[nodiscard]] std::unique_ptr<TcpCongAvoid> make_cong_avoid(
    const std::string& name);

}  // namespace udtr::cc
