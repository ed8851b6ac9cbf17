#include "cc/tcp_cavoid.hpp"

#include <stdexcept>

namespace udtr::cc {

std::unique_ptr<TcpCongAvoid> make_cong_avoid(const std::string& name) {
  if (name == "reno-sack" || name == "reno" || name == "sack") {
    return std::make_unique<RenoCongAvoid>();
  }
  if (name == "scalable") return std::make_unique<ScalableCongAvoid>();
  if (name == "highspeed") return std::make_unique<HighSpeedCongAvoid>();
  if (name == "bic") return std::make_unique<BicCongAvoid>();
  if (name == "vegas") return std::make_unique<VegasCongAvoid>();
  if (name == "fast") return std::make_unique<FastCongAvoid>();
  throw std::invalid_argument("unknown TCP congestion avoidance: " + name);
}

}  // namespace udtr::cc
