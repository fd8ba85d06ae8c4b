// Spider-cc registry entry. The AIMD/marking protocol itself lives in
// sim::PacketSimulator (CongestionControlMode::kSpiderCc) and
// core::Router (one-bit queue-delay marking); this scheme object exists
// so "spider-cc" participates in every name-driven surface (factory,
// sweep grids, CLI) and has a sane flow-simulator fallback.

#include "schemes/schemes.hpp"

#include <stdexcept>

namespace spider::schemes {

void SpiderCcScheme::prepare(const graph::Graph& g,
                             const std::vector<core::Amount>& edge_capacity,
                             const fluid::PaymentGraph& demand_estimate,
                             double delta) {
  inner_.prepare(g, edge_capacity, demand_estimate, delta);
}

std::vector<RouteChoice> SpiderCcScheme::route(
    const core::PaymentRequest& req, core::Amount remaining,
    const core::ChannelNetwork& net, core::TimePoint now) {
  // Flow-level approximation: waterfilling pours into the candidate
  // paths with the most spare capacity, which is where spider-cc's
  // unmarked (open) windows would steer units. The packet-level run
  // (exp::run_trial on "spider-cc") exercises the real protocol.
  return inner_.route(req, remaining, net, now);
}

bool packet_backed_scheme(const std::string& name) {
  return name == "spider-cc" || name == "packet-widest";
}

sim::PacketSimConfig packet_scheme_config(const std::string& name) {
  sim::PacketSimConfig cfg;
  if (name == "spider-cc") {
    cfg.cc_mode = sim::CongestionControlMode::kSpiderCc;
    cfg.cc_initial_window = 32.0;
    cfg.cc_max_window = 512.0;
    cfg.cc_alpha = 4.0;
  } else if (name != "packet-widest") {
    throw std::invalid_argument("unknown packet-backed scheme " + name);
  }
  return cfg;
}

}  // namespace spider::schemes
