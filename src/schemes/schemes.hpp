#pragma once
// The routing schemes evaluated in the paper (§6.1 "Schemes"):
//
//  * ShortestPathScheme    -- non-atomic shortest-path baseline;
//  * MaxFlowScheme         -- atomic max-flow (Ford-Fulkerson) baseline;
//  * SilentWhispersScheme  -- atomic landmark routing [18];
//  * SpeedyMurmursScheme   -- atomic embedding-based routing [25];
//  * WaterfillingScheme    -- Spider (Waterfilling), §5.3.1;
//  * SpiderLpScheme        -- Spider (LP), solves eq. (1) once on the
//                             long-term demand estimate;
//  * SpiderPrimalDualScheme-- Spider variant weighting paths by the
//                             decentralized primal-dual solution (§5.3).
//
// SilentWhispers and SpeedyMurmurs are re-implementations from their
// papers' algorithms (landmark-centred multipath; spanning-tree prefix
// embeddings with greedy forwarding); protocol-level
// cryptography/privacy machinery is out of evaluation scope.

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "schemes/path_cache.hpp"
#include "sim/packet_sim.hpp"
#include "sim/scheme.hpp"

namespace spider::schemes {

using sim::RouteChoice;
using sim::RoutingScheme;

/// Non-atomic single shortest path; remainder retried via global queue.
class ShortestPathScheme final : public RoutingScheme {
 public:
  [[nodiscard]] std::string name() const override { return "shortest-path"; }
  [[nodiscard]] bool atomic() const override { return false; }
  void prepare(const graph::Graph& g, const std::vector<core::Amount>&,
               const fluid::PaymentGraph&, double) override;
  [[nodiscard]] std::vector<RouteChoice> route(
      const core::PaymentRequest& req, core::Amount remaining,
      const core::ChannelNetwork& net, core::TimePoint now) override;

 private:
  PathCache cache_;
};

/// Atomic max-flow routing: per transaction, compute a max flow over
/// current balances (capped at the amount); succeed iff it covers the
/// full amount, sending along the flow's path decomposition.
class MaxFlowScheme final : public RoutingScheme {
 public:
  [[nodiscard]] std::string name() const override { return "max-flow"; }
  [[nodiscard]] bool atomic() const override { return true; }
  [[nodiscard]] std::vector<RouteChoice> route(
      const core::PaymentRequest& req, core::Amount remaining,
      const core::ChannelNetwork& net, core::TimePoint now) override;
};

/// Spider (Waterfilling): split over k edge-disjoint shortest paths,
/// pouring into the paths with the most available capacity first.
class WaterfillingScheme final : public RoutingScheme {
 public:
  /// `mode` picks the path-set construction (§5.3.1 leaves "the best way
  /// to select the paths" open): edge-disjoint shortest (paper default)
  /// or Yen k-shortest (paths may overlap and share bottlenecks).
  explicit WaterfillingScheme(std::size_t k = 4,
                              PathMode mode = PathMode::kEdgeDisjoint)
      : k_(k), mode_(mode) {}
  [[nodiscard]] std::string name() const override {
    return "spider-waterfilling";
  }
  [[nodiscard]] bool atomic() const override { return false; }
  void prepare(const graph::Graph& g, const std::vector<core::Amount>&,
               const fluid::PaymentGraph&, double) override;
  [[nodiscard]] std::vector<RouteChoice> route(
      const core::PaymentRequest& req, core::Amount remaining,
      const core::ChannelNetwork& net, core::TimePoint now) override;

 private:
  std::size_t k_;
  PathMode mode_;
  PathCache cache_;
};

/// Spider (Waterfilling) with stale probes: path capacities are refreshed
/// only every `refresh_interval` seconds instead of being read live.
/// Models the probing overhead §5.3.1 worries about ("so that the
/// overhead of probing the path conditions is not too high"): the bench
/// sweeps the interval to show how much freshness imbalance-aware
/// routing actually needs.
class StaleWaterfillingScheme final : public RoutingScheme {
 public:
  explicit StaleWaterfillingScheme(std::size_t k = 4,
                                   double refresh_interval = 1.0)
      : k_(k), refresh_interval_(refresh_interval) {}
  [[nodiscard]] std::string name() const override {
    return "spider-waterfilling-stale";
  }
  [[nodiscard]] bool atomic() const override { return false; }
  void prepare(const graph::Graph& g, const std::vector<core::Amount>&,
               const fluid::PaymentGraph&, double) override;
  [[nodiscard]] std::vector<RouteChoice> route(
      const core::PaymentRequest& req, core::Amount remaining,
      const core::ChannelNetwork& net, core::TimePoint now) override;

 private:
  struct Snapshot {
    core::TimePoint taken = -1e18;
    std::vector<core::Amount> capacities;  // per cached path
  };

  std::size_t k_;
  double refresh_interval_;
  PathCache cache_;
  std::map<std::pair<graph::NodeId, graph::NodeId>, Snapshot> snapshots_;
};

/// Spider (LP): solves the fluid LP (eq. 1-5) once against the long-term
/// demand estimate and splits every payment across its paths in
/// proportion to the optimal path rates. Pairs assigned zero LP rate are
/// never attempted (a drawback the paper reports and we reproduce).
class SpiderLpScheme final : public RoutingScheme {
 public:
  explicit SpiderLpScheme(std::size_t k = 4) : k_(k) {}
  [[nodiscard]] std::string name() const override { return "spider-lp"; }
  [[nodiscard]] bool atomic() const override { return false; }
  void prepare(const graph::Graph& g,
               const std::vector<core::Amount>& edge_capacity,
               const fluid::PaymentGraph& demand_estimate,
               double delta) override;
  [[nodiscard]] std::vector<RouteChoice> route(
      const core::PaymentRequest& req, core::Amount remaining,
      const core::ChannelNetwork& net, core::TimePoint now) override;

 private:
  std::size_t k_;
  /// Per pair: (path, weight) with weights summing to <= 1.
  std::map<std::pair<graph::NodeId, graph::NodeId>,
           std::vector<std::pair<graph::Path, double>>>
      weights_;
};

/// Spider variant: like SpiderLpScheme but weights come from the
/// decentralized primal-dual algorithm instead of the centralized LP.
class SpiderPrimalDualScheme final : public RoutingScheme {
 public:
  explicit SpiderPrimalDualScheme(std::size_t k = 4,
                                  std::size_t iterations = 4000)
      : k_(k), iterations_(iterations) {}
  [[nodiscard]] std::string name() const override {
    return "spider-primal-dual";
  }
  [[nodiscard]] bool atomic() const override { return false; }
  void prepare(const graph::Graph& g,
               const std::vector<core::Amount>& edge_capacity,
               const fluid::PaymentGraph& demand_estimate,
               double delta) override;
  [[nodiscard]] std::vector<RouteChoice> route(
      const core::PaymentRequest& req, core::Amount remaining,
      const core::ChannelNetwork& net, core::TimePoint now) override;

 private:
  std::size_t k_;
  std::size_t iterations_;
  std::map<std::pair<graph::NodeId, graph::NodeId>,
           std::vector<std::pair<graph::Path, double>>>
      weights_;
};

/// Spider-cc (NSDI journal version, arXiv:1809.05088 §5): per-path
/// AIMD windows driven by one-bit router queue-delay marking. The
/// protocol is packet-level by nature -- windows pace individual
/// transaction units against marks stamped by routers en route -- so
/// the real dynamics live in sim::PacketSimulator (cc_mode ==
/// kSpiderCc) and exp::run_trial dispatches "spider-cc" trials there
/// (see packet_backed_scheme). This registry entry makes the name a
/// first-class citizen of every scheme surface (make_scheme, sweep
/// grids, CLI flags); when instantiated against the *flow* simulator
/// it degrades to waterfilling over the same k candidate paths, the
/// closest fluid approximation of where open windows steer units.
class SpiderCcScheme final : public RoutingScheme {
 public:
  explicit SpiderCcScheme(std::size_t k = 4) : inner_(k) {}
  [[nodiscard]] std::string name() const override { return "spider-cc"; }
  [[nodiscard]] bool atomic() const override { return false; }
  void prepare(const graph::Graph& g,
               const std::vector<core::Amount>& edge_capacity,
               const fluid::PaymentGraph& demand_estimate,
               double delta) override;
  [[nodiscard]] std::vector<RouteChoice> route(
      const core::PaymentRequest& req, core::Amount remaining,
      const core::ChannelNetwork& net, core::TimePoint now) override;

 private:
  WaterfillingScheme inner_;
};

/// SilentWhispers-style landmark routing: payments split across paths
/// through `landmark_count` highest-degree landmarks; atomic.
class SilentWhispersScheme final : public RoutingScheme {
 public:
  explicit SilentWhispersScheme(std::size_t landmark_count = 3)
      : landmark_count_(landmark_count) {}
  [[nodiscard]] std::string name() const override {
    return "silent-whispers";
  }
  [[nodiscard]] bool atomic() const override { return true; }
  void prepare(const graph::Graph& g, const std::vector<core::Amount>&,
               const fluid::PaymentGraph&, double) override;
  [[nodiscard]] std::vector<RouteChoice> route(
      const core::PaymentRequest& req, core::Amount remaining,
      const core::ChannelNetwork& net, core::TimePoint now) override;

  /// Landmarks chosen at prepare() (exposed for tests).
  [[nodiscard]] const std::vector<graph::NodeId>& landmarks() const {
    return landmarks_;
  }

 private:
  std::size_t landmark_count_;
  std::vector<graph::NodeId> landmarks_;
  const graph::Graph* graph_ = nullptr;  // bound at prepare()
  graph::PathFinder finder_;  // reusable scratch for the splice BFSes
  /// Cached landmark-spliced trails per pair.
  std::map<std::pair<graph::NodeId, graph::NodeId>,
           std::vector<graph::Path>>
      cache_;
};

/// SpeedyMurmurs-style embedding routing: `tree_count` BFS spanning
/// trees give prefix embeddings; each share forwards greedily to the
/// neighbour closest to the destination in its tree's metric, requiring
/// strictly decreasing distance and sufficient balance; atomic.
class SpeedyMurmursScheme final : public RoutingScheme {
 public:
  explicit SpeedyMurmursScheme(std::size_t tree_count = 3,
                               std::uint64_t seed = 7)
      : tree_count_(tree_count), seed_(seed) {}
  [[nodiscard]] std::string name() const override {
    return "speedy-murmurs";
  }
  [[nodiscard]] bool atomic() const override { return true; }
  void prepare(const graph::Graph& g, const std::vector<core::Amount>&,
               const fluid::PaymentGraph&, double) override;
  [[nodiscard]] std::vector<RouteChoice> route(
      const core::PaymentRequest& req, core::Amount remaining,
      const core::ChannelNetwork& net, core::TimePoint now) override;

  /// Tree distance between u and v in tree t (exposed for tests).
  [[nodiscard]] std::size_t tree_distance(std::size_t t, graph::NodeId u,
                                          graph::NodeId v) const;

 private:
  struct Tree {
    std::vector<graph::NodeId> parent;
    std::vector<std::uint32_t> depth;
  };

  std::size_t tree_count_;
  std::uint64_t seed_;
  const graph::Graph* graph_ = nullptr;
  std::vector<Tree> trees_;
};

/// Creates a scheme by evaluation name ("shortest-path", "max-flow",
/// "silent-whispers", "speedy-murmurs", "spider-waterfilling",
/// "spider-lp", "spider-primal-dual", "spider-cc"); throws on unknown
/// names.
[[nodiscard]] std::unique_ptr<RoutingScheme> make_scheme(
    const std::string& name);

/// All evaluation scheme names in the paper's Fig. 6 order.
[[nodiscard]] std::vector<std::string> all_scheme_names();

/// True for schemes whose dynamics require the packet-level simulator;
/// exp::run_trial routes such trials to sim::PacketSimulator instead of
/// the flow simulator. Currently "spider-cc" (AIMD windows + marking)
/// and "packet-widest" (the ungated per-unit waterfilling baseline:
/// every unit floods onto the widest candidate path immediately, with
/// congestion control off). The latter has no flow-sim registry entry
/// -- it exists so sweeps and benches can compare spider-cc against
/// its own substrate's baseline on paired traces.
[[nodiscard]] bool packet_backed_scheme(const std::string& name);

/// The PacketSimConfig defaults of a packet-backed scheme: congestion
/// control off for "packet-widest"; for "spider-cc", cc_mode kSpiderCc
/// with the scheme-level windows (initial 32, max 512, alpha 4) tuned
/// on the fig-6 grid (EXPERIMENTS.md). They are wider than the config
/// defaults because per-launch HTLC timeouts make window overshoot
/// recoverable: a too-aggressive launch refunds its locks and retries
/// instead of gridlocking the network. Throws std::invalid_argument on
/// any other name.
[[nodiscard]] sim::PacketSimConfig packet_scheme_config(
    const std::string& name);

}  // namespace spider::schemes
