// google-benchmark micro-benchmarks of the substrates: path finding,
// max-flow, the simplex solver, circulation decomposition, waterfilling,
// the event queue, and end-to-end flow-simulation throughput. These bound
// the per-transaction routing overhead the paper discusses (§3: max-flow
// is O(V * E^2) per transaction; Spider's path probing is much cheaper).

#include <benchmark/benchmark.h>

#include <random>

#include "fluid/circulation.hpp"
#include "fluid/throughput.hpp"
#include "graph/maxflow.hpp"
#include "graph/paths.hpp"
#include "graph/topology.hpp"
#include "lp/lp.hpp"
#include "routing/waterfilling.hpp"
#include "schemes/schemes.hpp"
#include "sim/event_queue.hpp"
#include "sim/flow_sim.hpp"
#include "workload/workload.hpp"

namespace {

using namespace spider;

void BM_BfsShortestPath_Isp32(benchmark::State& state) {
  const graph::Graph g = graph::topology::make_isp32();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::bfs_shortest_path(g, 9, 30));
  }
}
BENCHMARK(BM_BfsShortestPath_Isp32);

void BM_EdgeDisjointPaths_Isp32(benchmark::State& state) {
  const graph::Graph g = graph::topology::make_isp32();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::edge_disjoint_shortest_paths(g, 9, 30, 4));
  }
}
BENCHMARK(BM_EdgeDisjointPaths_Isp32);

void BM_YenKShortest(benchmark::State& state) {
  const graph::Graph g = graph::topology::make_isp32();
  const auto k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::yen_k_shortest_paths(g, 9, 30, k));
  }
}
BENCHMARK(BM_YenKShortest)->Arg(2)->Arg(4)->Arg(8);

// --- CSR + PathFinder variants of the hot queries: same algorithms on
// the frozen arena with reusable scratch. The gap to the legacy
// adjacency-list benchmarks above is the substrate win; Yen in
// particular used to re-allocate its candidate set and blocked-edge
// mask per spur, quadratic in k.

void BM_CsrBfsShortestPath_Isp32(benchmark::State& state) {
  const graph::CsrGraph g{graph::topology::make_isp32()};
  graph::PathFinder finder;
  for (auto _ : state) {
    benchmark::DoNotOptimize(finder.bfs_shortest(g, 9, 30));
  }
}
BENCHMARK(BM_CsrBfsShortestPath_Isp32);

void BM_CsrEdgeDisjointPaths_Isp32(benchmark::State& state) {
  const graph::CsrGraph g{graph::topology::make_isp32()};
  graph::PathFinder finder;
  for (auto _ : state) {
    benchmark::DoNotOptimize(finder.edge_disjoint(g, 9, 30, 4));
  }
}
BENCHMARK(BM_CsrEdgeDisjointPaths_Isp32);

void BM_CsrYenKShortest(benchmark::State& state) {
  const graph::CsrGraph g{graph::topology::make_isp32()};
  graph::PathFinder finder;
  const auto k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(finder.yen(g, 9, 30, k));
  }
}
BENCHMARK(BM_CsrYenKShortest)->Arg(2)->Arg(4)->Arg(8);

void BM_CsrFreeze(benchmark::State& state) {
  const graph::Graph g = graph::topology::make_ripple_like(
      static_cast<std::size_t>(state.range(0)), 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::CsrGraph{g});
  }
}
BENCHMARK(BM_CsrFreeze)->Arg(400)->Arg(3774);

void BM_MaxFlow(benchmark::State& state) {
  const graph::Graph g = graph::topology::make_ripple_like(
      static_cast<std::size_t>(state.range(0)), 3);
  const std::vector<double> caps(g.arc_count(), 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::max_flow(
        g, 0, static_cast<graph::NodeId>(g.node_count() - 1), caps));
  }
}
BENCHMARK(BM_MaxFlow)->Arg(32)->Arg(128)->Arg(512);

void BM_MaxFlowWithLimit_PerTransaction(benchmark::State& state) {
  // The per-transaction cost the max-flow baseline pays (§3).
  const graph::Graph g = graph::topology::make_isp32();
  const std::vector<double> caps(g.arc_count(), 1500.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::max_flow(g, 9, 30, caps, 170.0));
  }
}
BENCHMARK(BM_MaxFlowWithLimit_PerTransaction);

void BM_SimplexFluidLp(benchmark::State& state) {
  const graph::Graph g = graph::topology::make_isp32();
  const workload::Trace trace = workload::generate_trace(
      g, workload::isp_workload(static_cast<std::size_t>(state.range(0)),
                                50.0, 3));
  const fluid::PaymentGraph demand =
      workload::estimate_demand(g.node_count(), trace, 50.0);
  const fluid::PathSet paths = fluid::edge_disjoint_path_set(g, demand, 4);
  const std::vector<double> caps(g.edge_count(), 3000.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fluid::solve_path_lp(g, caps, demand, paths));
  }
}
BENCHMARK(BM_SimplexFluidLp)->Arg(200)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_MaxCirculation(benchmark::State& state) {
  constexpr std::uint64_t kDemandSeed = 7;  // fixed bench workload seed
  std::mt19937_64 rng(kDemandSeed);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  fluid::PaymentGraph h(n);
  std::uniform_real_distribution<double> rate(0.5, 4.0);
  std::bernoulli_distribution has(0.25);
  for (graph::NodeId i = 0; i < n; ++i) {
    for (graph::NodeId j = 0; j < n; ++j) {
      if (i != j && has(rng)) h.set_demand(i, j, rate(rng));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fluid::max_circulation(h));
  }
}
BENCHMARK(BM_MaxCirculation)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_Waterfill(benchmark::State& state) {
  std::vector<double> caps{120, 80, 33, 190};
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::waterfill(caps, 250.0));
  }
}
BENCHMARK(BM_Waterfill);

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    q.set_dispatcher([](void*, sim::EventKind, std::uint64_t, std::uint64_t) {},
                     nullptr);
    for (int i = 0; i < 1000; ++i) {
      q.schedule_typed(static_cast<double>((i * 7919) % 1000),
                       sim::EventKind::kArrival);
    }
    q.run_all();
    benchmark::DoNotOptimize(q.processed());
  }
}
BENCHMARK(BM_EventQueueChurn);

void BM_FlowSimThroughput(benchmark::State& state) {
  const graph::Graph g = graph::topology::make_isp32();
  const workload::Trace trace =
      workload::generate_trace(g, workload::isp_workload(2000, 20.0, 9));
  for (auto _ : state) {
    schemes::WaterfillingScheme scheme(4);
    sim::FlowSimConfig cfg;
    cfg.end_time = 20.0;
    sim::FlowSimulator fs(
        g, std::vector<core::Amount>(g.edge_count(), core::from_units(3000)),
        scheme, cfg);
    for (const workload::Transaction& tx : trace) {
      core::PaymentRequest req;
      req.src = tx.src;
      req.dst = tx.dst;
      req.amount = tx.amount;
      req.arrival = tx.arrival;
      fs.add_payment(req);
    }
    benchmark::DoNotOptimize(fs.run(fluid::PaymentGraph(g.node_count())));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2000);
}
BENCHMARK(BM_FlowSimThroughput)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
