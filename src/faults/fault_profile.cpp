#include "faults/fault_profile.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/parse.hpp"

namespace spider::faults {

namespace {

double parse_double(const std::string& key, const std::string& val) {
  return core::require_number<double>(val,
                                      "parse_profile: bad value for " + key);
}

std::uint64_t parse_seed(const std::string& val) {
  return core::require_number<std::uint64_t>(val, "parse_profile: bad seed");
}

/// One Poisson process of fault starts: exponential inter-arrival gaps
/// at `rate`, each event aimed at a uniform target in [0, targets)
/// -- or, when `pool` is given, a uniform draw from the pool -- with an
/// exponential duration of the given mean. Each schedule draws from its
/// own engine (seed xor a per-schedule salt index), so enabling one
/// schedule never perturbs another's; the original four kinds keep
/// salt index kind+1 (stream-identical to every prior release), and
/// targeted hub outages get a salt of their own even though they emit
/// kNodeDown events.
void emit_poisson(FaultPlan& plan, FaultKind kind, double rate,
                  double mean_duration, std::uint32_t targets, double horizon,
                  std::uint64_t seed, std::uint64_t salt_index,
                  const std::vector<std::uint32_t>* pool = nullptr,
                  double magnitude = 0.0) {
  if (pool != nullptr) targets = static_cast<std::uint32_t>(pool->size());
  if (rate <= 0 || targets == 0 || horizon <= 0) return;
  if (mean_duration <= 0 && kind != FaultKind::kChannelClose) {
    throw std::invalid_argument(
        "generate_plan: non-positive mean duration for " + to_string(kind));
  }
  std::mt19937_64 rng(seed ^ (0x5bd1e995ull * salt_index));
  std::exponential_distribution<double> gap(rate);
  std::uniform_int_distribution<std::uint32_t> pick(0, targets - 1);
  std::exponential_distribution<double> dur(
      mean_duration > 0 ? 1.0 / mean_duration : 1.0);
  for (double t = gap(rng); t < horizon; t += gap(rng)) {
    FaultEvent ev;
    ev.time = t;
    ev.kind = kind;
    ev.target = kind == FaultKind::kProbeStale
                    ? 0
                    : (pool != nullptr ? (*pool)[pick(rng)] : pick(rng));
    ev.duration = kind == FaultKind::kChannelClose ? 0.0 : dur(rng);
    ev.magnitude = kind == FaultKind::kJam ? magnitude : 0.0;
    plan.add(ev);
  }
}

}  // namespace

std::vector<std::uint32_t> top_degree_nodes(const graph::Graph& g,
                                            std::uint32_t k) {
  std::vector<std::uint32_t> nodes(g.node_count());
  for (std::uint32_t v = 0; v < nodes.size(); ++v) nodes[v] = v;
  std::sort(nodes.begin(), nodes.end(),
            [&g](std::uint32_t a, std::uint32_t b) {
              const std::size_t da = g.out_arcs(a).size();
              const std::size_t db = g.out_arcs(b).size();
              if (da != db) return da > db;
              return a < b;
            });
  if (nodes.size() > k) nodes.resize(k);
  return nodes;
}

FaultPlan generate_plan(const FaultProfile& p, const graph::Graph& g) {
  if (p.horizon <= 0 && !p.quiet()) {
    throw std::invalid_argument("generate_plan: profile horizon not set");
  }
  FaultPlan plan;
  const auto salt_of = [](FaultKind k) {
    return static_cast<std::uint64_t>(k) + 1;
  };
  emit_poisson(plan, FaultKind::kNodeDown, p.node_churn_rate, p.mean_downtime,
               static_cast<std::uint32_t>(g.node_count()), p.horizon, p.seed,
               salt_of(FaultKind::kNodeDown));
  emit_poisson(plan, FaultKind::kChannelClose, p.channel_close_rate, 0.0,
               static_cast<std::uint32_t>(g.edge_count()), p.horizon, p.seed,
               salt_of(FaultKind::kChannelClose));
  emit_poisson(plan, FaultKind::kWithhold, p.withhold_rate, p.mean_withhold,
               static_cast<std::uint32_t>(g.node_count()), p.horizon, p.seed,
               salt_of(FaultKind::kWithhold));
  emit_poisson(plan, FaultKind::kProbeStale, p.stale_rate, p.mean_stale, 1,
               p.horizon, p.seed, salt_of(FaultKind::kProbeStale));
  emit_poisson(plan, FaultKind::kJam, p.jam_rate, p.mean_jam,
               static_cast<std::uint32_t>(g.edge_count()), p.horizon, p.seed,
               salt_of(FaultKind::kJam), nullptr, p.jam_frac);
  if (p.grief_rate > 0) {
    const std::vector<std::uint32_t> pool = top_degree_nodes(g, p.grief_hubs);
    emit_poisson(plan, FaultKind::kGrief, p.grief_rate, p.mean_grief, 0,
                 p.horizon, p.seed, salt_of(FaultKind::kGrief), &pool);
  }
  if (p.hub_outage_rate > 0) {
    // Hub outages are kNodeDown events over the top-degree pool; their
    // salt index is one past kGrief so they never share a stream with
    // background churn.
    const std::vector<std::uint32_t> pool = top_degree_nodes(g, p.hubs);
    emit_poisson(plan, FaultKind::kNodeDown, p.hub_outage_rate,
                 p.mean_hub_down, 0, p.horizon, p.seed,
                 salt_of(FaultKind::kGrief) + 1, &pool);
  }
  plan.normalize();
  plan.validate(g);
  return plan;
}

FaultProfile parse_profile(const std::string& spec) {
  FaultProfile p;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    // ',' and ';' both separate items; ';' lets a spec ride inside a
    // CSV cell (exp::sweep_report_csv) without quoting.
    std::size_t end = spec.find_first_of(",;", pos);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("parse_profile: expected key=value, got " +
                                  item);
    }
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    if (key == "seed") {
      p.seed = parse_seed(val);
    } else if (key == "horizon") {
      p.horizon = parse_double(key, val);
    } else if (key == "churn") {
      p.node_churn_rate = parse_double(key, val);
    } else if (key == "downtime") {
      p.mean_downtime = parse_double(key, val);
    } else if (key == "close") {
      p.channel_close_rate = parse_double(key, val);
    } else if (key == "withhold") {
      p.withhold_rate = parse_double(key, val);
    } else if (key == "hold") {
      p.mean_withhold = parse_double(key, val);
    } else if (key == "stale") {
      p.stale_rate = parse_double(key, val);
    } else if (key == "staledur") {
      p.mean_stale = parse_double(key, val);
    } else if (key == "jam") {
      p.jam_rate = parse_double(key, val);
    } else if (key == "jamhold") {
      p.mean_jam = parse_double(key, val);
    } else if (key == "jamfrac") {
      p.jam_frac = parse_double(key, val);
    } else if (key == "grief") {
      p.grief_rate = parse_double(key, val);
    } else if (key == "griefhold") {
      p.mean_grief = parse_double(key, val);
    } else if (key == "griefhubs") {
      p.grief_hubs = static_cast<std::uint32_t>(parse_seed(val));
    } else if (key == "huboutage") {
      p.hub_outage_rate = parse_double(key, val);
    } else if (key == "hubdown") {
      p.mean_hub_down = parse_double(key, val);
    } else if (key == "hubs") {
      p.hubs = static_cast<std::uint32_t>(parse_seed(val));
    } else {
      throw std::invalid_argument("parse_profile: unknown key " + key);
    }
  }
  return p;
}

std::string to_string(const FaultProfile& p) {
  std::string out = "seed=" + std::to_string(p.seed);
  out += ",horizon=" + core::format_double(p.horizon);
  out += ",churn=" + core::format_double(p.node_churn_rate);
  out += ",downtime=" + core::format_double(p.mean_downtime);
  out += ",close=" + core::format_double(p.channel_close_rate);
  out += ",withhold=" + core::format_double(p.withhold_rate);
  out += ",hold=" + core::format_double(p.mean_withhold);
  out += ",stale=" + core::format_double(p.stale_rate);
  out += ",staledur=" + core::format_double(p.mean_stale);
  out += ",jam=" + core::format_double(p.jam_rate);
  out += ",jamhold=" + core::format_double(p.mean_jam);
  out += ",jamfrac=" + core::format_double(p.jam_frac);
  out += ",grief=" + core::format_double(p.grief_rate);
  out += ",griefhold=" + core::format_double(p.mean_grief);
  out += ",griefhubs=" + std::to_string(p.grief_hubs);
  out += ",huboutage=" + core::format_double(p.hub_outage_rate);
  out += ",hubdown=" + core::format_double(p.mean_hub_down);
  out += ",hubs=" + std::to_string(p.hubs);
  return out;
}

}  // namespace spider::faults
