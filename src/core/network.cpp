#include "core/network.hpp"

#include <stdexcept>

namespace spider::core {

ChannelNetwork::ChannelNetwork(const Graph& g, std::span<const Amount> capacity)
    : graph_(&g) {
  if (capacity.size() != g.edge_count()) {
    throw std::invalid_argument("ChannelNetwork: capacity size != edge count");
  }
  channels_.reserve(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Amount half = capacity[e] / 2;
    channels_.emplace_back(capacity[e] - half, half);
  }
}

ChannelNetwork::ChannelNetwork(
    const Graph& g, std::span<const std::pair<Amount, Amount>> deposits)
    : graph_(&g) {
  if (deposits.size() != g.edge_count()) {
    throw std::invalid_argument("ChannelNetwork: deposits size != edge count");
  }
  channels_.reserve(g.edge_count());
  for (const auto& [a, b] : deposits) channels_.emplace_back(a, b);
}

Amount ChannelNetwork::path_available(const Path& path) const {
  Amount bottleneck = std::numeric_limits<Amount>::max();
  for (const ArcId a : path.arcs) {
    bottleneck = std::min(bottleneck, available(a));
  }
  return path.arcs.empty() ? 0 : bottleneck;
}

std::optional<RouteLock> ChannelNetwork::lock_route(const Path& path,
                                                    Amount amount,
                                                    LockHash lock) {
  const std::vector<Amount> amounts(path.arcs.size(), amount);
  return lock_route_with_fees(path, amounts, lock);
}

std::optional<RouteLock> ChannelNetwork::lock_route_with_fees(
    const Path& path, std::span<const Amount> amounts, LockHash lock) {
  if (path.arcs.empty() || amounts.size() != path.arcs.size()) {
    return std::nullopt;
  }
  for (std::size_t i = 0; i < amounts.size(); ++i) {
    if (amounts[i] <= 0) return std::nullopt;
    if (i + 1 < amounts.size() && amounts[i] < amounts[i + 1]) {
      return std::nullopt;  // fees must decrease towards the destination
    }
  }
  RouteLock rl;
  rl.path = path;
  rl.amount = amounts.back();  // value delivered to the destination
  rl.lock = lock;
  rl.htlcs.reserve(path.arcs.size());
  for (const Amount a : amounts) rl.total_held += a;
  for (std::size_t i = 0; i < path.arcs.size(); ++i) {
    const auto id = offer_htlc(path.arcs[i], amounts[i], lock);
    if (!id) {
      // Roll back the hops locked so far.
      for (std::size_t j = 0; j < rl.htlcs.size(); ++j) {
        release(path.arcs[j], rl.htlcs[j], std::nullopt, /*raise=*/false);
      }
      return std::nullopt;
    }
    rl.htlcs.push_back(*id);
  }
  return rl;
}

std::optional<HtlcId> ChannelNetwork::offer_htlc(ArcId a, Amount amount,
                                                 LockHash lock) {
  Channel& c = channels_[graph::edge_of(a)];
  const int s = static_cast<int>(arc_side(a));
  if (amount <= 0 || c.balance_[s] < amount) return std::nullopt;
  c.balance_[s] -= amount;
  c.pending_[s] += amount;
  ++c.inflight_;
  const SlabHandle h = book_.acquire();
  *book_.get(h) = Htlc{a, amount, lock};
  assert(c.conserves_funds());
  return h.packed();
}

bool ChannelNetwork::release(ArcId a, HtlcId id, std::optional<Preimage> key,
                             bool raise) {
  const SlabHandle h = SlabHandle::unpack(id);
  const Htlc* htlc = book_.get(h);
  if (htlc == nullptr || htlc->arc != a) return false;
  if (key && !unlocks(*key, htlc->lock)) return false;
  Channel& c = channels_[graph::edge_of(a)];
  const int offerer = static_cast<int>(arc_side(a));
  c.pending_[offerer] -= htlc->amount;
  c.balance_[key ? 1 - offerer : offerer] += htlc->amount;
  --c.inflight_;
  book_.release(h);
  if (raise) ++raise_epoch_;
  assert(c.conserves_funds());
  return true;
}

bool ChannelNetwork::settle_route(const RouteLock& rl, Preimage key) {
  if (!unlocks(key, rl.lock)) return false;
  release_route(rl, key);
  return true;
}

void ChannelNetwork::fail_route(const RouteLock& rl) {
  release_route(rl, std::nullopt);
}

void ChannelNetwork::release_route(const RouteLock& rl,
                                   std::optional<Preimage> key) {
  ++raise_epoch_;
  for (std::size_t i = 0; i < rl.path.arcs.size(); ++i) {
    if (!release(rl.path.arcs[i], rl.htlcs[i], key, /*raise=*/false)) {
      throw std::logic_error(
          "ChannelNetwork: stale or double-released route lock");
    }
  }
}

void ChannelNetwork::deposit(EdgeId e, Side side, Amount amount) {
  channels_.at(e).deposit(side, amount);
  ++raise_epoch_;
}

Amount ChannelNetwork::total_funds() const {
  Amount total = 0;
  for (const Channel& c : channels_) total += c.total();
  return total;
}

bool ChannelNetwork::conserves_funds() const {
  for (const Channel& c : channels_) {
    if (!c.conserves_funds()) return false;
  }
  return true;
}

}  // namespace spider::core
