#include "bgp/node_impl.hpp"

#include <algorithm>
#include <utility>

#include "bgp/router.hpp"
#include "bgp2/engine.hpp"

namespace dice::bgp {

Route local_route(const RouterConfig& config, const util::IpPrefix& prefix) {
  Route local;
  local.prefix = prefix;
  local.attrs.origin = Origin::kIgp;
  local.attrs.next_hop = config.address;
  local.source.peer_node = kLocalRoute;
  local.source.peer_asn = config.asn;
  local.source.peer_router_id = config.router_id;
  local.source.peer_address = config.address;
  local.source.ebgp = false;
  return local;
}

std::vector<const Route*> collect_candidates(const RouterConfig& config,
                                             const std::map<sim::NodeId, Rib>& adj_in,
                                             const Route& local) {
  std::vector<const Route*> candidates;
  if (std::find(config.networks.begin(), config.networks.end(), local.prefix) !=
      config.networks.end()) {
    candidates.push_back(&local);
  }
  for (const auto& [peer, rib] : adj_in) {
    if (const Route* route = rib.find(local.prefix)) candidates.push_back(route);
  }
  return candidates;
}

void walk_decisions(const RouterConfig& config, const std::map<sim::NodeId, Rib>& adj_in,
                    const Rib& loc_rib,
                    const std::function<void(const NodeImplementation::DecisionView&)>& fn) {
  struct Cursor {
    RouteTable::const_iterator at;
    RouteTable::const_iterator end;

    [[nodiscard]] bool on(const util::IpPrefix& prefix) const {
      return at != end && (*at).first == prefix;
    }
  };
  std::vector<Cursor> peers;
  peers.reserve(adj_in.size());
  for (const auto& [peer, rib] : adj_in) peers.push_back({rib.table().begin(), rib.table().end()});
  Cursor selected{loc_rib.table().begin(), loc_rib.table().end()};
  std::vector<util::IpPrefix> networks = config.networks;
  std::sort(networks.begin(), networks.end());
  networks.erase(std::unique(networks.begin(), networks.end()), networks.end());
  auto network = networks.begin();

  Route local = local_route(config, util::IpPrefix{});
  std::vector<const Route*> candidates;
  NodeImplementation::DecisionView view;
  view.candidates = &candidates;
  for (;;) {
    const util::IpPrefix* next = network != networks.end() ? &*network : nullptr;
    const auto lower = [&next](const Cursor& c) {
      if (c.at != c.end && (next == nullptr || (*c.at).first < *next)) next = &(*c.at).first;
    };
    for (const Cursor& c : peers) lower(c);
    lower(selected);
    if (next == nullptr) return;

    view.prefix = *next;
    candidates.clear();
    if (network != networks.end() && *network == view.prefix) {
      local.prefix = view.prefix;
      candidates.push_back(&local);
      ++network;
    }
    for (Cursor& c : peers) {
      if (c.on(view.prefix)) candidates.push_back(&(*c.at++).second);
    }
    view.selected = selected.on(view.prefix) ? &(*selected.at++).second : nullptr;
    fn(view);
  }
}

// Built-in engines are registered centrally (not via static self-
// registration in each engine's own object file, which a static-library
// link would silently drop as unreferenced).
NodeImplementationRegistry::NodeImplementationRegistry() {
  factories_.emplace(
      std::string(kBgpRouterImplementationId),
      [](sim::Network& network, sim::NodeId node, RouterConfig config,
         AddressBook address_book) -> std::unique_ptr<NodeImplementation> {
        return std::make_unique<BgpRouter>(network, node, std::move(config),
                                           std::move(address_book));
      });
  factories_.emplace(
      std::string(bgp2::kFsmEngineImplementationId),
      [](sim::Network& network, sim::NodeId node, RouterConfig config,
         AddressBook address_book) -> std::unique_ptr<NodeImplementation> {
        return std::make_unique<bgp2::FsmEngine>(network, node, std::move(config),
                                                 std::move(address_book));
      });
}

NodeImplementationRegistry& NodeImplementationRegistry::instance() {
  static NodeImplementationRegistry registry;
  return registry;
}

void NodeImplementationRegistry::register_factory(std::string id, Factory factory) {
  const std::lock_guard<std::mutex> lock(mutex_);
  factories_[std::move(id)] = std::move(factory);
}

bool NodeImplementationRegistry::contains(std::string_view id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return factories_.find(id) != factories_.end();
}

std::vector<std::string> NodeImplementationRegistry::ids() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [id, factory] : factories_) out.push_back(id);
  return out;
}

std::unique_ptr<NodeImplementation> NodeImplementationRegistry::create(
    std::string_view id, sim::Network& network, sim::NodeId node,
    RouterConfig config, AddressBook address_book) const {
  Factory factory;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = factories_.find(id);
    if (it == factories_.end()) return nullptr;
    factory = it->second;
  }
  return factory(network, node, std::move(config), std::move(address_book));
}

}  // namespace dice::bgp
