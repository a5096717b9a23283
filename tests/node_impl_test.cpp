// The NodeImplementation boundary: registry resolution, blueprint
// implementation selection, the System-level interface surface, the
// normalized RibDigest two conforming engines must agree on, and the
// for_each_decision replay contract the differential check stands on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "bgp/decision.hpp"
#include "bgp/router.hpp"
#include "bgp2/engine.hpp"
#include "dice/checks.hpp"
#include "dice/system.hpp"

namespace dice::core {
namespace {

TEST(NodeImplRegistryTest, BuiltInEnginesAreRegistered) {
  auto& registry = bgp::NodeImplementationRegistry::instance();
  EXPECT_TRUE(registry.contains(bgp::kBgpRouterImplementationId));
  EXPECT_TRUE(registry.contains(bgp2::kFsmEngineImplementationId));
  EXPECT_FALSE(registry.contains("quagga"));

  const std::vector<std::string> ids = registry.ids();
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), "bgp") != ids.end());
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), "fsm") != ids.end());
}

TEST(NodeImplRegistryTest, CreateResolvesIdsAndRejectsUnknown) {
  sim::Simulator sim;
  sim::Network net(sim);
  const bgp::SystemBlueprint blueprint = bgp::make_line(2);
  auto book = std::make_shared<const std::map<util::IpAddress, sim::NodeId>>(
      blueprint.address_book());
  auto& registry = bgp::NodeImplementationRegistry::instance();

  auto reference = registry.create("bgp", net, 0, blueprint.configs[0], book);
  ASSERT_NE(reference, nullptr);
  EXPECT_EQ(reference->implementation_id(), "bgp");

  auto fsm = registry.create("fsm", net, 1, blueprint.configs[1], book);
  ASSERT_NE(fsm, nullptr);
  EXPECT_EQ(fsm->implementation_id(), "fsm");

  EXPECT_EQ(registry.create("no-such-engine", net, 0, blueprint.configs[0], book),
            nullptr);
}

TEST(BlueprintImplementationTest, DefaultsAndOverridesResolvePerNode) {
  bgp::SystemBlueprint blueprint = bgp::make_line(3);
  // Pre-heterogeneity blueprints carry no implementations vector at all.
  EXPECT_TRUE(blueprint.implementations.empty());
  for (std::size_t i = 0; i < blueprint.size(); ++i) {
    EXPECT_EQ(blueprint.implementation_for(i), "bgp");
  }

  blueprint.set_implementation(1, "fsm");
  EXPECT_EQ(blueprint.implementation_for(0), "bgp");
  EXPECT_EQ(blueprint.implementation_for(1), "fsm");
  EXPECT_EQ(blueprint.implementation_for(2), "bgp");  // short vector's tail

  blueprint.set_all_implementations("fsm");
  for (std::size_t i = 0; i < blueprint.size(); ++i) {
    EXPECT_EQ(blueprint.implementation_for(i), "fsm");
  }
}

TEST(SystemBoundaryTest, SystemBuildsTheImplementationEachNodeAsksFor) {
  bgp::SystemBlueprint blueprint = bgp::make_line(3);
  blueprint.set_implementation(1, "fsm");
  System system(std::move(blueprint));
  EXPECT_EQ(system.router(0).implementation_id(), "bgp");
  EXPECT_EQ(system.router(1).implementation_id(), "fsm");
  EXPECT_EQ(system.router(2).implementation_id(), "bgp");

  // Checked downcast: fine on the reference engine, throws on the other.
  EXPECT_NO_THROW((void)system.bgp_router(0));
  EXPECT_THROW((void)system.bgp_router(1), std::logic_error);
}

TEST(SystemBoundaryTest, UnknownImplementationIdIsRejectedAtConstruction) {
  bgp::SystemBlueprint blueprint = bgp::make_line(2);
  blueprint.set_implementation(0, "no-such-engine");
  EXPECT_THROW(System system(std::move(blueprint)), std::invalid_argument);
}

TEST(RibDigestTest, ConformingEnginesConvergeToEqualDigests) {
  // Same blueprint, one run per engine: after convergence every node's
  // normalized digest must match its counterpart's — the cross-
  // implementation comparison the differential fault class is built on.
  const bgp::SystemBlueprint base = bgp::make_ring(4);

  bgp::SystemBlueprint reference_bp = base;
  System reference(std::move(reference_bp));
  reference.start();
  ASSERT_TRUE(reference.converge());

  bgp::SystemBlueprint fsm_bp = base;
  fsm_bp.set_all_implementations("fsm");
  System fsm(std::move(fsm_bp));
  fsm.start();
  ASSERT_TRUE(fsm.converge());

  for (std::size_t node = 0; node < base.size(); ++node) {
    const bgp::RibDigest want = reference.router(static_cast<sim::NodeId>(node)).rib_digest();
    const bgp::RibDigest got = fsm.router(static_cast<sim::NodeId>(node)).rib_digest();
    EXPECT_GT(want.routes, 0u) << "node " << node;
    EXPECT_EQ(got, want) << "node " << node;
  }
}

/// One replayed decision, by value.
struct Decision {
  util::IpPrefix prefix;
  std::vector<bgp::Route> candidates;
  std::optional<bgp::Route> selected;
  std::size_t best = SIZE_MAX;

  bool operator==(const Decision&) const = default;
};

[[nodiscard]] const bgp::Rib* adj_rib_in(const bgp::NodeImplementation& node,
                                         sim::NodeId peer) {
  if (const auto* router = dynamic_cast<const bgp::BgpRouter*>(&node)) {
    return router->adj_rib_in(peer);
  }
  return dynamic_cast<const bgp2::FsmEngine&>(node).adj_rib_in(peer);
}

[[nodiscard]] std::size_t select(const std::vector<bgp::Route>& candidates,
                                 const bgp::RouterConfig& config) {
  std::vector<const bgp::Route*> pointers;
  for (const bgp::Route& route : candidates) pointers.push_back(&route);
  bgp::DecisionOptions options;
  options.always_compare_med = config.always_compare_med;
  return bgp::select_best(pointers, options);
}

/// The replay as it was written before candidates became pointers: a set
/// of every prefix, then per prefix the local route plus one lookup per
/// peer in ascending peer order, each copied.
[[nodiscard]] std::vector<Decision> reference_decisions(const bgp::NodeImplementation& node,
                                                       std::size_t nodes) {
  const bgp::RouterConfig& config = node.config();
  std::map<sim::NodeId, const bgp::Rib*> adj_in;
  for (sim::NodeId peer = 0; peer < nodes; ++peer) {
    if (const bgp::Rib* rib = adj_rib_in(node, peer)) adj_in.emplace(peer, rib);
  }
  std::set<util::IpPrefix> prefixes(config.networks.begin(), config.networks.end());
  for (const auto& [peer, rib] : adj_in) {
    for (const auto& [prefix, route] : rib->table()) prefixes.insert(prefix);
  }
  for (const auto& [prefix, route] : node.loc_rib().table()) prefixes.insert(prefix);

  std::vector<Decision> decisions;
  for (const util::IpPrefix& prefix : prefixes) {
    Decision decision;
    decision.prefix = prefix;
    if (std::find(config.networks.begin(), config.networks.end(), prefix) !=
        config.networks.end()) {
      bgp::Route local;
      local.prefix = prefix;
      local.attrs.origin = bgp::Origin::kIgp;
      local.attrs.next_hop = config.address;
      local.source.peer_node = bgp::kLocalRoute;
      local.source.peer_asn = config.asn;
      local.source.peer_router_id = config.router_id;
      local.source.peer_address = config.address;
      local.source.ebgp = false;
      decision.candidates.push_back(local);
    }
    for (const auto& [peer, rib] : adj_in) {
      if (const bgp::Route* route = rib->find(prefix)) decision.candidates.push_back(*route);
    }
    if (const bgp::Route* selected = node.loc_rib().find(prefix)) decision.selected = *selected;
    decision.best = select(decision.candidates, config);
    decisions.push_back(std::move(decision));
  }
  return decisions;
}

[[nodiscard]] std::vector<Decision> replayed_decisions(const bgp::NodeImplementation& node) {
  std::vector<Decision> decisions;
  node.for_each_decision([&](const bgp::NodeImplementation::DecisionView& view) {
    Decision decision;
    decision.prefix = view.prefix;
    for (const bgp::Route* route : *view.candidates) decision.candidates.push_back(*route);
    if (view.selected != nullptr) decision.selected = *view.selected;
    decision.best = select(decision.candidates, node.config());
    decisions.push_back(std::move(decision));
  });
  return decisions;
}

/// Leaves `prefix` in the node's Loc-RIB with no candidate behind it: the
/// node's own checkpoint, minus every Adj-RIB-In entry for the prefix,
/// applied back.
void strand_in_loc_rib(bgp::NodeImplementation& node, const util::IpPrefix& prefix) {
  util::ByteWriter writer;
  node.checkpoint(writer);
  util::ByteReader reader(writer.bytes());
  auto parsed = node.parse(reader);
  ASSERT_TRUE(parsed.ok());
  if (const auto* router = dynamic_cast<const bgp::RouterCheckpoint*>(parsed.value().get())) {
    bgp::RouterCheckpoint edited = *router;
    for (auto& [peer, rib] : edited.adj_in) rib.erase(prefix);
    ASSERT_TRUE(node.apply(edited).ok());
  } else {
    bgp2::FsmCheckpoint edited = dynamic_cast<const bgp2::FsmCheckpoint&>(*parsed.value());
    for (auto& [peer, rib] : edited.state.adj_in) rib.erase(prefix);
    ASSERT_TRUE(node.apply(edited).ok());
  }
}

class DecisionReplayTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DecisionReplayTest, WalkMatchesTheCopyingReferencePrefixForPrefix) {
  bgp::SystemBlueprint blueprint = bgp::make_internet();
  blueprint.set_all_implementations(GetParam());
  System system(std::move(blueprint));
  system.start();
  ASSERT_TRUE(system.converge());

  const sim::NodeId id = 0;
  bgp::NodeImplementation& node = system.router(id);
  ASSERT_EQ(node.implementation_id(), GetParam());
  // A learned, selected prefix to strand in the Loc-RIB.
  const auto learned = std::find_if(
      node.loc_rib().table().begin(), node.loc_rib().table().end(),
      [](const auto& entry) { return !entry.second.local(); });
  ASSERT_NE(learned, node.loc_rib().table().end());
  const util::IpPrefix stranded = (*learned).first;
  strand_in_loc_rib(node, stranded);

  const std::vector<Decision> want = reference_decisions(node, system.size());
  const std::vector<Decision> got = replayed_decisions(node);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].prefix, want[i].prefix) << "decision " << i;
    EXPECT_EQ(got[i].candidates, want[i].candidates) << want[i].prefix.to_string();
    EXPECT_EQ(got[i].selected, want[i].selected) << want[i].prefix.to_string();
    EXPECT_EQ(got[i].best, want[i].best) << want[i].prefix.to_string();
  }

  // The contract's edge cases are really in the walk: the stranded prefix
  // (no candidates, a selection), a configured network nobody re-advertises
  // (the local route alone), and prefixes where peer order matters.
  const auto at = [&](const util::IpPrefix& prefix) {
    return std::find_if(got.begin(), got.end(),
                        [&](const Decision& d) { return d.prefix == prefix; });
  };
  ASSERT_NE(at(stranded), got.end());
  EXPECT_TRUE(at(stranded)->candidates.empty());
  EXPECT_TRUE(at(stranded)->selected.has_value());
  const util::IpPrefix network = node.config().networks.front();
  ASSERT_NE(at(network), got.end());
  ASSERT_EQ(at(network)->candidates.size(), 1u);
  EXPECT_TRUE(at(network)->candidates.front().local());
  EXPECT_TRUE(std::any_of(got.begin(), got.end(),
                          [](const Decision& d) { return d.candidates.size() >= 2; }));

  // The stranded prefix is the one divergence the differential check sees.
  const CheckVerdict verdict = DifferentialCheck().run(node);
  EXPECT_EQ(verdict.counters.at("decisions"), want.size());
  EXPECT_EQ(verdict.counters.at("divergent"), 1u);
}

INSTANTIATE_TEST_SUITE_P(Engines, DecisionReplayTest, ::testing::Values("bgp", "fsm"));

}  // namespace
}  // namespace dice::core
