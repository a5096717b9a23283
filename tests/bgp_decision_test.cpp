#include <gtest/gtest.h>

#include "bgp/decision.hpp"
#include "util/rng.hpp"

namespace dice::bgp {
namespace {

using util::IpAddress;
using util::IpPrefix;

[[nodiscard]] Route learned_route(std::uint32_t local_pref, std::vector<Asn> path,
                                  Origin origin = Origin::kIgp,
                                  std::uint32_t med = 0, bool ebgp = true,
                                  RouterId peer_id = 100,
                                  std::uint32_t peer_addr = 100) {
  Route r;
  r.prefix = IpPrefix{IpAddress{10, 1, 0, 0}, 16};
  r.attrs.local_pref = local_pref;
  r.attrs.as_path = AsPath{std::move(path)};
  r.attrs.origin = origin;
  r.attrs.med = med;
  r.attrs.next_hop = IpAddress{10, 0, 0, 2};
  r.source.peer_node = 1;
  r.source.peer_asn = r.attrs.as_path.first_asn().value_or(65001);
  r.source.peer_router_id = peer_id;
  r.source.peer_address = IpAddress{peer_addr};
  r.source.ebgp = ebgp;
  return r;
}

TEST(DecisionTest, LocalRouteWins) {
  Route local = learned_route(50, {});
  local.source.peer_node = kLocalRoute;
  const Route learned = learned_route(1000, {65001});
  const Comparison c = compare_routes(local, learned);
  EXPECT_LT(c.order, 0);
  EXPECT_EQ(c.rule, DecisionRule::kLocalRoute);
}

TEST(DecisionTest, HighestLocalPrefWins) {
  const Comparison c = compare_routes(learned_route(200, {65001, 65002, 65003}),
                                      learned_route(100, {65001}));
  EXPECT_LT(c.order, 0);
  EXPECT_EQ(c.rule, DecisionRule::kLocalPref);
}

TEST(DecisionTest, MissingLocalPrefDefaultsTo100) {
  Route no_lp = learned_route(0, {65001});
  no_lp.attrs.local_pref.reset();
  const Comparison c = compare_routes(no_lp, learned_route(100, {65001, 65002}));
  // Equal local-pref (default 100) -> falls through to path length.
  EXPECT_EQ(c.rule, DecisionRule::kAsPathLength);
  EXPECT_LT(c.order, 0);
}

TEST(DecisionTest, ShorterAsPathWins) {
  const Comparison c =
      compare_routes(learned_route(100, {65001}), learned_route(100, {65002, 65003}));
  EXPECT_LT(c.order, 0);
  EXPECT_EQ(c.rule, DecisionRule::kAsPathLength);
}

TEST(DecisionTest, AsSetCountsAsOne) {
  Route with_set = learned_route(100, {65001});
  with_set.attrs.as_path.segments().push_back(
      AsSegment{AsSegmentType::kSet, {65002, 65003, 65004}});
  // Length 2 (1 seq + 1 set) vs length 2.
  const Comparison c = compare_routes(with_set, learned_route(100, {65005, 65006}));
  EXPECT_NE(c.rule, DecisionRule::kAsPathLength);
}

TEST(DecisionTest, LowerOriginWins) {
  const Comparison c = compare_routes(learned_route(100, {65001}, Origin::kIgp),
                                      learned_route(100, {65002}, Origin::kIncomplete));
  EXPECT_LT(c.order, 0);
  EXPECT_EQ(c.rule, DecisionRule::kOrigin);
}

TEST(DecisionTest, MedComparedOnlyWithinSameNeighborAs) {
  // Same first ASN: MED decides.
  const Comparison same = compare_routes(learned_route(100, {65001}, Origin::kIgp, 10),
                                         learned_route(100, {65001}, Origin::kIgp, 20));
  EXPECT_LT(same.order, 0);
  EXPECT_EQ(same.rule, DecisionRule::kMed);
  // Different first ASN: MED skipped (falls to later rules).
  const Comparison diff = compare_routes(
      learned_route(100, {65001}, Origin::kIgp, 99, true, 5, 5),
      learned_route(100, {65002}, Origin::kIgp, 1, true, 9, 9));
  EXPECT_NE(diff.rule, DecisionRule::kMed);
}

TEST(DecisionTest, AlwaysCompareMedOption) {
  DecisionOptions options;
  options.always_compare_med = true;
  const Comparison c =
      compare_routes(learned_route(100, {65001}, Origin::kIgp, 1),
                     learned_route(100, {65002}, Origin::kIgp, 99), options);
  EXPECT_LT(c.order, 0);
  EXPECT_EQ(c.rule, DecisionRule::kMed);
}

TEST(DecisionTest, EbgpBeatsIbgp) {
  const Comparison c =
      compare_routes(learned_route(100, {65001}, Origin::kIgp, 0, true),
                     learned_route(100, {65002}, Origin::kIgp, 0, false));
  EXPECT_LT(c.order, 0);
  EXPECT_EQ(c.rule, DecisionRule::kEbgpOverIbgp);
}

TEST(DecisionTest, LowestRouterIdTieBreak) {
  const Comparison c =
      compare_routes(learned_route(100, {65001}, Origin::kIgp, 0, true, 1),
                     learned_route(100, {65002}, Origin::kIgp, 0, true, 2));
  EXPECT_LT(c.order, 0);
  EXPECT_EQ(c.rule, DecisionRule::kRouterId);
}

TEST(DecisionTest, PeerAddressFinalTieBreak) {
  const Comparison c =
      compare_routes(learned_route(100, {65001}, Origin::kIgp, 0, true, 7, 1),
                     learned_route(100, {65002}, Origin::kIgp, 0, true, 7, 2));
  EXPECT_LT(c.order, 0);
  EXPECT_EQ(c.rule, DecisionRule::kPeerAddress);
}

TEST(DecisionTest, IdenticalRoutesCompareEqual) {
  const Route r = learned_route(100, {65001});
  const Comparison c = compare_routes(r, r);
  EXPECT_EQ(c.order, 0);
  EXPECT_EQ(c.rule, DecisionRule::kEqual);
}

TEST(DecisionTest, SelectBestPicksMinimum) {
  const std::vector<Route> routes{
      learned_route(100, {65001, 65002}),
      learned_route(200, {65001, 65002, 65003}),  // highest local-pref
      learned_route(100, {65001}),
  };
  EXPECT_EQ(select_best({&routes[0], &routes[1], &routes[2]}), 1u);
  EXPECT_EQ(select_best({}), SIZE_MAX);
}

TEST(DecisionTest, SelectBestKeepsTheFirstOfEqualCandidates) {
  // The differential replay relies on candidate order: among candidates
  // that compare equal, the earliest one is the selection.
  const Route worse = learned_route(100, {65001, 65002});
  const Route best = learned_route(100, {65001});
  const Route same = best;
  ASSERT_EQ(compare_routes(best, same).order, 0);
  EXPECT_EQ(select_best({&best, &same}), 0u);
  EXPECT_EQ(select_best({&worse, &same, &best}), 1u);
  EXPECT_EQ(select_best({&worse, &best, &same, &best}), 1u);
  EXPECT_EQ(select_best({&worse}), 0u);
}

/// Property: with always-compare-med the preference relation is a strict
/// weak ordering — antisymmetric and transitive over randomized routes.
/// (Without that option BGP's MED rule is famously *not* transitive; that
/// known anomaly is exactly why the option exists, and why this property
/// pins the transitive configuration.)
class DecisionOrderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecisionOrderProperty, AntisymmetricAndTransitive) {
  util::Rng rng(GetParam());
  const auto random_route = [&rng] {
    std::vector<Asn> path;
    for (std::size_t i = 0; i < 1 + rng.below(3); ++i) {
      path.push_back(static_cast<Asn>(65000 + rng.below(5)));
    }
    return learned_route(static_cast<std::uint32_t>(100 * (1 + rng.below(3))),
                         std::move(path), static_cast<Origin>(rng.below(3)),
                         static_cast<std::uint32_t>(rng.below(3)), rng.chance(0.5),
                         static_cast<RouterId>(rng.below(4)),
                         static_cast<std::uint32_t>(rng.below(4)));
  };
  std::vector<Route> routes;
  for (int i = 0; i < 12; ++i) routes.push_back(random_route());

  DecisionOptions options;
  options.always_compare_med = true;
  for (const Route& a : routes) {
    for (const Route& b : routes) {
      const int ab = compare_routes(a, b, options).order;
      const int ba = compare_routes(b, a, options).order;
      EXPECT_EQ(ab, -ba) << "antisymmetry violated";
      for (const Route& c : routes) {
        const int bc = compare_routes(b, c, options).order;
        const int ac = compare_routes(a, c, options).order;
        if (ab < 0 && bc < 0) {
          EXPECT_LT(ac, 0) << "transitivity violated";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecisionOrderProperty, ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace dice::bgp
