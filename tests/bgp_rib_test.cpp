#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "bgp/rib.hpp"
#include "util/rng.hpp"

namespace dice::bgp {
namespace {

using util::IpAddress;
using util::IpPrefix;

[[nodiscard]] Route make_route(std::uint8_t octet, std::uint32_t local_pref = 100) {
  Route r;
  r.prefix = IpPrefix{IpAddress{10, octet, 0, 0}, 16};
  r.attrs.origin = Origin::kIgp;
  r.attrs.as_path = AsPath{{65001, 65002}};
  r.attrs.next_hop = IpAddress{10, 0, 0, 2};
  r.attrs.local_pref = local_pref;
  r.source.peer_node = 1;
  r.source.peer_asn = 65001;
  r.source.peer_router_id = 11;
  r.source.peer_address = IpAddress{10, 0, 0, 2};
  return r;
}

TEST(RibTest, UpsertReportsChanges) {
  Rib rib;
  EXPECT_TRUE(rib.upsert(make_route(1)));          // insert
  EXPECT_FALSE(rib.upsert(make_route(1)));         // identical: no change
  EXPECT_TRUE(rib.upsert(make_route(1, 200)));     // modified: change
  EXPECT_EQ(rib.size(), 1u);
  EXPECT_TRUE(rib.upsert(make_route(2)));
  EXPECT_EQ(rib.size(), 2u);
}

TEST(RibTest, EraseAndFind) {
  Rib rib;
  const Route r = make_route(1);
  rib.upsert(r);
  ASSERT_NE(rib.find(r.prefix), nullptr);
  EXPECT_EQ(*rib.find(r.prefix), r);
  EXPECT_TRUE(rib.erase(r.prefix));
  EXPECT_FALSE(rib.erase(r.prefix));
  EXPECT_EQ(rib.find(r.prefix), nullptr);
}

TEST(RibTest, ContentHashTracksContent) {
  Rib a;
  Rib b;
  a.upsert(make_route(1));
  b.upsert(make_route(1));
  EXPECT_EQ(a.content_hash(), b.content_hash());
  b.upsert(make_route(2));
  EXPECT_NE(a.content_hash(), b.content_hash());
  b.erase(make_route(2).prefix);
  EXPECT_EQ(a.content_hash(), b.content_hash());
}

TEST(RibTest, SerializeDeserializeRoundTrip) {
  Rib rib;
  for (std::uint8_t i = 1; i <= 20; ++i) rib.upsert(make_route(i, 50u + i));
  util::ByteWriter writer;
  rib.serialize(writer);
  util::ByteReader reader(writer.bytes());
  auto restored = Rib::deserialize(reader);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().size(), 20u);
  EXPECT_EQ(restored.value().content_hash(), rib.content_hash());
  EXPECT_EQ(restored.value().table(), rib.table());
}

TEST(RibTest, DeserializeRejectsTruncation) {
  Rib rib;
  rib.upsert(make_route(1));
  util::ByteWriter writer;
  rib.serialize(writer);
  util::Bytes bytes = writer.bytes();
  bytes.resize(bytes.size() / 2);
  util::ByteReader reader(bytes);
  EXPECT_FALSE(Rib::deserialize(reader).ok());
}

// --- copy-on-write ----------------------------------------------------------

[[nodiscard]] Rib make_rib(std::uint8_t routes) {
  Rib rib;
  for (std::uint8_t i = 1; i <= routes; ++i) rib.upsert(make_route(i));
  return rib;
}

TEST(RibCowTest, CopySharesItsTable) {
  const Rib original = make_rib(4);
  EXPECT_EQ(original.use_count(), 1);
  const std::uint64_t copies_before = rib_table_copy_count();
  Rib copy = original;
  Rib assigned;
  assigned = original;
  EXPECT_EQ(&copy.table(), &original.table());
  EXPECT_EQ(&assigned.table(), &original.table());
  EXPECT_EQ(original.use_count(), 3);  // one table object, not equal copies
  EXPECT_EQ(rib_table_copy_count(), copies_before);

  // A move hands the reference over without touching the count.
  Rib moved = std::move(copy);
  EXPECT_EQ(&moved.table(), &original.table());
  EXPECT_EQ(original.use_count(), 3);
}

TEST(RibCowTest, FirstRealWriteUnsharesOnlyTheWriter) {
  const Rib original = make_rib(4);
  const std::uint64_t original_hash = original.content_hash();
  Rib upserted = original;
  Rib erased = original;
  Rib untouched = original;
  const std::uint64_t copies_before = rib_table_copy_count();

  EXPECT_TRUE(upserted.upsert(make_route(9)));  // new prefix
  EXPECT_NE(&upserted.table(), &original.table());
  EXPECT_EQ(upserted.use_count(), 1);
  EXPECT_EQ(upserted.size(), 5u);

  EXPECT_TRUE(erased.erase(make_route(2).prefix));  // present prefix
  EXPECT_NE(&erased.table(), &original.table());
  EXPECT_EQ(erased.size(), 3u);

  // Exactly one copy per writer; the readers still share the original table,
  // which no write reached.
  EXPECT_EQ(rib_table_copy_count() - copies_before, 2u);
  EXPECT_EQ(&untouched.table(), &original.table());
  EXPECT_EQ(original.use_count(), 2);
  EXPECT_EQ(original.size(), 4u);
  EXPECT_EQ(original.content_hash(), original_hash);

  // A sole owner writes in place: no further copies.
  EXPECT_TRUE(upserted.upsert(make_route(9, 300)));
  EXPECT_TRUE(upserted.erase(make_route(1).prefix));
  EXPECT_EQ(rib_table_copy_count() - copies_before, 2u);
}

TEST(RibCowTest, UnsharedCopySharesTheRoutesItDidNotReplace) {
  // A table copy copies entries, not routes: what a clone allocates follows
  // the routes it changes, not the size of the table it touched.
  const Rib original = make_rib(8);
  Rib copy = original;
  EXPECT_TRUE(copy.upsert(make_route(3, 250)));
  ASSERT_NE(&copy.table(), &original.table());
  for (std::uint8_t i = 1; i <= 8; ++i) {
    const IpPrefix prefix = make_route(i).prefix;
    if (i == 3) {
      EXPECT_NE(copy.find(prefix), original.find(prefix));
    } else {
      EXPECT_EQ(copy.find(prefix), original.find(prefix)) << "route " << int{i};
    }
  }
  EXPECT_TRUE(copy.erase(make_route(5).prefix));
  EXPECT_EQ(original.size(), 8u);
  EXPECT_EQ(original.find(make_route(3).prefix)->attrs.local_pref, 100u);
  EXPECT_NE(original.find(make_route(5).prefix), nullptr);
}

TEST(RibTest, IteratesInPrefixOrderWhateverTheInsertOrder) {
  Rib rib;
  for (const std::uint8_t octet : {7, 2, 9, 1, 5}) rib.upsert(make_route(octet));
  std::vector<IpPrefix> seen;
  for (const auto& [prefix, route] : rib.table()) {
    EXPECT_EQ(prefix, route.prefix);
    seen.push_back(prefix);
  }
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST(RibTest, DeserializeKeepsTheFirstOfARepeatedPrefix) {
  // Hand-built bytes: a count of 3, then two routes for one prefix out of
  // order after a third. The table stays sorted and keeps the first.
  util::ByteWriter writer;
  writer.u32(3);
  serialize_route(writer, make_route(4, 100));
  serialize_route(writer, make_route(2, 100));
  serialize_route(writer, make_route(4, 300));
  util::ByteReader reader(writer.bytes());
  auto restored = Rib::deserialize(reader);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored.value().size(), 2u);
  EXPECT_EQ((*restored.value().table().begin()).first, make_route(2).prefix);
  EXPECT_EQ(restored.value().find(make_route(4).prefix)->attrs.local_pref, 100u);
}

TEST(RibCowTest, NoOpWritesKeepTheTableShared) {
  const Rib original = make_rib(4);
  Rib copy = original;
  const std::uint64_t copies_before = rib_table_copy_count();

  EXPECT_FALSE(copy.upsert(make_route(3)));          // equal route
  EXPECT_FALSE(copy.erase(make_route(42).prefix));   // absent prefix
  EXPECT_EQ(&copy.table(), &original.table());
  EXPECT_EQ(rib_table_copy_count(), copies_before);

  // A changed route at an existing prefix is a real write.
  EXPECT_TRUE(copy.upsert(make_route(3, 250)));
  EXPECT_NE(&copy.table(), &original.table());
  EXPECT_EQ(original.find(make_route(3).prefix)->attrs.local_pref, 100u);
  EXPECT_EQ(copy.find(make_route(3).prefix)->attrs.local_pref, 250u);
}

TEST(RibCowTest, ClearAndEmptyReadAsEmpty) {
  const Rib empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.use_count(), 0);
  EXPECT_TRUE(empty.table().empty());
  EXPECT_EQ(empty.find(make_route(1).prefix), nullptr);
  EXPECT_EQ(empty.content_hash(), Rib{}.content_hash());

  const Rib original = make_rib(3);
  Rib copy = original;
  copy.clear();  // drops the reference, never touches the shared table
  EXPECT_TRUE(copy.empty());
  EXPECT_EQ(copy.use_count(), 0);
  EXPECT_NE(&copy.table(), &original.table());
  EXPECT_EQ(original.use_count(), 1);
  EXPECT_EQ(original.size(), 3u);
  EXPECT_EQ(copy.content_hash(), empty.content_hash());

  // A cleared Rib is an ordinary empty one again.
  EXPECT_TRUE(copy.upsert(make_route(1)));
  EXPECT_EQ(copy.size(), 1u);
  EXPECT_EQ(original.size(), 3u);
}

TEST(RibCowTest, ThreadsCopyOneSharedTableAndWriteOnlyTheirOwn) {
  // The PreparedSnapshot pattern in miniature: one const Rib read and
  // copied by many threads at once, each writing its copy (TSan/ASan run
  // this suite). The shared table must come out untouched.
  const Rib shared = make_rib(32);
  const std::uint64_t shared_hash = shared.content_hash();
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> sizes(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, &sizes, t] {
      for (int round = 0; round < 50; ++round) {
        Rib copy = shared;
        copy.erase(make_route(static_cast<std::uint8_t>(1 + (t + round) % 32)).prefix);
        copy.upsert(make_route(static_cast<std::uint8_t>(100 + t), 50u + round));
        Rib second = copy;  // a sole-owner table shared again, then written
        second.upsert(make_route(200));
        sizes[t] += copy.size() + second.size();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(sizes[t], 50u * (32 + 33));
  EXPECT_EQ(shared.content_hash(), shared_hash);
  EXPECT_EQ(shared.use_count(), 1);
}

/// Property: attribute serialization round-trips over randomized attrs.
class AttrSerializeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AttrSerializeProperty, RoundTrip) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 100; ++round) {
    PathAttributes attrs;
    attrs.origin = static_cast<Origin>(rng.below(3));
    if (rng.chance(0.8)) {
      AsSegment seg;
      seg.type = rng.chance(0.8) ? AsSegmentType::kSequence : AsSegmentType::kSet;
      for (std::size_t i = 0; i < 1 + rng.below(4); ++i) {
        seg.asns.push_back(static_cast<Asn>(rng.below(70000)));  // 4-byte ok internally
      }
      attrs.as_path.segments().push_back(std::move(seg));
    }
    attrs.next_hop = IpAddress{static_cast<std::uint32_t>(rng.next())};
    if (rng.chance(0.5)) attrs.med = static_cast<std::uint32_t>(rng.next());
    if (rng.chance(0.5)) attrs.local_pref = static_cast<std::uint32_t>(rng.next());
    attrs.atomic_aggregate = rng.chance(0.2);
    if (rng.chance(0.3)) {
      attrs.aggregator =
          Aggregator{static_cast<Asn>(rng.below(65536)),
                     IpAddress{static_cast<std::uint32_t>(rng.next())}};
    }
    for (std::size_t i = rng.below(4); i > 0; --i) {
      attrs.add_community(static_cast<Community>(rng.next()));
    }
    if (rng.chance(0.3)) {
      UnknownAttr ua;
      ua.flags = 0xc0;
      ua.type = static_cast<std::uint8_t>(128 + rng.below(100));
      for (std::size_t i = rng.below(8); i > 0; --i) ua.value.push_back(rng.byte());
      attrs.unknown.push_back(std::move(ua));
    }

    util::ByteWriter writer;
    serialize_attrs(writer, attrs);
    util::ByteReader reader(writer.bytes());
    auto restored = deserialize_attrs(reader);
    ASSERT_TRUE(restored.ok()) << restored.error().to_string();
    EXPECT_EQ(restored.value(), attrs);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AttrSerializeProperty, ::testing::Values(3, 6, 9));

TEST(AttrTest, CommunitySetSemantics) {
  PathAttributes attrs;
  attrs.add_community(5);
  attrs.add_community(1);
  attrs.add_community(5);  // duplicate ignored
  attrs.add_community(3);
  EXPECT_EQ(attrs.communities, (std::vector<Community>{1, 3, 5}));  // sorted
  EXPECT_TRUE(attrs.has_community(3));
  attrs.remove_community(3);
  EXPECT_FALSE(attrs.has_community(3));
  attrs.remove_community(99);  // absent: no-op
  EXPECT_EQ(attrs.communities.size(), 2u);
}

TEST(AttrTest, EffectiveDefaults) {
  PathAttributes attrs;
  EXPECT_EQ(attrs.effective_local_pref(), PathAttributes::kDefaultLocalPref);
  EXPECT_EQ(attrs.effective_med(), 0u);
  attrs.local_pref = 7;
  attrs.med = 9;
  EXPECT_EQ(attrs.effective_local_pref(), 7u);
  EXPECT_EQ(attrs.effective_med(), 9u);
}

TEST(RouteTest, ToStringMentionsKeyFields) {
  const Route r = make_route(1);
  const std::string text = r.to_string();
  EXPECT_NE(text.find("10.1.0.0/16"), std::string::npos);
  EXPECT_NE(text.find("10.0.0.2"), std::string::npos);
  EXPECT_NE(text.find("65001"), std::string::npos);
}

}  // namespace
}  // namespace dice::bgp
