#include "bgp/rib.hpp"

#include <algorithm>
#include <atomic>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/hash.hpp"
#include "util/result.hpp"

namespace dice::bgp {

using util::ByteReader;
using util::ByteWriter;
using util::make_error;
using util::Result;

std::string Route::to_string() const {
  std::string out = prefix.to_string();
  out.append(" via ").append(local() ? "local" : attrs.next_hop.to_string());
  out.append(" [").append(attrs.to_string()).append("]");
  return out;
}

namespace {
std::atomic<std::uint64_t> g_table_copies{0};
}  // namespace

std::uint64_t rib_table_copy_count() noexcept {
  return g_table_copies.load(std::memory_order_relaxed);
}

const Route* RouteTable::find(const util::IpPrefix& prefix) const {
  const auto at = lower_bound(prefix);
  return at != entries_.end() && at->prefix == prefix ? at->route.get() : nullptr;
}

std::vector<RouteTable::Entry>::const_iterator RouteTable::lower_bound(
    const util::IpPrefix& prefix) const {
  return std::lower_bound(
      entries_.begin(), entries_.end(), prefix,
      [](const Entry& entry, const util::IpPrefix& key) { return entry.prefix < key; });
}

bool RouteTable::operator==(const RouteTable& other) const {
  return std::equal(entries_.begin(), entries_.end(), other.entries_.begin(),
                    other.entries_.end(), [](const Entry& a, const Entry& b) {
                      return a.prefix == b.prefix &&
                             (a.route == b.route || *a.route == *b.route);
                    });
}

/// A table and its owner count. The decrement (acq_rel) and the uniqueness
/// check (acquire) order every other owner's reads before a sole owner's
/// in-place write or delete.
struct Rib::Shared {
  std::atomic<long> owners{1};
  Table table;
};

Rib::Rib(const Rib& other) noexcept : shared_(other.shared_) {
  if (shared_ != nullptr) shared_->owners.fetch_add(1, std::memory_order_relaxed);
}

void Rib::release() noexcept {
  if (shared_ != nullptr && shared_->owners.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete shared_;
  }
  shared_ = nullptr;
}

long Rib::use_count() const noexcept {
  return shared_ == nullptr ? 0 : shared_->owners.load(std::memory_order_acquire);
}

const Rib::Table& Rib::table() const noexcept {
  static const Table kEmpty;
  return shared_ == nullptr ? kEmpty : shared_->table;
}

Rib::Table& Rib::mutable_table() {
  if (shared_ == nullptr) {
    shared_ = new Shared;
  } else if (use_count() != 1) {
    auto* copy = new Shared{{1}, shared_->table};
    release();
    shared_ = copy;
    g_table_copies.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& copies =
        obs::MetricsRegistry::global().counter(obs::names::kRibTableCopies);
    copies.add();
  }
  return shared_->table;
}

bool Rib::upsert(Route route) {
  // Look before writing: an equal route must leave a shared table shared.
  // Positions, not iterators, survive the copy mutable_table() may make.
  const Table& current = table();
  const auto at = current.lower_bound(route.prefix);
  const auto index = at - current.entries_.begin();
  const bool present = at != current.entries_.end() && at->prefix == route.prefix;
  if (present && *at->route == route) return false;
  const util::IpPrefix prefix = route.prefix;
  auto shared = std::make_shared<const Route>(std::move(route));
  std::vector<RouteTable::Entry>& entries = mutable_table().entries_;
  if (present) {
    entries[index].route = std::move(shared);
  } else {
    entries.insert(entries.begin() + index, RouteTable::Entry{prefix, std::move(shared)});
  }
  return true;
}

bool Rib::erase(const util::IpPrefix& prefix) {
  const Table& current = table();
  const auto at = current.lower_bound(prefix);
  if (at == current.entries_.end() || at->prefix != prefix) return false;  // keeps sharing
  const auto index = at - current.entries_.begin();
  std::vector<RouteTable::Entry>& entries = mutable_table().entries_;
  entries.erase(entries.begin() + index);
  return true;
}

const Route* Rib::find(const util::IpPrefix& prefix) const { return table().find(prefix); }

std::uint64_t Rib::content_hash() const {
  ByteWriter w;
  serialize(w);
  return util::fnv1a(w.span());
}

void serialize_attrs(ByteWriter& w, const PathAttributes& attrs) {
  w.u8(static_cast<std::uint8_t>(attrs.origin));
  w.u16(static_cast<std::uint16_t>(attrs.as_path.segments().size()));
  for (const AsSegment& seg : attrs.as_path.segments()) {
    w.u8(static_cast<std::uint8_t>(seg.type));
    w.u16(static_cast<std::uint16_t>(seg.asns.size()));
    for (Asn asn : seg.asns) w.u32(asn);
  }
  w.u32(attrs.next_hop.value());
  w.u8(attrs.med.has_value() ? 1 : 0);
  if (attrs.med) w.u32(*attrs.med);
  w.u8(attrs.local_pref.has_value() ? 1 : 0);
  if (attrs.local_pref) w.u32(*attrs.local_pref);
  w.u8(attrs.atomic_aggregate ? 1 : 0);
  w.u8(attrs.aggregator.has_value() ? 1 : 0);
  if (attrs.aggregator) {
    w.u32(attrs.aggregator->asn);
    w.u32(attrs.aggregator->address.value());
  }
  w.u16(static_cast<std::uint16_t>(attrs.communities.size()));
  for (Community c : attrs.communities) w.u32(c);
  w.u16(static_cast<std::uint16_t>(attrs.unknown.size()));
  for (const UnknownAttr& ua : attrs.unknown) {
    w.u8(ua.flags);
    w.u8(ua.type);
    w.u16(static_cast<std::uint16_t>(ua.value.size()));
    w.raw(ua.value);
  }
}

Result<PathAttributes> deserialize_attrs(ByteReader& r) {
  PathAttributes attrs;
  auto origin = r.u8();
  if (!origin || origin.value() > 2) return make_error("rib.attrs.origin");
  attrs.origin = static_cast<Origin>(origin.value());
  auto seg_count = r.u16();
  if (!seg_count) return seg_count.error();
  for (std::uint16_t i = 0; i < seg_count.value(); ++i) {
    auto type = r.u8();
    auto count = r.u16();
    if (!type || !count) return make_error("rib.attrs.as_path");
    AsSegment seg;
    seg.type = static_cast<AsSegmentType>(type.value());
    for (std::uint16_t j = 0; j < count.value(); ++j) {
      auto asn = r.u32();
      if (!asn) return asn.error();
      seg.asns.push_back(asn.value());
    }
    attrs.as_path.segments().push_back(std::move(seg));
  }
  auto next_hop = r.u32();
  if (!next_hop) return next_hop.error();
  attrs.next_hop = util::IpAddress{next_hop.value()};
  auto has_med = r.u8();
  if (!has_med) return has_med.error();
  if (has_med.value() != 0) {
    auto med = r.u32();
    if (!med) return med.error();
    attrs.med = med.value();
  }
  auto has_lp = r.u8();
  if (!has_lp) return has_lp.error();
  if (has_lp.value() != 0) {
    auto lp = r.u32();
    if (!lp) return lp.error();
    attrs.local_pref = lp.value();
  }
  auto atomic = r.u8();
  if (!atomic) return atomic.error();
  attrs.atomic_aggregate = atomic.value() != 0;
  auto has_agg = r.u8();
  if (!has_agg) return has_agg.error();
  if (has_agg.value() != 0) {
    auto asn = r.u32();
    auto addr = r.u32();
    if (!asn || !addr) return make_error("rib.attrs.aggregator");
    attrs.aggregator = Aggregator{asn.value(), util::IpAddress{addr.value()}};
  }
  auto comm_count = r.u16();
  if (!comm_count) return comm_count.error();
  for (std::uint16_t i = 0; i < comm_count.value(); ++i) {
    auto c = r.u32();
    if (!c) return c.error();
    attrs.add_community(c.value());
  }
  auto unknown_count = r.u16();
  if (!unknown_count) return unknown_count.error();
  for (std::uint16_t i = 0; i < unknown_count.value(); ++i) {
    UnknownAttr ua;
    auto flags = r.u8();
    auto type = r.u8();
    auto len = r.u16();
    if (!flags || !type || !len) return make_error("rib.attrs.unknown");
    ua.flags = flags.value();
    ua.type = type.value();
    auto body = r.raw(len.value());
    if (!body) return body.error();
    ua.value.assign(body.value().begin(), body.value().end());
    attrs.unknown.push_back(std::move(ua));
  }
  return attrs;
}

void serialize_route(ByteWriter& w, const Route& route) {
  w.u32(route.prefix.address().value());
  w.u8(route.prefix.length());
  serialize_attrs(w, route.attrs);
  w.u32(route.source.peer_node);
  w.u32(route.source.peer_asn);
  w.u32(route.source.peer_router_id);
  w.u32(route.source.peer_address.value());
  w.u8(route.source.ebgp ? 1 : 0);
}

Result<Route> deserialize_route(ByteReader& r) {
  Route route;
  auto addr = r.u32();
  auto len = r.u8();
  if (!addr || !len) return make_error("rib.route.prefix");
  route.prefix = util::IpPrefix{util::IpAddress{addr.value()}, len.value()};
  auto attrs = deserialize_attrs(r);
  if (!attrs) return attrs.error();
  route.attrs = std::move(attrs).take();
  auto peer_node = r.u32();
  auto peer_asn = r.u32();
  auto peer_id = r.u32();
  auto peer_addr = r.u32();
  auto ebgp = r.u8();
  if (!peer_node || !peer_asn || !peer_id || !peer_addr || !ebgp) {
    return make_error("rib.route.source");
  }
  route.source.peer_node = peer_node.value();
  route.source.peer_asn = peer_asn.value();
  route.source.peer_router_id = peer_id.value();
  route.source.peer_address = util::IpAddress{peer_addr.value()};
  route.source.ebgp = ebgp.value() != 0;
  return route;
}

void Rib::serialize(ByteWriter& w) const {
  w.u32(static_cast<std::uint32_t>(size()));
  for (const auto& [prefix, route] : table()) serialize_route(w, route);
}

Result<Rib> Rib::deserialize(ByteReader& r) {
  Rib rib;
  auto count = r.u32();
  if (!count) return count.error();
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto route = deserialize_route(r);
    if (!route) return route.error();
    // A serialized table is sorted, so entries append; a repeated prefix
    // keeps its first route, as a map emplace would.
    if (rib.find(route.value().prefix) == nullptr) rib.upsert(std::move(route).take());
  }
  return rib;
}

}  // namespace dice::bgp
