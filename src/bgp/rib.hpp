// Routing Information Bases (RFC 4271 §3.2): Adj-RIB-In (per peer, post
// import policy), Loc-RIB (selected best routes), Adj-RIB-Out (per peer,
// post export policy). All three are serializable for checkpointing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bgp/attr.hpp"
#include "util/bytes.hpp"
#include "util/ip.hpp"

namespace dice::bgp {

/// Identifies where a route came from for selection and propagation rules.
struct RouteSource {
  std::uint32_t peer_node = 0xffffffffU;  ///< sim node id; kLocalRoute for originated
  Asn peer_asn = 0;
  RouterId peer_router_id = 0;
  util::IpAddress peer_address;
  bool ebgp = true;

  bool operator==(const RouteSource&) const = default;
};

inline constexpr std::uint32_t kLocalRoute = 0xffffffffU;

struct Route {
  util::IpPrefix prefix;
  PathAttributes attrs;
  RouteSource source;

  [[nodiscard]] bool local() const noexcept { return source.peer_node == kLocalRoute; }
  [[nodiscard]] std::string to_string() const;

  bool operator==(const Route&) const = default;
};

/// Copy-on-write un-shares (tables copied because a write hit a shared
/// table) in this process; also dice_rib_table_copies_total. Reads the same
/// with telemetry compiled out (bench_clone_restore, tests).
[[nodiscard]] std::uint64_t rib_table_copy_count() noexcept;

/// The entries of one RIB table, sorted by prefix. Each entry holds its
/// route through a shared immutable pointer, so copying a table copies a
/// prefix and a pointer per entry, never a route: a clone that touches a
/// table pays for a flat array, and the routes it does not change stay
/// shared with the table it copied. Iteration yields (prefix, route)
/// reference pairs in prefix order, so `for (const auto& [prefix, route] :
/// rib.table())` reads as over a map.
class RouteTable {
 public:
  struct Entry {
    util::IpPrefix prefix;
    std::shared_ptr<const Route> route;
  };

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::pair<const util::IpPrefix&, const Route&>;
    using reference = value_type;
    using difference_type = std::ptrdiff_t;

    const_iterator() = default;
    explicit const_iterator(std::vector<Entry>::const_iterator at) : at_(at) {}
    [[nodiscard]] reference operator*() const { return {at_->prefix, *at_->route}; }
    const_iterator& operator++() {
      ++at_;
      return *this;
    }
    const_iterator operator++(int) { return const_iterator(at_++); }
    bool operator==(const const_iterator&) const = default;

   private:
    std::vector<Entry>::const_iterator at_;
  };

  [[nodiscard]] const_iterator begin() const noexcept { return const_iterator(entries_.begin()); }
  [[nodiscard]] const_iterator end() const noexcept { return const_iterator(entries_.end()); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] const Route* find(const util::IpPrefix& prefix) const;

  /// Equal content: the same prefixes with equal routes, in order.
  bool operator==(const RouteTable& other) const;

 private:
  friend class Rib;
  /// First entry whose prefix is not less than `prefix`.
  [[nodiscard]] std::vector<Entry>::const_iterator lower_bound(
      const util::IpPrefix& prefix) const;

  std::vector<Entry> entries_;
};

/// One RIB table: prefix -> route, ordered for deterministic iteration.
///
/// Copy-on-write: a copy shares the table (one atomic increment), and the
/// first call that really changes the content copies it first. An upsert
/// of an equal route and an erase of an absent prefix copy nothing;
/// clear() drops the reference. So applying a decoded checkpoint costs one
/// refcount bump per table, and a clone copies only the tables it touches;
/// that copy shares every route it does not replace (see RouteTable), so
/// what a clone allocates follows the routes its input changes, not the
/// size of the tables those routes sit in.
///
/// Rules:
///  - A shared table is never written: only a sole owner (use_count() 1)
///    writes in place. A Rib belongs to one router on one thread; the
///    tables it shares (e.g. inside a PreparedSnapshot) may be read and
///    copied by many threads at once.
///  - Never mutate a Rib while iterating its own table(): the write may
///    swap in a private copy and the loop would walk the stale table.
///    Collect first (BgpRouter::session_down) or write another Rib
///    (send_full_table walks Loc-RIB, writes Adj-RIB-Out).
///  - find() pointers and table() references die at the next write to,
///    clear of, or assignment to that Rib.
class Rib {
 public:
  using Table = RouteTable;

  Rib() noexcept = default;
  Rib(const Rib& other) noexcept;
  Rib(Rib&& other) noexcept : shared_(std::exchange(other.shared_, nullptr)) {}
  /// Copy and move assignment in one (copy-and-swap).
  Rib& operator=(Rib other) noexcept {
    std::swap(shared_, other.shared_);
    return *this;
  }
  ~Rib() { release(); }

  /// Returns true when the entry changed (insert or different route).
  bool upsert(Route route);
  /// Returns true when an entry was removed.
  bool erase(const util::IpPrefix& prefix);

  [[nodiscard]] const Route* find(const util::IpPrefix& prefix) const;
  [[nodiscard]] const Table& table() const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return table().size(); }
  [[nodiscard]] bool empty() const noexcept { return table().empty(); }
  void clear() noexcept { release(); }

  /// Owners of this Rib's table; 0 when it holds none (default or cleared).
  [[nodiscard]] long use_count() const noexcept;

  /// Content hash over all entries (order-independent by construction since
  /// iteration is ordered). Feeds checkpoint hashes and the privacy-
  /// preserving check interface.
  [[nodiscard]] std::uint64_t content_hash() const;

  void serialize(util::ByteWriter& writer) const;
  [[nodiscard]] static util::Result<Rib> deserialize(util::ByteReader& reader);

 private:
  struct Shared;
  /// The table to write to: allocates one when empty, copies a shared one.
  [[nodiscard]] Table& mutable_table();
  void release() noexcept;

  Shared* shared_ = nullptr;
};

/// Route (de)serialization shared by Rib and session checkpoints.
void serialize_route(util::ByteWriter& writer, const Route& route);
[[nodiscard]] util::Result<Route> deserialize_route(util::ByteReader& reader);
void serialize_attrs(util::ByteWriter& writer, const PathAttributes& attrs);
[[nodiscard]] util::Result<PathAttributes> deserialize_attrs(util::ByteReader& reader);

}  // namespace dice::bgp
