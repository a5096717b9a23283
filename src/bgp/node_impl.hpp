// NodeImplementation: the boundary between the DiCE harness and a BGP
// engine. The paper tests *federated, heterogeneous* systems — nodes built
// by different parties that interoperate over the wire but share no code.
// Everything above this interface (dice::System, the checks layer, the
// exploration matrix) talks to nodes only through it, so an independently
// structured engine (src/bgp2/) can sit in the same simulated network as
// the reference BgpRouter and be cloned, checkpointed and checked by the
// exact same machinery.
//
// What a conforming implementation must guarantee (docs/HETEROGENEITY.md):
//   - speak the shared wire codec (bgp/codec.hpp) over the frame transport;
//   - implement snapshot::Checkpointable with the v2 tagged-section format
//     (bgp/checkpoint_codec.hpp) including the delta-baseline envelope, so
//     prepared clones and delta snapshots work unchanged;
//   - keep every observable surface below deterministic for a fixed event
//     order (no wall clock, no unseeded randomness);
//   - expose its decision process through for_each_decision so the
//     differential checker can replay each choice against the reference
//     decision procedure.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/config.hpp"
#include "bgp/rib.hpp"
#include "sim/network.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/participant.hpp"

namespace dice::bgp {

/// Registry id of the reference implementation (bgp/router.hpp).
inline constexpr std::string_view kBgpRouterImplementationId = "bgp";

/// Normalized summary of a node's selected routes: order-independent
/// content hash + route count. Two conforming implementations fed the same
/// routes must converge to equal digests; divergence is the federated
/// fault signal (dice::DifferentialCheck).
struct RibDigest {
  std::uint64_t hash = 0;
  std::size_t routes = 0;

  bool operator==(const RibDigest&) const = default;
};

class NodeImplementation : public snapshot::SnapshotParticipant,
                           public snapshot::Checkpointable {
 public:
  NodeImplementation(sim::Network& network, sim::NodeId id)
      : snapshot::SnapshotParticipant(network, id) {}

  /// Counters every engine maintains; checkers read them implementation-
  /// agnostically (crash detection via handler_crashes, fuzz-reject
  /// accounting via decode_failures, ...).
  struct Stats {
    std::uint64_t updates_received = 0;
    std::uint64_t updates_sent = 0;
    std::uint64_t withdraws_sent = 0;
    std::uint64_t decision_runs = 0;
    std::uint64_t best_changes = 0;
    std::uint64_t import_rejects = 0;
    std::uint64_t loop_rejects = 0;
    std::uint64_t decode_failures = 0;
    std::uint64_t handler_crashes = 0;
  };

  /// One decision-process outcome: the prefix, what the node selected
  /// (nullptr = nothing selected), and the candidate set it chose from.
  /// Candidates point at the full Routes (post import policy) where they
  /// sit, so the checker reruns the reference decision procedure on them
  /// without copying any.
  struct DecisionView {
    util::IpPrefix prefix;
    const Route* selected = nullptr;
    const std::vector<const Route*>* candidates = nullptr;
  };

  /// Stable registry id ("bgp", "fsm", ...). Greppable constants live next
  /// to each engine (kBgpRouterImplementationId, kFsmEngineImplementationId).
  [[nodiscard]] virtual std::string_view implementation_id() const noexcept = 0;

  /// Originates configured networks and starts all neighbor sessions.
  virtual void start() = 0;

  [[nodiscard]] virtual const RouterConfig& config() const noexcept = 0;
  [[nodiscard]] virtual const Rib& loc_rib() const noexcept = 0;
  [[nodiscard]] virtual const std::map<util::IpPrefix, std::uint32_t>& best_flips()
      const noexcept = 0;
  /// Highest per-prefix best-route flip count since the last reset — O(1);
  /// the oscillation early-exit polls it every convergence round.
  [[nodiscard]] virtual std::uint32_t max_best_flips() const noexcept = 0;
  virtual void reset_flip_counters() = 0;
  [[nodiscard]] virtual const Stats& stats() const noexcept = 0;
  [[nodiscard]] virtual std::size_t established_session_count() const = 0;

  /// Disables automatic session restart (clones leave crashed sessions
  /// observable for the crash checker).
  virtual void set_auto_restart(bool enabled) noexcept = 0;
  /// Administratively resets one session (the paper's "local session
  /// reset" scenario); the session auto-restarts after a delay.
  virtual void reset_session(sim::NodeId peer) = 0;
  /// Returns the node to its just-constructed state for clone-arena reuse.
  virtual void reset_for_reuse() = 0;

  /// Normalized selected-route summary for cross-implementation comparison.
  [[nodiscard]] virtual RibDigest rib_digest() const {
    return RibDigest{loc_rib().content_hash(), loc_rib().size()};
  }

  /// Invokes `fn` once per prefix the node holds an opinion about (locally
  /// originated, learned, or selected): prefixes in ascending order, each
  /// once. The candidates are the locally originated route (if the prefix
  /// is a configured network), then the Adj-RIB-In entries in ascending
  /// peer order, which is the order the decision process saw them in. A
  /// prefix only in the Loc-RIB has no candidates and a non-null selection.
  /// The DecisionView pointers are valid only for the duration of the call.
  virtual void for_each_decision(
      const std::function<void(const DecisionView&)>& fn) const = 0;

 protected:
  [[nodiscard]] snapshot::Checkpointable& checkpointable() override { return *this; }
};

/// The route a router originates for `prefix`, one of its configured
/// networks: origin IGP, next hop and source the router itself.
[[nodiscard]] Route local_route(const RouterConfig& config, const util::IpPrefix& prefix);

/// The candidate set of one decision, in the order for_each_decision
/// reports it: `local` if its prefix is a configured network, then each
/// Adj-RIB-In entry for that prefix in ascending peer order. The pointers
/// are valid while `local` lives and the tables are not written.
[[nodiscard]] std::vector<const Route*> collect_candidates(
    const RouterConfig& config, const std::map<sim::NodeId, Rib>& adj_in, const Route& local);

/// for_each_decision for an engine holding the usual RIBs: one ordered walk
/// with a cursor per Adj-RIB-In table, one over the sorted configured
/// networks and one over the Loc-RIB. The smallest prefix under any cursor
/// is the next decision and its candidates are the cursors sitting on it,
/// so no prefix is looked up and no route is copied.
void walk_decisions(const RouterConfig& config, const std::map<sim::NodeId, Rib>& adj_in,
                    const Rib& loc_rib,
                    const std::function<void(const NodeImplementation::DecisionView&)>& fn);

/// Process-wide factory table, keyed by implementation id. Blueprints name
/// implementations by id; dice::System resolves them here at construction.
/// Built-ins ("bgp", "fsm") are registered on first use; additional
/// engines may register before any System is built.
class NodeImplementationRegistry {
 public:
  using AddressBook = std::shared_ptr<const std::map<util::IpAddress, sim::NodeId>>;
  using Factory = std::function<std::unique_ptr<NodeImplementation>(
      sim::Network&, sim::NodeId, RouterConfig, AddressBook)>;

  [[nodiscard]] static NodeImplementationRegistry& instance();

  /// Replaces any existing factory under `id`.
  void register_factory(std::string id, Factory factory);
  [[nodiscard]] bool contains(std::string_view id) const;
  /// Registered ids in sorted order (campaign validation, docs).
  [[nodiscard]] std::vector<std::string> ids() const;
  /// Returns nullptr for an unknown id.
  [[nodiscard]] std::unique_ptr<NodeImplementation> create(
      std::string_view id, sim::Network& network, sim::NodeId node,
      RouterConfig config, AddressBook address_book) const;

 private:
  NodeImplementationRegistry();

  mutable std::mutex mutex_;
  std::map<std::string, Factory, std::less<>> factories_;
};

}  // namespace dice::bgp
