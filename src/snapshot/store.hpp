// Consistent snapshots and their store. A Snapshot is the Chandy-Lamport
// cut: one checkpoint per node plus the frames in flight on each directed
// channel at the cut. CloneFactory (dice module) rebuilds a shadow system
// from a Snapshot; the store keeps them addressable by id.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <shared_mutex>
#include <vector>

#include "sim/network.hpp"
#include "snapshot/checkpoint.hpp"

namespace dice::snapshot {

struct ChannelKey {
  sim::NodeId from = sim::kInvalidNode;
  sim::NodeId to = sim::kInvalidNode;
  auto operator<=>(const ChannelKey&) const = default;
};

struct Snapshot {
  SnapshotId id = 0;
  /// Snapshot this cut's delta checkpoints resolve against; 0 = standalone
  /// (every node checkpoint is self-contained). Stamped by the coordinator
  /// from the baseline the initiator advertised.
  SnapshotId baseline_id = 0;
  sim::Time taken_at = 0;
  std::map<sim::NodeId, Checkpoint> nodes;
  /// Payloads recorded in flight on each directed channel, oldest first.
  std::map<ChannelKey, std::vector<util::Bytes>> channels;

  [[nodiscard]] std::size_t total_state_bytes() const;
  [[nodiscard]] std::size_t total_in_flight() const;
  /// Combined hash over all node checkpoints (consistency fingerprint).
  [[nodiscard]] std::uint64_t cut_hash() const;
};

class PreparedSnapshot;

/// Thread-safety: reads (find/size) take a shared lock; writes (put/erase/
/// trim) take an exclusive lock. A found Snapshot* stays valid while other
/// ids are inserted or erased (std::map node stability), which is exactly
/// the pattern parallel exploration needs: the orchestrator publishes one
/// immutable snapshot, then many workers clone from it concurrently.
/// Callers must not erase/trim a snapshot while workers still hold its
/// pointer — the orchestrator only trims between episodes.
///
/// Prepared snapshots (the decode-once form) are published as
/// shared_ptr<const PreparedSnapshot>: find_prepared hands out a reference-
/// counted handle, so trim/erase may drop the store's entry at any time —
/// workers still holding the pointer keep the decoded state alive until
/// their clone run finishes (no between-episodes ordering constraint).
class SnapshotStore {
 public:
  /// Reserves a fresh snapshot id.
  [[nodiscard]] SnapshotId next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Advances the id counter past `id` (no-op when already past it), so
  /// later ids never collide with a cut adopted from another store.
  void reserve_through(SnapshotId id) noexcept {
    SnapshotId next = next_id_.load(std::memory_order_relaxed);
    while (next <= id &&
           !next_id_.compare_exchange_weak(next, id + 1, std::memory_order_relaxed)) {
    }
  }

  void put(Snapshot snapshot);
  [[nodiscard]] const Snapshot* find(SnapshotId id) const;
  [[nodiscard]] std::size_t size() const;
  void erase(SnapshotId id);
  /// erase() that hands the raw cut to the caller instead of destroying it
  /// (moved out, not copied). nullopt when `id` is unknown.
  [[nodiscard]] std::optional<Snapshot> take(SnapshotId id);
  /// Drops all but the most recent `keep` snapshots (bounded memory in
  /// long-running online testing). Prepared entries are trimmed in step.
  void trim(std::size_t keep);

  /// Publishes the decode-once form of `prepared->id()`.
  void put_prepared(std::shared_ptr<const PreparedSnapshot> prepared);
  /// nullptr when `id` has no prepared form (never built, or trimmed).
  [[nodiscard]] std::shared_ptr<const PreparedSnapshot> find_prepared(SnapshotId id) const;
  [[nodiscard]] std::size_t prepared_size() const;

 private:
  mutable std::shared_mutex mutex_;
  std::map<SnapshotId, Snapshot> snapshots_;
  std::map<SnapshotId, std::shared_ptr<const PreparedSnapshot>> prepared_;
  std::atomic<SnapshotId> next_id_{1};
};

}  // namespace dice::snapshot
