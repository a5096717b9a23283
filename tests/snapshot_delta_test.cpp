// Delta checkpoints: snapshot cost scales with churn, not topology size —
// and NOTHING observable moves. The receipts: (1) a zero-churn snapshot
// writes one byte per node and resolves to the baseline's decoded objects
// (pointer-shared, not re-decoded); (2) churn re-encodes only the churned
// nodes; (3) the committed topology27 fault-set hash 63f680b04458c2a9 is
// byte-identical on the full and delta paths at workers 1, 2, 4 and 8;
// (4) a delta stream against a missing or wrong baseline fails with the
// stable codes, never a silent wrong restore; (5) legacy fixed-width
// streams (pre-v2 captures) still parse; (6) a resumed live system adopts
// the cut it applied as its first delta baseline, exactly, on both engines.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bgp/codec.hpp"
#include "bgp2/engine.hpp"
#include "dice/orchestrator.hpp"
#include "dice/system.hpp"
#include "util/hash.hpp"

namespace dice::snapshot {
namespace {

using bgp::make_internet;
using core::DiceOptions;
using core::FaultReport;
using core::GrammarStrategy;
using core::Orchestrator;
using core::System;

/// The committed cross-PR determinism receipt (see docs/DETERMINISM.md).
constexpr std::uint64_t kTopology27FaultHash = 0x63f680b04458c2a9ULL;

[[nodiscard]] std::uint64_t fault_hash(const std::vector<FaultReport>& faults) {
  std::uint64_t h = util::kFnvOffset;
  for (const FaultReport& fault : faults) h = util::fnv1a(fault.to_string(), h);
  return util::hash_finalize(h);
}

[[nodiscard]] bool is_delta(const Checkpoint& checkpoint) {
  return checkpoint.state.size() == 1 &&
         checkpoint.state[0] == kCheckpointSameAsBaseline;
}

TEST(SnapshotDeltaTest, ZeroChurnSecondSnapshotIsOneBytePerNode) {
  System system(make_internet());  // 27 routers
  system.set_delta_checkpoints(true);
  system.start();
  ASSERT_TRUE(system.converge());

  const SnapshotId first = system.take_snapshot(0);
  ASSERT_NE(first, 0u);
  const auto baseline = system.prepare_snapshot(first);
  ASSERT_NE(baseline, nullptr);
  const std::size_t full_bytes = system.snapshots().find(first)->total_state_bytes();

  // Nothing happened between the cuts (the marker sweep itself does not
  // mutate checkpointed router state), so EVERY node rides the delta.
  const SnapshotId second = system.take_snapshot(0);
  ASSERT_NE(second, 0u);
  const Snapshot* raw = system.snapshots().find(second);
  ASSERT_NE(raw, nullptr);
  EXPECT_EQ(raw->baseline_id, first);
  for (const auto& [node, checkpoint] : raw->nodes) {
    EXPECT_TRUE(is_delta(checkpoint)) << "node " << node << " re-encoded in full";
  }
  EXPECT_EQ(raw->total_state_bytes(), raw->nodes.size());
  EXPECT_LT(raw->total_state_bytes(), full_bytes / 10);

  // Resolution shares the baseline's decoded objects — same pointers, same
  // hashes, same cut fingerprint as the full encode.
  const auto prepared = system.prepare_snapshot(second);
  ASSERT_NE(prepared, nullptr);
  ASSERT_EQ(prepared->nodes().size(), baseline->nodes().size());
  for (const auto& [node, entry] : prepared->nodes()) {
    const auto& base = baseline->nodes().at(node);
    EXPECT_EQ(entry.state.get(), base.state.get()) << "node " << node;
    EXPECT_EQ(entry.hash, base.hash) << "node " << node;
  }
}

TEST(SnapshotDeltaTest, ChurnReencodesOnlyChurnedNodesAndRestoresIdentically) {
  // Two systems of the same blueprint run the identical deterministic
  // script; only the checkpoint encoding differs. The delta cut must carry
  // the same per-node state as the full cut, byte-for-byte after restore.
  const auto script = [](System& system, bool delta) -> SnapshotId {
    system.set_delta_checkpoints(delta);
    system.start();
    EXPECT_TRUE(system.converge());
    const SnapshotId baseline_id = system.take_snapshot(0);
    EXPECT_NE(baseline_id, 0u);
    EXPECT_NE(system.prepare_snapshot(baseline_id), nullptr);
    // Churn one router: a session reset dirties it immediately; the second
    // cut follows before the teardown propagates far.
    const sim::NodeId churned = 12;
    system.router(churned).reset_session(system.network().neighbors(churned).front());
    return system.take_snapshot(0);
  };

  System with_delta(make_internet());
  System full_only(make_internet());
  const SnapshotId delta_id = script(with_delta, true);
  const SnapshotId full_id = script(full_only, false);
  ASSERT_NE(delta_id, 0u);
  ASSERT_NE(full_id, 0u);
  const Snapshot* delta_raw = with_delta.snapshots().find(delta_id);
  const Snapshot* full_raw = full_only.snapshots().find(full_id);
  ASSERT_NE(delta_raw, nullptr);
  ASSERT_NE(full_raw, nullptr);

  std::size_t full_nodes = 0;
  for (const auto& [node, checkpoint] : delta_raw->nodes) {
    if (!is_delta(checkpoint)) ++full_nodes;
  }
  EXPECT_GE(full_nodes, 1u);  // the churned node must re-encode...
  EXPECT_FALSE(is_delta(delta_raw->nodes.at(12)));
  // ...and churn must stay local: far fewer full encodes than nodes.
  EXPECT_LT(full_nodes, delta_raw->nodes.size() / 2);
  EXPECT_LT(delta_raw->total_state_bytes(), full_raw->total_state_bytes() / 2)
      << "delta cut did not shrink";

  // Same cut fingerprint (hashes are always full-state hashes) and
  // byte-identical restored state on both paths.
  EXPECT_EQ(delta_raw->cut_hash(), full_raw->cut_hash());
  const auto delta_prepared = with_delta.prepare_snapshot(delta_id);
  const auto full_prepared = full_only.prepare_snapshot(full_id);
  ASSERT_NE(delta_prepared, nullptr);
  ASSERT_NE(full_prepared, nullptr);
  System delta_clone(with_delta.prototype());
  System full_clone(full_only.prototype());
  ASSERT_TRUE(delta_clone.reset_from(*delta_prepared).ok());
  ASSERT_TRUE(full_clone.reset_from(*full_prepared).ok());
  for (std::size_t i = 0; i < delta_clone.size(); ++i) {
    const sim::NodeId node = static_cast<sim::NodeId>(i);
    EXPECT_EQ(delta_clone.router(node).state_hash(), full_clone.router(node).state_hash())
        << "restore diverged at node " << i;
  }
}

TEST(SnapshotDeltaTest, MissingOrWrongBaselineIsRejectedNotMisrestored) {
  System system(make_internet({2, 3, 4}));
  system.set_delta_checkpoints(true);
  system.start();
  ASSERT_TRUE(system.converge());
  const SnapshotId first = system.take_snapshot(0);
  ASSERT_NE(system.prepare_snapshot(first), nullptr);
  const SnapshotId second = system.take_snapshot(0);
  const Snapshot* raw = system.snapshots().find(second);
  ASSERT_NE(raw, nullptr);
  ASSERT_EQ(raw->baseline_id, first);

  const auto resolver = [&](sim::NodeId node) -> const Checkpointable* {
    return node < system.size() ? &system.router(node) : nullptr;
  };
  // No baseline at all.
  auto no_baseline = PreparedSnapshot::build(*raw, resolver, nullptr);
  ASSERT_FALSE(no_baseline.ok());
  EXPECT_EQ(no_baseline.error().code, "prepared.delta.baseline_mismatch");

  // A baseline with the wrong id (the delta snapshot itself, prepared).
  const auto wrong = system.prepare_snapshot(second);
  ASSERT_NE(wrong, nullptr);
  ASSERT_NE(wrong->id(), first);
  auto wrong_baseline = PreparedSnapshot::build(*raw, resolver, wrong.get());
  ASSERT_FALSE(wrong_baseline.ok());
  EXPECT_EQ(wrong_baseline.error().code, "prepared.delta.baseline_mismatch");

  // A delta envelope must never reach the byte decoder either.
  util::Bytes envelope{kCheckpointSameAsBaseline};
  util::ByteReader reader(envelope);
  auto direct = system.router(0).parse(reader);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.error().code, "router.restore.delta_unresolved");
}

TEST(SnapshotDeltaTest, LegacyFixedWidthStreamStillParses) {
  // A pre-v2 capture of an empty router: u32 session count, u32 adj-in
  // count, legacy Loc-RIB (u32 route count), u32 adj-out count, u32 flip
  // count — all zero. First byte 0x00 routes to the legacy decoder.
  System system(make_internet({2, 3, 4}));
  const util::Bytes legacy(20, 0x00);
  util::ByteReader reader(legacy);
  auto decoded = system.router(0).parse(reader);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(reader.remaining(), 0u);
  auto status = system.router(0).apply(*decoded.value());
  EXPECT_TRUE(status.ok()) << status.error().to_string();
  EXPECT_EQ(system.router(0).loc_rib().size(), 0u);
}

// ---------------------------------------------------------------------------
// The acceptance pin: full vs delta, workers 1/2/4/8, one literal hash
// ---------------------------------------------------------------------------

[[nodiscard]] std::uint64_t topology27_hash(std::size_t workers, bool delta) {
  bgp::SystemBlueprint blueprint = make_internet();  // 27 routers
  bgp::inject_hijack(blueprint, /*victim=*/12, /*attacker=*/20, /*more_specific=*/true);
  bgp::inject_bug(blueprint, /*node=*/5, bgp::bugs::kCommunityLength);

  DiceOptions options;
  options.inputs_per_episode = 32;
  options.parallelism = workers;
  options.delta_snapshots = delta;
  Orchestrator dice(std::move(blueprint), options);
  EXPECT_TRUE(dice.bootstrap());
  GrammarStrategy strategy(/*corruption_rate=*/0.05, /*rng_seed=*/0xf1f1);
  std::size_t delta_nodes = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    delta_nodes += dice.run_episode(strategy).snapshot_delta_nodes;
  }
  // Episode 1 has no baseline (all full); episode 2 deltas the quiet nodes.
  if (delta) {
    EXPECT_GT(delta_nodes, 0u) << "delta path never engaged";
  } else {
    EXPECT_EQ(delta_nodes, 0u) << "delta engaged while disabled";
  }
  return fault_hash(dice.all_faults());
}

/// The churn counter behind the delta decision, whichever engine runs `node`.
[[nodiscard]] std::uint64_t state_version(System& system, sim::NodeId node) {
  if (const auto* fsm = dynamic_cast<const bgp2::FsmEngine*>(&system.router(node))) {
    return fsm->state_version();
  }
  return system.bgp_router(node).state_version();
}

/// A converged 27-router internet running `implementation` everywhere,
/// captured as the bootstrap a live-state cache would publish.
[[nodiscard]] std::shared_ptr<PreparedLiveState> capture_internet(
    const std::string& implementation) {
  bgp::SystemBlueprint blueprint = make_internet();
  blueprint.set_all_implementations(implementation);
  System donor(std::move(blueprint));
  donor.start();
  EXPECT_TRUE(donor.converge());
  return donor.capture_live_state();
}

TEST(SnapshotDeltaTest, ResumedCutIsTheFirstDeltaBaselineOnBothEngines) {
  for (const std::string implementation : {"bgp", "fsm"}) {
    SCOPED_TRACE(implementation);
    const auto state = capture_internet(implementation);
    ASSERT_NE(state, nullptr);
    // Resume the raw form, as a restarted daemon's primed entry does.
    PreparedLiveState raw_only;
    raw_only.raw = state->raw;
    raw_only.resume_at = state->resume_at;
    bgp::SystemBlueprint blueprint = make_internet();
    blueprint.set_all_implementations(implementation);
    System live(std::move(blueprint));
    live.set_delta_checkpoints(true);
    auto resumed = live.resume_from(raw_only);
    ASSERT_TRUE(resumed.ok());
    const std::shared_ptr<const PreparedSnapshot> cut = resumed.value();

    // Adoption is exact: each router's full-encode hash IS its cut hash.
    for (const auto& [node, entry] : cut->nodes()) {
      EXPECT_EQ(live.router(node).state_hash(), entry.hash) << "node " << node;
    }

    const SnapshotId first = live.take_snapshot(0);
    ASSERT_NE(first, 0u);
    EXPECT_GT(first, cut->id());
    const Snapshot* raw = live.snapshots().find(first);
    ASSERT_NE(raw, nullptr);
    EXPECT_EQ(raw->baseline_id, cut->id());
    for (const auto& [node, checkpoint] : raw->nodes) {
      EXPECT_TRUE(is_delta(checkpoint)) << "node " << node << " re-encoded in full";
    }
    EXPECT_EQ(raw->cut_hash(), cut->cut_hash());
    const auto prepared = live.prepare_snapshot(first);
    ASSERT_NE(prepared, nullptr);
    ASSERT_EQ(prepared->nodes().size(), cut->nodes().size());
    for (const auto& [node, entry] : prepared->nodes()) {
      EXPECT_EQ(entry.state.get(), cut->nodes().at(node).state.get()) << "node " << node;
    }
  }
}

TEST(SnapshotDeltaTest, RoutersThatMoveAfterAResumeEncodeInFull) {
  for (const std::string implementation : {"bgp", "fsm"}) {
    SCOPED_TRACE(implementation);
    const auto state = capture_internet(implementation);
    ASSERT_NE(state, nullptr);
    bgp::SystemBlueprint blueprint = make_internet();
    blueprint.set_all_implementations(implementation);
    System live(std::move(blueprint));
    live.set_delta_checkpoints(true);
    ASSERT_TRUE(live.resume_from(*state).ok());
    std::vector<std::uint64_t> versions;
    for (std::size_t i = 0; i < live.size(); ++i) {
      versions.push_back(state_version(live, static_cast<sim::NodeId>(i)));
    }

    // A new prefix announced to the last stub by its first neighbor.
    const sim::NodeId target = static_cast<sim::NodeId>(live.size() - 1);
    const sim::NodeId from = live.network().neighbors(target).front();
    bgp::UpdateMessage update;
    update.attrs.origin = bgp::Origin::kIgp;
    update.attrs.as_path = bgp::AsPath{{bgp::node_asn(from)}};
    update.attrs.next_hop = bgp::node_address(from);
    update.nlri.push_back(util::IpPrefix{util::IpAddress{10, 200, 0, 0}, 16});
    live.inject_message(from, target, bgp::encode(bgp::Message{update}).value());
    ASSERT_TRUE(live.converge());

    const SnapshotId first = live.take_snapshot(0);
    ASSERT_NE(first, 0u);
    const Snapshot* raw = live.snapshots().find(first);
    ASSERT_NE(raw, nullptr);
    std::size_t full = 0;
    std::size_t delta = 0;
    for (const auto& [node, checkpoint] : raw->nodes) {
      const bool moved = state_version(live, node) != versions[node];
      EXPECT_EQ(is_delta(checkpoint), !moved) << "node " << node;
      EXPECT_EQ(checkpoint.hash, live.router(node).state_hash()) << "node " << node;
      ++(is_delta(checkpoint) ? delta : full);
    }
    EXPECT_FALSE(is_delta(raw->nodes.at(target)));
    EXPECT_GE(full, 1u);
    EXPECT_GE(delta, 1u);
    // The mixed cut resolves: moved routers decode, the rest share the cut.
    EXPECT_NE(live.prepare_snapshot(first), nullptr);
  }
}

TEST(SnapshotDeltaTest, Topology27FaultHashByteIdenticalFullVsDelta) {
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(topology27_hash(workers, /*delta=*/true), kTopology27FaultHash)
        << "delta path, workers=" << workers;
    EXPECT_EQ(topology27_hash(workers, /*delta=*/false), kTopology27FaultHash)
        << "full path, workers=" << workers;
  }
}

}  // namespace
}  // namespace dice::snapshot
