// PreparedLiveState: the live-system variant of PreparedSnapshot.
//
// A PreparedSnapshot freezes a consistent cut so clones can be restored
// from it; a PreparedLiveState additionally records what a *live* System
// needs to carry on from that cut as if it had bootstrapped itself — the
// simulator resume point (sessions re-arm their timers relative to it, so
// later snapshot timestamps line up with a fresh bootstrap's) and the
// bootstrap verdict subsequent consumers replay. It is the artifact the
// explore::LiveStateCache publishes: the first ScenarioMatrix cell of a
// (prototype, seed) key converges its live system once and donates this
// capture; every later cell resumes from it in microseconds instead of
// replaying bootstrap.
//
// Only *quiescent* bootstraps are captured. A churning system's cut is a
// consistent state, but restoring it re-injects the in-flight frames on a
// fresh schedule — a different (if equally valid) interleaving. Verdicts
// must be scheduling-independent, so non-quiescent keys are marked
// uncacheable and replayed instead (cheap now that the oscillation
// early-exit governs bootstrap too).
#pragma once

#include <cstdint>
#include <memory>

#include "snapshot/prepared.hpp"

namespace dice::snapshot {

struct PreparedLiveState {
  /// Typed per-node checkpoints + pre-built in-flight frame schedule
  /// (empty for a quiescent capture) — shared with any concurrent holder.
  /// Null in a raw-only state primed from a persisted store: the first
  /// System::resume_from decodes `raw` and the cache publishes the result.
  std::shared_ptr<const PreparedSnapshot> snapshot;
  /// The raw (encoded) cut the decoded form above was built from. Kept so
  /// the capture can be serialized — svc::ArtifactStore persists these raw
  /// bytes and a restarted daemon re-decodes them against its own routers.
  /// Always standalone (baseline_id 0): captures happen before any episode
  /// snapshot exists to delta against. May be null for states that were
  /// assembled from an already-decoded source and never need persisting.
  std::shared_ptr<const Snapshot> raw;
  /// Simulator clock at capture (the donor's bootstrap end).
  sim::Time resume_at = 0;
  /// Events the donor's bootstrap executed (receipt for benches: the work
  /// every resumed cell skips).
  std::uint64_t bootstrap_executed = 0;
  /// Bootstrap verdict to replay on resume.
  bool quiesced = false;
  bool oscillation_exit = false;
};

}  // namespace dice::snapshot
