// E9 — clone setup cost: legacy clone_from vs the zero-redecode pipeline.
//
// The legacy path pays O(construct + decode) per clone: build a System from
// the blueprint, then re-parse every node checkpoint from raw bytes. The
// prepared path decodes once (PreparedSnapshot) and either constructs fresh
// Systems that apply typed state, or — the arena path — resets one reusable
// System per worker. This harness measures per-clone setup microseconds and
// checkpoint-decode counts for all three on the 27-router Figure 1 topology
// and emits one JSON line (also written to BENCH_clone_restore.json) for the
// perf-trajectory records. Acceptance: arena reset >= 2x faster than legacy.
//
// RIB tables are copy-on-write: a reset shares every table with the
// prepared snapshot (table_copies 0), and a clone that then takes an input
// and converges copies only the tables the input reaches — the last row
// resets one session per clone and counts its copies against the cut's
// table total.
#include <cstdio>

#include "bench_util.hpp"
#include "dice/system.hpp"
#include "explore/arena.hpp"

namespace {

using namespace dice;

struct Measurement {
  double us_per_clone = 0.0;
  double decodes_per_clone = 0.0;
  double table_copies_per_clone = 0.0;
};

constexpr std::size_t kClones = 64;

}  // namespace

int main() {
  using bench::fmt;

  std::puts("== E9: per-clone setup — legacy clone_from vs prepared reset ==\n");

  bgp::SystemBlueprint blueprint = bgp::make_internet();  // 27 routers
  bgp::inject_hijack(blueprint, /*victim=*/12, /*attacker=*/20, /*more_specific=*/true);
  auto prototype = std::make_shared<const core::SystemPrototype>(std::move(blueprint));

  core::System live(prototype);
  live.start();
  if (!live.converge()) {
    std::puts("live system failed to converge");
    return 1;
  }
  const snapshot::SnapshotId id = live.take_snapshot(0);
  if (id == 0) {
    std::puts("snapshot failed");
    return 1;
  }
  const snapshot::Snapshot* raw = live.snapshots().find(id);
  std::printf("snapshot: %zu nodes, %zu state bytes, %zu in flight\n\n", raw->nodes.size(),
              raw->total_state_bytes(), raw->total_in_flight());

  // Decode-once cost (amortized over every clone of the episode).
  const std::uint64_t decodes_prepare_before = bgp::checkpoint_decode_count();
  bench::Stopwatch prepare_watch;
  const auto prepared = live.prepare_snapshot(id);
  const double prepare_us = prepare_watch.ms() * 1000.0;
  const std::uint64_t prepare_decodes =
      bgp::checkpoint_decode_count() - decodes_prepare_before;
  if (prepared == nullptr) {
    std::puts("prepare_snapshot failed");
    return 1;
  }

  const auto measure = [](auto&& setup_one) {
    const std::uint64_t decodes_before = bgp::checkpoint_decode_count();
    const std::uint64_t copies_before = bgp::rib_table_copy_count();
    bench::Stopwatch watch;
    for (std::size_t i = 0; i < kClones; ++i) setup_one();
    Measurement m;
    m.us_per_clone = watch.ms() * 1000.0 / static_cast<double>(kClones);
    m.decodes_per_clone =
        static_cast<double>(bgp::checkpoint_decode_count() - decodes_before) /
        static_cast<double>(kClones);
    m.table_copies_per_clone =
        static_cast<double>(bgp::rib_table_copy_count() - copies_before) /
        static_cast<double>(kClones);
    return m;
  };

  const Measurement legacy = measure([&] {
    auto clone = core::System::clone_from(live.blueprint(), *raw);
    if (clone == nullptr) std::abort();
  });

  const Measurement prepared_fresh = measure([&] {
    core::System clone(prototype);
    if (!clone.reset_from(*prepared).ok()) std::abort();
  });

  explore::CloneArena arena;
  const Measurement arena_reset = measure([&] {
    bool reused = false;
    if (arena.acquire(prototype, *prepared, reused) == nullptr) std::abort();
  });

  // A clone at work: reset, one input (a session reset on node 0), converge.
  const Measurement arena_converge = measure([&] {
    bool reused = false;
    core::System* clone = arena.acquire(prototype, *prepared, reused);
    if (clone == nullptr) std::abort();
    bgp::BgpRouter& router = clone->bgp_router(0);
    router.set_auto_restart(false);
    router.reset_session(router.sessions().begin()->first);
    (void)clone->converge(200'000);
  });
  std::size_t tables_per_clone = 0;
  for (const auto& [node, entry] : prepared->nodes()) {
    const auto& checkpoint = dynamic_cast<const bgp::RouterCheckpoint&>(*entry.state);
    tables_per_clone += checkpoint.adj_in.size() + checkpoint.adj_out.size() + 1;
  }

  bench::Table table(
      {"path", "us/clone", "decodes/clone", "tables copied/clone", "speedup vs legacy"});
  const auto row = [&](const char* name, const Measurement& m) {
    table.row({name, fmt(m.us_per_clone, 1), fmt(m.decodes_per_clone, 2),
               fmt(m.table_copies_per_clone, 1),
               fmt(legacy.us_per_clone / m.us_per_clone, 2)});
  };
  row("legacy clone_from (construct + decode)", legacy);
  row("prepared, fresh System (construct + apply)", prepared_fresh);
  row("prepared, arena reset (apply only)", arena_reset);
  row("arena reset + session reset + converge", arena_converge);
  table.print();
  std::printf("\nRIB tables in the cut: %zu; a converging clone copied %.1f of them\n",
              tables_per_clone, arena_converge.table_copies_per_clone);
  std::printf("one-time prepare: %.1f us, %llu decode(s) — amortized over all clones\n",
              prepare_us, static_cast<unsigned long long>(prepare_decodes));

  const double speedup = legacy.us_per_clone / arena_reset.us_per_clone;
  std::printf("arena speedup >= 2x: %s (%.2fx)\n", speedup >= 2.0 ? "YES" : "NO", speedup);

  char json[768];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"clone_restore\",\"topology\":\"internet27\",\"clones\":%zu,"
                "\"legacy_us_per_clone\":%.2f,\"prepared_fresh_us_per_clone\":%.2f,"
                "\"arena_us_per_clone\":%.2f,\"prepare_once_us\":%.2f,"
                "\"legacy_decodes_per_clone\":%.2f,\"arena_decodes_per_clone\":%.2f,"
                "\"speedup_arena_vs_legacy\":%.2f,\"tables_per_clone\":%zu,"
                "\"reset_table_copies_per_clone\":%.2f,\"table_copies_per_clone\":%.2f,"
                "\"converge_us_per_clone\":%.2f}",
                kClones, legacy.us_per_clone, prepared_fresh.us_per_clone,
                arena_reset.us_per_clone, prepare_us, legacy.decodes_per_clone,
                arena_reset.decodes_per_clone, speedup, tables_per_clone,
                arena_reset.table_copies_per_clone, arena_converge.table_copies_per_clone,
                arena_converge.us_per_clone);
  bench::emit_json("clone_restore", json);
  return 0;
}
