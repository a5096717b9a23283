// The traced run's per-layer metrics and the passes that measure them from
// outside the library: the attribution replay, the shard wire timing and
// the harvest of the program's own obs::Trace.
#pragma once

#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// Every per-layer metric of BENCHMARK.json. A traced run prints all of
/// them; a layer that is not on a workload's path reads 0 there.
struct LayerMetrics {
  double concolic_generate_ms = 0, concolic_generate_share = 0, concolic_executions = 0,
         concolic_solver_queries = 0, concolic_solver_sat_ratio = 0;
  double fuzz_generate_ms = 0, fuzz_generate_share = 0;
  double dice_episode_ms_p50 = 0, dice_episode_ms_p90 = 0, dice_snapshot_ms = 0,
         dice_restore_ms = 0, dice_clone_ms = 0, dice_converge_ms = 0, dice_check_ms = 0,
         dice_clone_reuse_ratio = 0, dice_early_exit_ratio = 0, dice_unattributed_share = 0;
  double snapshot_bytes_per_episode = 0, snapshot_delta_node_ratio = 0;
  double bgp_episode_ms_p50 = 0, bgp2_episode_ms_p50 = 0;
  double explore_occupancy = 0, explore_pool_steals = 0, explore_pool_helped = 0,
         explore_merge_tail_ms = 0, explore_solver_cache_hit_ratio = 0,
         explore_live_cache_hit_ratio = 0, explore_bootstrap_ms_cold = 0,
         explore_bootstrap_ms_cached = 0;
  double svc_restart_to_first_fault_ms_p50 = 0, svc_construct_ms = 0, svc_store_load_ms = 0,
         svc_store_save_ms = 0, svc_resume_ms = 0, svc_first_cell_ms = 0, svc_store_bytes = 0;
  double shard_encode_us_per_cell = 0, shard_decode_us_per_cell = 0,
         shard_frame_bytes_per_cell = 0, shard_first_commit_ms = 0,
         shard_workers_spawned = 0, shard_redeals = 0, shard_overhead_ratio = 0;
  double obs_trace_overhead_ratio = 0;

  void emit(Report& report) const;
};

/// Episode wall times the program's own trace recorded, overall and split
/// by the implementation axis of the episode's cell.
struct EpisodeTimes {
  std::vector<double> all_ms;
  std::vector<double> bgp_ms;
  std::vector<double> bgp2_ms;
  /// Σ cell span wall, for occupancy.
  double cell_ms = 0;
};
/// Adds a finalized trace's episode and cell spans. `implementation[i]` is
/// cell i's implementation-axis entry ("" = as authored, which is bgp).
void harvest_trace(const dice::obs::Trace& trace,
                   const std::vector<std::string>& implementation, EpisodeTimes& into);
void emit_episode_times(const EpisodeTimes& times, LayerMetrics& layers);

/// Clone, reuse, early-exit and snapshot-node counters of one round's
/// metrics delta, summed over rounds.
struct CounterTotals {
  double clones = 0, reused = 0, early_exit = 0, delta_nodes = 0, baseline_nodes = 0,
         steals = 0, helped = 0;
  void add(const dice::obs::MetricsSnapshot& delta);
  void emit(LayerMetrics& layers, double rounds) const;
};

/// Times the shard wire codec (encode_cell_result / decode_message) over a
/// round's real cell results and their faults.
void time_shard_codec(const dice::explore::MatrixResult& round,
                      const std::unordered_map<std::size_t,
                                               std::vector<dice::core::FaultReport>>& faults,
                      LayerMetrics& layers, Report& report);

/// What the attribution pass records besides its fault and phase checks.
struct ReplayOptions {
  /// Fail the run when 5% or more of episode time is unattributed.
  bool gate_unattributed = false;
  /// Write the dice phase and snapshot metrics (off when another replay of
  /// the same run owns them).
  bool phases = true;
  /// When given, receive replayed episode wall times and clone counters
  /// (for workloads whose own episodes run out of reach of the program
  /// trace and registry).
  EpisodeTimes* episode_times = nullptr;
  CounterTotals* counters = nullptr;
};

/// The attribution pass: replays `cells` (canonical indices) of the
/// campaign `options` over `scenarios` serially through core::Orchestrator
/// with the matrix's own seed derivation, checks each replayed cell's
/// fault bytes against `expected` (the timed campaign's per-cell faults),
/// and splits episode wall time into phases. Generation time lands in the
/// concolic or fuzz metrics by strategy; dice.unattributed_share keeps the
/// largest share any replay of the run left.
void replay_cells(const std::vector<dice::explore::ScenarioSpec>& scenarios,
                  const dice::explore::CampaignOptions& options,
                  const std::vector<std::size_t>& cells,
                  const std::unordered_map<std::size_t,
                                           std::vector<dice::core::FaultReport>>& expected,
                  const ReplayOptions& replay, Spans& spans, LayerMetrics& layers,
                  Report& report);

/// Picks `count` canonical cell indices out of `total`: one per stride,
/// at a position that starts from the run seed and steps by one, so
/// neighbouring axes (the implementation axis is innermost) alternate.
[[nodiscard]] std::vector<std::size_t> pick_cells(std::size_t total, std::size_t count,
                                                  std::uint64_t seed);

/// Writes the bench spans (and the program trace, when given) beside the
/// run's other files and prints self time per module.
void finish_trace(const Args& args, Spans& spans, dice::obs::Trace* program_trace);

}  // namespace perfbench
