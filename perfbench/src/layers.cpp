#include "layers.hpp"

#include <cstdio>
#include <cstring>
#include <memory>

#include "dice/orchestrator.hpp"
#include "explore/solver_cache.hpp"
#include "obs/names.hpp"
#include "shard/wire.hpp"
#include "svc/soak_service.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace names = dice::obs::names;

void LayerMetrics::emit(Report& report) const {
  report.metric("concolic.generate_ms", concolic_generate_ms, "ms");
  report.metric("concolic.generate_share", concolic_generate_share, "ratio");
  report.metric("concolic.executions", concolic_executions, "count");
  report.metric("concolic.solver_queries", concolic_solver_queries, "count");
  report.metric("concolic.solver_sat_ratio", concolic_solver_sat_ratio, "ratio");
  report.metric("fuzz.generate_ms", fuzz_generate_ms, "ms");
  report.metric("fuzz.generate_share", fuzz_generate_share, "ratio");
  report.metric("dice.episode_ms_p50", dice_episode_ms_p50, "ms");
  report.metric("dice.episode_ms_p90", dice_episode_ms_p90, "ms");
  report.metric("dice.snapshot_ms", dice_snapshot_ms, "ms");
  report.metric("dice.restore_ms", dice_restore_ms, "ms");
  report.metric("dice.clone_ms", dice_clone_ms, "ms");
  report.metric("dice.converge_ms", dice_converge_ms, "ms");
  report.metric("dice.check_ms", dice_check_ms, "ms");
  report.metric("dice.clone_reuse_ratio", dice_clone_reuse_ratio, "ratio");
  report.metric("dice.early_exit_ratio", dice_early_exit_ratio, "ratio");
  report.metric("dice.unattributed_share", dice_unattributed_share, "ratio");
  report.metric("snapshot.bytes_per_episode", snapshot_bytes_per_episode, "bytes");
  report.metric("snapshot.delta_node_ratio", snapshot_delta_node_ratio, "ratio");
  report.metric("bgp.episode_ms_p50", bgp_episode_ms_p50, "ms");
  report.metric("bgp2.episode_ms_p50", bgp2_episode_ms_p50, "ms");
  report.metric("explore.occupancy", explore_occupancy, "ratio");
  report.metric("explore.pool_steals", explore_pool_steals, "count");
  report.metric("explore.pool_helped", explore_pool_helped, "count");
  report.metric("explore.merge_tail_ms", explore_merge_tail_ms, "ms");
  report.metric("explore.solver_cache_hit_ratio", explore_solver_cache_hit_ratio, "ratio");
  report.metric("explore.live_cache_hit_ratio", explore_live_cache_hit_ratio, "ratio");
  report.metric("explore.bootstrap_ms_cold", explore_bootstrap_ms_cold, "ms");
  report.metric("explore.bootstrap_ms_cached", explore_bootstrap_ms_cached, "ms");
  report.metric("svc.restart_to_first_fault_ms_p50", svc_restart_to_first_fault_ms_p50, "ms");
  report.metric("svc.construct_ms", svc_construct_ms, "ms");
  report.metric("svc.store_load_ms", svc_store_load_ms, "ms");
  report.metric("svc.store_save_ms", svc_store_save_ms, "ms");
  report.metric("svc.resume_ms", svc_resume_ms, "ms");
  report.metric("svc.first_cell_ms", svc_first_cell_ms, "ms");
  report.metric("svc.store_bytes", svc_store_bytes, "bytes");
  report.metric("shard.encode_us_per_cell", shard_encode_us_per_cell, "us");
  report.metric("shard.decode_us_per_cell", shard_decode_us_per_cell, "us");
  report.metric("shard.frame_bytes_per_cell", shard_frame_bytes_per_cell, "bytes");
  report.metric("shard.first_commit_ms", shard_first_commit_ms, "ms");
  report.metric("shard.workers_spawned", shard_workers_spawned, "count");
  report.metric("shard.redeals", shard_redeals, "count");
  report.metric("shard.overhead_ratio", shard_overhead_ratio, "ratio");
  report.metric("obs.trace_overhead_ratio", obs_trace_overhead_ratio, "ratio");
}

void harvest_trace(const dice::obs::Trace& trace,
                   const std::vector<std::string>& implementation, EpisodeTimes& into) {
  for (const dice::obs::TraceEvent& event : trace.events()) {
    const double ms = event.dur_us / 1000.0;
    if (std::strcmp(event.name, "cell") == 0) {
      into.cell_ms += ms;
    } else if (std::strcmp(event.name, "episode") == 0) {
      into.all_ms.push_back(ms);
      const std::string impl =
          event.cell < implementation.size() ? implementation[event.cell] : std::string();
      (impl == "fsm" ? into.bgp2_ms : into.bgp_ms).push_back(ms);
    }
  }
}

void emit_episode_times(const EpisodeTimes& times, LayerMetrics& layers) {
  layers.dice_episode_ms_p50 = quantile(times.all_ms, 0.5);
  layers.dice_episode_ms_p90 = quantile(times.all_ms, 0.9);
  layers.bgp_episode_ms_p50 = quantile(times.bgp_ms, 0.5);
  layers.bgp2_episode_ms_p50 = quantile(times.bgp2_ms, 0.5);
}

void CounterTotals::add(const dice::obs::MetricsSnapshot& delta) {
  clones += static_cast<double>(delta.counter_value(names::kClones));
  reused += static_cast<double>(delta.counter_value(names::kClonesReused));
  early_exit += static_cast<double>(delta.counter_value(names::kClonesEarlyExit));
  delta_nodes += static_cast<double>(delta.counter_value(names::kSnapshotDeltaNodes));
  baseline_nodes += static_cast<double>(delta.counter_value(names::kSnapshotBaselineNodes));
  steals += static_cast<double>(delta.counter_value(names::kPoolSteals) +
                                delta.counter_value(names::kPoolChildSteals));
  helped += static_cast<double>(delta.counter_value(names::kPoolHelped));
}

void CounterTotals::emit(LayerMetrics& layers, double rounds) const {
  layers.dice_clone_reuse_ratio = ratio(reused, clones);
  layers.dice_early_exit_ratio = ratio(early_exit, clones);
  layers.snapshot_delta_node_ratio = ratio(delta_nodes, delta_nodes + baseline_nodes);
  layers.explore_pool_steals = ratio(steals, rounds);
  layers.explore_pool_helped = ratio(helped, rounds);
}

void time_shard_codec(const dice::explore::MatrixResult& round,
                      const std::unordered_map<std::size_t,
                                               std::vector<dice::core::FaultReport>>& faults,
                      LayerMetrics& layers, Report& report) {
  // Enough repetitions that a ~10 µs encode is timed over milliseconds.
  constexpr std::size_t kRepeats = 20;
  std::vector<dice::shard::CellResultMsg> messages;
  for (std::size_t i = 0; i < round.cells.size(); ++i) {
    dice::shard::CellResultMsg message;
    message.index = i;
    message.result = round.cells[i];
    if (const auto it = faults.find(i); it != faults.end()) message.faults = it->second;
    messages.push_back(std::move(message));
  }
  if (messages.empty()) return;

  std::vector<dice::util::Bytes> encoded(messages.size());
  const Clock::time_point encode_start = Clock::now();
  for (std::size_t repeat = 0; repeat < kRepeats; ++repeat) {
    for (std::size_t i = 0; i < messages.size(); ++i) {
      encoded[i] = dice::shard::encode_cell_result(messages[i]);
    }
  }
  const double encode_ms = ms_since(encode_start);

  std::size_t bad = 0;
  const Clock::time_point decode_start = Clock::now();
  for (std::size_t repeat = 0; repeat < kRepeats; ++repeat) {
    for (std::size_t i = 0; i < encoded.size(); ++i) {
      auto decoded = dice::shard::decode_message(encoded[i]);
      if (repeat > 0) continue;
      const auto* cell =
          decoded.ok() ? std::get_if<dice::shard::CellResultMsg>(&decoded.value()) : nullptr;
      if (cell == nullptr || cell->index != i ||
          dice::svc::fault_set_hash(cell->faults) !=
              dice::svc::fault_set_hash(messages[i].faults)) {
        ++bad;
      }
    }
  }
  const double decode_ms = ms_since(decode_start);
  if (bad > 0) report.fail(std::to_string(bad) + " cell result(s) did not round-trip the wire");

  double bytes = 0;
  for (const dice::util::Bytes& frame : encoded) bytes += static_cast<double>(frame.size());
  const double per_cell = static_cast<double>(kRepeats * messages.size());
  layers.shard_encode_us_per_cell = encode_ms * 1000.0 / per_cell;
  layers.shard_decode_us_per_cell = decode_ms * 1000.0 / per_cell;
  layers.shard_frame_bytes_per_cell = bytes / static_cast<double>(messages.size());
}

namespace {

/// Times the library strategy's generation calls from outside.
class TimedStrategy final : public dice::core::InputStrategy {
 public:
  TimedStrategy(dice::core::InputStrategy& inner, Spans& spans, bool concolic)
      : inner_(inner), spans_(spans), concolic_(concolic) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_.name(); }
  void on_episode(const dice::core::System& live, dice::sim::NodeId explorer) override {
    const dice::obs::Span span(
        &spans_, concolic_ ? "ConcolicStrategy::on_episode" : "GrammarStrategy::on_episode", 0);
    const Clock::time_point start = Clock::now();
    inner_.on_episode(live, explorer);
    ms_ += ms_since(start);
  }
  [[nodiscard]] std::vector<dice::util::Bytes> next_batch(std::size_t n) override {
    const dice::obs::Span span(
        &spans_, concolic_ ? "ConcolicStrategy::next_batch" : "GrammarStrategy::next_batch", 0);
    const Clock::time_point start = Clock::now();
    std::vector<dice::util::Bytes> batch = inner_.next_batch(n);
    ms_ += ms_since(start);
    return batch;
  }
  /// Generation time since the last call.
  [[nodiscard]] double take_ms() noexcept {
    const double ms = ms_;
    ms_ = 0.0;
    return ms;
  }

 private:
  dice::core::InputStrategy& inner_;
  Spans& spans_;
  bool concolic_;
  double ms_ = 0.0;
};

/// Counts solver queries and their SAT verdicts at the memo boundary: the
/// solver consults its memo on every query and stores every SAT model, so
/// lookups are the queries and SAT hits plus SAT stores are the SAT
/// verdicts.
class CountingMemo final : public dice::concolic::SolverMemo {
 public:
  [[nodiscard]] bool lookup(std::uint64_t key, std::optional<dice::util::Bytes>& result) override {
    ++queries;
    const bool hit = cache_.lookup(key, result);
    if (hit && result.has_value()) ++sat;
    return hit;
  }
  void store(std::uint64_t key, const std::optional<dice::util::Bytes>& result) override {
    if (result.has_value()) ++sat;
    cache_.store(key, result);
  }
  void seed_unsat(const std::vector<std::uint64_t>& keys) { cache_.seed_unsat(keys); }

  double queries = 0;
  double sat = 0;

 private:
  dice::explore::SolverCache cache_;
};

}  // namespace

std::vector<std::size_t> pick_cells(std::size_t total, std::size_t count, std::uint64_t seed) {
  std::vector<std::size_t> cells;
  if (total == 0) return cells;
  count = std::min(count, total);
  const std::size_t stride = total / count;
  for (std::size_t k = 0; k < count; ++k) {
    cells.push_back(k * stride + static_cast<std::size_t>((seed + k) % stride));
  }
  return cells;
}

void replay_cells(const std::vector<dice::explore::ScenarioSpec>& scenarios,
                  const dice::explore::CampaignOptions& options,
                  const std::vector<std::size_t>& cells,
                  const std::unordered_map<std::size_t,
                                           std::vector<dice::core::FaultReport>>& expected,
                  const ReplayOptions& replay, Spans& spans, LayerMetrics& layers,
                  Report& report) {
  EpisodeTimes* episode_times = replay.episode_times;
  CounterTotals* counters = replay.counters;
  using dice::explore::StrategyKind;
  dice::explore::MatrixOptions matrix = options.to_matrix_options();
  if (matrix.implementations.empty()) matrix.implementations.push_back(std::string());
  const std::vector<dice::explore::CellIdentity> identities =
      dice::explore::enumerate_cells(scenarios.size(), matrix);

  double episode_ms = 0, snapshot_ms = 0, restore_ms = 0, generate_ms = 0, clone_ms = 0,
         converge_ms = 0, check_ms = 0, snapshot_bytes = 0;
  double executions = 0, queries = 0, sat = 0;
  std::size_t episodes = 0;
  bool concolic = false;
  std::size_t mismatched = 0;

  const dice::obs::Span pass_span(&spans, "attribution pass", 0);
  for (const std::size_t index : cells) {
    const dice::explore::CellIdentity& cell = identities.at(index);
    const dice::obs::Span cell_span(&spans, "replay cell", 0);
    dice::bgp::SystemBlueprint blueprint = scenarios[cell.scenario].blueprint;
    const std::string& impl = matrix.implementations[cell.impl_pos];
    if (!impl.empty()) blueprint.set_all_implementations(impl);
    auto prototype = std::make_shared<const dice::core::SystemPrototype>(blueprint);

    // The matrix's own per-cell derivation: stream 2i roots the clone RNG,
    // stream 2i+1 seeds the strategy.
    dice::core::DiceOptions dice_options = matrix.dice;
    dice_options.parallelism = 1;
    dice_options.rng_seed = dice::util::Rng(cell.seed).fork(2 * index).next();
    const std::uint64_t strategy_seed =
        matrix.strategy_seed.has_value()
            ? *matrix.strategy_seed
            : dice::util::Rng(cell.seed).fork(2 * index + 1).next();

    dice::core::Orchestrator orchestrator(prototype, dice_options);
    {
      const dice::obs::Span span(&spans, "Orchestrator::bootstrap", 0);
      (void)orchestrator.bootstrap(matrix.bootstrap_events);
    }

    CountingMemo solver_cache;
    if (matrix.unsat_seed != nullptr) solver_cache.seed_unsat(*matrix.unsat_seed);
    std::unique_ptr<dice::core::InputStrategy> inner;
    dice::core::ConcolicStrategy* concolic_strategy = nullptr;
    // The workloads replay grammar and concolic cells, built exactly as
    // the matrix builds them; any other strategy would fail the fault check.
    if (cell.strategy == StrategyKind::kConcolic) {
      dice::core::ConcolicStrategy::Options concolic_options;
      concolic_options.rng_seed = strategy_seed;
      concolic_options.solver_memo = &solver_cache;
      auto strategy = std::make_unique<dice::core::ConcolicStrategy>(concolic_options);
      concolic_strategy = strategy.get();
      inner = std::move(strategy);
      concolic = true;
    } else {
      inner = std::make_unique<dice::core::GrammarStrategy>(0.05, strategy_seed, false);
    }
    TimedStrategy timed(*inner, spans, concolic_strategy != nullptr);

    for (std::size_t e = 0; e < matrix.episodes_per_cell; ++e) {
      const dice::obs::Span span(&spans, "Orchestrator::run_episode", 0);
      const Clock::time_point start = Clock::now();
      const dice::core::EpisodeResult result = orchestrator.run_episode(timed);
      const double ms = ms_since(start);
      episode_ms += ms;
      if (episode_times != nullptr) {
        episode_times->all_ms.push_back(ms);
        (impl == "fsm" ? episode_times->bgp2_ms : episode_times->bgp_ms).push_back(ms);
      }
      snapshot_ms += result.snapshot_ms;
      restore_ms += result.restore_ms;
      generate_ms += timed.take_ms();
      clone_ms += result.clone_ms;
      converge_ms += result.explore_ms;
      check_ms += result.check_ms;
      snapshot_bytes += static_cast<double>(result.snapshot_bytes);
      if (counters != nullptr) {
        counters->clones += static_cast<double>(result.clones_run);
        counters->reused += static_cast<double>(result.clones_reused);
        counters->early_exit += static_cast<double>(result.clones_early_exit);
      }
      ++episodes;
    }
    if (concolic_strategy != nullptr) {
      executions += static_cast<double>(concolic_strategy->stats().executions);
      queries += solver_cache.queries;
      sat += solver_cache.sat;
    }

    const auto it = expected.find(index);
    const std::uint64_t want =
        dice::svc::fault_set_hash(it == expected.end() ? std::vector<dice::core::FaultReport>{}
                                                       : it->second);
    const std::uint64_t got = dice::svc::fault_set_hash(orchestrator.all_faults());
    if (want != got) {
      ++mismatched;
      std::printf("replay: cell %zu faults %s, timed run had %s\n", index, hex64(got).c_str(),
                  hex64(want).c_str());
    }
  }
  if (mismatched > 0) {
    report.fail(std::to_string(mismatched) + " of " + std::to_string(cells.size()) +
                " replayed cell(s) did not reproduce the timed run's fault bytes");
  }
  if (episodes == 0) return;

  const double n = static_cast<double>(episodes);
  const double attributed =
      snapshot_ms + restore_ms + generate_ms + clone_ms + converge_ms + check_ms;
  const double unattributed = std::max(0.0, episode_ms - attributed) / episode_ms;
  layers.dice_unattributed_share = std::max(layers.dice_unattributed_share, unattributed);
  if (replay.phases) {
    layers.dice_snapshot_ms = snapshot_ms / n;
    layers.dice_restore_ms = restore_ms / n;
    layers.dice_clone_ms = clone_ms / n;
    layers.dice_converge_ms = converge_ms / n;
    layers.dice_check_ms = check_ms / n;
    layers.snapshot_bytes_per_episode = snapshot_bytes / n;
  }
  if (concolic) {
    layers.concolic_generate_ms = generate_ms / n;
    layers.concolic_generate_share = generate_ms / episode_ms;
    layers.concolic_executions = executions / n;
    layers.concolic_solver_queries = queries / n;
    layers.concolic_solver_sat_ratio = ratio(sat, queries);
  } else {
    layers.fuzz_generate_ms = generate_ms / n;
    layers.fuzz_generate_share = generate_ms / episode_ms;
  }
  std::printf("replay: %zu %s cell(s), %zu episode(s), %.1f ms of episodes, %.2f%% "
              "unattributed, %.1f%% generation\n",
              cells.size(), concolic ? "concolic" : "non-concolic", episodes, episode_ms,
              100.0 * unattributed, 100.0 * generate_ms / episode_ms);
  if (replay.gate_unattributed && unattributed >= 0.05) {
    report.fail("attribution left " + std::to_string(100.0 * unattributed) +
                "% of episode time unattributed (gate: < 5%)");
  }
}

void finish_trace(const Args& args, Spans& spans, dice::obs::Trace* program_trace) {
  const std::string stem = args.work_dir + "/" + args.workload;
  if (!spans.write_chrome_json(stem + ".spans.json")) {
    std::printf("could not write %s.spans.json\n", stem.c_str());
  }
  if (spans.dropped() > 0) {
    std::printf("%llu bench span(s) dropped\n",
                static_cast<unsigned long long>(spans.dropped()));
  }
  if (program_trace != nullptr && !program_trace->write_chrome_json(stem + ".program.json")) {
    std::printf("could not write %s.program.json\n", stem.c_str());
  }
  std::printf("self time per module (bench spans):\n");
  for (const auto& [module, ms] : self_ms_by_module(spans)) {
    std::printf("  %-10s %12.1f ms\n", module.c_str(), ms);
  }
}

}  // namespace perfbench
