// grammar-matrix: explore::Campaign rounds over the five bench scenarios x
// 8 seeds x {bgp, fsm}, 4 workers, nested on. Its traced run also measures
// the concolic layer on a subset of the same cells.
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "layers.hpp"

namespace perfbench {

namespace explore = dice::explore;
using explore::StrategyKind;

namespace {

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kSeeds = 8;  // 80 cells, ~2 s per warm round
/// Cells the traced run replays through the attribution pass.
constexpr std::size_t kReplayCells = 20;
/// The traced run's concolic subset. A concolic cell costs from ~30 ms to
/// ~3 s with its seed, which is why concolic work is measured per replayed
/// episode in the traced run rather than as a timed workload.
constexpr std::size_t kConcolicCells = 10;

/// The concolic layer: a subset of the same cell space under the concolic
/// strategy (1 episode x 32 inputs) through explore::ScenarioMatrix on the
/// same worker count, then replayed for the generation split.
void concolic_subset(const Args& args, const std::vector<explore::ScenarioSpec>& scenarios,
                     Spans& spans, LayerMetrics& layers, Report& report) {
  explore::CampaignOptions options = grammar_matrix_options(args.seed);
  options.strategies = {StrategyKind::kConcolic};
  options.budgets.episodes_per_cell = 1;
  explore::MatrixOptions matrix = options.to_matrix_options();
  const std::vector<std::size_t> cells =
      pick_cells(explore::enumerate_cells(scenarios.size(), matrix).size(), kConcolicCells,
                 args.seed);
  matrix.cell_subset = cells;
  explore::ScenarioMatrix subset(scenarios, matrix);
  explore::ExplorePool pool(kWorkers);
  RoundObserver observer;
  observer.reset(Clock::now(), true);
  explore::RunControl control;
  control.observer = &observer;
  explore::MatrixResult result;
  {
    const dice::obs::Span span(&spans, "ScenarioMatrix::run (concolic subset)", 0);
    result = subset.run(pool, control);
  }
  report.attempt(cells.size(), cells.size() - result.cells_completed);
  if (result.cells_completed != cells.size()) report.fail("concolic subset left cells undone");
  layers.explore_solver_cache_hit_ratio =
      ratio(static_cast<double>(result.solver_cache.hits),
            static_cast<double>(result.solver_cache.hits + result.solver_cache.misses));
  ReplayOptions replay;
  replay.gate_unattributed = true;
  replay.phases = false;  // the grammar replay owns the dice phase metrics
  replay_cells(scenarios, options, cells, observer.cell_faults(), replay, spans, layers, report);
}

void traced_matrix(const Args& args, Report& report, const explore::CampaignOptions& options) {
  Spans spans(1, kSpanCapacity);
  LayerMetrics layers;
  const std::vector<explore::ScenarioSpec> scenarios = explore::default_bench_scenarios();

  // Two campaigns over the same cells: `plain` untraced, `traced` with the
  // program's obs::Trace and a wall-clock observer attached. Both warm up
  // untimed; their rounds alternate so the overhead ratio compares
  // neighbours.
  dice::obs::Trace trace(8, 1 << 15);
  RoundObserver wall;
  explore::CampaignOptions traced_options = options;
  traced_options.telemetry.trace = &trace;
  traced_options.telemetry.wall_observer = &wall;
  std::unique_ptr<explore::Campaign> plain;
  std::unique_ptr<explore::Campaign> traced;
  WorkCounts reference;
  std::vector<double> cold_bootstrap_ms;
  std::vector<std::string> implementation;  // per cell, for the episode split
  {
    const dice::obs::Span setup(&spans, "set-up", 0);
    {
      const dice::obs::Span span(&spans, "Campaign::Campaign", 0);
      plain = std::make_unique<explore::Campaign>(scenarios, options);
      traced = std::make_unique<explore::Campaign>(scenarios, traced_options);
    }
    const dice::obs::Span span(&spans, "Campaign::run (warm-up)", 0);
    reference = count_round(plain->run());
    wall.reset(Clock::now());
    const explore::CampaignResult warm = traced->run();
    check_round(report, reference, count_round(warm), "traced warm-up", 0);
    for (const explore::CellResult& cell : warm.cells) {
      if (!cell.bootstrap_from_cache) cold_bootstrap_ms.push_back(cell.bootstrap_ms);
      implementation.push_back(cell.implementation);
    }
  }
  std::printf("reference round: %s\n", reference.describe().c_str());

  RoundObserver observer;
  EpisodeTimes episodes;
  CounterTotals counters;
  std::vector<double> plain_ms, traced_ms, occupancy, merge_tail_ms, cached_bootstrap_ms;
  double live_hits = 0, live_lookups = 0;
  explore::CampaignResult last;
  const Clock::time_point window = Clock::now();
  for (std::size_t round = 1; round <= 2 || ms_since(window) < args.seconds * 1000.0; ++round) {
    {
      const dice::obs::Span span(&spans, "Campaign::run (untraced)", 0);
      const Clock::time_point start = Clock::now();
      const explore::CampaignResult result = plain->run();
      plain_ms.push_back(ms_since(start));
      check_round(report, reference, count_round(result), "untraced round", round);
      report.attempt(result.cells.size(), result.cells.size() - result.cells_completed);
    }
    const dice::obs::Span span(&spans, "Campaign::run (traced)", 0);
    const Clock::time_point start = Clock::now();
    observer.reset(start, true);
    wall.reset(start);
    last = traced->run(&observer);
    const double ms = ms_since(start);
    traced_ms.push_back(ms);
    check_round(report, reference, count_round(last), "traced round", round);
    report.attempt(last.cells.size(), last.cells.size() - last.cells_completed);

    harvest_trace(trace, implementation, episodes);
    counters.add(last.telemetry);
    double cell_ms = 0;
    for (const explore::CellResult& cell : last.cells) {
      cell_ms += cell.wall_ms;
      if (cell.bootstrap_from_cache) cached_bootstrap_ms.push_back(cell.bootstrap_ms);
    }
    occupancy.push_back(cell_ms / (static_cast<double>(kWorkers) * ms));
    if (const auto last_cell = wall.last_cell_ms()) merge_tail_ms.push_back(ms - *last_cell);
    live_hits += static_cast<double>(last.live_cache.hits);
    live_lookups += static_cast<double>(last.live_cache.hits + last.live_cache.misses);
  }

  emit_episode_times(episodes, layers);
  counters.emit(layers, static_cast<double>(traced_ms.size()));
  layers.explore_occupancy = median(occupancy);
  layers.explore_merge_tail_ms = median(merge_tail_ms);
  layers.explore_live_cache_hit_ratio = ratio(live_hits, live_lookups);
  layers.explore_bootstrap_ms_cold = mean(cold_bootstrap_ms);
  layers.explore_bootstrap_ms_cached = mean(cached_bootstrap_ms);
  layers.obs_trace_overhead_ratio = median(traced_ms) / median(plain_ms);
  {
    const dice::obs::Span span(&spans, "shard::wire codec", 0);
    time_shard_codec(last, observer.cell_faults(), layers, report);
  }
  ReplayOptions replay;
  replay.gate_unattributed = true;
  replay_cells(scenarios, options, pick_cells(last.cells.size(), kReplayCells, args.seed),
               observer.cell_faults(), replay, spans, layers, report);
  concolic_subset(args, scenarios, spans, layers, report);
  layers.emit(report);
  finish_trace(args, spans, &trace);
}

}  // namespace

explore::CampaignOptions grammar_matrix_options(std::uint64_t seed) {
  auto built = explore::CampaignOptions::builder()
                   .strategies({StrategyKind::kGrammar})
                   .seeds(derive_seeds(seed, kSeeds))
                   .implementations({"bgp", "fsm"})
                   .episodes_per_cell(2)
                   .inputs_per_episode(32)
                   .parallelism(kWorkers)
                   .nested(true)
                   .build();
  return std::move(built).take();
}

void run_matrix(const Args& args, Report& report) {
  const explore::CampaignOptions options = grammar_matrix_options(args.seed);
  if (args.trace) {
    traced_matrix(args, report, options);
    return;
  }

  // Set-up: scenarios, Campaign construction and the cold warm-up round
  // that fills the bootstrap cache and clone arenas. Every set-up must
  // reproduce the first one's work counts; the last campaign is timed.
  std::unique_ptr<explore::Campaign> campaign;
  WorkCounts reference;
  SpeedProbe probe;
  const std::vector<double> setup_s = repeat_setup(kSetups, probe, [&](std::size_t i) {
    campaign.reset();
    auto fresh = std::make_unique<explore::Campaign>(explore::default_bench_scenarios(), options);
    const WorkCounts counts = count_round(fresh->run());
    if (i == 0) reference = counts;
    check_round(report, reference, counts, "set-up", i);
    campaign = std::move(fresh);
  });
  std::printf("reference round: %s\n", reference.describe().c_str());

  std::vector<double> round_ms;
  const Clock::time_point window = Clock::now();
  for (std::size_t round = 1; round_ms.empty() || ms_since(window) < args.seconds * 1000.0;
       ++round) {
    probe.sample();
    const Clock::time_point start = Clock::now();
    const explore::CampaignResult result = campaign->run();
    round_ms.push_back(ms_since(start));
    check_round(report, reference, count_round(result), "round", round);
    report.attempt(result.cells.size(), result.cells.size() - result.cells_completed);
  }
  // The whole run's peak: memory that grows over the timed rounds shows.
  emit_end_to_end(report, static_cast<double>(reference.cells_completed), round_ms, setup_s,
                  peak_rss_mb() - probe.resident_mb(), probe);
}

}  // namespace perfbench
