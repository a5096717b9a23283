// grammar-sharded: grammar-matrix's cell space dealt by
// shard::ShardCoordinator to 4 dice_shard_worker processes x 1 thread.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "layers.hpp"
#include "shard/coordinator.hpp"

namespace perfbench {

namespace explore = dice::explore;
namespace shard = dice::shard;

namespace {

constexpr std::size_t kProcesses = 4;
constexpr std::size_t kReplayCells = 20;

[[nodiscard]] shard::ShardOptions shard_options() {
  shard::ShardOptions options;
  options.processes = kProcesses;
  options.worker_path = sibling_worker_path();
  options.scenario_set = "bench";  // resolves to default_bench_scenarios()
  return options;
}

/// The in-process round over the same cells: the hash and work counts every
/// sharded round must reproduce.
[[nodiscard]] WorkCounts in_process_reference(const explore::CampaignOptions& options,
                                              double* wall_ms = nullptr) {
  const Clock::time_point start = Clock::now();
  explore::Campaign campaign(explore::default_bench_scenarios(), options);
  const WorkCounts counts = count_round(campaign.run());
  if (wall_ms != nullptr) *wall_ms = ms_since(start);
  return counts;
}

struct ShardedRound {
  double ms = 0;
  std::optional<shard::ShardRunResult> result;
  /// The round's work, for the caller to check against the in-process
  /// reference; empty when the round failed.
  std::optional<WorkCounts> counts;
};

/// One sharded round over `cells` dealt cells; counts its operations.
ShardedRound run_round(shard::ShardCoordinator& coordinator, RoundObserver* observer,
                       bool keep_faults, std::size_t cells, const std::string& what,
                       Report& report) {
  ShardedRound out;
  const Clock::time_point start = Clock::now();
  if (observer != nullptr) observer->reset(start, keep_faults);
  auto result = coordinator.run(observer);
  out.ms = ms_since(start);
  if (!result.ok()) {
    report.fail(what + " failed: " + result.error().code + " " + result.error().detail);
    report.attempt(cells, cells);
    return out;
  }
  const shard::ShardRunResult& run = result.value();
  out.counts = count_round(run.matrix);
  std::size_t lost_cells = 0;
  for (const shard::ShardLoss& loss : run.losses) lost_cells += loss.cells.size();
  // Failures: cells not completed, failed attempts, re-deals and lost cells.
  report.attempt(run.matrix.cells.size(), (run.matrix.cells.size() - run.matrix.cells_completed) +
                                              run.failures.size() + run.redeals + lost_cells);
  out.result = std::move(result).take();
  return out;
}

void traced_sharded(const Args& args, Report& report, const explore::CampaignOptions& in_process,
                    const explore::CampaignOptions& sharded) {
  Spans spans(1, kSpanCapacity);
  LayerMetrics layers;
  WorkCounts reference;
  std::vector<double> cold_ms(2);
  {
    const dice::obs::Span setup(&spans, "set-up", 0);
    const dice::obs::Span span(&spans, "Campaign::run (in-process cold)", 0);
    reference = in_process_reference(in_process, &cold_ms[0]);
    check_round(report, reference, in_process_reference(in_process, &cold_ms[1]),
                "in-process cold round", 2);
  }
  std::printf("in-process reference: %s\n", reference.describe().c_str());

  shard::ShardCoordinator coordinator(sharded, shard_options());
  RoundObserver observer;
  std::vector<double> plain_ms, traced_ms, first_commit_ms, merge_tail_ms, occupancy,
      bootstrap_ms;
  double spawned = 0, redeals = 0;
  std::optional<shard::ShardRunResult> last;
  const Clock::time_point window = Clock::now();
  for (std::size_t round = 1; round <= 2 || ms_since(window) < args.seconds * 1000.0; ++round) {
    {
      const dice::obs::Span span(&spans, "ShardCoordinator::run (untraced)", 0);
      const ShardedRound plain = run_round(coordinator, nullptr, false, reference.cells,
                                           "untraced round " + std::to_string(round), report);
      plain_ms.push_back(plain.ms);
      if (plain.counts) check_round(report, reference, *plain.counts, "untraced round", round);
    }
    const dice::obs::Span span(&spans, "ShardCoordinator::run (traced)", 0);
    ShardedRound traced = run_round(coordinator, &observer, true, reference.cells,
                                    "traced round " + std::to_string(round), report);
    traced_ms.push_back(traced.ms);
    if (traced.counts) check_round(report, reference, *traced.counts, "traced round", round);
    if (!traced.result) continue;
    last = std::move(traced.result);
    if (const auto first = observer.first_cell_ms()) first_commit_ms.push_back(*first);
    if (const auto tail = observer.last_cell_ms()) merge_tail_ms.push_back(traced.ms - *tail);
    double cell_ms = 0;
    for (const explore::CellResult& cell : last->matrix.cells) {
      cell_ms += cell.wall_ms;
      bootstrap_ms.push_back(cell.bootstrap_ms);
    }
    occupancy.push_back(cell_ms / (static_cast<double>(kProcesses) * traced.ms));
    spawned += static_cast<double>(last->workers_spawned);
    redeals += static_cast<double>(last->redeals);
  }
  const double rounds = static_cast<double>(traced_ms.size());
  layers.shard_first_commit_ms = median(first_commit_ms);
  layers.shard_workers_spawned = spawned / rounds;
  layers.shard_redeals = redeals / rounds;
  layers.shard_overhead_ratio = median(plain_ms) / median(cold_ms);
  layers.explore_merge_tail_ms = median(merge_tail_ms);
  layers.explore_occupancy = median(occupancy);
  // Every sharded round bootstraps cold inside its workers.
  layers.explore_bootstrap_ms_cold = mean(bootstrap_ms);
  layers.obs_trace_overhead_ratio = median(traced_ms) / median(plain_ms);
  if (last) {
    {
      const dice::obs::Span span(&spans, "shard::wire codec", 0);
      time_shard_codec(last->matrix, observer.cell_faults(), layers, report);
    }
    // Worker traces and registries die with their processes, so episode
    // times and clone counters come from the replay of the same cells.
    EpisodeTimes episodes;
    CounterTotals counters;
    ReplayOptions replay;
    replay.episode_times = &episodes;
    replay.counters = &counters;
    replay_cells(explore::default_bench_scenarios(), in_process,
                 pick_cells(last->matrix.cells.size(), kReplayCells, args.seed),
                 observer.cell_faults(), replay, spans, layers, report);
    emit_episode_times(episodes, layers);
    layers.dice_clone_reuse_ratio = ratio(counters.reused, counters.clones);
    layers.dice_early_exit_ratio = ratio(counters.early_exit, counters.clones);
  }
  layers.emit(report);
  finish_trace(args, spans, nullptr);
}

}  // namespace

void run_sharded(const Args& args, Report& report) {
  const explore::CampaignOptions in_process = grammar_matrix_options(args.seed);
  explore::CampaignOptions sharded = in_process;
  sharded.parallelism.workers = 1;  // one thread per worker process
  if (args.trace) {
    traced_sharded(args, report, in_process, sharded);
    return;
  }

  const std::size_t cells =
      explore::enumerate_cells(explore::default_bench_scenarios().size(),
                               sharded.to_matrix_options())
          .size();
  std::unique_ptr<shard::ShardCoordinator> coordinator;
  std::vector<std::pair<std::string, WorkCounts>> seen;  // every round that returned
  const auto sharded_round = [&](const std::string& what) {
    const ShardedRound out = run_round(*coordinator, nullptr, false, cells, what, report);
    if (out.counts) seen.emplace_back(what, *out.counts);
    return out.ms;
  };

  // Set-up: the coordinator and one sharded warm-up round, which spawns
  // the workers once and exercises the worker path before the window
  // opens. Each sharded round re-bootstraps cold in its workers, so the
  // warm-up fills no cache.
  SpeedProbe probe;
  const std::vector<double> setup_s = repeat_setup(kSetups, probe, [&](std::size_t i) {
    coordinator.reset();
    coordinator = std::make_unique<shard::ShardCoordinator>(sharded, shard_options());
    (void)sharded_round("set-up round " + std::to_string(i));
  });

  std::vector<double> round_ms;
  const Clock::time_point window = Clock::now();
  for (std::size_t i = 1; round_ms.empty() || ms_since(window) < args.seconds * 1000.0; ++i) {
    probe.sample();
    round_ms.push_back(sharded_round("round " + std::to_string(i)));
  }
  // The coordinator's peak and the largest worker's, whichever is higher,
  // taken before the bench's own check below ever runs in this process.
  const double peak_mb = std::max(peak_rss_mb() - probe.resident_mb(), children_peak_rss_mb());

  // The bench's own check, after the window so that no metric carries it:
  // every sharded round must reproduce the in-process round over the same
  // cells (grammar-matrix at this seed) exactly.
  const WorkCounts reference = in_process_reference(in_process);
  std::printf("in-process reference: %s\n", reference.describe().c_str());
  for (const auto& [what, counts] : seen) {
    if (counts != reference) {
      report.fail("sharded " + what + " drifted: " + counts.describe() +
                  " (in-process: " + reference.describe() + ")");
    }
  }
  emit_end_to_end(report, static_cast<double>(reference.cells_completed), round_ms, setup_s,
                  peak_mb, probe);
}

}  // namespace perfbench
