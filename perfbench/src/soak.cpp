// soak-restart: svc::SoakService over a 200-router internet with an
// injected hijack and parser bug. Every sample destroys the service,
// constructs a new one over the saved store, runs one round and persists.
#include <cstdio>
#include <filesystem>
#include <memory>

#include "bench.hpp"
#include "bgp/bugs.hpp"
#include "bgp/topology.hpp"
#include "layers.hpp"
#include "obs/names.hpp"
#include "svc/soak_service.hpp"

namespace perfbench {

namespace explore = dice::explore;
namespace svc = dice::svc;

namespace {

constexpr std::size_t kWorkers = 2;
/// Largest growth of the heap in use between the first and the last
/// restart of a run, as a share of the set-up peak.
constexpr double kRestartGrowth = 0.01;

[[nodiscard]] std::vector<explore::ScenarioSpec> soak_scenarios() {
  dice::bgp::InternetTopologyParams params;
  params.tier1 = 4;
  params.tier2 = 20;
  params.stubs = 176;
  dice::bgp::SystemBlueprint blueprint = dice::bgp::make_internet(params);
  // Node ids: tier-1 first, then tier-2, then stubs.
  dice::bgp::inject_hijack(blueprint, /*victim=*/40, /*attacker=*/150, /*more_specific=*/true);
  dice::bgp::inject_bug(blueprint, /*node=*/10, dice::bgp::bugs::kCommunityLength);
  std::vector<explore::ScenarioSpec> specs;
  specs.push_back({"internet200", std::move(blueprint)});
  return specs;
}

[[nodiscard]] svc::SoakOptions soak_options(std::uint64_t seed, const std::string& store,
                                            explore::CampaignObserver* wall_observer) {
  svc::SoakOptions options;
  options.campaign = explore::CampaignOptions::builder()
                         .strategies({explore::StrategyKind::kGrammar})
                         .seeds(derive_seeds(seed, 1))
                         .episodes_per_cell(1)
                         .inputs_per_episode(2)
                         .bootstrap_events(20'000'000)
                         .clone_event_budget(60'000)
                         .parallelism(kWorkers)
                         .wall_observer(wall_observer)
                         .build()
                         .take();
  options.store_path = store;
  // Every cycle persists explicitly (see persist_or_fail): the service's
  // own cadence would only log a failed save.
  options.persist_every_rounds = 1u << 30;
  return options;
}

/// Saves the store; a failed save fails the run.
void persist_or_fail(svc::SoakService& service, Report& report, const std::string& what) {
  if (const dice::util::Status status = service.persist(); !status.ok()) {
    report.fail(what + ": persist failed: " + status.error().code + " " + status.error().detail);
  }
}

/// What every restart must reproduce: the cold round's fault set and work.
struct SoakCounts {
  std::uint64_t fault_hash = 0;
  std::size_t faults = 0;
  std::size_t cells_completed = 0;
  std::uint64_t clones = 0;
  bool operator==(const SoakCounts&) const = default;
  [[nodiscard]] std::string describe() const {
    return "hash " + hex64(fault_hash) + ", faults " + std::to_string(faults) + ", cells " +
           std::to_string(cells_completed) + ", clones " + std::to_string(clones);
  }
};

/// Runs one round, returning its summary and its counts. `delta` receives
/// the round's metrics traffic.
svc::RoundSummary counted_round(svc::SoakService& service, SoakCounts& counts,
                                dice::obs::MetricsSnapshot* delta = nullptr) {
  const dice::obs::MetricsSnapshot before = dice::obs::MetricsRegistry::global().snapshot();
  const svc::RoundSummary summary = service.run_round();
  const dice::obs::MetricsSnapshot change =
      dice::obs::MetricsRegistry::global().snapshot().delta_since(before);
  counts.fault_hash = summary.fault_hash;
  counts.faults = summary.faults;
  counts.cells_completed = summary.cells_completed;
  counts.clones = change.counter_value(dice::obs::names::kClones);
  if (delta != nullptr) *delta = change;
  return summary;
}

/// Checks a restarted round against the cold one and counts the restart.
void check_restart(Report& report, const SoakCounts& reference, const SoakCounts& counts,
                   const svc::RoundSummary& summary, bool warm_started, std::size_t sample) {
  const bool warm = warm_started && summary.cells_from_cache == 1;
  if (!warm) report.fail("restart " + std::to_string(sample) + " did not warm-start");
  if (counts != reference) {
    report.fail("restart " + std::to_string(sample) + " drifted: " + counts.describe() +
                " (cold round: " + reference.describe() + ")");
  }
  report.attempt(1, (warm ? 0 : 1) + (summary.cells_completed == 1 ? 0 : 1));
}

/// The cold start that writes the store: returns the cold round's counts.
SoakCounts cold_start(const std::vector<explore::ScenarioSpec>& scenarios,
                      const svc::SoakOptions& options, Report& report,
                      double* bootstrap_ms = nullptr) {
  std::filesystem::remove(options.store_path);
  svc::SoakService service(scenarios, options);
  SoakCounts counts;
  const svc::RoundSummary summary = counted_round(service, counts);
  persist_or_fail(service, report, "cold start");
  if (bootstrap_ms != nullptr) *bootstrap_ms = summary.bootstrap_ms;
  return counts;
}

void traced_soak(const Args& args, Report& report, const std::string& store) {
  Spans spans(1, kSpanCapacity);
  LayerMetrics layers;
  dice::obs::Trace trace(8, 1 << 14);
  RoundObserver wall;
  const std::vector<explore::ScenarioSpec> scenarios = soak_scenarios();
  const svc::SoakOptions plain = soak_options(args.seed, store, &wall);
  svc::SoakOptions traced = plain;
  traced.campaign.telemetry.trace = &trace;

  SoakCounts reference;
  {
    const dice::obs::Span span(&spans, "svc::cold start (set-up)", 0);
    reference = cold_start(scenarios, plain, report, &layers.explore_bootstrap_ms_cold);
  }
  std::printf("cold round: %s\n", reference.describe().c_str());

  EpisodeTimes episodes;
  CounterTotals counters;
  std::vector<double> plain_ms, traced_ms, first_fault_ms, construct_ms, load_ms, save_ms,
      resume_ms, first_cell_ms, merge_tail_ms, occupancy, bytes;
  double cached = 0, cells = 0;
  const Clock::time_point window = Clock::now();
  for (std::size_t sample = 1; sample <= 3 || ms_since(window) < args.seconds * 1000.0;
       ++sample) {
    {
      const dice::obs::Span span(&spans, "svc::restart (untraced)", 0);
      const Clock::time_point start = Clock::now();
      wall.reset(start);
      auto service = std::make_unique<svc::SoakService>(scenarios, plain);
      SoakCounts counts;
      const svc::RoundSummary summary = counted_round(*service, counts);
      persist_or_fail(*service, report, "restart " + std::to_string(sample));
      const bool warm = service->report().warm_started;
      service.reset();
      plain_ms.push_back(ms_since(start));
      check_restart(report, reference, counts, summary, warm, sample);
      if (const auto first = wall.first_fault_ms()) first_fault_ms.push_back(*first);
    }

    const Clock::time_point start = Clock::now();
    double cycle_ms = 0;
    std::unique_ptr<svc::SoakService> service;
    {
      const dice::obs::Span span(&spans, "SoakService::SoakService", 0);
      service = std::make_unique<svc::SoakService>(scenarios, traced);
    }
    construct_ms.push_back(ms_since(start));
    SoakCounts counts;
    dice::obs::MetricsSnapshot delta;
    svc::RoundSummary summary;
    const Clock::time_point round_start = Clock::now();
    {
      const dice::obs::Span span(&spans, "SoakService::run_round", 0);
      wall.reset(round_start);
      summary = counted_round(*service, counts, &delta);
    }
    const double round_ms = ms_since(round_start);
    {
      const dice::obs::Span span(&spans, "SoakService::persist", 0);
      persist_or_fail(*service, report, "restart " + std::to_string(sample));
    }
    const bool warm = service->report().warm_started;
    {
      const dice::obs::Span span(&spans, "SoakService::~SoakService", 0);
      service.reset();
    }
    cycle_ms = ms_since(start);
    traced_ms.push_back(cycle_ms);
    check_restart(report, reference, counts, summary, warm, sample);

    resume_ms.push_back(summary.bootstrap_ms);
    if (const auto first = wall.first_cell_ms()) first_cell_ms.push_back(*first);
    if (const auto last = wall.last_cell_ms()) merge_tail_ms.push_back(round_ms - *last);
    const double cell_ms_before = episodes.cell_ms;
    harvest_trace(trace, {std::string()}, episodes);
    occupancy.push_back((episodes.cell_ms - cell_ms_before) /
                        (static_cast<double>(kWorkers) * round_ms));
    counters.add(delta);
    cached += static_cast<double>(summary.cells_from_cache);
    cells += static_cast<double>(summary.cells_completed);

    // The store codec on its own, over the file the restart just read.
    dice::util::Result<svc::StoreContents> contents = svc::StoreContents{};
    {
      const dice::obs::Span span(&spans, "ArtifactStore::load", 0);
      const Clock::time_point load_start = Clock::now();
      contents = svc::ArtifactStore(store).load();
      load_ms.push_back(ms_since(load_start));
    }
    if (!contents.ok()) {
      report.fail("store did not load: " + contents.error().code);
      continue;
    }
    const std::string copy = store + ".copy";
    {
      const dice::obs::Span span(&spans, "ArtifactStore::save", 0);
      const Clock::time_point save_start = Clock::now();
      if (!svc::ArtifactStore(copy).save(contents.value()).ok()) report.fail("store save failed");
      save_ms.push_back(ms_since(save_start));
    }
    std::filesystem::remove(copy);
    std::error_code error;
    bytes.push_back(static_cast<double>(std::filesystem::file_size(store, error)));
  }

  emit_episode_times(episodes, layers);
  counters.emit(layers, static_cast<double>(traced_ms.size()));
  layers.svc_restart_to_first_fault_ms_p50 = median(first_fault_ms);
  layers.svc_construct_ms = median(construct_ms);
  layers.svc_store_load_ms = median(load_ms);
  layers.svc_store_save_ms = median(save_ms);
  layers.svc_resume_ms = median(resume_ms);
  layers.svc_first_cell_ms = median(first_cell_ms);
  layers.svc_store_bytes = median(bytes);
  layers.explore_merge_tail_ms = median(merge_tail_ms);
  layers.explore_occupancy = median(occupancy);
  layers.explore_live_cache_hit_ratio = ratio(cached, cells);
  layers.explore_bootstrap_ms_cached = median(resume_ms);
  layers.obs_trace_overhead_ratio = median(traced_ms) / median(plain_ms);

  // Attribution: replay the one cell; its faults come from the last
  // restart's wall-clock stream.
  RoundObserver faults;
  {
    svc::SoakOptions capture = plain;
    capture.campaign.telemetry.wall_observer = &faults;
    svc::SoakService service(scenarios, capture);
    faults.reset(Clock::now(), true);
    SoakCounts counts;
    const svc::RoundSummary summary = counted_round(service, counts);
    check_restart(report, reference, counts, summary, service.report().warm_started, 0);
  }
  std::filesystem::remove(store);
  replay_cells(scenarios, plain.campaign, {0}, faults.cell_faults(), ReplayOptions{}, spans,
               layers, report);
  layers.emit(report);
  finish_trace(args, spans, &trace);
}

}  // namespace

void run_soak(const Args& args, Report& report) {
  const std::string store = args.work_dir + "/soak-restart.dsvc";
  if (args.trace) {
    traced_soak(args, report, store);
    return;
  }
  RoundObserver wall;
  const svc::SoakOptions options = soak_options(args.seed, store, &wall);

  // Set-up: the topology, then a cold service whose round bootstraps the
  // live system and writes the store.
  std::vector<explore::ScenarioSpec> scenarios;
  SoakCounts reference;
  double setup_peak_mb = 0;
  SpeedProbe probe;
  const std::vector<double> setup_s = repeat_setup(kSetups, probe, [&](std::size_t i) {
    scenarios = soak_scenarios();
    const SoakCounts counts = cold_start(scenarios, options, report);
    if (i == 0) reference = counts;
    if (counts != reference) report.fail("cold start " + std::to_string(i) + " drifted");
    if (i == 0) setup_peak_mb = peak_rss_mb() - probe.resident_mb();  // a fresh cold start
  });
  std::printf("cold round: %s\n", reference.describe().c_str());

  // Each sample: construct over the saved store (load + prime), one round
  // (warm resume, explore), persist, destroy.
  std::vector<double> cycle_ms, first_fault_ms, heap_mb;
  const Clock::time_point window = Clock::now();
  for (std::size_t sample = 1; cycle_ms.empty() || ms_since(window) < args.seconds * 1000.0;
       ++sample) {
    probe.sample();
    const Clock::time_point start = Clock::now();
    wall.reset(start);
    auto service = std::make_unique<svc::SoakService>(scenarios, options);
    SoakCounts counts;
    const svc::RoundSummary summary = counted_round(*service, counts);
    persist_or_fail(*service, report, "restart " + std::to_string(sample));
    const bool warm = service->report().warm_started;
    service.reset();
    cycle_ms.push_back(ms_since(start));
    heap_mb.push_back(heap_in_use_mb());
    check_restart(report, reference, counts, summary, warm, sample);
    if (const auto first = wall.first_fault_ms()) {
      first_fault_ms.push_back(*first);
    } else {
      report.fail("restart " + std::to_string(sample) + " delivered no fault");
    }
  }
  std::filesystem::remove(store);
  // Restart to first fault is this workload's own latency figure. A p90
  // needs ten samples beyond it, i.e. 100 restarts, more than a run holds.
  std::printf("restart_to_first_fault_ms: p50 %.2f over %zu restarts", median(first_fault_ms),
              first_fault_ms.size());
  if (first_fault_ms.size() >= 100) {
    std::printf(", p90 %.2f\n", quantile(first_fault_ms, 0.9));
  } else {
    std::printf(" (a p90 needs 100)\n");
  }
  // peak_rss_mb is the first set-up's peak, a fresh process's cold start.
  // Later in-process restarts add allocator placement (identical runs
  // peaked at 394 or 529 MB over the whole run) that a daemon restarted as
  // a new process would not carry. Memory a destroyed service keeps fails
  // the run instead: the heap in use after a restart must not grow by
  // more than kRestartGrowth of the set-up peak from the first restart to
  // the last.
  const double growth_mb = heap_mb.back() - heap_mb.front();
  std::printf("rss: set-up peak %.1f MB, run peak %.1f MB; heap in use after restarts "
              "%.2f -> %.2f MB\n",
              setup_peak_mb, peak_rss_mb(), heap_mb.front(), heap_mb.back());
  if (growth_mb > kRestartGrowth * setup_peak_mb) {
    report.fail("the heap in use grew by " + std::to_string(growth_mb) + " MB over " +
                std::to_string(heap_mb.size()) + " restarts");
  }
  emit_end_to_end(report, 1.0, cycle_ms, setup_s, setup_peak_mb, probe);
}

}  // namespace perfbench
