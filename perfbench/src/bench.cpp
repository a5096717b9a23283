#include "bench.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <numeric>
#include <string_view>
#include <thread>

#include "svc/soak_service.hpp"
#include "util/rng.hpp"

namespace perfbench {

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Report::fail(const std::string& what) {
  std::printf("check failed: %s\n", what.c_str());
  problems_.push_back(what);
}

std::string Report::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metrics_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double heap_in_use_mb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

double children_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string sibling_worker_path() {
  std::error_code error;
  const std::filesystem::path self = std::filesystem::read_symlink("/proc/self/exe", error);
  if (error) return "dice_shard_worker";
  return (self.parent_path() / "dice_shard_worker").string();
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

std::vector<std::uint64_t> derive_seeds(std::uint64_t seed, std::size_t count) {
  const dice::util::Rng root(seed);
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < count; ++i) {
    // Small positive values keep the seeds readable in logs and reports.
    dice::util::Rng stream = root.fork(i);
    seeds.push_back((stream.next() >> 44) + 1);
  }
  return seeds;
}

std::string WorkCounts::describe() const {
  return "hash " + hex64(fault_hash) + ", cells " + std::to_string(cells_completed) + "/" +
         std::to_string(cells) + ", clones " + std::to_string(clones) + ", inputs " +
         std::to_string(inputs) + ", solver lookups " + std::to_string(solver_lookups) +
         ", solver hits " + std::to_string(solver_hits);
}

WorkCounts count_round(const dice::explore::MatrixResult& result) {
  WorkCounts counts;
  counts.fault_hash = dice::svc::fault_set_hash(result.faults);
  counts.cells = result.cells.size();
  counts.cells_completed = result.cells_completed;
  for (const dice::explore::CellResult& cell : result.cells) {
    counts.clones += cell.clones_run;
    counts.inputs += cell.inputs_subjected;
  }
  counts.solver_lookups = result.solver_cache.hits + result.solver_cache.misses;
  counts.solver_hits = result.solver_cache.hits;
  return counts;
}

void check_round(Report& report, const WorkCounts& reference, const WorkCounts& counts,
                 const char* what, std::size_t round) {
  if (counts == reference) return;
  report.fail(std::string(what) + " " + std::to_string(round) + " drifted: " +
              counts.describe() + " (reference: " + reference.describe() + ")");
}

namespace {

/// CPU time of the calling thread, in ms.
double thread_cpu_ms() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1000.0 + static_cast<double>(now.tv_nsec) / 1e6;
}

}  // namespace

SpeedProbe::SpeedProbe() {
  // One random cycle through 4M slots: every step is a dependent load
  // that the hardware cannot prefetch.
  constexpr std::uint32_t kSlots = 4u << 20;
  std::vector<std::uint32_t> order(kSlots);
  std::iota(order.begin(), order.end(), 0u);
  dice::util::Rng rng(0x5eed);
  for (std::uint32_t i = kSlots - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next() % (i + 1)]);
  }
  ring_.resize(kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) ring_[order[i]] = order[(i + 1) % kSlots];
}

void SpeedProbe::sample() {
  constexpr std::size_t kSteps = 700'000;
  std::array<std::uint64_t, kThreads> sums{};
  std::vector<double> thread_ms(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &sums, &thread_ms] {
      const double start = thread_cpu_ms();
      std::uint32_t at = static_cast<std::uint32_t>(t * 1000 + 1);
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < kSteps; ++i) {
        at = ring_[at];
        sum += at;
      }
      sums[t] = sum;
      thread_ms[t] = thread_cpu_ms() - start;
    });
  }
  for (std::thread& thread : threads) thread.join();
  // CPU time, so that sharing a core with another process does not read
  // as a slow memory system; and the median thread, so that one odd core
  // does not either.
  samples_ms_.push_back(median(thread_ms));
  // The sums keep the loads from being optimized away.
  if (std::accumulate(sums.begin(), sums.end(), std::uint64_t{0}) == 1) std::printf(" ");
}

double SpeedProbe::slowdown() const { return median(samples_ms_) / kReferenceMs; }

void emit_end_to_end(Report& report, double cells_per_round, const std::vector<double>& round_ms,
                     const std::vector<double>& setup_s, double peak_mb,
                     const SpeedProbe& probe) {
  const double round = median(round_ms);
  const double slowdown = probe.slowdown();
  std::printf("rounds: %zu, round ms p25/p50/p75 %.1f/%.1f/%.1f\n", round_ms.size(),
              quantile(round_ms, 0.25), round, quantile(round_ms, 0.75));
  std::printf("setup_s: %zu set-up(s), median %.3f\n", setup_s.size(), median(setup_s));
  std::printf("speed probe: %zu sample(s), median %.1f ms, slowdown %.3f; as measured: "
              "cells_per_s %.3f, setup_s %.3f\n",
              probe.samples(), slowdown * SpeedProbe::kReferenceMs, slowdown,
              cells_per_round / (round / 1000.0), median(setup_s));
  report.metric("cells_per_s", cells_per_round / (round / slowdown / 1000.0), "1/s");
  report.metric("setup_s", median(setup_s) / slowdown, "s");
  report.metric("peak_rss_mb", peak_mb, "MB");
}

// --- observers ---------------------------------------------------------------

void RoundObserver::reset(Clock::time_point start, bool keep_faults) {
  const std::lock_guard<std::mutex> lock(mutex_);
  start_ = start;
  first_fault_ms_.reset();
  first_cell_ms_.reset();
  last_cell_ms_.reset();
  keep_faults_ = keep_faults;
  cell_faults_.clear();
}

void RoundObserver::on_fault(const dice::explore::CellDescriptor& cell,
                             const dice::core::FaultReport& fault) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!first_fault_ms_) first_fault_ms_ = ms_since(start_);
  if (keep_faults_) cell_faults_[cell.index].push_back(fault);
}

void RoundObserver::on_cell_done(const dice::explore::CellDescriptor& cell,
                                 const dice::explore::CellResult& result) {
  (void)cell;
  if (!result.completed) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  const double now = ms_since(start_);
  if (!first_cell_ms_) first_cell_ms_ = now;
  last_cell_ms_ = now;
}

std::optional<double> RoundObserver::first_fault_ms() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return first_fault_ms_;
}

std::optional<double> RoundObserver::first_cell_ms() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return first_cell_ms_;
}

std::optional<double> RoundObserver::last_cell_ms() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return last_cell_ms_;
}

// --- spans -------------------------------------------------------------------

namespace {

/// Span name prefix -> module. Bench spans are named after the library
/// call they wrap; anything else is the bench's own structure.
constexpr std::pair<std::string_view, std::string_view> kModules[] = {
    {"Orchestrator::", "dice"},
    {"Campaign::", "explore"},
    {"ScenarioMatrix::", "explore"},
    {"ShardCoordinator::", "shard"},
    {"shard::", "shard"},
    {"SoakService::", "svc"},
    {"ArtifactStore::", "svc"},
    {"svc::", "svc"},
    {"ConcolicStrategy::", "concolic"},
    {"GrammarStrategy::", "fuzz"},
};

std::string_view module_of(std::string_view name) {
  for (const auto& [prefix, module] : kModules) {
    if (name.starts_with(prefix)) return module;
  }
  return "bench";
}

}  // namespace

std::vector<std::pair<std::string, double>> self_ms_by_module(Spans& spans) {
  spans.finalize();
  // One thread records the bench spans, so they nest: sorted by start
  // (longer first on ties), each span's parent is the innermost earlier
  // span still open at its start.
  std::vector<dice::obs::TraceEvent> events = spans.events();
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.t_start_us != b.t_start_us) return a.t_start_us < b.t_start_us;
    return a.dur_us > b.dur_us;
  });
  std::vector<double> child_us(events.size(), 0.0);
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const double start = events[i].t_start_us;
    while (!open.empty() &&
           events[open.back()].t_start_us + events[open.back()].dur_us <= start) {
      open.pop_back();
    }
    if (!open.empty()) child_us[open.back()] += events[i].dur_us;
    open.push_back(i);
  }
  std::map<std::string, double, std::less<>> by_module;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const double self = std::max(0.0, events[i].dur_us - child_us[i]);
    by_module[std::string(module_of(events[i].name))] += self / 1000.0;
  }
  return {by_module.begin(), by_module.end()};
}

}  // namespace perfbench
