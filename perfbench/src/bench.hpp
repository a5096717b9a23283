// Shared pieces of the repository benchmark: the command line, the result
// line, statistics, bench-side spans, and the per-round work counts every
// workload pins. See perfbench/README.md for the workloads and metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "explore/campaign.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point from) {
  return std::chrono::duration<double, std::milli>(Clock::now() - from).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the files a run writes (store, spans); created by run.py.
  std::string work_dir = ".";
};

/// What a run prints as its last line: the contract's result object.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A correctness check failed: the run reports `correct: false`.
  void fail(const std::string& what);
  void attempt(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  [[nodiscard]] bool correct() const noexcept { return problems_.empty(); }
  [[nodiscard]] std::string to_json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> problems_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double mean(const std::vector<double>& values);
[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Peak resident set in MB of this process so far.
[[nodiscard]] double peak_rss_mb();
/// Heap bytes allocated and not yet freed, in MB, over all malloc arenas.
/// Unlike the resident set, it does not move with where the allocator
/// happens to place memory.
[[nodiscard]] double heap_in_use_mb();
/// Peak resident set in MB of the largest child process waited for so far.
[[nodiscard]] double children_peak_rss_mb();

/// `dice_shard_worker` beside this executable (both come from one build).
[[nodiscard]] std::string sibling_worker_path();

[[nodiscard]] std::string hex64(std::uint64_t value);

/// The workload's seed axis: `count` matrix seeds derived from --seed.
[[nodiscard]] std::vector<std::uint64_t> derive_seeds(std::uint64_t seed, std::size_t count);

/// The exact work one round did. Every timed round must equal the
/// reference taken in set-up; any drift fails the run.
struct WorkCounts {
  std::uint64_t fault_hash = 0;
  std::size_t cells = 0;
  std::size_t cells_completed = 0;
  std::size_t clones = 0;
  std::size_t inputs = 0;
  std::uint64_t solver_lookups = 0;
  std::uint64_t solver_hits = 0;

  bool operator==(const WorkCounts&) const = default;
  [[nodiscard]] std::string describe() const;
};
[[nodiscard]] WorkCounts count_round(const dice::explore::MatrixResult& result);
/// Fails the run when `counts` differ from `reference`.
void check_round(Report& report, const WorkCounts& reference, const WorkCounts& counts,
                 const char* what, std::size_t round);

/// Observes one round, on either stream (the canonical `observer` of
/// run() or the wall-clock `wall_observer`): first fault, first and last
/// completed cell, and optionally each cell's faults.
class RoundObserver final : public dice::explore::CampaignObserver {
 public:
  /// Starts a new round: forgets everything and stamps `start`.
  void reset(Clock::time_point start, bool keep_faults = false);
  void on_fault(const dice::explore::CellDescriptor& cell,
                const dice::core::FaultReport& fault) override;
  void on_cell_done(const dice::explore::CellDescriptor& cell,
                    const dice::explore::CellResult& result) override;

  /// Milliseconds from `start` to the event, if it happened.
  [[nodiscard]] std::optional<double> first_fault_ms() const;
  [[nodiscard]] std::optional<double> first_cell_ms() const;
  [[nodiscard]] std::optional<double> last_cell_ms() const;
  /// Faults per canonical cell index (kept only when reset asked for it).
  /// Read it only after the round returned.
  [[nodiscard]] const std::unordered_map<std::size_t, std::vector<dice::core::FaultReport>>&
  cell_faults() const noexcept {
    return cell_faults_;
  }

 private:
  mutable std::mutex mutex_;
  Clock::time_point start_{};
  std::optional<double> first_fault_ms_;
  std::optional<double> first_cell_ms_;
  std::optional<double> last_cell_ms_;
  bool keep_faults_ = false;
  std::unordered_map<std::size_t, std::vector<dice::core::FaultReport>> cell_faults_;
};

/// Bench-side spans around calls into the library, recorded with the
/// program's own obs::Span into a bench-owned obs::Trace (kNoCell events
/// from the bench's driving thread) and written when the run ends.
using Spans = dice::obs::Trace;
/// Lane capacity of a run's bench spans, far above what a traced run records.
inline constexpr std::size_t kSpanCapacity = 1 << 16;
/// Self time (duration minus the time nested spans cover) per module, in
/// ms, sorted by module name. Nesting comes from the spans' intervals and
/// the module from the span name (see kModules in bench.cpp).
[[nodiscard]] std::vector<std::pair<std::string, double>> self_ms_by_module(Spans& spans);

/// A probe of the machine's speed during a run. On a shared machine, runs
/// of the same code drift by up to ±25% over minutes as neighbours load the
/// memory system, while rounds within one run stay close. The probe is a
/// fixed bench-owned kernel that calls nothing in the library: kThreads
/// threads chasing pointers through a 16 MB ring, timed (thread CPU time)
/// between rounds.
/// Its median over a run says how slow the machine was during that run.
class SpeedProbe {
 public:
  static constexpr std::size_t kThreads = 4;
  /// The kernel's time at the reference machine speed, in ms: about its
  /// median on the 4-vCPU machine the benchmark was built on.
  static constexpr double kReferenceMs = 120.0;

  SpeedProbe();
  /// Times the kernel once.
  void sample();
  /// The run's median kernel time over kReferenceMs: a time measured in
  /// this run, divided by it, is that time at the reference speed.
  [[nodiscard]] double slowdown() const;
  [[nodiscard]] std::size_t samples() const noexcept { return samples_ms_.size(); }
  /// The ring's resident size: the bench's share of this process's RSS,
  /// left out of peak_rss_mb.
  [[nodiscard]] double resident_mb() const noexcept {
    return static_cast<double>(ring_.size() * sizeof(std::uint32_t)) / (1024.0 * 1024.0);
  }

 private:
  std::vector<std::uint32_t> ring_;
  std::vector<double> samples_ms_;
};

/// Runs `body` once per set-up (`count` times), timing each and sampling
/// `probe` after each; returns the set-up times in seconds.
template <typename Body>
std::vector<double> repeat_setup(std::size_t count, SpeedProbe& probe, Body&& body) {
  std::vector<double> seconds;
  for (std::size_t i = 0; i < count; ++i) {
    const Clock::time_point start = Clock::now();
    body(i);
    seconds.push_back(ms_since(start) / 1000.0);
    probe.sample();
  }
  return seconds;
}

/// How many times each timed run sets its workload up (setup_s reports the
/// median).
inline constexpr std::size_t kSetups = 3;

/// Prints the end-to-end metrics of a timed run. `cells_per_round` over
/// the median round (or restart cycle) wall time gives cells_per_s; it and
/// setup_s are taken at the reference machine speed (`probe`). `peak_mb`
/// is the workload's peak RSS (see each workload for its window).
void emit_end_to_end(Report& report, double cells_per_round, const std::vector<double>& round_ms,
                     const std::vector<double>& setup_s, double peak_mb,
                     const SpeedProbe& probe);

/// The grammar-matrix campaign for --seed (grammar-sharded deals the same
/// cells).
[[nodiscard]] dice::explore::CampaignOptions grammar_matrix_options(std::uint64_t seed);

// --- the workloads (one translation unit each) ------------------------------
void run_matrix(const Args& args, Report& report);
void run_sharded(const Args& args, Report& report);
void run_soak(const Args& args, Report& report);

}  // namespace perfbench
