// The benchmark's workloads and the two kinds of run it makes of them.
//
// Untraced (end-to-end) runs call the entry points users call — run_script
// (scenario_sim), run_dist (dist_sim) and CampaignRunner::run
// (scenario_fuzz) — in a closed loop from one caller: each run is waited
// for before the next starts. Every run is checked against a reference for
// its seed. Traced runs drive the layers directly (layers.hpp) to split the
// same work by layer, and must reproduce the untraced results exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_logic.hpp"
#include "layers.hpp"

namespace bench {

/// Fixed by the workload, never derived from the host: 4 is the core count
/// of the machine the baseline was recorded on.
inline constexpr unsigned kThreads = 4;
inline constexpr std::uint32_t kShards = 4;
inline constexpr std::size_t kNodes = 192;
inline constexpr std::size_t kFuzzScenarios = 300;
inline constexpr std::size_t kFuzzMaxNodes = 20;

enum class Kind { kClean, kChaos, kSharded, kFuzz };

struct Workload {
  const char* name;
  Kind kind;
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// nullptr when no workload has that name.
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// The seed of the extra run each workload makes to show it is green
/// beyond the measured seed; never equal to `seed`.
[[nodiscard]] std::uint64_t held_out_seed(std::uint64_t seed);

/// Scenario script of a consensus workload; `setup_cut` limits it to one
/// round (the set-up measurement).
[[nodiscard]] std::string consensus_script(Kind kind, std::uint64_t seed, bool setup_cut);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;
  std::string detail;  ///< how the value was taken, for the human-readable lines
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  std::vector<Span> spans;  ///< traced runs only: exported as a Chrome trace
};

/// End-to-end measurement of one workload at one seed. Call probe() before
/// anything else in the process has grown (it forks a child whose peak
/// memory is the metric), then prepare(), then rep() until enough time has
/// passed.
class Measurement {
 public:
  Measurement(const Workload& workload, std::uint64_t seed);

  /// Peak resident memory of one run, in a forked child.
  void probe();
  /// Reference result for the seed, then the held-out seed's run, which
  /// doubles as the discarded warm-up.
  void prepare();
  /// One timed, checked run through the entry point plus one set-up run.
  void rep();

  [[nodiscard]] std::size_t reps() const noexcept { return reps_; }
  [[nodiscard]] const Workload& workload() const noexcept { return workload_; }
  [[nodiscard]] Report report() const;

 private:
  struct Entry;
  [[nodiscard]] Entry entry(std::uint64_t seed) const;
  void check(const Entry& run, const RunOutcome* reference, const std::string& what);
  [[nodiscard]] double setup_once() const;

  const Workload& workload_;
  std::uint64_t seed_ = 0;
  RunOutcome reference_;
  std::uint64_t fuzz_rounds_ = 0;  ///< simulated rounds of the campaign, from the reference
  double peak_rss_mb_ = 0.0;
  std::size_t reps_ = 0;
  std::vector<double> rounds_per_s_;
  std::vector<double> runs_per_s_;
  std::vector<double> setup_s_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// The traced run of one workload: every per-layer metric, plus the check
/// that the layer drive reproduces the entry point's results.
[[nodiscard]] Report trace_workload(const Workload& workload, std::uint64_t seed);

/// Per-layer metric names with their units, in report order: the ones every
/// traced run reports, and the ones only fuzz-campaign adds.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& fuzz_layer_metrics();

/// Machine and build record: nproc, CPU model, compiler, build type, flags
/// and sanitizers. `flagged` is set for unoptimized or sanitizer builds,
/// whose numbers must not be compared with optimized ones.
struct BuildRecord {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::string cxx_flags;
  std::string sanitizers;
  bool optimized = false;
  bool assertions = false;
  bool flagged = false;
};
[[nodiscard]] BuildRecord build_record();

}  // namespace bench
