// Pure logic of the repository benchmark, kept apart from the code that
// drives the library so the unit tests can cover it without running a
// workload: interval arithmetic for span self time, the percentile and
// sample-count rule for reported timings, and the classification that
// decides whether a checked run counts as failed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace bench {

/// A closed-open time interval [begin_ns, end_ns) on one steady clock.
struct Interval {
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

/// Length of the union of `intervals`: time covered by at least one of
/// them, so overlapping intervals (parallel children) count once.
[[nodiscard]] std::int64_t union_length(std::vector<Interval> intervals);

/// Self time of `parent`: its duration minus the part of it that the union
/// of `children` covers. Children are clipped to the parent first.
[[nodiscard]] std::int64_t self_time(Interval parent, std::vector<Interval> children);

/// Quantile `q` in [0, 1] by linear interpolation between order statistics
/// (Python's statistics.quantiles(method='inclusive')). Throws
/// std::invalid_argument on an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// The highest percentile of the ladder 99.9 / 99 / 95 / 90 that has at
/// least ten samples beyond it, as a fraction (0.95 for p95); empty when
/// even p90 has fewer than ten samples beyond it.
[[nodiscard]] std::optional<double> tail_quantile(std::size_t samples);

/// A timing as the benchmark reports it: median, the tail percentile the
/// sample supports (if any), and the sample count.
struct Summary {
  double median = 0.0;
  std::size_t samples = 0;
  std::optional<double> tail_q;
  double tail_value = 0.0;
};
[[nodiscard]] Summary summarize(const std::vector<double>& values);
/// "median 1.23 over 5 samples" plus ", p95 4.56" when the sample supports it.
[[nodiscard]] std::string describe(const Summary& summary, int precision = 6);

/// What one checked run produced, in the terms every entry point can give.
/// `decisions` is a canonical rendering of the decided outputs; an empty
/// string means this path cannot observe them and they are not compared.
struct RunOutcome {
  bool threw = false;
  std::string error;
  bool infra_ok = true;
  bool expectations_ok = true;
  std::size_t violations = 0;
  std::uint64_t rounds = 0;
  std::uint64_t deliveries = 0;
  std::string decisions;
};

enum class Verdict { kOk, kThrew, kInfra, kExpectation, kViolation, kMismatch };

[[nodiscard]] std::string to_string(Verdict verdict);

/// A run fails when it throws, its infrastructure failed, an expectation
/// failed, the invariant monitor reported a violation, or its rounds,
/// deliveries or decisions differ from `reference` (when one is given).
[[nodiscard]] Verdict classify(const RunOutcome& run, const RunOutcome* reference);

/// failed ÷ attempted; 0 for no attempts.
[[nodiscard]] double fail_rate(std::uint64_t failed, std::uint64_t attempted);

}  // namespace bench
