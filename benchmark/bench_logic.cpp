#include "bench_logic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace bench {

std::int64_t union_length(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.begin_ns < b.begin_ns; });
  std::int64_t total = 0;
  std::int64_t run_begin = 0;
  std::int64_t run_end = 0;
  bool open = false;
  for (const Interval& i : intervals) {
    if (i.end_ns <= i.begin_ns) continue;
    if (open && i.begin_ns <= run_end) {
      run_end = std::max(run_end, i.end_ns);
      continue;
    }
    if (open) total += run_end - run_begin;
    run_begin = i.begin_ns;
    run_end = i.end_ns;
    open = true;
  }
  if (open) total += run_end - run_begin;
  return total;
}

std::int64_t self_time(Interval parent, std::vector<Interval> children) {
  for (Interval& child : children) {
    child.begin_ns = std::max(child.begin_ns, parent.begin_ns);
    child.end_ns = std::min(child.end_ns, parent.end_ns);
  }
  return std::max<std::int64_t>(0, parent.end_ns - parent.begin_ns) -
         union_length(std::move(children));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double weight = position - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * weight;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

std::optional<double> tail_quantile(std::size_t samples) {
  for (const double q : {0.999, 0.99, 0.95, 0.90}) {
    // Samples strictly beyond the q-th percentile: the top (1 - q) share.
    const double beyond = std::floor(static_cast<double>(samples) * (1.0 - q) + 1e-9);
    if (beyond >= 10.0) return q;
  }
  return std::nullopt;
}

Summary summarize(const std::vector<double>& values) {
  Summary s;
  s.samples = values.size();
  if (values.empty()) return s;
  s.median = median(values);
  s.tail_q = tail_quantile(values.size());
  if (s.tail_q.has_value()) s.tail_value = quantile(values, *s.tail_q);
  return s;
}

std::string describe(const Summary& summary, int precision) {
  char buffer[160];
  std::snprintf(buffer, sizeof buffer, "median %.*g over %zu sample%s", precision, summary.median,
                summary.samples, summary.samples == 1 ? "" : "s");
  std::string text = buffer;
  if (summary.tail_q.has_value()) {
    std::snprintf(buffer, sizeof buffer, ", p%g %.*g", *summary.tail_q * 100.0, precision,
                  summary.tail_value);
    text += buffer;
  }
  return text;
}

std::string to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kOk:
      return "ok";
    case Verdict::kThrew:
      return "threw";
    case Verdict::kInfra:
      return "infrastructure failed";
    case Verdict::kExpectation:
      return "expectation failed";
    case Verdict::kViolation:
      return "invariant violation";
    case Verdict::kMismatch:
      return "differs from reference";
  }
  return "unknown";
}

Verdict classify(const RunOutcome& run, const RunOutcome* reference) {
  if (run.threw) return Verdict::kThrew;
  if (!run.infra_ok) return Verdict::kInfra;
  if (run.violations > 0) return Verdict::kViolation;
  if (!run.expectations_ok) return Verdict::kExpectation;
  if (reference != nullptr) {
    const bool decisions_differ = !run.decisions.empty() && !reference->decisions.empty() &&
                                  run.decisions != reference->decisions;
    if (run.rounds != reference->rounds || run.deliveries != reference->deliveries ||
        decisions_differ) {
      return Verdict::kMismatch;
    }
  }
  return Verdict::kOk;
}

double fail_rate(std::uint64_t failed, std::uint64_t attempted) {
  return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
}

}  // namespace bench
