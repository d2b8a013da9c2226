// Unit tests for the benchmark's own logic. Run with
// `python3 benchmark/run.py --self-test`.
#include <gtest/gtest.h>

#include <stdexcept>

#include "bench_logic.hpp"
#include "layers.hpp"

namespace bench {
namespace {

TEST(SpanSelfTime, UnionCountsOverlappingParallelChildrenOnce) {
  // Four threads' on_round spans inside one step: two overlap, one nests,
  // one is disjoint.
  const std::vector<Interval> children = {{10, 40}, {20, 50}, {25, 30}, {60, 70}};
  EXPECT_EQ(union_length(children), 40 + 10);
  EXPECT_EQ(self_time(Interval{0, 100}, children), 100 - 50);
}

TEST(SpanSelfTime, ChildrenAreClippedToTheParent) {
  const std::vector<Interval> children = {{-5, 10}, {90, 130}};
  EXPECT_EQ(self_time(Interval{0, 100}, children), 100 - 10 - 10);
}

TEST(SpanSelfTime, TouchingAndEmptyIntervals) {
  EXPECT_EQ(union_length({{0, 10}, {10, 20}, {5, 5}}), 20);
  EXPECT_EQ(union_length({}), 0);
  EXPECT_EQ(self_time(Interval{0, 100}, {}), 100);
  // Children covering the whole parent leave no self time.
  EXPECT_EQ(self_time(Interval{0, 100}, {{0, 60}, {50, 100}}), 0);
}

TEST(Percentiles, InterpolateLikePythonInclusiveQuantiles) {
  const std::vector<double> values = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(values), 2.5);
  EXPECT_DOUBLE_EQ(quantile(values, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(quantile(values, 0.75), 3.25);
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.95), 7.0);
  EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
}

TEST(Percentiles, TailNeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(tail_quantile(0).has_value());
  EXPECT_FALSE(tail_quantile(99).has_value());  // 9.9 beyond p90
  EXPECT_EQ(tail_quantile(100), 0.90);
  EXPECT_EQ(tail_quantile(199), 0.90);
  EXPECT_EQ(tail_quantile(200), 0.95);
  EXPECT_EQ(tail_quantile(300), 0.95);  // p99 would have 3 beyond it
  EXPECT_EQ(tail_quantile(1000), 0.99);
  EXPECT_EQ(tail_quantile(10000), 0.999);
}

TEST(Percentiles, SummaryStatesItsSampleCount) {
  const Summary few = summarize({3.0, 1.0, 2.0});
  EXPECT_EQ(few.samples, 3u);
  EXPECT_DOUBLE_EQ(few.median, 2.0);
  EXPECT_FALSE(few.tail_q.has_value());
  EXPECT_EQ(describe(few), "median 2 over 3 samples");

  std::vector<double> many;
  for (int i = 1; i <= 200; ++i) many.push_back(i);
  const Summary s = summarize(many);
  ASSERT_TRUE(s.tail_q.has_value());
  EXPECT_DOUBLE_EQ(s.tail_value, quantile(many, 0.95));
  EXPECT_EQ(describe(s), "median 100.5 over 200 samples, p95 190.05");
}

RunOutcome good() {
  RunOutcome run;
  run.rounds = 12;
  run.deliveries = 14400000;
  run.decisions = "decided 192/192 value 1";
  return run;
}

TEST(FailRate, ClassifiesEveryKindOfFailure) {
  const RunOutcome reference = good();
  EXPECT_EQ(classify(good(), &reference), Verdict::kOk);
  EXPECT_EQ(classify(good(), nullptr), Verdict::kOk);

  RunOutcome threw = good();
  threw.threw = true;
  EXPECT_EQ(classify(threw, &reference), Verdict::kThrew);
  RunOutcome infra = good();
  infra.infra_ok = false;
  EXPECT_EQ(classify(infra, &reference), Verdict::kInfra);
  RunOutcome expectation = good();
  expectation.expectations_ok = false;
  EXPECT_EQ(classify(expectation, &reference), Verdict::kExpectation);
  RunOutcome violation = good();
  violation.violations = 1;
  EXPECT_EQ(classify(violation, &reference), Verdict::kViolation);
}

TEST(FailRate, ForcedMismatchWithTheReferenceFails) {
  const RunOutcome reference = good();
  RunOutcome rounds = good();
  rounds.rounds += 1;
  EXPECT_EQ(classify(rounds, &reference), Verdict::kMismatch);
  RunOutcome deliveries = good();
  deliveries.deliveries -= 1;
  EXPECT_EQ(classify(deliveries, &reference), Verdict::kMismatch);
  RunOutcome decisions = good();
  decisions.decisions = "decided 192/192 value 0";
  EXPECT_EQ(classify(decisions, &reference), Verdict::kMismatch);
  // A path that cannot observe decisions is compared on the rest only.
  RunOutcome unobserved = good();
  unobserved.decisions.clear();
  EXPECT_EQ(classify(unobserved, &reference), Verdict::kOk);
  // Without a reference there is nothing to mismatch.
  EXPECT_EQ(classify(rounds, nullptr), Verdict::kOk);
}

TEST(FailRate, IsFailedOverAttempted) {
  EXPECT_DOUBLE_EQ(fail_rate(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(fail_rate(0, 37), 0.0);
  EXPECT_DOUBLE_EQ(fail_rate(3, 300), 0.01);
}

TEST(Decisions, RenderAgreementAndSplit) {
  using idonly::Value;
  EXPECT_EQ(render_decisions(3, {}), "decided 0/3");
  EXPECT_EQ(render_decisions(2, {Value::real(1.0), Value::real(1.0)}),
            "decided 2/2 value " + Value::real(1.0).to_string());
  EXPECT_EQ(render_decisions(2, {Value::real(0.0), Value::real(1.0)}), "decided 2/2 split");
}

}  // namespace
}  // namespace bench
