#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <stdexcept>

#include "dist/shard_coordinator.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/minimizer.hpp"
#include "harness/script.hpp"
#include "net/parallel_exec.hpp"

namespace bench {

using namespace idonly;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"clean-consensus", Kind::kClean},
      {"chaos-consensus", Kind::kChaos},
      {"sharded-consensus", Kind::kSharded},
      {"fuzz-campaign", Kind::kFuzz},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// A prime offset keeps the held-out seed clear of the small seeds a
// change is usually written against.
std::uint64_t held_out_seed(std::uint64_t seed) { return seed + 7919; }

std::string consensus_script(Kind kind, std::uint64_t seed, bool setup_cut) {
  std::string text = "protocol consensus\nnodes " + std::to_string(kNodes) +
                     "\ninputs 0,1\nseed " + std::to_string(seed) + "\n";
  // The chaos window opens after discovery: rounds 1-6 and 11-12 run with a
  // schedule installed that injects nothing, rounds 7-10 inject faults.
  if (kind == Kind::kChaos) text += "chaos 7-10 drop=0.02 dup=0.05 delay=0.02:1\n";
  if (setup_cut) return text + "max-rounds 1\n";
  text += "expect termination\nexpect agreement\nexpect validity\n";
  if (kind == Kind::kChaos) text += "expect no-violations\n";
  return text;
}

namespace {

double seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// CPU time of this process and every child it has reaped (shard workers).
double cpu_seconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    getrusage(who, &usage);
    total += static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
             static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
  }
  return total;
}

ScenarioScript parse_or_throw(const std::string& text) {
  auto parsed = parse_script(text);
  if (const auto* error = std::get_if<ParseError>(&parsed)) {
    throw std::invalid_argument("script line " + std::to_string(error->line) + ": " +
                                error->message);
  }
  return std::get<ScenarioScript>(std::move(parsed));
}

ScriptOptions script_options() {
  ScriptOptions options;
  options.threads = kThreads;
  return options;
}

DistConfig dist_config(std::string text) {
  DistConfig config;
  config.script_text = std::move(text);
  config.shards = kShards;
  config.mesh = true;
  return config;
}

CampaignOptions campaign_options(std::uint64_t base_seed) {
  CampaignOptions options;
  options.scenarios = kFuzzScenarios;
  options.base_seed = base_seed;
  options.jobs = kThreads;
  options.minimize = false;
  options.generator.max_nodes = kFuzzMaxNodes;
  options.generator.past_boundary_probability = 0.0;
  return options;
}

RunOutcome outcome_of(const ScriptRun& run) {
  RunOutcome out;
  out.expectations_ok = run.all_satisfied;
  out.violations = run.violations.size();
  out.rounds = run.rounds;
  out.deliveries = run.messages;
  return out;
}

RunOutcome outcome_of(const CampaignCounters& counters) {
  RunOutcome out;
  out.expectations_ok = counters.passed == counters.scenarios && counters.generator_errors == 0;
  out.violations = counters.violations;
  out.decisions = counters.summary();
  return out;
}

/// Self time, busy time and concurrency of a direct drive's steps.
struct LayerTimes {
  std::int64_t step_ns = 0;
  std::int64_t self_ns = 0;
  std::int64_t union_ns = 0;
  std::int64_t correct_ns = 0;
  std::int64_t adversary_ns = 0;
  std::int64_t quiet_ns = 0;
  std::int64_t chaos_ns = 0;
  std::size_t quiet_steps = 0;
  std::size_t chaos_steps = 0;

  LayerTimes& operator+=(const LayerTimes& o) {
    step_ns += o.step_ns;
    self_ns += o.self_ns;
    union_ns += o.union_ns;
    correct_ns += o.correct_ns;
    adversary_ns += o.adversary_ns;
    quiet_ns += o.quiet_ns;
    chaos_ns += o.chaos_ns;
    quiet_steps += o.quiet_steps;
    chaos_steps += o.chaos_steps;
    return *this;
  }
};

/// Attribute on_round spans to the step that contains them: a step's self
/// time is its wall time minus the union of its (parallel) on_round spans.
LayerTimes analyze(const DriveResult& drive, std::vector<Span> spans) {
  std::erase_if(spans, [](const Span& s) {
    return s.kind != SpanKind::kOnRound && s.kind != SpanKind::kAdversaryOnRound;
  });
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.begin_ns < b.begin_ns; });
  LayerTimes t;
  for (const StepTiming& step : drive.steps) {
    auto it = std::lower_bound(spans.begin(), spans.end(), step.wall.begin_ns,
                               [](const Span& s, std::int64_t v) { return s.begin_ns < v; });
    std::vector<Interval> children;
    for (; it != spans.end() && it->begin_ns <= step.wall.end_ns; ++it) {
      children.push_back(Interval{it->begin_ns, it->end_ns});
      (it->kind == SpanKind::kOnRound ? t.correct_ns : t.adversary_ns) += it->end_ns - it->begin_ns;
    }
    const std::int64_t wall = step.wall.end_ns - step.wall.begin_ns;
    t.step_ns += wall;
    t.union_ns += union_length(children);
    t.self_ns += self_time(step.wall, std::move(children));
    if (step.chaos_round) {
      t.chaos_ns += wall;
      t.chaos_steps += 1;
    } else {
      t.quiet_ns += wall;
      t.quiet_steps += 1;
    }
  }
  return t;
}

/// One generated scenario of a fuzz pass.
struct FuzzItem {
  std::uint64_t seed = 0;
  bool threw = false;
  bool consensus = true;
  bool past_boundary = false;
  bool timed_out = false;
  FailureClass cls = FailureClass::kNone;
  std::int64_t generate_ns = 0;
  std::int64_t parse_ns = 0;
  std::int64_t run_ns = 0;
  RunOutcome script;
  // Traced passes only: the direct layer drive, untraced and traced.
  RunOutcome drive;
  RunOutcome traced_drive;
  std::int64_t drive_ns = 0;
  std::int64_t traced_drive_ns = 0;
  std::int64_t build_ns = 0;
  LayerTimes layers;
  Metrics metrics;
  std::uint64_t faults = 0;
};

/// Generate and run every scenario of a campaign through run_script, on the
/// campaign's job count. With `sink`, also time generate/run_script into it
/// and drive each scenario directly, untraced and traced.
std::vector<FuzzItem> fuzz_pass(std::uint64_t base_seed, SpanSink* sink) {
  const CampaignOptions options = campaign_options(base_seed);
  const ScenarioGenerator generator(options.generator);
  std::vector<FuzzItem> items(options.scenarios);
  ParallelExecutor pool(options.jobs);
  pool.run(items.size(), [&](std::size_t i) {
    FuzzItem& item = items[i];
    const std::uint64_t seed = base_seed + i;
    item.seed = seed;
    try {
      const std::int64_t t0 = now_ns();
      const GeneratedScenario generated = generator.generate(seed);
      const std::int64_t t1 = now_ns();
      const ScenarioScript script = parse_or_throw(generated.text);
      const std::int64_t t2 = now_ns();
      const ScriptRun run = run_script(generated.script);
      const std::int64_t t3 = now_ns();
      item.consensus = generated.script.protocol == ScriptProtocol::kConsensus;
      item.generate_ns = t1 - t0;
      item.parse_ns = t2 - t1;
      item.run_ns = t3 - t2;
      item.past_boundary = generated.past_boundary;
      item.script = outcome_of(run);
      item.cls = classify_failure(run).cls;
      for (const ExpectationOutcome& outcome : run.outcomes) {
        item.timed_out = item.timed_out ||
                         (outcome.expectation == Expectation::kTermination && !outcome.satisfied);
      }
      if (sink == nullptr) return;
      sink->record(Span{t0, t1, seed, 0, 0, SpanKind::kGenerate});
      sink->record(Span{t2, t3, seed, 0, 0, SpanKind::kRunScript});
      const DriveResult plain = drive_script(script, 1, nullptr);
      SpanSink local;
      const DriveResult traced = drive_script(script, 1, &local);
      item.drive = plain.outcome;
      item.drive_ns = plain.wall.end_ns - plain.wall.begin_ns;
      item.traced_drive = traced.outcome;
      item.traced_drive_ns = traced.wall.end_ns - traced.wall.begin_ns;
      item.build_ns = traced.build_ns;
      item.layers = analyze(traced, local.collect());
      item.metrics = traced.metrics;
      item.faults = traced.faults;
    } catch (const std::exception& error) {
      item.threw = true;
      item.script.threw = true;
      item.script.error = error.what();
    }
  });
  return items;
}

/// The counters CampaignRunner::run reports for the same scenarios.
CampaignCounters counters_of(const std::vector<FuzzItem>& items) {
  CampaignCounters counters;
  for (const FuzzItem& item : items) {
    counters.scenarios += 1;
    if (item.threw) {
      counters.generator_errors += 1;
      continue;
    }
    if (item.past_boundary) counters.boundary_probes += 1;
    if (item.cls == FailureClass::kNone) {
      counters.passed += 1;
      continue;
    }
    if (item.cls == FailureClass::kViolation) {
      counters.violations += 1;
    } else {
      counters.expectation_failures += 1;
    }
    if (item.timed_out) counters.timeouts += 1;
    if (item.past_boundary) counters.boundary_violations += 1;
  }
  return counters;
}

/// Adds one checked run to a report.
void check_into(Report& report, const RunOutcome& run, const RunOutcome* reference,
                const std::string& what) {
  report.attempted += 1;
  const Verdict verdict = classify(run, reference);
  if (verdict == Verdict::kOk) return;
  report.failed += 1;
  report.failures.push_back(what + ": " + to_string(verdict) +
                            (run.error.empty() ? "" : " (" + run.error + ")"));
}

}  // namespace

// ----------------------------------------------------------- end to end --

struct Measurement::Entry {
  RunOutcome outcome;
  double wall_s = 0.0;
  std::uint64_t scenarios = 1;
  std::uint64_t passed = 0;
};

Measurement::Measurement(const Workload& workload, std::uint64_t seed)
    : workload_(workload), seed_(seed) {}

Measurement::Entry Measurement::entry(std::uint64_t seed) const {
  Entry e;
  try {
    switch (workload_.kind) {
      case Kind::kClean:
      case Kind::kChaos: {
        const ScenarioScript script = parse_or_throw(consensus_script(workload_.kind, seed, false));
        const std::int64_t begin = now_ns();
        const ScriptRun run = run_script(script, script_options());
        e.wall_s = seconds(now_ns() - begin);
        e.outcome = outcome_of(run);
        break;
      }
      case Kind::kSharded: {
        const DistConfig config = dist_config(consensus_script(workload_.kind, seed, false));
        const std::int64_t begin = now_ns();
        const DistRun run = run_dist(config);
        e.wall_s = seconds(now_ns() - begin);
        e.outcome = outcome_of(run.script);
        e.outcome.infra_ok = run.infra_ok;
        e.outcome.error = run.infra_error;
        break;
      }
      case Kind::kFuzz: {
        const CampaignRunner runner(campaign_options(seed));
        const std::int64_t begin = now_ns();
        const CampaignReport report = runner.run();
        e.wall_s = seconds(now_ns() - begin);
        e.outcome = outcome_of(report.counters);
        e.scenarios = report.counters.scenarios;
        e.passed = report.counters.passed;
        if (!report.failures.empty()) {
          const CampaignFailure& first = report.failures.front();
          e.outcome.error = "first failing scenario seed " + std::to_string(first.seed) + ": " +
                            (first.first_violation.empty() ? first.summary : first.first_violation);
        }
        break;
      }
    }
  } catch (const std::exception& error) {
    e.outcome.threw = true;
    e.outcome.error = error.what();
  }
  if (workload_.kind != Kind::kFuzz) {
    e.passed = classify(e.outcome, nullptr) == Verdict::kOk ? 1 : 0;
  }
  return e;
}

void Measurement::check(const Entry& run, const RunOutcome* reference, const std::string& what) {
  attempted_ += run.scenarios;
  const Verdict verdict = classify(run.outcome, reference);
  if (verdict == Verdict::kOk) return;
  // A campaign whose scenarios ran fails by its failing scenarios; one that
  // threw or disagrees with the reference fails as a whole.
  const bool per_scenario = verdict == Verdict::kExpectation || verdict == Verdict::kViolation;
  failed_ += per_scenario ? std::max<std::uint64_t>(1, run.scenarios - run.passed) : run.scenarios;
  failures_.push_back(what + ": " + to_string(verdict) +
                      (run.outcome.error.empty() ? "" : " (" + run.outcome.error + ")"));
}

double Measurement::setup_once() const {
  switch (workload_.kind) {
    case Kind::kClean:
    case Kind::kChaos: {
      const ScenarioScript script = parse_or_throw(consensus_script(workload_.kind, seed_, true));
      const std::int64_t start = now_ns();
      (void)run_script(script, script_options());
      return seconds(now_ns() - start);
    }
    case Kind::kSharded: {
      const DistConfig config = dist_config(consensus_script(workload_.kind, seed_, true));
      const std::int64_t start = now_ns();
      const DistRun run = run_dist(config);
      if (!run.infra_ok) throw std::runtime_error(run.infra_error);
      return seconds(now_ns() - start);
    }
    case Kind::kFuzz: {
      // Every scenario of the campaign cut to one round, by one caller:
      // the per-run fixed cost the campaign pays 300 times.
      const CampaignOptions options = campaign_options(seed_);
      const ScenarioGenerator generator(options.generator);
      const std::int64_t begin = now_ns();
      for (std::size_t i = 0; i < options.scenarios; ++i) {
        GeneratedScenario generated = generator.generate(options.base_seed + i);
        generated.script.max_rounds = 1;
        (void)run_script(generated.script);
      }
      return seconds(now_ns() - begin);
    }
  }
  return 0.0;
}

void Measurement::probe() {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  struct Probe {
    double peak_mb = 0.0;
    std::uint64_t scenarios = 0;
    std::uint64_t passed = 0;
  };
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    const Entry e = entry(seed_);
    rusage self{};
    rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    Probe p;
    // ru_maxrss is in KiB. A fleet's peak is bounded by the coordinator's
    // plus one largest worker per shard.
    p.peak_mb = static_cast<double>(self.ru_maxrss) / 1024.0;
    if (workload_.kind == Kind::kSharded) {
      p.peak_mb += kShards * static_cast<double>(children.ru_maxrss) / 1024.0;
    }
    p.scenarios = e.scenarios;
    p.passed = e.passed;
    const bool sent = write(fds[1], &p, sizeof p) == static_cast<ssize_t>(sizeof p);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  Probe p;
  const bool got = read(fds[0], &p, sizeof p) == static_cast<ssize_t>(sizeof p);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    attempted_ += 1;
    failed_ += 1;
    failures_.push_back("memory probe run died");
    return;
  }
  peak_rss_mb_ = p.peak_mb;
  attempted_ += p.scenarios;
  if (p.passed < p.scenarios) {
    failed_ += p.scenarios - p.passed;
    failures_.push_back("memory probe run failed its checks");
  }
}

void Measurement::prepare() {
  try {
    switch (workload_.kind) {
      case Kind::kClean:
      case Kind::kChaos:
        reference_ = drive_script(parse_or_throw(consensus_script(workload_.kind, seed_, false)),
                                  kThreads, nullptr)
                         .outcome;
        break;
      case Kind::kSharded:
        // The shard engine must reproduce the in-process run.
        reference_ = outcome_of(
            run_script(parse_or_throw(consensus_script(workload_.kind, seed_, false)),
                       script_options()));
        break;
      case Kind::kFuzz: {
        const std::vector<FuzzItem> items = fuzz_pass(seed_, nullptr);
        reference_ = outcome_of(counters_of(items));
        for (const FuzzItem& item : items) fuzz_rounds_ += item.script.rounds;
        break;
      }
    }
  } catch (const std::exception& error) {
    reference_.threw = true;
    reference_.error = error.what();
  }
  const std::uint64_t held_out = held_out_seed(seed_);
  check(entry(held_out), nullptr, "held-out seed " + std::to_string(held_out));
}

namespace {
constexpr std::int64_t kSetupBudgetNs = 100'000'000;
}  // namespace

void Measurement::rep() {
  const Entry e = entry(seed_);
  reps_ += 1;
  check(e, &reference_, "seed " + std::to_string(seed_));
  if (!e.outcome.threw && e.wall_s > 0.0) {
    const double rounds =
        static_cast<double>(workload_.kind == Kind::kFuzz ? fuzz_rounds_ : e.outcome.rounds);
    rounds_per_s_.push_back(rounds / e.wall_s);
    runs_per_s_.push_back(static_cast<double>(e.scenarios) / e.wall_s);
  }
  // At least two set-up runs per rep, more while they stay cheap, so the
  // median of a sub-millisecond set-up rests on many samples.
  const std::int64_t setup_begin = now_ns();
  for (int i = 0; i < 2 || (now_ns() - setup_begin < kSetupBudgetNs && i < 200); ++i) {
    attempted_ += 1;
    try {
      setup_s_.push_back(setup_once());
    } catch (const std::exception& error) {
      failed_ += 1;
      failures_.push_back(std::string("set-up run: ") + error.what());
    }
  }
}

Report Measurement::report() const {
  Report r;
  r.attempted = attempted_;
  r.failed = failed_;
  r.failures = failures_;
  auto add = [&](const char* name, const char* unit, const std::vector<double>& values) {
    const Summary s = summarize(values);
    r.metrics.push_back(Metric{name, unit, s.median, s.samples, describe(s)});
  };
  add("rounds_per_s", "1/s", rounds_per_s_);
  add("runs_per_s", "1/s", runs_per_s_);
  add("setup_s", "s", setup_s_);
  r.metrics.push_back(Metric{"peak_rss_mb", "MB", peak_rss_mb_, 1, "one run in a forked child"});
  return r;
}

// ---------------------------------------------------------------- traced --

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> all = {
      {"core.on_round_s", "s"},
      {"core.ns_per_delivery", "ns"},
      {"net.step_s", "s"},
      {"net.self_s", "s"},
      {"net.ns_per_delivery", "ns"},
      {"net.step_concurrency", "ratio"},
      {"net.step_ms_quiet_rounds", "ms"},
      {"net.step_ms_chaos_rounds", "ms"},
      {"net.sends", "count"},
      {"net.deliveries", "count"},
      {"net.bytes_delivered", "bytes"},
      {"net.dedup_hits", "count"},
      {"net.slab_sends", "count"},
      {"chaos.faults", "count"},
      {"chaos.faults_per_delivery", "ratio"},
      {"harness.parse_s", "s"},
      {"harness.build_s", "s"},
      {"harness.path_overhead_s", "s"},
      {"harness.cpu_util", "ratio"},
      {"dist.begin_round_s", "s"},
      {"dist.decode_s", "s"},
      {"dist.merge_s", "s"},
      {"dist.critical_path_s", "s"},
      {"dist.imbalance", "ratio"},
      {"dist.comm_s", "s"},
      {"dist.recv_stall_s", "s"},
      {"dist.overlap_ratio", "ratio"},
      {"dist.slab_bytes_per_round", "bytes"},
      {"bench.trace_overhead", "ratio"},
  };
  return all;
}

const std::vector<std::pair<std::string, std::string>>& fuzz_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> all = {
      {"adversary.on_round_s", "s"},
      {"fuzz.generate_s", "s"},
      {"fuzz.run_s", "s"},
      {"fuzz.run_s.consensus", "s"},
      {"fuzz.run_s.totalorder", "s"},
      {"fuzz.scenario_ms_p50", "ms"},
      {"fuzz.scenario_ms_p95", "ms"},
  };
  return all;
}

namespace {

using LayerValues = std::map<std::string, double>;

/// Engine counters and layer times of in-process drives.
void put_net(LayerValues& v, const LayerTimes& t, const Metrics& m, std::uint64_t faults) {
  const double deliveries = static_cast<double>(m.messages.total_delivered());
  v["core.on_round_s"] = seconds(t.correct_ns);
  v["adversary.on_round_s"] = seconds(t.adversary_ns);
  v["net.step_s"] = seconds(t.step_ns);
  v["net.self_s"] = seconds(t.self_ns);
  v["net.step_concurrency"] =
      t.union_ns > 0 ? static_cast<double>(t.correct_ns + t.adversary_ns) / t.union_ns : 0.0;
  v["net.step_ms_quiet_rounds"] = t.quiet_steps > 0 ? t.quiet_ns / 1e6 / t.quiet_steps : 0.0;
  v["net.step_ms_chaos_rounds"] = t.chaos_steps > 0 ? t.chaos_ns / 1e6 / t.chaos_steps : 0.0;
  v["net.sends"] = static_cast<double>(m.messages.total_sent());
  v["net.deliveries"] = deliveries;
  v["net.bytes_delivered"] = static_cast<double>(m.fanout.bytes_delivered);
  v["net.dedup_hits"] = static_cast<double>(m.fanout.dedup_hits);
  v["net.slab_sends"] = static_cast<double>(m.fanout.slab_sends);
  v["chaos.faults"] = static_cast<double>(faults);
  if (deliveries > 0) {
    v["core.ns_per_delivery"] = static_cast<double>(t.correct_ns) / deliveries;
    v["net.ns_per_delivery"] = static_cast<double>(t.self_ns) / deliveries;
    v["chaos.faults_per_delivery"] = static_cast<double>(faults) / deliveries;
  }
}

/// Median per metric across the traced repetitions.
LayerValues median_of(const std::vector<LayerValues>& reps) {
  LayerValues out;
  if (reps.empty()) return out;
  for (const auto& [name, value] : reps.front()) {
    std::vector<double> values;
    for (const LayerValues& rep : reps) values.push_back(rep.at(name));
    out[name] = median(values);
  }
  return out;
}

double median_parse_s(const std::string& text) {
  std::vector<double> samples;
  for (int i = 0; i < 51; ++i) {
    const std::int64_t begin = now_ns();
    (void)parse_or_throw(text);
    samples.push_back(seconds(now_ns() - begin));
  }
  return median(samples);
}

constexpr int kTraceReps = 3;
// Each in-process shard drive runs all four shards on one thread (~9 s).
constexpr int kShardTraceReps = 2;

LayerValues trace_in_process(Kind kind, std::uint64_t seed, Report& report) {
  const std::string text = consensus_script(kind, seed, false);
  const ScenarioScript script = parse_or_throw(text);
  std::vector<double> plain_s, traced_s, script_s, cpu_util;
  std::vector<LayerValues> reps;
  RunOutcome baseline;
  for (int r = 0; r < kTraceReps; ++r) {
    const DriveResult plain = drive_script(script, kThreads, nullptr);
    if (r == 0) baseline = plain.outcome;
    check_into(report, plain.outcome, &baseline, "untraced layer drive");
    plain_s.push_back(seconds(plain.wall.end_ns - plain.wall.begin_ns));

    SpanSink sink;
    const DriveResult traced = drive_script(script, kThreads, &sink);
    check_into(report, traced.outcome, &baseline, "traced layer drive");
    traced_s.push_back(seconds(traced.wall.end_ns - traced.wall.begin_ns));
    std::vector<Span> spans = sink.collect();
    LayerValues v;
    put_net(v, analyze(traced, spans), traced.metrics, traced.faults);
    v["harness.build_s"] = seconds(traced.build_ns);
    reps.push_back(std::move(v));
    if (r + 1 == kTraceReps) report.spans = std::move(spans);

    const double cpu0 = cpu_seconds();
    const std::int64_t begin = now_ns();
    const ScriptRun run = run_script(script, script_options());
    const double wall = seconds(now_ns() - begin);
    check_into(report, outcome_of(run), &baseline, "run_script");
    script_s.push_back(wall);
    cpu_util.push_back((cpu_seconds() - cpu0) / wall);
  }
  LayerValues v = median_of(reps);
  v["harness.parse_s"] = median_parse_s(text);
  v["harness.path_overhead_s"] = median(script_s) - median(plain_s);
  v["harness.cpu_util"] = median(cpu_util);
  v["bench.trace_overhead"] = median(traced_s) / median(plain_s);
  return v;
}

LayerValues trace_sharded(std::uint64_t seed, Report& report) {
  const std::string text = consensus_script(Kind::kSharded, seed, false);
  const ScenarioScript script = parse_or_throw(text);
  // The in-process drive is the reference: it also observes decisions.
  const RunOutcome reference = drive_script(script, kThreads, nullptr).outcome;
  check_into(report, reference, nullptr, "in-process layer drive");
  std::vector<double> dist_s, setup_s, stall_s, overlap, cpu_util, plain_s, traced_s;
  std::vector<LayerValues> reps;
  for (int r = 0; r < kShardTraceReps; ++r) {
    const double cpu0 = cpu_seconds();
    const std::int64_t begin = now_ns();
    const DistRun run = run_dist(dist_config(text));
    const double wall = seconds(now_ns() - begin);
    RunOutcome out = outcome_of(run.script);
    out.infra_ok = run.infra_ok;
    out.error = run.infra_error;
    check_into(report, out, &reference, "run_dist");
    dist_s.push_back(wall);
    cpu_util.push_back((cpu_seconds() - cpu0) / wall);
    stall_s.push_back(static_cast<double>(run.metrics.overlap.recv_stall_ns) / 1e9);
    overlap.push_back(run.script.rounds > 0
                          ? static_cast<double>(run.metrics.overlap.rounds_overlapped) /
                                static_cast<double>(run.script.rounds * kShards)
                          : 0.0);

    const std::int64_t setup_begin = now_ns();
    const DistRun setup = run_dist(dist_config(consensus_script(Kind::kSharded, seed, true)));
    setup_s.push_back(seconds(now_ns() - setup_begin));
    RunOutcome setup_out;
    setup_out.infra_ok = setup.infra_ok;
    setup_out.error = setup.infra_error;
    check_into(report, setup_out, nullptr, "run_dist set-up");

    const ShardDriveResult plain = drive_shards(text, kShards, nullptr);
    check_into(report, plain.outcome, &reference, "untraced shard drive");
    plain_s.push_back(seconds(plain.wall.end_ns - plain.wall.begin_ns));

    SpanSink sink;
    const ShardDriveResult traced = drive_shards(text, kShards, &sink);
    check_into(report, traced.outcome, &reference, "traced shard drive");
    traced_s.push_back(seconds(traced.wall.end_ns - traced.wall.begin_ns));
    if (r + 1 == kShardTraceReps) report.spans = sink.collect();

    LayerValues v;
    auto sum = [](const std::vector<std::int64_t>& xs) {
      std::int64_t total = 0;
      for (std::int64_t x : xs) total += x;
      return seconds(total);
    };
    v["dist.begin_round_s"] = sum(traced.begin_round_ns);
    v["dist.decode_s"] = sum(traced.decode_ns);
    v["dist.merge_s"] = sum(traced.merge_ns);
    v["dist.critical_path_s"] = seconds(traced.critical_path_ns);
    v["dist.imbalance"] = traced.compute_ns > 0 ? static_cast<double>(traced.critical_path_ns) *
                                                      kShards / traced.compute_ns
                                                : 0.0;
    v["dist.slab_bytes_per_round"] =
        traced.outcome.rounds > 0
            ? static_cast<double>(traced.slab_bytes) / static_cast<double>(traced.outcome.rounds)
            : 0.0;
    v["harness.build_s"] = seconds(traced.build_ns);
    const Metrics& m = run.metrics;
    v["net.sends"] = static_cast<double>(m.messages.total_sent());
    v["net.deliveries"] = static_cast<double>(m.messages.total_delivered());
    v["net.bytes_delivered"] = static_cast<double>(m.fanout.bytes_delivered);
    v["net.dedup_hits"] = static_cast<double>(m.fanout.dedup_hits);
    v["net.slab_sends"] = static_cast<double>(m.fanout.slab_sends);
    reps.push_back(std::move(v));
  }
  LayerValues v = median_of(reps);
  v["harness.parse_s"] = median_parse_s(text);
  v["harness.cpu_util"] = median(cpu_util);
  // Round wall of the fleet (its set-up taken off) not explained by the
  // slowest shard's compute: socket exchange, stalls and control traffic.
  v["dist.comm_s"] = median(dist_s) - median(setup_s) - v["dist.critical_path_s"];
  v["dist.recv_stall_s"] = median(stall_s);
  v["dist.overlap_ratio"] = median(overlap);
  v["bench.trace_overhead"] = median(traced_s) / median(plain_s);
  return v;
}

LayerValues trace_fuzz(std::uint64_t seed, Report& report) {
  const double cpu0 = cpu_seconds();
  const std::int64_t begin = now_ns();
  RunOutcome campaign;
  try {
    campaign = outcome_of(CampaignRunner(campaign_options(seed)).run().counters);
  } catch (const std::exception& error) {
    campaign.threw = true;
    campaign.error = error.what();
  }
  const double wall = seconds(now_ns() - begin);
  const double cpu = cpu_seconds() - cpu0;

  SpanSink sink;
  const std::vector<FuzzItem> items = fuzz_pass(seed, &sink);
  report.spans = sink.collect();
  const RunOutcome reference = outcome_of(counters_of(items));
  check_into(report, campaign, &reference, "campaign");

  LayerTimes layers;
  Metrics metrics;
  std::uint64_t faults = 0;
  std::int64_t generate = 0, parse = 0, run = 0, run_consensus = 0, run_totalorder = 0;
  std::int64_t build = 0, plain = 0, traced = 0;
  std::vector<double> scenario_ms;
  for (const FuzzItem& item : items) {
    const std::string what = std::string(item.consensus ? "consensus" : "totalorder") +
                             " scenario " + std::to_string(item.seed);
    if (item.threw) {
      check_into(report, item.script, nullptr, what);
      continue;
    }
    check_into(report, item.drive, &item.script, what + " layer drive");
    check_into(report, item.traced_drive, &item.drive, what + " traced layer drive");
    generate += item.generate_ns;
    parse += item.parse_ns;
    run += item.run_ns;
    (item.consensus ? run_consensus : run_totalorder) += item.run_ns;
    build += item.build_ns;
    plain += item.drive_ns;
    traced += item.traced_drive_ns;
    layers += item.layers;
    for (std::size_t k = 0; k < MessageCounters::kKinds; ++k) {
      metrics.messages.sent[k] += item.metrics.messages.sent[k];
      metrics.messages.delivered[k] += item.metrics.messages.delivered[k];
    }
    metrics.fanout += item.metrics.fanout;
    faults += item.faults;
    scenario_ms.push_back(static_cast<double>(item.generate_ns + item.run_ns) / 1e6);
  }
  LayerValues v;
  put_net(v, layers, metrics, faults);
  v["harness.parse_s"] = seconds(parse);
  v["harness.build_s"] = seconds(build);
  v["harness.path_overhead_s"] = seconds(run - plain);
  v["harness.cpu_util"] = cpu / wall;
  v["fuzz.generate_s"] = seconds(generate);
  v["fuzz.run_s"] = seconds(run);
  v["fuzz.run_s.consensus"] = seconds(run_consensus);
  v["fuzz.run_s.totalorder"] = seconds(run_totalorder);
  if (!scenario_ms.empty()) {
    v["fuzz.scenario_ms_p50"] = quantile(scenario_ms, 0.5);
    v["fuzz.scenario_ms_p95"] = quantile(scenario_ms, 0.95);
  }
  v["bench.trace_overhead"] = plain > 0 ? static_cast<double>(traced) / plain : 0.0;
  return v;
}

}  // namespace

Report trace_workload(const Workload& workload, std::uint64_t seed) {
  Report report;
  LayerValues values;
  try {
    switch (workload.kind) {
      case Kind::kClean:
      case Kind::kChaos:
        values = trace_in_process(workload.kind, seed, report);
        break;
      case Kind::kSharded:
        values = trace_sharded(seed, report);
        break;
      case Kind::kFuzz:
        values = trace_fuzz(seed, report);
        break;
    }
  } catch (const std::exception& error) {
    report.attempted += 1;
    report.failed += 1;
    report.failures.push_back(std::string("traced run threw: ") + error.what());
  }
  const std::size_t samples = workload.kind == Kind::kFuzz      ? 1
                              : workload.kind == Kind::kSharded ? kShardTraceReps
                                                                : kTraceReps;
  auto emit = [&](const std::vector<std::pair<std::string, std::string>>& names) {
    for (const auto& [name, unit] : names) {
      const auto it = values.find(name);
      // A layer the workload does not exercise reports 0.
      report.metrics.push_back(Metric{name, unit, it == values.end() ? 0.0 : it->second,
                                      it == values.end() ? 0 : samples, ""});
    }
  };
  emit(per_layer_metrics());
  if (workload.kind == Kind::kFuzz) emit(fuzz_layer_metrics());
  return report;
}

// ---------------------------------------------------------------- record --

BuildRecord build_record() {
  BuildRecord r;
  cpu_set_t set;
  CPU_ZERO(&set);
  r.nproc = sched_getaffinity(0, sizeof set, &set) == 0
                ? static_cast<unsigned>(CPU_COUNT(&set))
                : static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      r.cpu_model = colon == std::string::npos ? line : line.substr(colon + 2);
      break;
    }
  }
  if (r.cpu_model.empty()) r.cpu_model = "unknown";
  r.compiler = IDONLY_BENCH_COMPILER;
  r.build_type = IDONLY_BENCH_BUILD_TYPE;
  r.cxx_flags = IDONLY_BENCH_CXX_FLAGS;
#if defined(__SANITIZE_ADDRESS__)
  r.sanitizers += "address ";
#endif
#if defined(__SANITIZE_THREAD__)
  r.sanitizers += "thread ";
#endif
  if (r.cxx_flags.find("-fsanitize") != std::string::npos) r.sanitizers += "(flags) ";
  if (r.sanitizers.empty()) r.sanitizers = "none";
#if defined(__OPTIMIZE__)
  r.optimized = true;
#endif
#if !defined(NDEBUG)
  r.assertions = true;
#endif
  r.flagged = !r.optimized || r.sanitizers != "none";
  return r;
}

}  // namespace bench
