#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>

#include "common/chaos.hpp"
#include "common/invariants.hpp"
#include "core/consensus.hpp"
#include "core/total_order.hpp"
#include "dist/shard_worker.hpp"
#include "harness/scenario.hpp"
#include "net/sync_simulator.hpp"

namespace bench {

using namespace idonly;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOnRound:
      return "on_round";
    case SpanKind::kAdversaryOnRound:
      return "adversary.on_round";
    case SpanKind::kStep:
      return "step";
    case SpanKind::kBeginRound:
      return "begin_round";
    case SpanKind::kDecode:
      return "decode_peer_slab";
    case SpanKind::kMerge:
      return "merge_round";
    case SpanKind::kGenerate:
      return "generate";
    case SpanKind::kRunScript:
      return "run_script";
  }
  return "span";
}

namespace {
// Sinks are told apart by epoch, not address, so a thread never writes into
// the buffer of a sink that has since been destroyed and replaced.
std::atomic<std::uint64_t> next_epoch{1};
struct ThreadBuffer {
  std::uint64_t epoch = 0;
  std::vector<Span>* spans = nullptr;
  std::uint32_t tid = 0;
};
thread_local ThreadBuffer current;
}  // namespace

SpanSink::SpanSink() : epoch_(next_epoch.fetch_add(1)) {}

std::vector<Span>& SpanSink::buffer() {
  if (current.epoch != epoch_) {
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    current = ThreadBuffer{epoch_, buffers_.back().get(),
                           static_cast<std::uint32_t>(buffers_.size() - 1)};
  }
  return *current.spans;
}

void SpanSink::record(Span span) {
  std::vector<Span>& spans = buffer();
  span.tid = current.tid;
  spans.push_back(span);
}

std::vector<Span> SpanSink::collect() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& spans : buffers_) all.insert(all.end(), spans->begin(), spans->end());
  return all;
}

TimedProcess::TimedProcess(std::unique_ptr<Process> inner, SpanSink& sink)
    : Process(inner->id()), inner_(std::move(inner)), sink_(sink),
      byzantine_(inner_->byzantine()) {}

void TimedProcess::on_round(RoundInfo round, std::span<const Message> inbox,
                            std::vector<Outgoing>& out) {
  const std::int64_t begin = now_ns();
  inner_->on_round(round, inbox, out);
  sink_.record(Span{begin, now_ns(), round.global, 0, 0,
                    byzantine_ ? SpanKind::kAdversaryOnRound : SpanKind::kOnRound});
}

std::string render_decisions(std::size_t tracked, const std::vector<Value>& outputs) {
  std::string text = "decided " + std::to_string(outputs.size()) + "/" + std::to_string(tracked);
  if (outputs.empty()) return text;
  const bool agree = std::all_of(outputs.begin(), outputs.end(),
                                 [&](const Value& v) { return v == outputs.front(); });
  return text + (agree ? " value " + outputs.front().to_string() : " split");
}

namespace {

bool wants(const ScenarioScript& script, Expectation expectation) {
  return std::find(script.expectations.begin(), script.expectations.end(), expectation) !=
         script.expectations.end();
}

bool in_chaos_window(const ScenarioScript& script, Round round) {
  return std::any_of(script.chaos_phases.begin(), script.chaos_phases.end(),
                     [&](const ChaosPhaseSpec& p) {
                       return round >= p.first_round && round <= p.last_round;
                     });
}

std::vector<Value> correct_inputs_of(const ScenarioScript& script, std::size_t n_correct) {
  std::vector<Value> inputs;
  for (std::size_t i = 0; i < n_correct; ++i) {
    inputs.push_back(Value::real(script.inputs[i % script.inputs.size()]));
  }
  return inputs;
}

}  // namespace

DriveResult drive_script(const ScenarioScript& script, unsigned threads, SpanSink* sink) {
  const bool consensus = script.protocol == ScriptProtocol::kConsensus;
  if (!consensus && script.protocol != ScriptProtocol::kTotalOrder) {
    throw std::invalid_argument("direct drive covers consensus and totalorder only");
  }
  // run_script sends plain consensus scripts through harness::run_consensus,
  // which feeds adversary faces alternating inputs and runs no monitor.
  const bool plain = consensus && script.chaos_phases.empty() && script.churn_events.empty() &&
                     script.liveness_budget <= 0;
  DriveResult result;
  result.wall.begin_ns = now_ns();

  const Scenario scenario = make_scenario(script.config);
  SyncSimulator sim;
  sim.set_threads(threads);
  std::shared_ptr<ChaosSchedule> chaos;
  if (!script.chaos_phases.empty()) {
    chaos = std::make_shared<ChaosSchedule>(
        materialize_chaos_plan(script.chaos_phases, scenario.all_ids()), script.config.seed);
    sim.set_chaos(chaos);
  }
  const std::vector<Value> correct_inputs =
      correct_inputs_of(script, scenario.correct_ids.size());
  InvariantMonitor monitor(consensus && wants(script, Expectation::kValidity)
                               ? correct_inputs
                               : std::vector<Value>{});
  if (script.liveness_budget > 0) monitor.set_termination_probe(script.liveness_budget);

  // Inner processes of the correct nodes, owned by the simulator through
  // their wrappers; looked up by id for outputs, observers and events.
  std::map<NodeId, ConsensusProcess*> deciders;
  std::map<NodeId, TotalOrderProcess*> ledgers;
  const std::size_t n_correct = script.config.n_correct;
  auto wrap = [&](std::unique_ptr<Process> process) -> std::unique_ptr<Process> {
    if (sink == nullptr) return process;
    return std::make_unique<TimedProcess>(std::move(process), *sink);
  };
  auto factory = [&](NodeId id, std::size_t index) -> std::unique_ptr<Process> {
    if (consensus) {
      const double input = plain && index >= n_correct
                               ? static_cast<double>(index % 2)
                               : script.inputs[index % script.inputs.size()];
      auto process = std::make_unique<ConsensusProcess>(id, Value::real(input));
      if (index < n_correct) deciders[id] = process.get();
      return process;
    }
    auto process = std::make_unique<TotalOrderProcess>(id, /*founder=*/true);
    if (index < n_correct) ledgers[id] = process.get();
    return process;
  };
  build_processes(scenario, factory,
                  [&](std::unique_ptr<Process> process) { sim.add_process(wrap(std::move(process))); });
  if (consensus && !plain) {
    for (auto& [id, process] : deciders) process->set_observer(&monitor);
  }
  if (!consensus) {
    for (std::size_t i = 0; i < scenario.correct_ids.size(); ++i) {
      for (int k = 0; k < 4; ++k) {
        ledgers.at(scenario.correct_ids[i])->submit_event(static_cast<double>(i * 10 + k));
      }
    }
  }
  result.build_ns = now_ns() - result.wall.begin_ns;

  ChurnDriver churn(script, scenario);
  auto make_joiner = [&](NodeId id, std::size_t joiner_index) -> std::unique_ptr<Process> {
    if (consensus) {
      const double input =
          script.inputs[(scenario.correct_ids.size() + joiner_index) % script.inputs.size()];
      return std::make_unique<ConsensusProcess>(id, Value::real(input));
    }
    return std::make_unique<TotalOrderProcess>(id, /*founder=*/false);
  };
  auto add = [&](std::unique_ptr<Process> process) { sim.add_process(wrap(std::move(process))); };
  auto remove = [&](NodeId id) { sim.remove_process(id); };
  auto tracked_done = [&] {
    bool any = false;
    for (NodeId id : churn.tracked()) {
      const Process* p = sim.find(id);
      if (p == nullptr || !p->done()) return false;
      any = true;
    }
    return any;
  };
  auto step = [&] {
    const std::int64_t begin = now_ns();
    sim.step();
    if (sink == nullptr) return;
    const std::int64_t end = now_ns();
    result.steps.push_back(
        StepTiming{{begin, end}, sim.round(), in_chaos_window(script, sim.round())});
    sink->record(Span{begin, end, sim.round(), 0, 0, SpanKind::kStep});
  };

  bool all_decided = false;
  for (Round i = 0; i < script.max_rounds; ++i) {
    if (consensus && tracked_done()) {
      all_decided = true;
      break;
    }
    churn.apply(sim.round() + 1, make_joiner, add, remove);
    step();
  }
  RunOutcome& out = result.outcome;
  std::vector<std::string> violations;
  bool ok = true;
  if (consensus) {
    if (!all_decided) all_decided = tracked_done();
    if (!plain) {
      monitor.finish(sim.round());
      violations = monitor.violations();
    }
    std::vector<Value> outputs;
    for (NodeId id : churn.tracked()) {
      const auto it = deciders.find(id);
      if (it != deciders.end() && it->second->output().has_value()) {
        outputs.push_back(*it->second->output());
      }
    }
    const bool agreement = std::all_of(outputs.begin(), outputs.end(),
                                       [&](const Value& v) { return v == outputs.front(); });
    const bool validity =
        !outputs.empty() && std::find(correct_inputs.begin(), correct_inputs.end(),
                                      outputs.front()) != correct_inputs.end();
    if (wants(script, Expectation::kTermination)) ok = ok && all_decided;
    if (wants(script, Expectation::kAgreement)) ok = ok && agreement && all_decided;
    if (wants(script, Expectation::kValidity)) ok = ok && validity;
    if (wants(script, Expectation::kNoViolations)) ok = ok && monitor.ok() && agreement;
    out.decisions = render_decisions(churn.tracked().size(), outputs);
  } else {
    bool growth = !churn.tracked().empty();
    const std::vector<ChainEntry>* longest = nullptr;
    for (NodeId id : churn.tracked()) {
      const auto& chain = ledgers.at(id)->chain();
      growth = growth && !chain.empty();
      if (longest == nullptr || chain.size() > longest->size()) longest = &chain;
    }
    for (NodeId id : churn.tracked()) {
      const auto& chain = ledgers.at(id)->chain();
      if (longest != nullptr && !std::equal(chain.begin(), chain.end(), longest->begin())) {
        violations.push_back("chain of node " + std::to_string(id) + " is not a prefix");
      }
    }
    if (wants(script, Expectation::kTermination)) ok = ok && growth;
    if (wants(script, Expectation::kAgreement) || wants(script, Expectation::kNoViolations)) {
      ok = ok && violations.empty();
    }
    out.decisions = "chains " + std::to_string(churn.tracked().size()) + " longest " +
                    std::to_string(longest == nullptr ? 0 : longest->size());
  }
  out.expectations_ok = ok;
  out.violations = violations.size();
  out.rounds = sim.round();
  out.deliveries = sim.metrics().messages.total_delivered();
  result.metrics = sim.metrics();
  if (chaos != nullptr) result.faults = chaos->counters().total_faults().total();
  result.wall.end_ns = now_ns();
  return result;
}

ShardDriveResult drive_shards(const std::string& script_text, std::uint32_t shards,
                              SpanSink* sink) {
  ShardDriveResult result;
  result.begin_round_ns.assign(shards, 0);
  result.decode_ns.assign(shards, 0);
  result.merge_ns.assign(shards, 0);
  result.wall.begin_ns = now_ns();

  std::vector<std::unique_ptr<ShardWorker>> workers;
  for (std::uint32_t s = 0; s < shards; ++s) {
    ShardInit init;
    init.shard = s;
    init.shards = shards;
    init.script_text = script_text;
    workers.push_back(std::make_unique<ShardWorker>(init));
  }
  result.build_ns = now_ns() - result.wall.begin_ns;

  const ScenarioScript& script = workers.front()->script();
  if (script.protocol != ScriptProtocol::kConsensus) {
    throw std::invalid_argument("sharded drive covers consensus only");
  }
  const Scenario scenario = make_scenario(script.config);
  ChurnDriver churn(script, scenario);
  std::map<NodeId, bool> done_status;
  auto tracked_done = [&] {
    bool any = false;
    for (NodeId id : churn.tracked()) {
      const auto it = done_status.find(id);
      if (it == done_status.end() || !it->second) return false;
      any = true;
    }
    return any;
  };
  // Times `fn` into `total` (and the sink) only when tracing.
  auto timed = [&](std::uint32_t shard, SpanKind kind, Round round, std::int64_t& total,
                   std::int64_t& round_total, auto&& fn) {
    if (sink == nullptr) return fn();
    const std::int64_t begin = now_ns();
    auto value = fn();
    const std::int64_t end = now_ns();
    total += end - begin;
    round_total += end - begin;
    sink->record(Span{begin, end, round, shard, 0, kind});
    return value;
  };

  RunOutcome& out = result.outcome;
  Round round = 0;
  bool all_decided = false;
  std::vector<std::vector<ShardWorker::OutboundSlab>> slabs(shards);
  for (;;) {
    if (tracked_done()) {
      all_decided = true;
      break;
    }
    if (round >= script.max_rounds) break;
    round += 1;
    churn.apply(round, [](NodeId, std::size_t) { return std::unique_ptr<Process>{}; },
                [](std::unique_ptr<Process>) {}, [](NodeId) {});
    std::vector<std::int64_t> compute(shards, 0);
    for (std::uint32_t s = 0; s < shards; ++s) {
      slabs[s] = timed(s, SpanKind::kBeginRound, round, result.begin_round_ns[s], compute[s],
                       [&] { return workers[s]->begin_round(); });
      for (const auto& slab : slabs[s]) result.slab_bytes += slab.bytes.size();
    }
    for (std::uint32_t d = 0; d < shards; ++d) {
      std::vector<std::vector<ShardEngine::Send>> streams;
      for (std::uint32_t s = 0; s < shards; ++s) {
        for (const auto& slab : slabs[s]) {
          if (slab.dest != d) continue;
          std::vector<ShardEngine::Send> stream;
          const bool decoded = timed(d, SpanKind::kDecode, round, result.decode_ns[d], compute[d],
                                     [&] { return workers[d]->decode_peer_slab(slab.bytes, stream); });
          if (!decoded) {
            out.infra_ok = false;
            out.error = workers[d]->error();
            return result;
          }
          streams.push_back(std::move(stream));
        }
      }
      timed(d, SpanKind::kMerge, round, result.merge_ns[d], compute[d], [&] {
        workers[d]->merge_round(streams);
        return 0;
      });
      for (const auto& [id, done] : workers[d]->status().done) done_status[id] = done;
    }
    result.critical_path_ns += *std::max_element(compute.begin(), compute.end());
    for (std::int64_t c : compute) result.compute_ns += c;
  }
  if (!all_decided) all_decided = tracked_done();

  std::map<NodeId, Value> decided;
  for (auto& worker : workers) {
    const ShardResult shard = worker->finalize();
    out.rounds = shard.rounds;
    out.deliveries += shard.metrics.messages.total_delivered();
    for (const ShardResult::Decision& d : shard.decisions) {
      if (d.has_output) decided.emplace(d.id, d.output);
    }
  }
  std::vector<Value> outputs;
  for (NodeId id : churn.tracked()) {
    const auto it = decided.find(id);
    if (it != decided.end()) outputs.push_back(it->second);
  }
  const std::vector<Value> correct_inputs = correct_inputs_of(script, scenario.correct_ids.size());
  const bool agreement = std::all_of(outputs.begin(), outputs.end(),
                                     [&](const Value& v) { return v == outputs.front(); });
  const bool validity = !outputs.empty() && std::find(correct_inputs.begin(), correct_inputs.end(),
                                                      outputs.front()) != correct_inputs.end();
  bool ok = true;
  if (wants(script, Expectation::kTermination)) ok = ok && all_decided;
  if (wants(script, Expectation::kAgreement)) ok = ok && agreement && all_decided;
  if (wants(script, Expectation::kValidity)) ok = ok && validity;
  out.expectations_ok = ok;
  out.decisions = render_decisions(churn.tracked().size(), outputs);
  result.wall.end_ns = now_ns();
  return result;
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot write " + path);
  std::int64_t origin = 0;
  if (!spans.empty()) {
    origin = std::min_element(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
               return a.begin_ns < b.begin_ns;
             })->begin_ns;
  }
  file << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  file.precision(3);
  file << std::fixed;
  bool first = true;
  for (const Span& s : spans) {
    file << (first ? "\n" : ",\n") << "{\"name\":\"" << to_string(s.kind)
         << "\",\"ph\":\"X\",\"pid\":" << s.pid << ",\"tid\":" << s.tid
         << ",\"ts\":" << static_cast<double>(s.begin_ns - origin) / 1e3
         << ",\"dur\":" << static_cast<double>(s.end_ns - s.begin_ns) / 1e3
         << ",\"args\":{\"round\":" << s.round << "}}";
    first = false;
  }
  file << "\n]}\n";
  if (!file) throw std::runtime_error("cannot write " + path);
}

}  // namespace bench
