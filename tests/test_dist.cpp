// Distributed shard engine (src/dist/): partitioning, control-plane wire
// round-trips, worker/engine parity against the single-process simulator
// (byte-identical canonical traces), the forked end-to-end coordinator, and
// crashed-worker detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/consensus.hpp"
#include "dist/shard_coordinator.hpp"
#include "dist/shard_plan.hpp"
#include "dist/shard_trace.hpp"
#include "dist/shard_wire.hpp"
#include "dist/shard_worker.hpp"
#include "harness/script.hpp"
#include "net/sync_simulator.hpp"

namespace idonly {
namespace {

// Chaos + churn consensus: partitions, loss, one joiner, one leaver — every
// engine path (removal, join, delayed delivery, per-receiver verdicts) in one
// run. The parity tests compare runs, not expectations, so the script's
// verdict does not need to be green for them to be meaningful.
const char* const kConsensusScript =
    "protocol consensus\n"
    "nodes 9\n"
    "inputs 0,1\n"
    "byzantine 2 noise\n"
    "seed 7\n"
    "max-rounds 300\n"
    "liveness 250\n"
    "chaos 4-6 partition=0-1\n"
    "chaos 7-9 drop=0.10 delay=0.05:2\n"
    "churn 5 join=1\n"
    "churn 8 leave=2\n"
    "expect termination\n"
    "expect agreement\n"
    "expect validity\n"
    "expect no-violations\n";

const char* const kTotalOrderScript =
    "protocol totalorder\n"
    "nodes 7\n"
    "seed 11\n"
    "max-rounds 60\n"
    "chaos 5-14 delay=0.05:2 dup=0.10\n"
    "expect termination\n"
    "expect agreement\n"
    "expect no-violations\n";

ScenarioScript parse_or_die(const std::string& text) {
  auto parsed = parse_script(text);
  const auto* err = std::get_if<ParseError>(&parsed);
  EXPECT_EQ(err, nullptr) << (err != nullptr ? err->message : "");
  return std::get<ScenarioScript>(std::move(parsed));
}

struct SingleRun {
  ScriptRun run;
  std::shared_ptr<TraceRecorder> recorder;
};

SingleRun run_single_process(const std::string& text) {
  SingleRun out;
  const ScenarioScript script = parse_or_die(text);
  ScriptOptions options;
  options.threads = 1;
  options.recorder = std::make_shared<TraceRecorder>(TraceEngine::kSync);
  out.recorder = options.recorder;
  out.run = run_script(script, options);
  return out;
}

// ------------------------------------------------------------ shard plan --

TEST(ShardPlan, SlicesAreContiguousCoverEverythingAndMatchOwner) {
  const std::vector<NodeId> ids{503, 17, 90, 41, 2, 888, 123, 55, 7};
  for (const std::uint32_t shards : {1u, 2u, 3u, 4u, 16u}) {
    const ShardPlan plan = ShardPlan::build(ids, shards);
    EXPECT_EQ(plan.shards(), shards);
    std::vector<NodeId> covered;
    for (std::uint32_t k = 0; k < shards; ++k) {
      const auto slice = plan.initial_slice(k);
      for (const NodeId id : slice) {
        covered.push_back(id);
        EXPECT_EQ(plan.owner(id), k) << "id " << id << " shards " << shards;
      }
      EXPECT_TRUE(std::is_sorted(slice.begin(), slice.end()));
    }
    std::vector<NodeId> sorted = ids;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(covered, sorted) << "shards " << shards;  // contiguous & complete
  }
}

TEST(ShardPlan, UnknownIdsSpreadByModuloAndStayInRange) {
  const std::vector<NodeId> ids{10, 20, 30, 40, 50};
  const ShardPlan plan = ShardPlan::build(ids, 3);
  for (NodeId joiner = 1000; joiner < 1100; ++joiner) {
    EXPECT_EQ(plan.owner(joiner), joiner % 3);
  }
}

TEST(ShardPlan, MoreShardsThanIdsLeavesTailSlicesEmpty) {
  const std::vector<NodeId> ids{5, 6};
  const ShardPlan plan = ShardPlan::build(ids, 4);
  std::size_t total = 0;
  for (std::uint32_t k = 0; k < 4; ++k) total += plan.initial_slice(k).size();
  EXPECT_EQ(total, ids.size());
  EXPECT_LT(plan.owner(5), 4u);
  EXPECT_LT(plan.owner(6), 4u);
}

// ------------------------------------------------------------ wire layer --

TEST(ShardWire, ScalarWriterReaderRoundTripsAndConsumesExactly) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(-3.25);
  w.str("hello shard");
  const std::vector<std::byte> payload{std::byte{1}, std::byte{2}, std::byte{3}};
  w.blob(payload);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), -3.25);
  EXPECT_EQ(r.str(), "hello shard");
  EXPECT_EQ(r.blob(), payload);
  EXPECT_FALSE(r.failed());
  EXPECT_TRUE(r.done());
}

TEST(ShardWire, ShortReadLatchesFailureAndNeverOverruns) {
  ByteWriter w;
  w.u64(7);
  w.str("abcdef");
  const auto& bytes = w.bytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ByteReader r(std::span(bytes.data(), len));
    (void)r.u64();
    (void)r.str();
    EXPECT_FALSE(r.done()) << "prefix " << len;
    // Once failed, every further read is a safe zero/empty.
    if (r.failed()) {
      EXPECT_EQ(r.u64(), 0u);
      EXPECT_EQ(r.str(), "");
    }
  }
}

TEST(ShardWire, InitStatusRoundTripAndRejectTruncation) {
  ShardInit init;
  init.shard = 3;
  init.shards = 8;
  init.want_trace = true;
  init.mesh = false;  // non-default, so the round-trip proves the bit moves
  init.crash_at_round = 17;
  init.script_text = kConsensusScript;
  const auto init_bytes = encode_init(init);
  const auto init2 = decode_init(init_bytes);
  ASSERT_TRUE(init2.has_value());
  EXPECT_EQ(init2->shard, init.shard);
  EXPECT_EQ(init2->shards, init.shards);
  EXPECT_EQ(init2->want_trace, init.want_trace);
  EXPECT_EQ(init2->mesh, init.mesh);
  EXPECT_EQ(init2->crash_at_round, init.crash_at_round);
  EXPECT_EQ(init2->script_text, init.script_text);
  EXPECT_FALSE(decode_init(std::span(init_bytes.data(), init_bytes.size() - 1)).has_value());

  ShardStatus status;
  status.done = {{4, true}, {9, false}, {12, true}};
  const auto status_bytes = encode_status(status);
  const auto status2 = decode_status(status_bytes);
  ASSERT_TRUE(status2.has_value());
  EXPECT_EQ(status2->done, status.done);
  EXPECT_FALSE(
      decode_status(std::span(status_bytes.data(), status_bytes.size() - 1)).has_value());
}

TEST(ShardWire, ResultRoundTripCarriesEveryMergedField) {
  ShardResult result;
  result.rounds = 42;
  result.metrics.messages.sent[2] = 7;
  result.metrics.messages.delivered[2] = 6;
  result.metrics.fanout.deliveries = 100;
  result.metrics.fanout.dedup_hits = 3;
  result.metrics.rounds_executed = 42;
  result.metrics.done_round[9] = 17;
  result.metrics.fanout.coordinator_relay_bytes = 4096;
  result.metrics.overlap.rounds_overlapped = 40;
  result.metrics.overlap.recv_stall_ns = 123456789;
  result.metrics.overlap.slabs_direct = 84;
  result.has_chaos = true;
  result.chaos.per_phase.resize(2);
  result.chaos.per_phase[0].drops = 5;
  result.chaos.per_phase[1].delays = 2;
  result.chaos.restarts = 1;
  result.wire_faults.truncations = 4;
  result.decisions.push_back({9, true, true, Value::real(1.0)});
  result.decisions.push_back({11, false, false, Value::bot()});
  result.chains.push_back({13, {ChainEntry{1, 2, 30.0}, ChainEntry{2, 5, 31.0}}});
  ShardResult::Ring ring;
  ring.node = 9;
  ring.next_seq = 6;
  ring.evicted = 1;
  TraceRecord rec;
  rec.kind = TraceEventKind::kSend;
  rec.node = 9;
  rec.round = 3;
  rec.seq = 5;
  rec.to = 11;
  rec.extra = 1;
  rec.detail = "d";
  ring.records.push_back(rec);
  result.rings.push_back(ring);

  const auto bytes = encode_result(result);
  const auto back = decode_result(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->rounds, result.rounds);
  EXPECT_EQ(back->metrics.messages.sent, result.metrics.messages.sent);
  EXPECT_EQ(back->metrics.messages.delivered, result.metrics.messages.delivered);
  EXPECT_EQ(back->metrics.fanout.deliveries, result.metrics.fanout.deliveries);
  EXPECT_EQ(back->metrics.fanout.dedup_hits, result.metrics.fanout.dedup_hits);
  EXPECT_EQ(back->metrics.fanout.coordinator_relay_bytes, 4096u);
  EXPECT_EQ(back->metrics.overlap.rounds_overlapped, 40u);
  EXPECT_EQ(back->metrics.overlap.recv_stall_ns, 123456789u);
  EXPECT_EQ(back->metrics.overlap.slabs_direct, 84u);
  EXPECT_EQ(back->metrics.done_round, result.metrics.done_round);
  EXPECT_TRUE(back->has_chaos);
  ASSERT_EQ(back->chaos.per_phase.size(), 2u);
  EXPECT_EQ(back->chaos.per_phase[0].drops, 5u);
  EXPECT_EQ(back->chaos.per_phase[1].delays, 2u);
  EXPECT_EQ(back->chaos.restarts, 1u);
  EXPECT_EQ(back->wire_faults.truncations, 4u);
  ASSERT_EQ(back->decisions.size(), 2u);
  EXPECT_EQ(back->decisions[0].id, 9u);
  EXPECT_TRUE(back->decisions[0].has_output);
  EXPECT_EQ(back->decisions[0].output, Value::real(1.0));
  EXPECT_FALSE(back->decisions[1].has_output);
  ASSERT_EQ(back->chains.size(), 1u);
  EXPECT_EQ(back->chains[0].chain, result.chains[0].chain);
  ASSERT_EQ(back->rings.size(), 1u);
  EXPECT_EQ(back->rings[0].records, ring.records);
  EXPECT_FALSE(decode_result(std::span(bytes.data(), bytes.size() - 1)).has_value());
}

// -------------------------------------------- in-process worker parity --

/// Drives `shards` ShardWorkers through the coordinator's round protocol
/// without forking — every slab crosses the real wire format, but failures
/// surface as gtest assertions instead of child exit codes.
struct InProcessFleet {
  std::vector<std::unique_ptr<ShardWorker>> workers;
  Round round = 0;

  explicit InProcessFleet(const std::string& text, std::uint32_t shards, bool want_trace) {
    for (std::uint32_t s = 0; s < shards; ++s) {
      ShardInit init;
      init.shard = s;
      init.shards = shards;
      init.want_trace = want_trace;
      init.script_text = text;
      workers.push_back(std::make_unique<ShardWorker>(init));
    }
  }

  void run_round() {
    const std::uint32_t shards = static_cast<std::uint32_t>(workers.size());
    // Copy the slabs out: a worker's slab spans die on its next begin_round.
    std::vector<std::vector<std::vector<std::byte>>> inbox(shards);
    for (auto& worker : workers) {
      for (const ShardWorker::OutboundSlab& slab : worker->begin_round()) {
        ASSERT_LT(slab.dest, shards);
        inbox[slab.dest].emplace_back(slab.bytes.begin(), slab.bytes.end());
      }
    }
    for (auto& worker : workers) {
      ASSERT_TRUE(worker->finish_round(inbox[worker->shard()])) << worker->error();
    }
    round += 1;
  }

  [[nodiscard]] std::map<NodeId, bool> statuses() {
    std::map<NodeId, bool> out;
    for (auto& worker : workers) {
      for (const auto& [id, done] : worker->status().done) out[id] = done;
    }
    return out;
  }
};

/// Replays run_script's instrumented loop policy over an in-process fleet and
/// returns the spliced canonical trace (and, on request, every record).
std::string run_fleet_canonical(const std::string& text, std::uint32_t shards,
                                Round* rounds_out = nullptr,
                                std::vector<TraceRecord>* records_out = nullptr) {
  const ScenarioScript script = parse_or_die(text);
  const Scenario scenario = make_scenario(script.config);
  ChurnDriver churn(script, scenario);
  InProcessFleet fleet(text, shards, /*want_trace=*/true);

  const auto tracked_done = [&](const std::map<NodeId, bool>& statuses) {
    bool any = false;
    for (NodeId id : churn.tracked()) {
      const auto it = statuses.find(id);
      if (it == statuses.end() || !it->second) return false;
      any = true;
    }
    return any;
  };
  const bool consensus = script.protocol == ScriptProtocol::kConsensus;
  std::map<NodeId, bool> statuses;
  for (Round i = 0; i < script.max_rounds; ++i) {
    if (consensus && tracked_done(statuses)) break;
    churn.apply(
        fleet.round + 1, [](NodeId, std::size_t) { return std::unique_ptr<Process>{}; },
        [](std::unique_ptr<Process>) {}, [](NodeId) {});
    fleet.run_round();
    statuses = fleet.statuses();
  }
  if (rounds_out != nullptr) *rounds_out = fleet.round;

  TraceRecorder merged(TraceEngine::kSync);
  for (auto& worker : fleet.workers) {
    ShardResult result = worker->finalize();
    for (ShardResult::Ring& ring : result.rings) {
      merged.absorb_ring(ring.node, std::move(ring.records), ring.next_seq, ring.evicted);
    }
  }
  if (records_out != nullptr) *records_out = merged.snapshot();
  return merged.canonical_jsonl();
}

/// Each node's inbox history as its delivery records: (round, sender) in
/// capture order.
std::map<NodeId, std::vector<std::pair<Round, NodeId>>> deliveries_of(
    const std::vector<TraceRecord>& records) {
  std::map<NodeId, std::vector<std::pair<Round, NodeId>>> out;
  for (const TraceRecord& rec : records) {
    if (rec.kind == TraceEventKind::kDeliver) out[rec.node].emplace_back(rec.round, rec.from);
  }
  return out;
}

// Chaos-free consensus whose replay adversaries re-broadcast identical
// messages, so the broadcast lane's dedup fires every round.
const char* const kReplayScript =
    "protocol consensus\n"
    "nodes 9\n"
    "inputs 0,1\n"
    "byzantine 2 replay\n"
    "seed 5\n"
    "max-rounds 60\n"
    "expect termination\n"
    "expect agreement\n";

TEST(ShardWorkerParity, ConsensusCanonicalTraceMatchesSingleProcess) {
  const SingleRun single = run_single_process(kConsensusScript);
  Round fleet_rounds = 0;
  const std::string fleet = run_fleet_canonical(kConsensusScript, 2, &fleet_rounds);
  EXPECT_EQ(fleet_rounds, single.run.rounds);
  const std::string reference = single.recorder->canonical_jsonl();
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(fleet, reference);
}

TEST(ShardWorkerParity, TotalOrderCanonicalTraceMatchesSingleProcessAtThreeShards) {
  const SingleRun single = run_single_process(kTotalOrderScript);
  const std::string fleet = run_fleet_canonical(kTotalOrderScript, 3);
  const std::string reference = single.recorder->canonical_jsonl();
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(fleet, reference);
}

TEST(ShardWorkerParity, ChaosFreeDeliveriesAndDedupHitsMatchSingleProcess) {
  // Both engines route through the same broadcast lane, so a chaos-free run
  // gives every node the same inbox history and the fleet's dedup hits sum
  // to the in-process count at every shard count.
  constexpr Round kRounds = 14;
  const ScenarioScript script = parse_or_die(kReplayScript);
  const Scenario scenario = make_scenario(script.config);
  SyncSimulator sim;
  auto recorder = std::make_shared<TraceRecorder>(TraceEngine::kSync);
  sim.set_trace_recorder(recorder);
  build_processes(
      scenario,
      [&](NodeId id, std::size_t index) -> std::unique_ptr<Process> {
        return std::make_unique<ConsensusProcess>(
            id, Value::real(script.inputs[index % script.inputs.size()]));
      },
      [&](std::unique_ptr<Process> process) { sim.add_process(std::move(process)); });
  sim.run_rounds(kRounds);
  const auto reference = deliveries_of(recorder->snapshot());
  ASSERT_EQ(reference.size(), scenario.n());
  ASSERT_GT(sim.metrics().fanout.dedup_hits, 0u);

  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    InProcessFleet fleet(kReplayScript, shards, /*want_trace=*/true);
    for (Round r = 0; r < kRounds; ++r) fleet.run_round();
    std::uint64_t dedup_hits = 0;
    std::vector<TraceRecord> records;
    for (auto& worker : fleet.workers) {
      ShardResult result = worker->finalize();
      dedup_hits += result.metrics.fanout.dedup_hits;
      for (ShardResult::Ring& ring : result.rings) {
        records.insert(records.end(), ring.records.begin(), ring.records.end());
      }
    }
    EXPECT_EQ(deliveries_of(records), reference) << "shards " << shards;
    EXPECT_EQ(dedup_hits, sim.metrics().fanout.dedup_hits) << "shards " << shards;
  }
}

TEST(ShardWorkerParity, ChaosChurnDeliveriesMatchSingleProcess) {
  // Per-receiver exceptions (drops, delays, partitions) and churn: every
  // node's inbox history still equals the in-process engine's.
  const SingleRun single = run_single_process(kConsensusScript);
  const auto reference = deliveries_of(single.recorder->snapshot());
  ASSERT_FALSE(reference.empty());
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    std::vector<TraceRecord> records;
    (void)run_fleet_canonical(kConsensusScript, shards, nullptr, &records);
    EXPECT_EQ(deliveries_of(records), reference) << "shards " << shards;
  }
}

// ------------------------------------------ interleaved slice merge --

// The replay script with a chaos window on top of the lane dedup: drops,
// duplicates and delays leave per-receiver exceptions, and the canonical
// trace carries link verdicts.
const std::string kReplayChaosScript =
    std::string(kReplayScript) + "chaos 4-7 drop=0.05 dup=0.10 delay=0.05:2\n";

struct SliceRun {
  std::map<NodeId, std::vector<std::pair<Round, NodeId>>> deliveries;
  std::uint64_t dedup_hits = 0;
  std::string canonical;
};

/// Runs `text` for `rounds` rounds over `slices` SyncSimulators, the i-th
/// node of the sorted id list on slice i % slices — interleaved ids, unlike
/// ShardPlan's contiguous ranges. Every round each slice gets every other
/// slice's local sends as remote streams. One slice is the plain step().
SliceRun run_slices(const std::string& text, std::size_t slices, unsigned threads,
                    Round rounds) {
  const ScenarioScript script = parse_or_die(text);
  const Scenario scenario = make_scenario(script.config);
  const std::vector<NodeId> ids = scenario.all_ids();
  std::vector<std::unique_ptr<SyncSimulator>> sims;
  std::vector<std::shared_ptr<TraceRecorder>> recorders;
  for (std::size_t k = 0; k < slices; ++k) {
    sims.push_back(std::make_unique<SyncSimulator>());
    recorders.push_back(std::make_shared<TraceRecorder>(TraceEngine::kSync));
    sims.back()->set_threads(threads);
    sims.back()->set_trace_recorder(recorders.back());
    if (!script.chaos_phases.empty()) {
      sims.back()->set_chaos(std::make_shared<ChaosSchedule>(
          materialize_chaos_plan(script.chaos_phases, ids), script.config.seed));
    }
  }
  build_processes(scenario, script_process_factory(script), [&](std::unique_ptr<Process> p) {
    const auto index = static_cast<std::size_t>(
        std::lower_bound(ids.begin(), ids.end(), p->id()) - ids.begin());
    sims[index % slices]->add_process(std::move(p));
  });

  for (Round r = 0; r < rounds; ++r) {
    if (slices == 1) {
      sims.front()->step();
      continue;
    }
    std::vector<std::vector<SyncSimulator::Send>> sends(slices);
    for (std::size_t k = 0; k < slices; ++k) {
      sims[k]->begin_round();
      sims[k]->for_each_local_send(
          [&](const SyncSimulator::Send& send) { sends[k].push_back(send); });
    }
    for (std::size_t k = 0; k < slices; ++k) {
      std::vector<std::vector<SyncSimulator::Send>> remote;
      for (std::size_t j = 0; j < slices; ++j) {
        if (j != k) remote.push_back(sends[j]);
      }
      sims[k]->finish_round(remote);
    }
  }

  SliceRun out;
  TraceRecorder merged(TraceEngine::kSync);
  for (std::size_t k = 0; k < slices; ++k) {
    out.dedup_hits += sims[k]->metrics().fanout.dedup_hits;
    const std::vector<TraceRecord> records = recorders[k]->snapshot();
    for (const TraceRecorder::RingStats& stats : recorders[k]->ring_stats()) {
      std::vector<TraceRecord> ring;
      for (const TraceRecord& rec : records) {
        if (rec.node == stats.node) ring.push_back(rec);
      }
      merged.absorb_ring(stats.node, std::move(ring), stats.next_seq, stats.evicted);
    }
  }
  out.deliveries = deliveries_of(merged.snapshot());
  out.canonical = merged.canonical_jsonl();
  return out;
}

TEST(SliceMerge, InterleavedSlicesMatchOneSimulatorAtEveryThreadCount) {
  // The slice merge k-way merges the local sends with the remote streams on
  // sender id; with odd/even ids every sender block alternates streams.
  constexpr Round kRounds = 14;
  for (const std::string& text : {std::string(kReplayScript), kReplayChaosScript}) {
    const bool chaos = text == kReplayChaosScript;
    const SliceRun reference = run_slices(text, 1, 1, kRounds);
    ASSERT_EQ(reference.deliveries.size(), 11u);
    ASSERT_GT(reference.dedup_hits, 0u);
    ASSERT_EQ(reference.canonical.empty(), !chaos);
    for (const unsigned threads : {1u, 4u}) {
      const SliceRun sliced = run_slices(text, 2, threads, kRounds);
      EXPECT_EQ(sliced.deliveries, reference.deliveries) << "chaos " << chaos << " threads "
                                                         << threads;
      EXPECT_EQ(sliced.dedup_hits, reference.dedup_hits)
          << "chaos " << chaos << " threads " << threads;
      EXPECT_EQ(sliced.canonical, reference.canonical)
          << "chaos " << chaos << " threads " << threads;
    }
  }
}

// ----------------------------------------------- membership parity --

/// How a test drives one round: the in-process step(), or the two halves a
/// shard worker drives.
enum class RoundDrive { kStep, kSplit };

void run_one_round(SyncSimulator& sim, RoundDrive drive) {
  if (drive == RoundDrive::kStep) {
    sim.step();
  } else {
    sim.begin_round();
    sim.finish_round({});
  }
}

/// Broadcasts its id every round and records what it hears.
class Beacon final : public Process {
 public:
  using Process::Process;
  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override {
    for (const Message& m : inbox) heard.emplace_back(round.global, m.sender);
    locals.push_back(round.local);
    broadcast(out, Message{.kind = MsgKind::kPresent});
  }
  std::vector<std::pair<Round, NodeId>> heard;
  std::vector<Round> locals;
};

/// Removes node 2, re-adds a fresh process under id 2 in the same round,
/// and returns what the replacement heard and its local rounds.
std::pair<std::vector<std::pair<Round, NodeId>>, std::vector<Round>> reuse_leaving_id(
    RoundDrive drive) {
  SyncSimulator engine;
  engine.add_process(std::make_unique<Beacon>(1));
  engine.add_process(std::make_unique<Beacon>(2));
  run_one_round(engine, drive);
  engine.remove_process(2);
  auto fresh = std::make_unique<Beacon>(2);
  Beacon* replacement = fresh.get();
  EXPECT_NO_THROW(engine.add_process(std::move(fresh)));
  // A second add under the same id is a real duplicate again.
  EXPECT_THROW(engine.add_process(std::make_unique<Beacon>(2)), std::invalid_argument);
  run_one_round(engine, drive);
  run_one_round(engine, drive);
  EXPECT_EQ(engine.member_count(), 2u);
  EXPECT_EQ(engine.find(2), replacement);
  return {replacement->heard, replacement->locals};
}

TEST(EngineParity, ReAddingAnIdQueuedForRemovalReplacesTheNodeOnBothEngines) {
  // step() against the begin_round() + finish_round({}) pair a shard worker
  // drives: one round body, so both behave identically.
  const auto sync = reuse_leaving_id(RoundDrive::kStep);
  const auto shard = reuse_leaving_id(RoundDrive::kSplit);
  EXPECT_EQ(shard, sync);
  // Joined for round 2: local rounds 1, 2; it hears round 2's beacons only.
  EXPECT_EQ(sync.second, (std::vector<Round>{1, 2}));
  EXPECT_EQ(sync.first, (std::vector<std::pair<Round, NodeId>>{{3, 1}, {3, 2}}));
}

// ------------------------------------- sharded trace epilogue parity --

TEST(ShardedTraceParity, ExportsMatchRecorderAbsorbRingByteForByte) {
  // Same rings through both epilogues: PR-8's serial absorb_ring recorder
  // and the sharded k-way-merge exporter must render identical bytes.
  const ScenarioScript script = parse_or_die(kConsensusScript);
  const Scenario scenario = make_scenario(script.config);
  ChurnDriver churn(script, scenario);
  InProcessFleet fleet(kConsensusScript, 3, /*want_trace=*/true);
  for (Round i = 0; i < 12; ++i) {
    churn.apply(
        fleet.round + 1, [](NodeId, std::size_t) { return std::unique_ptr<Process>{}; },
        [](std::unique_ptr<Process>) {}, [](NodeId) {});
    fleet.run_round();
  }
  TraceRecorder recorder(TraceEngine::kSync);
  ShardedTrace sharded(TraceEngine::kSync);
  for (auto& worker : fleet.workers) {
    ShardResult result = worker->finalize();
    for (ShardResult::Ring& ring : result.rings) {
      recorder.absorb_ring(ring.node, ring.records, ring.next_seq, ring.evicted);
    }
    sharded.absorb_shard(std::move(result.rings));
  }
  EXPECT_EQ(sharded.size(), recorder.size());
  EXPECT_EQ(sharded.evicted(), recorder.evicted());
  EXPECT_EQ(sharded.jsonl(), recorder.jsonl());
  EXPECT_EQ(sharded.canonical_jsonl(), recorder.canonical_jsonl());
}

TEST(ShardedTraceParity, DuplicateNodeAcrossShardsThrows) {
  ShardedTrace sharded(TraceEngine::kSync);
  std::vector<ShardResult::Ring> a(1);
  a[0].node = 7;
  sharded.absorb_shard(std::move(a));
  std::vector<ShardResult::Ring> b(1);
  b[0].node = 7;
  EXPECT_THROW(sharded.absorb_shard(std::move(b)), std::invalid_argument);
}

// ------------------------------------------------- forked end-to-end runs --

TEST(RunDist, ConsensusMatchesSingleProcessAcrossShardCountsAndTopologies) {
  const SingleRun single = run_single_process(kConsensusScript);
  const std::string reference = single.recorder->canonical_jsonl();
  for (const bool mesh : {true, false}) {
    for (const std::uint32_t shards : {1u, 2u, 4u}) {
      DistConfig config;
      config.script_text = kConsensusScript;
      config.shards = shards;
      config.mesh = mesh;
      config.want_trace = true;
      const DistRun dist = run_dist(config);
      const std::string tag =
          std::string(mesh ? "mesh" : "relay") + " shards " + std::to_string(shards);
      ASSERT_TRUE(dist.infra_ok) << tag << ": " << dist.infra_error;
      EXPECT_EQ(dist.script.summary, single.run.summary) << tag;
      EXPECT_EQ(dist.script.all_satisfied, single.run.all_satisfied) << tag;
      EXPECT_EQ(dist.script.rounds, single.run.rounds) << tag;
      EXPECT_EQ(dist.script.messages, single.run.messages) << tag;
      EXPECT_EQ(dist.script.chaos_summary, single.run.chaos_summary) << tag;
      ASSERT_NE(dist.trace, nullptr) << tag;
      EXPECT_EQ(dist.trace->canonical_jsonl(), reference) << tag;
      ASSERT_EQ(dist.script.outcomes.size(), single.run.outcomes.size()) << tag;
      for (std::size_t i = 0; i < single.run.outcomes.size(); ++i) {
        EXPECT_EQ(dist.script.outcomes[i].satisfied, single.run.outcomes[i].satisfied)
            << tag << " " << to_string(single.run.outcomes[i].expectation);
      }
      // Topology shows only in the overlap/relay ledgers, never the result:
      // the mesh moves slabs peer-to-peer, the relay moves them through the
      // coordinator, and exactly one of the two ledgers is active.
      if (shards > 1 && mesh) {
        EXPECT_GT(dist.metrics.overlap.slabs_direct, 0u) << tag;
        EXPECT_EQ(dist.metrics.fanout.coordinator_relay_bytes, 0u) << tag;
      }
      if (shards > 1 && !mesh) {
        EXPECT_EQ(dist.metrics.overlap.slabs_direct, 0u) << tag;
        EXPECT_GT(dist.metrics.fanout.coordinator_relay_bytes, 0u) << tag;
      }
    }
  }
}

TEST(RunDist, TotalOrderMatchesSingleProcessAcrossShardCountsAndTopologies) {
  const SingleRun single = run_single_process(kTotalOrderScript);
  const std::string reference = single.recorder->canonical_jsonl();
  for (const bool mesh : {true, false}) {
    for (const std::uint32_t shards : {1u, 2u, 4u}) {
      DistConfig config;
      config.script_text = kTotalOrderScript;
      config.shards = shards;
      config.mesh = mesh;
      config.want_trace = true;
      const DistRun dist = run_dist(config);
      const std::string tag =
          std::string(mesh ? "mesh" : "relay") + " shards " + std::to_string(shards);
      ASSERT_TRUE(dist.infra_ok) << tag << ": " << dist.infra_error;
      EXPECT_EQ(dist.script.summary, single.run.summary) << tag;
      ASSERT_NE(dist.trace, nullptr) << tag;
      EXPECT_EQ(dist.trace->canonical_jsonl(), reference) << tag;
    }
  }
}

TEST(RunDist, CrashedWorkerIsDetectedNotHungAndNamed) {
  // Relay topology: the coordinator reads the dead worker's control EOF.
  DistConfig config;
  config.script_text = kConsensusScript;
  config.shards = 2;
  config.mesh = false;
  config.crash_at_round = 3;
  config.crash_shard = 1;
  config.wedge_timeout_ms = 30000;  // EOF detection must not need the budget
  const DistRun dist = run_dist(config);
  EXPECT_FALSE(dist.infra_ok);
  EXPECT_NE(dist.infra_error.find("shard worker 1"), std::string::npos) << dist.infra_error;
  EXPECT_NE(dist.infra_error.find("died"), std::string::npos) << dist.infra_error;
  EXPECT_FALSE(dist.script.all_satisfied);
}

TEST(RunDist, PeerSocketEofMidRoundFailsTheMeshRunNotHangsIt) {
  // Mesh topology: the dying worker's PEERS see the mesh-socket EOF while
  // waiting for its round frame. Whichever signal the coordinator reads
  // first — the victim's control EOF or a survivor's kError naming the dead
  // peer — the run must fail promptly and name a shard.
  DistConfig config;
  config.script_text = kConsensusScript;
  config.shards = 4;
  config.mesh = true;
  config.crash_at_round = 3;
  config.crash_shard = 2;
  config.wedge_timeout_ms = 30000;  // failure must come from EOF, not timeout
  const DistRun dist = run_dist(config);
  EXPECT_FALSE(dist.infra_ok);
  EXPECT_NE(dist.infra_error.find("shard"), std::string::npos) << dist.infra_error;
  EXPECT_EQ(dist.infra_error.find("wedged"), std::string::npos) << dist.infra_error;
  EXPECT_FALSE(dist.script.all_satisfied);
}

TEST(RunDist, ParseFailureIsAnInfraErrorWithTheLineNumber) {
  DistConfig config;
  config.script_text = "protocol consensus\nnodes banana\n";
  const DistRun dist = run_dist(config);
  EXPECT_FALSE(dist.infra_ok);
  EXPECT_NE(dist.infra_error.find("line 2"), std::string::npos) << dist.infra_error;
}

}  // namespace
}  // namespace idonly
