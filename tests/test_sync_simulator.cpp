// Engine tests: the synchronous round simulator must implement the paper's
// model exactly — lock-step delivery, self-inclusive broadcast, unforgeable
// sender stamping, per-round duplicate suppression, dynamic membership.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/chaos.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "core/consensus.hpp"
#include "harness/scenario.hpp"
#include "net/process.hpp"
#include "net/sync_simulator.hpp"

namespace idonly {
namespace {

/// Scriptable process: records everything it receives; sends what the test
/// enqueues for each round.
class ScriptedProcess final : public Process {
 public:
  using Process::Process;

  void send_in_round(Round local, Outgoing out) { script_[local].push_back(std::move(out)); }

  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override {
    received_[round.local].assign(inbox.begin(), inbox.end());
    locals_.push_back(round.local);
    globals_.push_back(round.global);
    if (auto it = script_.find(round.local); it != script_.end()) {
      for (const Outgoing& o : it->second) out.push_back(o);
    }
  }

  std::map<Round, std::vector<Message>> received_;
  std::vector<Round> locals_;
  std::vector<Round> globals_;

 private:
  std::map<Round, std::vector<Outgoing>> script_;
};

Message text_msg(MsgKind kind, double v = 0) {
  Message m;
  m.kind = kind;
  m.value = Value::real(v);
  return m;
}

TEST(SyncSimulator, BroadcastDeliversNextRoundToAllIncludingSender) {
  SyncSimulator sim;
  auto a = std::make_unique<ScriptedProcess>(1);
  auto b = std::make_unique<ScriptedProcess>(2);
  a->send_in_round(1, Outgoing{std::nullopt, text_msg(MsgKind::kPresent, 1)});
  auto* pa = a.get();
  auto* pb = b.get();
  sim.add_process(std::move(a));
  sim.add_process(std::move(b));

  sim.step();  // round 1: a broadcasts
  EXPECT_TRUE(pa->received_[1].empty());
  EXPECT_TRUE(pb->received_[1].empty());
  sim.step();  // round 2: delivery
  ASSERT_EQ(pa->received_[2].size(), 1u) << "broadcast must be self-inclusive";
  ASSERT_EQ(pb->received_[2].size(), 1u);
  EXPECT_EQ(pb->received_[2][0].sender, 1u);
}

TEST(SyncSimulator, SenderIdIsStampedNotForgeable) {
  SyncSimulator sim;
  auto a = std::make_unique<ScriptedProcess>(1);
  Message forged = text_msg(MsgKind::kPresent, 9);
  forged.sender = 777;  // attempt to forge
  a->send_in_round(1, Outgoing{std::nullopt, forged});
  auto b = std::make_unique<ScriptedProcess>(2);
  auto* pb = b.get();
  sim.add_process(std::move(a));
  sim.add_process(std::move(b));
  sim.run_rounds(2);
  ASSERT_EQ(pb->received_[2].size(), 1u);
  EXPECT_EQ(pb->received_[2][0].sender, 1u) << "engine must overwrite the sender field";
}

TEST(SyncSimulator, UnicastReachesOnlyTarget) {
  SyncSimulator sim;
  auto a = std::make_unique<ScriptedProcess>(1);
  a->send_in_round(1, Outgoing{NodeId{3}, text_msg(MsgKind::kAck, 5)});
  auto b = std::make_unique<ScriptedProcess>(2);
  auto c = std::make_unique<ScriptedProcess>(3);
  auto* pb = b.get();
  auto* pc = c.get();
  sim.add_process(std::move(a));
  sim.add_process(std::move(b));
  sim.add_process(std::move(c));
  sim.run_rounds(2);
  EXPECT_TRUE(pb->received_[2].empty());
  ASSERT_EQ(pc->received_[2].size(), 1u);
  EXPECT_EQ(pc->received_[2][0].kind, MsgKind::kAck);
}

TEST(SyncSimulator, DuplicateMessagesFromSameSenderSameRoundAreDropped) {
  SyncSimulator sim;
  auto a = std::make_unique<ScriptedProcess>(1);
  // Identical duplicates must collapse; a distinct payload must survive.
  a->send_in_round(1, Outgoing{NodeId{2}, text_msg(MsgKind::kPresent, 1)});
  a->send_in_round(1, Outgoing{NodeId{2}, text_msg(MsgKind::kPresent, 1)});
  a->send_in_round(1, Outgoing{NodeId{2}, text_msg(MsgKind::kPresent, 2)});
  auto b = std::make_unique<ScriptedProcess>(2);
  auto* pb = b.get();
  sim.add_process(std::move(a));
  sim.add_process(std::move(b));
  sim.run_rounds(2);
  EXPECT_EQ(pb->received_[2].size(), 2u);
}

TEST(SyncSimulator, DuplicatesAcrossRoundsAreAllowed) {
  SyncSimulator sim;
  auto a = std::make_unique<ScriptedProcess>(1);
  a->send_in_round(1, Outgoing{NodeId{2}, text_msg(MsgKind::kPresent, 1)});
  a->send_in_round(2, Outgoing{NodeId{2}, text_msg(MsgKind::kPresent, 1)});
  auto b = std::make_unique<ScriptedProcess>(2);
  auto* pb = b.get();
  sim.add_process(std::move(a));
  sim.add_process(std::move(b));
  sim.run_rounds(3);
  EXPECT_EQ(pb->received_[2].size(), 1u);
  EXPECT_EQ(pb->received_[3].size(), 1u);
}

TEST(SyncSimulator, LateJoinerGetsLocalRoundOne) {
  SyncSimulator sim;
  sim.add_process(std::make_unique<ScriptedProcess>(1));
  sim.run_rounds(3);
  auto late = std::make_unique<ScriptedProcess>(9);
  auto* platee = late.get();
  sim.add_process(std::move(late));
  sim.run_rounds(2);
  ASSERT_EQ(platee->locals_.size(), 2u);
  EXPECT_EQ(platee->locals_[0], 1);
  EXPECT_EQ(platee->globals_[0], 4);
}

TEST(SyncSimulator, RemovedProcessStopsReceivingAndSending) {
  SyncSimulator sim;
  auto a = std::make_unique<ScriptedProcess>(1);
  for (Round r = 1; r <= 10; ++r) {
    a->send_in_round(r, Outgoing{std::nullopt, text_msg(MsgKind::kPresent, double(r))});
  }
  auto b = std::make_unique<ScriptedProcess>(2);
  auto* pb = b.get();
  sim.add_process(std::move(a));
  sim.add_process(std::move(b));
  sim.run_rounds(2);
  sim.remove_process(1);
  sim.run_rounds(2);
  // a's round-2 send was routed before removal, so round 3 still delivers;
  // nothing afterwards.
  EXPECT_EQ(pb->received_[3].size(), 1u);
  EXPECT_TRUE(pb->received_[4].empty());
  EXPECT_EQ(sim.member_count(), 1u);
  EXPECT_EQ(sim.find(1), nullptr);
}

TEST(SyncSimulator, MessageToRemovedNodeIsLost) {
  SyncSimulator sim;
  auto a = std::make_unique<ScriptedProcess>(1);
  a->send_in_round(2, Outgoing{NodeId{2}, text_msg(MsgKind::kPresent, 0)});
  sim.add_process(std::move(a));
  sim.add_process(std::make_unique<ScriptedProcess>(2));
  sim.step();
  sim.remove_process(2);
  EXPECT_NO_FATAL_FAILURE(sim.run_rounds(2));
}

TEST(SyncSimulator, MetricsCountSentAndDelivered) {
  SyncSimulator sim;
  auto a = std::make_unique<ScriptedProcess>(1);
  a->send_in_round(1, Outgoing{std::nullopt, text_msg(MsgKind::kPresent, 0)});
  sim.add_process(std::move(a));
  sim.add_process(std::make_unique<ScriptedProcess>(2));
  sim.run_rounds(2);
  // A broadcast is ONE outgoing message; delivery is counted per recipient.
  EXPECT_EQ(sim.metrics().messages.total_sent(), 1u);
  EXPECT_EQ(sim.metrics().messages.total_delivered(), 2u);
  EXPECT_LE(sim.metrics().messages.total_delivered(),
            sim.metrics().messages.total_sent() * sim.member_count());
  EXPECT_EQ(sim.metrics().rounds_executed, 2);
  // The fan-out layer saw one unique payload fanned to both members.
  EXPECT_EQ(sim.metrics().fanout.unique_payloads, 1u);
  EXPECT_EQ(sim.metrics().fanout.deliveries, 2u);
  EXPECT_GT(sim.metrics().fanout.bytes_delivered, 0u);
}

TEST(SyncSimulator, DoneRoundRecorded) {
  class DoneAfter3 final : public Process {
   public:
    using Process::Process;
    void on_round(RoundInfo round, std::span<const Message>, std::vector<Outgoing>&) override {
      done_ = done_ || round.local >= 3;
    }
    [[nodiscard]] bool done() const override { return done_; }

   private:
    bool done_ = false;
  };
  SyncSimulator sim;
  sim.add_process(std::make_unique<DoneAfter3>(4));
  EXPECT_TRUE(sim.run_until_all_correct_done(10));
  ASSERT_TRUE(sim.metrics().done_round.contains(4));
  EXPECT_EQ(sim.metrics().done_round.at(4), 3);
  EXPECT_EQ(sim.round(), 3);
}

TEST(SyncSimulator, RunUntilStopsEarly) {
  SyncSimulator sim;
  sim.add_process(std::make_unique<ScriptedProcess>(1));
  const bool hit = sim.run_until([&] { return sim.round() >= 5; }, 100);
  EXPECT_TRUE(hit);
  EXPECT_EQ(sim.round(), 5);
}

TEST(SyncSimulator, TraceRecordsRoutedMessages) {
  SyncSimulator sim;
  sim.enable_trace();
  auto a = std::make_unique<ScriptedProcess>(1);
  a->send_in_round(1, Outgoing{std::nullopt, text_msg(MsgKind::kPresent, 0)});
  a->send_in_round(2, Outgoing{NodeId{2}, text_msg(MsgKind::kAck, 0)});
  sim.add_process(std::move(a));
  sim.add_process(std::make_unique<ScriptedProcess>(2));
  sim.run_rounds(3);
  ASSERT_EQ(sim.trace().size(), 2u);
  EXPECT_EQ(sim.trace()[0].round, 1);
  EXPECT_FALSE(sim.trace()[0].to.has_value());
  EXPECT_EQ(sim.trace()[1].round, 2);
  EXPECT_EQ(sim.trace()[1].to, NodeId{2});
  EXPECT_EQ(sim.trace()[1].msg.sender, 1u);
  const std::string dump = sim.dump_trace();
  EXPECT_NE(dump.find("present"), std::string::npos);
  EXPECT_NE(dump.find("ack"), std::string::npos);
  EXPECT_TRUE(sim.dump_trace(Round{2}).find("present") == std::string::npos);
}

TEST(SyncSimulator, TraceRingBufferCapsMemory) {
  SyncSimulator sim;
  sim.enable_trace(/*capacity=*/4);
  auto a = std::make_unique<ScriptedProcess>(1);
  for (Round r = 1; r <= 10; ++r) {
    a->send_in_round(r, Outgoing{std::nullopt, text_msg(MsgKind::kPresent, double(r))});
  }
  sim.add_process(std::move(a));
  sim.run_rounds(10);
  EXPECT_EQ(sim.trace().size(), 4u);
  EXPECT_EQ(sim.trace().front().round, 7);
}

TEST(SyncSimulator, DelayHookPostponesDelivery) {
  SyncSimulator sim;
  sim.set_delay_hook([](NodeId, NodeId, const Message& m, Round) -> Round {
    return m.kind == MsgKind::kAck ? 2 : 0;
  });
  auto a = std::make_unique<ScriptedProcess>(1);
  a->send_in_round(1, Outgoing{NodeId{2}, text_msg(MsgKind::kAck, 0)});      // delayed by 2
  a->send_in_round(1, Outgoing{NodeId{2}, text_msg(MsgKind::kPresent, 0)});  // on time
  auto b = std::make_unique<ScriptedProcess>(2);
  auto* pb = b.get();
  sim.add_process(std::move(a));
  sim.add_process(std::move(b));
  sim.run_rounds(5);
  ASSERT_EQ(pb->received_[2].size(), 1u);
  EXPECT_EQ(pb->received_[2][0].kind, MsgKind::kPresent);
  ASSERT_EQ(pb->received_[4].size(), 1u) << "delayed by 2 extra rounds: 1 + 1 + 2 = round 4";
  EXPECT_EQ(pb->received_[4][0].kind, MsgKind::kAck);
}

TEST(SyncSimulator, DelayedMessageToRemovedNodeIsDropped) {
  SyncSimulator sim;
  sim.set_delay_hook([](NodeId, NodeId, const Message&, Round) -> Round { return 3; });
  auto a = std::make_unique<ScriptedProcess>(1);
  a->send_in_round(1, Outgoing{NodeId{2}, text_msg(MsgKind::kPresent, 0)});
  sim.add_process(std::move(a));
  sim.add_process(std::make_unique<ScriptedProcess>(2));
  sim.step();
  sim.remove_process(2);
  EXPECT_NO_FATAL_FAILURE(sim.run_rounds(5));
}

TEST(SyncSimulator, EngineFuzzRandomChurnAndTrafficNeverBreaks) {
  // Engine robustness: random joins, leaves, broadcasts, and unicasts to
  // possibly-absent targets across 300 rounds must never crash, deliver to
  // dead nodes, or corrupt bookkeeping. Deterministic per seed.
  class Chatterbox final : public Process {
   public:
    Chatterbox(NodeId id, Rng rng) : Process(id), rng_(rng) {}
    void on_round(RoundInfo, std::span<const Message> inbox,
                  std::vector<Outgoing>& out) override {
      received_total += inbox.size();
      if (rng_.chance(0.7)) {
        Message m;
        m.kind = static_cast<MsgKind>(rng_.below(16));
        m.value = Value::real(rng_.uniform(-1, 1));
        broadcast(out, m);
      }
      if (rng_.chance(0.3)) {
        Message m;
        m.kind = MsgKind::kAck;
        unicast(out, 1 + rng_.below(2000), m);  // target may not exist
      }
    }
    std::size_t received_total = 0;

   private:
    Rng rng_;
  };

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SyncSimulator sim;
    Rng rng(seed);
    NodeId next_id = 1;
    std::vector<NodeId> live;
    std::size_t max_members = 0;
    for (int i = 0; i < 5; ++i) {
      live.push_back(next_id);
      sim.add_process(std::make_unique<Chatterbox>(next_id++, rng.fork()));
    }
    for (int round = 0; round < 300; ++round) {
      if (rng.chance(0.1)) {
        live.push_back(next_id);
        sim.add_process(std::make_unique<Chatterbox>(next_id++, rng.fork()));
      }
      if (live.size() > 3 && rng.chance(0.08)) {
        const std::size_t victim = rng.below(live.size());
        sim.remove_process(live[victim]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
      max_members = std::max(max_members, live.size());
      ASSERT_NO_FATAL_FAILURE(sim.step()) << "seed=" << seed << " round=" << round;
    }
    sim.step();  // settle removals/joins issued in the final loop iteration
    EXPECT_EQ(sim.member_count(), live.size()) << seed;
    EXPECT_EQ(sim.round(), 301) << seed;
    EXPECT_GT(sim.metrics().messages.total_delivered(), 0u);
    // sent = outgoing messages; a broadcast reaches at most every member, so
    // deliveries can exceed sends but never sent × peak membership.
    EXPECT_LE(sim.metrics().messages.total_delivered(),
              sim.metrics().messages.total_sent() * max_members);
  }
}

TEST(SyncSimulator, AddDuplicateIdThrows) {
  SyncSimulator sim;
  sim.add_process(std::make_unique<ScriptedProcess>(1));
  // Live duplicate: rejected immediately, not at the next step().
  EXPECT_THROW(sim.add_process(std::make_unique<ScriptedProcess>(1)), std::invalid_argument);
  sim.step();
  // Still a duplicate after the join took effect.
  EXPECT_THROW(sim.add_process(std::make_unique<ScriptedProcess>(1)), std::invalid_argument);
  // Queued duplicate: two adds of the same id before any step.
  sim.add_process(std::make_unique<ScriptedProcess>(2));
  EXPECT_THROW(sim.add_process(std::make_unique<ScriptedProcess>(2)), std::invalid_argument);
  EXPECT_THROW(sim.add_process(nullptr), std::invalid_argument);
}

TEST(SyncSimulator, ReAddAfterRemoveSameRoundAllowed) {
  SyncSimulator sim;
  sim.add_process(std::make_unique<ScriptedProcess>(1));
  sim.add_process(std::make_unique<ScriptedProcess>(2));
  sim.step();
  // Removal queued this round frees the id for an incoming replacement.
  sim.remove_process(2);
  auto fresh = std::make_unique<ScriptedProcess>(2);
  auto* pfresh = fresh.get();
  EXPECT_NO_THROW(sim.add_process(std::move(fresh)));
  sim.run_rounds(2);
  EXPECT_EQ(sim.member_count(), 2u);
  EXPECT_EQ(sim.find(2), pfresh);
}

TEST(SyncSimulator, DelayedMessageNotResurrectedForReusedId) {
  // A message delayed in flight to node 2 must die with node 2's removal —
  // it must NOT be delivered to a NEW process that later re-uses id 2.
  SyncSimulator sim;
  sim.set_delay_hook([](NodeId, NodeId, const Message&, Round) -> Round { return 3; });
  auto a = std::make_unique<ScriptedProcess>(1);
  a->send_in_round(1, Outgoing{NodeId{2}, text_msg(MsgKind::kPresent, 7)});
  sim.add_process(std::move(a));
  sim.add_process(std::make_unique<ScriptedProcess>(2));
  sim.step();  // round 1: send routed, due in round 1 + 1 + 3 = 5
  sim.remove_process(2);
  sim.step();  // round 2: removal takes effect, in-flight message purged
  auto reborn = std::make_unique<ScriptedProcess>(2);
  auto* preborn = reborn.get();
  sim.add_process(std::move(reborn));
  sim.run_rounds(5);  // runs through the old due round
  for (const auto& [round, inbox] : preborn->received_) {
    EXPECT_TRUE(inbox.empty()) << "stale delayed message resurrected in local round " << round;
  }
}

// ----------------------------------------------- pay-per-fault routing --
// A broadcast sits once in the shared lane and a fault only leaves a
// per-receiver exception. Each case pins the inbox that routing every copy
// to every receiver separately would give.

/// First seed (from 1) whose schedule gives every listed event the verdict
/// its predicate wants — verdicts are pure, so the search is deterministic.
std::uint64_t seed_where(
    const ChaosPlan& plan,
    const std::vector<std::pair<LinkEvent, std::function<bool(const FaultDecision&)>>>& wants) {
  for (std::uint64_t seed = 1; seed < 100000; ++seed) {
    const ChaosSchedule schedule(plan, seed);
    if (std::all_of(wants.begin(), wants.end(),
                    [&](const auto& want) { return want.second(schedule.peek(want.first)); })) {
      return seed;
    }
  }
  ADD_FAILURE() << "no seed gives the wanted verdicts";
  return 0;
}

ChaosPlan one_phase(Round first, Round last, double drop, double dup, double delay) {
  ChaosPhase phase;
  phase.first_round = first;
  phase.last_round = last;
  phase.drop = drop;
  phase.duplicate = dup;
  phase.delay = DelaySpec{delay, 1};
  return ChaosPlan{{phase}};
}

const auto kDropped = [](const FaultDecision& v) { return v.drop; };
const auto kClean = [](const FaultDecision& v) { return !v.faulted(); };

TEST(SyncSimulatorRouting, DroppedBroadcastStillDeliversIdenticalUnicast) {
  // Node 1 sends X to everyone AND privately to node 2 in the same round,
  // in either order; the broadcast's copy to node 2 is dropped. Node 2 must
  // still get X once, from the unicast: the lane entry withheld from it
  // cannot suppress the private copy as a duplicate.
  const Message x = text_msg(MsgKind::kPresent, 1);
  for (const bool broadcast_first : {true, false}) {
    const ChaosPlan plan = one_phase(1, 1, 0.5, 0, 0);
    // The broadcast is link 1→2's send #0 when it goes first, #1 otherwise.
    const std::uint64_t seed = seed_where(
        plan, {{LinkEvent{1, 1, 2, broadcast_first ? 0u : 1u}, kDropped},
               {LinkEvent{1, 1, 2, broadcast_first ? 1u : 0u}, kClean}});
    for (const unsigned threads : {1u, 2u}) {
      SyncSimulator sim;
      sim.set_threads(threads);
      sim.set_chaos(std::make_shared<ChaosSchedule>(plan, seed));
      auto a = std::make_unique<ScriptedProcess>(1);
      auto b = std::make_unique<ScriptedProcess>(2);
      const Outgoing to_all{std::nullopt, x};
      const Outgoing to_b{NodeId{2}, x};
      a->send_in_round(1, broadcast_first ? to_all : to_b);
      a->send_in_round(1, broadcast_first ? to_b : to_all);
      auto* pa = a.get();
      auto* pb = b.get();
      sim.add_process(std::move(a));
      sim.add_process(std::move(b));
      sim.run_rounds(2);
      const std::string tag = std::string(broadcast_first ? "broadcast first" : "unicast first") +
                              ", threads " + std::to_string(threads);
      ASSERT_EQ(pb->received_[2].size(), 1u) << tag;
      EXPECT_EQ(pb->received_[2][0].sender, 1u) << tag;
      EXPECT_EQ(pb->received_[2][0].kind, MsgKind::kPresent) << tag;
      EXPECT_EQ(pa->received_[2].size(), 1u) << tag << ": the sender's own copy is never faulted";
      EXPECT_EQ(sim.chaos()->counters().total_faults().drops, 1u) << tag;
    }
  }
}

TEST(SyncSimulatorRouting, RepeatedBroadcastReachesReceiverThatLostTheFirstCopy) {
  // Node 1 broadcasts X twice in one round. The lane keeps one entry, but
  // each copy is its own send on link 1→2: whichever copy is dropped, the
  // other one still reaches node 2, exactly once.
  const Message x = text_msg(MsgKind::kPresent, 1);
  for (const std::uint64_t dropped : {0u, 1u}) {
    const ChaosPlan plan = one_phase(1, 1, 0.5, 0, 0);
    const std::uint64_t seed = seed_where(plan, {{LinkEvent{1, 1, 2, dropped}, kDropped},
                                                 {LinkEvent{1, 1, 2, 1 - dropped}, kClean}});
    for (const unsigned threads : {1u, 2u}) {
      SyncSimulator sim;
      sim.set_threads(threads);
      sim.set_chaos(std::make_shared<ChaosSchedule>(plan, seed));
      auto a = std::make_unique<ScriptedProcess>(1);
      a->send_in_round(1, Outgoing{std::nullopt, x});
      a->send_in_round(1, Outgoing{std::nullopt, x});
      auto b = std::make_unique<ScriptedProcess>(2);
      auto* pb = b.get();
      sim.add_process(std::move(a));
      sim.add_process(std::move(b));
      sim.run_rounds(2);
      EXPECT_EQ(pb->received_[2].size(), 1u) << "copy " << dropped << " dropped, threads " << threads;
    }
  }
}

TEST(SyncSimulatorRouting, DuplicateDelayKeepsOnTimeCopyAndQueuesDelayedOne) {
  // Round 1: node 1 broadcasts X then Y; link 1→2 gives X a duplicate +
  // one-round-delay verdict. Round 2: node 1 broadcasts Z. Node 2 sees X on
  // time (the duplicate's first copy), then Y; a round later Z, with the
  // delayed X at the back of the inbox.
  const ChaosPlan plan = one_phase(1, 2, 0, 0.5, 0.5);
  const std::uint64_t seed = seed_where(
      plan, {{LinkEvent{1, 1, 2, 0},
              [](const FaultDecision& v) { return v.duplicate && v.delay_rounds == 1; }},
             {LinkEvent{1, 1, 2, 1}, kClean},
             {LinkEvent{2, 1, 2, 0}, kClean}});
  std::vector<std::vector<double>> reference;
  for (const unsigned threads : {1u, 2u}) {
    SyncSimulator sim;
    sim.set_threads(threads);
    sim.set_chaos(std::make_shared<ChaosSchedule>(plan, seed));
    auto a = std::make_unique<ScriptedProcess>(1);
    a->send_in_round(1, Outgoing{std::nullopt, text_msg(MsgKind::kPresent, 1)});  // X
    a->send_in_round(1, Outgoing{std::nullopt, text_msg(MsgKind::kPresent, 2)});  // Y
    a->send_in_round(2, Outgoing{std::nullopt, text_msg(MsgKind::kPresent, 3)});  // Z
    auto b = std::make_unique<ScriptedProcess>(2);
    auto* pb = b.get();
    sim.add_process(std::move(a));
    sim.add_process(std::move(b));
    sim.run_rounds(4);
    std::vector<std::vector<double>> values;
    for (Round r = 2; r <= 4; ++r) {
      std::vector<double> inbox;
      for (const Message& m : pb->received_[r]) inbox.push_back(m.value.as_real());
      values.push_back(inbox);
    }
    EXPECT_EQ(values, (std::vector<std::vector<double>>{{1, 2}, {3, 1}, {}}))
        << "threads " << threads;
    if (reference.empty()) reference = values;
    EXPECT_EQ(values, reference);
  }
}

TEST(SyncSimulatorRouting, ScheduleThatNeverFiresRoutesLikeNoSchedule) {
  // A phase that opens after the run ends computes no verdict: inboxes,
  // deliveries, dedup accounting and decisions equal a run without chaos,
  // and the recorder sees only clean link verdicts. Replay adversaries
  // re-broadcast identical messages, so lane dedup is exercised too.
  ScenarioConfig config;
  config.n_correct = 7;
  config.n_byzantine = 2;
  config.adversary = AdversaryKind::kReplay;
  config.seed = 5;
  const Scenario scenario = make_scenario(config);
  struct Run {
    std::vector<std::tuple<NodeId, Round, NodeId>> deliveries;
    Metrics metrics;
    std::map<NodeId, std::optional<Value>> outputs;
    std::string canonical;
  };
  const auto run = [&](bool inert_chaos, unsigned threads) {
    SyncSimulator sim;
    sim.set_threads(threads);
    auto recorder = std::make_shared<TraceRecorder>(TraceEngine::kSync);
    sim.set_trace_recorder(recorder);
    std::shared_ptr<ChaosSchedule> chaos;
    if (inert_chaos) {
      chaos = std::make_shared<ChaosSchedule>(one_phase(200, 201, 0.5, 0.5, 0.5), 9);
      sim.set_chaos(chaos);
    }
    populate(sim, scenario, [](NodeId id, std::size_t index) -> std::unique_ptr<Process> {
      return std::make_unique<ConsensusProcess>(id, Value::real(static_cast<double>(index % 2)));
    });
    sim.run_until_all_correct_done(100);
    Run out;
    for (const TraceRecord& rec : recorder->snapshot()) {
      if (rec.kind == TraceEventKind::kDeliver) out.deliveries.emplace_back(rec.node, rec.round, rec.from);
    }
    out.metrics = sim.metrics();
    for (NodeId id : scenario.correct_ids) out.outputs[id] = sim.get<ConsensusProcess>(id)->output();
    out.canonical = recorder->canonical_jsonl();
    if (chaos != nullptr) {
      EXPECT_TRUE(chaos->canonical_trace().empty());
    }
    return out;
  };
  const Run clean = run(false, 1);
  ASSERT_FALSE(clean.deliveries.empty());
  EXPECT_GT(clean.metrics.fanout.dedup_hits, 0u) << "replayed duplicates should hit lane dedup";
  for (const unsigned threads : {1u, 2u}) {
    const Run inert = run(true, threads);
    EXPECT_EQ(inert.deliveries, clean.deliveries) << threads;
    EXPECT_EQ(inert.outputs, clean.outputs) << threads;
    EXPECT_EQ(inert.metrics.rounds_executed, clean.metrics.rounds_executed) << threads;
    EXPECT_EQ(inert.metrics.messages.delivered, clean.metrics.messages.delivered) << threads;
    EXPECT_EQ(inert.metrics.fanout.deliveries, clean.metrics.fanout.deliveries) << threads;
    EXPECT_EQ(inert.metrics.fanout.bytes_delivered, clean.metrics.fanout.bytes_delivered);
    EXPECT_EQ(inert.metrics.fanout.dedup_hits, clean.metrics.fanout.dedup_hits) << threads;
    EXPECT_EQ(clean.canonical, "") << "no schedule, no link verdicts";
    // The inert schedule still reports every link, and every verdict is clean.
    ASSERT_FALSE(inert.canonical.empty());
    EXPECT_EQ(inert.canonical.find("\"link_clean\""), inert.canonical.find("\"link_"));
    for (const char* faulty : {"link_drop", "link_duplicate", "link_delay", "link_corrupt"}) {
      EXPECT_EQ(inert.canonical.find(faulty), std::string::npos) << faulty;
    }
  }
}

TEST(SyncSimulator, MemberIdsSorted) {
  SyncSimulator sim;
  sim.add_process(std::make_unique<ScriptedProcess>(30));
  sim.add_process(std::make_unique<ScriptedProcess>(10));
  sim.add_process(std::make_unique<ScriptedProcess>(20));
  sim.step();
  EXPECT_EQ(sim.member_ids(), (std::vector<NodeId>{10, 20, 30}));
}

}  // namespace
}  // namespace idonly
