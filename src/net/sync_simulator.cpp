#include "net/sync_simulator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace idonly {

void SyncSimulator::add_process(std::unique_ptr<Process> process) {
  if (process == nullptr) throw std::invalid_argument("add_process: null process");
  const NodeId id = process->id();
  const bool leaving =
      std::find(pending_removals_.begin(), pending_removals_.end(), id) != pending_removals_.end();
  if (leaving) {
    // Re-use of an id whose removal is queued: make that removal effective
    // now — old member, any stale queued join, and in-flight delayed
    // messages all die — so the replacement joins cleanly next round
    // (instead of step() mistaking it for the departing node).
    members_.erase(id);
    member_ids_dirty_ = true;
    std::erase_if(pending_joins_,
                  [id](const std::unique_ptr<Process>& p) { return p->id() == id; });
    delayed_.purge(id);
    std::erase(pending_removals_, id);
  } else {
    const bool queued = std::any_of(pending_joins_.begin(), pending_joins_.end(),
                                    [id](const auto& p) { return p->id() == id; });
    if (members_.contains(id) || queued) {
      throw std::invalid_argument("add_process: duplicate live node id " + std::to_string(id));
    }
  }
  pending_joins_.push_back(std::move(process));
}

void SyncSimulator::remove_process(NodeId id) { pending_removals_.push_back(id); }

void SyncSimulator::set_threads(unsigned threads) {
  if (threads < 1) threads = 1;
  if (threads == threads_) return;
  threads_ = threads;
  executor_ = threads_ > 1 ? std::make_unique<ParallelExecutor>(threads_) : nullptr;
}

void SyncSimulator::run_tasks(std::size_t count, const std::function<void(std::size_t)>& fn) {
  if (executor_ != nullptr && count > 1) {
    executor_->run(count, fn);
  } else {
    for (std::size_t i = 0; i < count; ++i) fn(i);
  }
}

void SyncSimulator::merge_lane(std::size_t lane_index) {
  // One lane of the parallel merge. The lane owns a contiguous range of
  // destination slots: their mailboxes, their link counters, and their
  // trace rings are touched by THIS lane only. It walks every message of the
  // round in global send order (ascending sender slot, then outbox position)
  // and applies exactly the effects it owns, so each receiver observes the
  // same deposit order as the sequential engine — regardless of how the
  // other lanes interleave in real time.
  LaneArena& arena = arenas_[lane_index];
  const std::size_t begin = lane_starts_[lane_index];
  const std::size_t end = lane_starts_[lane_index + 1];
  BroadcastLane& segment = lanes_[fill_lane_].segment(lane_index);
  arena.router.begin_round(round_, chaos_.get(), &delay_hook_, recorder_ && chaos_,
                           std::span(targets_).subspan(begin, end - begin));
  const std::size_t n = dispatches_.size();

  for (std::size_t s = 0; s < n; ++s) {
    Dispatch& sender = dispatches_[s];
    const bool own_sender = s >= begin && s < end;
    if (!own_sender && sender.outbox.empty()) continue;
    for (std::size_t m = 0; m < sender.outbox.size(); ++m) {
      const Outgoing& out = sender.outbox[m];
      const MessageRef& ref = sender.refs[m];
      // Two deposit keys per global message ordinal: a chaos duplicate copy
      // takes `key`, the primary copy `key + 1` — duplicate-before-primary,
      // exactly the sequential engine's deposit order. Only relative order
      // is observable, so the gaps left by unfaulted messages are free.
      const std::uint64_t key = seq_ + 2 * (sender.msg_base + m);
      if (own_sender) {
        arena.messages.sent[static_cast<std::size_t>(ref->kind)] += 1;
        arena.stage.fanout.unique_payloads += 1;
        if (tracing_) arena.debug_stage.push_back(TraceEntry{round_, sender.id, out.to, ref.get()});
        if (recorder_) arena.stage.trace.push_back(make_send_record(sender.id, round_, out.to));
      }
      // Segments cover ascending sender ranges, so seal()'s concatenation of
      // the owning lanes' deposits is globally key-ordered.
      arena.router.route(arena.stage, ref, out.to, key, own_sender ? &segment : nullptr,
                         own_sender);
    }
  }
}

void SyncSimulator::step() {
  // Departures announced during the previous round take effect before this
  // one begins: messages the leaver already sent were routed then, but it
  // neither acts nor receives from here on. A node that was added and
  // removed before ever stepping is purged from the pending-join queue too,
  // and in-flight delayed messages addressed to the leaver die with it — a
  // later process re-using the id must not inherit them.
  for (NodeId id : pending_removals_) {
    members_.erase(id);
    member_ids_dirty_ = true;
    std::erase_if(pending_joins_,
                  [id](const std::unique_ptr<Process>& p) { return p->id() == id; });
    delayed_.purge(id);
  }
  pending_removals_.clear();

  // Joins announced before this round become effective now (the dynamic
  // model lets the adversary admit nodes "before every round starts").
  for (auto& joiner : pending_joins_) {
    const NodeId id = joiner->id();
    assert(members_.find(id) == members_.end() && "duplicate live node id");
    Member member;
    member.process = std::move(joiner);
    member.joined_round = round_ + 1;
    members_.emplace(id, std::move(member));
    member_ids_dirty_ = true;
  }
  pending_joins_.clear();

  round_ += 1;
  metrics_.rounds_executed = round_;

  // Deliver synchrony-fault-delayed messages that are due this round. They
  // land in the receiver's private mailbox AFTER last round's routed
  // traffic (their sequence numbers are fresher), preserving the historical
  // "delayed messages arrive at the back of the inbox" order.
  delayed_.release(
      round_,
      [this](NodeId to) {
        const auto member = members_.find(to);
        return member == members_.end() ? nullptr : &member->second.mailbox;
      },
      seq_, metrics_.fanout);

  // Flip lanes: the lane sealed last step is consumed by every member this
  // step; this step's merge lanes fill the other.
  ShardedLane& deliver_lane = lanes_[fill_lane_];
  fill_lane_ ^= 1;

  // The dispatch arena persists across rounds: slab/scratch capacity from
  // the previous round is reused, so steady-state rounds allocate nothing.
  if (dispatches_.size() > members_.size()) dispatches_.resize(members_.size());
  dispatches_.reserve(members_.size());
  targets_.clear();
  std::size_t slot = 0;
  for (auto& [id, member] : members_) {
    if (slot == dispatches_.size()) dispatches_.emplace_back();
    targets_.push_back({id, &member.mailbox});
    Dispatch& dispatch = dispatches_[slot++];
    dispatch.id = id;
    dispatch.member = &member;
    dispatch.outbox.clear();
    dispatch.refs.clear();
    dispatch.msg_base = 0;
    dispatch.became_done = false;
  }
  const std::size_t n = dispatches_.size();

  // Lane plan: contiguous destination-slot ranges, one per worker. A user
  // delay hook is an arbitrary (possibly stateful) std::function, so it must
  // see deposits in the sequential order — collapse the merge to one lane
  // (the fill phase still parallelises; the hook only runs in the merge).
  std::size_t lane_count =
      (executor_ != nullptr && delay_hook_ == nullptr) ? std::min<std::size_t>(threads_, n) : 1;
  if (lane_count == 0) lane_count = 1;
  lane_starts_.assign(lane_count + 1, 0);
  for (std::size_t l = 0; l <= lane_count; ++l) lane_starts_[l] = n * l / lane_count;
  if (arenas_.size() < lane_count) arenas_.resize(lane_count);
  for (std::size_t l = 0; l < lane_count; ++l) {
    LaneArena& arena = arenas_[l];
    arena.messages = MessageCounters{};
    arena.stage.clear();
    arena.debug_stage.clear();
  }
  lanes_[fill_lane_].reset(lane_count);

  // Phase 1 — parallel inbox assembly, one task per lane: every member's
  // inbox is built BEFORE anyone steps (lock-step semantics, no same-round
  // delivery). Each lane collects only its own slots' mailboxes against the
  // sealed (read-only) deliver lane, staging delivery records and counters
  // in its arena.
  run_tasks(lane_count, [&](std::size_t l) {
    LaneArena& arena = arenas_[l];
    for (std::size_t s = lane_starts_[l]; s < lane_starts_[l + 1]; ++s) {
      Dispatch& dispatch = dispatches_[s];
      Member& member = *dispatch.member;
      // A member admitted at the start of THIS step was not a receiver of
      // last round's broadcasts — it gets no lane, and its mailbox is empty.
      const ShardedLane* lane = member.joined_round == round_ ? nullptr : &deliver_lane;
      dispatch.inbox =
          member.mailbox.collect(lane, member.scratch, &arena.stage.fanout, &arena.messages);
      if (recorder_) {
        for (const Message& msg : dispatch.inbox) {
          arena.stage.trace.push_back(make_deliver_record(dispatch.id, round_, msg.sender));
        }
      }
    }
  });
  if (recorder_) {
    // Flush delivery records before the merge stages send/verdict records
    // into the same buffers. A node's records are staged by exactly one lane,
    // so per-ring order (what every export is built from) is lane-local and
    // thread-count-independent; flushing in lane order keeps it fully
    // deterministic.
    for (std::size_t l = 0; l < lane_count; ++l) {
      recorder_->record_batch(arenas_[l].stage.trace);
      arenas_[l].stage.trace.clear();
    }
  }

  // Phase 2 — parallel stepping, one task per process: each steps into its
  // private outbox slab, then stamps and wraps its messages (the content
  // hashing is the round's other big CPU sink). No shared engine state is
  // touched; inbox spans stay valid because routing hasn't started.
  run_tasks(n, [this](std::size_t index) {
    Dispatch& dispatch = dispatches_[index];
    Member& member = *dispatch.member;
    const bool was_done = member.process->done();
    RoundInfo info{round_, round_ - member.joined_round + 1};
    member.process->on_round(info, dispatch.inbox, dispatch.outbox);
    dispatch.became_done = !was_done && member.process->done();
    dispatch.refs.reserve(dispatch.outbox.size());
    for (Outgoing& out : dispatch.outbox) {
      Message msg = std::move(out.msg);
      msg.sender = dispatch.id;  // unforgeable identity
      dispatch.refs.push_back(MessageRef::wrap(std::move(msg)));
    }
  });

  // Sequential prefix pass: assign every message its global send ordinal.
  // All deposit keys derive from these, so they are thread-count-invariant.
  std::uint64_t total_msgs = 0;
  for (Dispatch& dispatch : dispatches_) {
    dispatch.msg_base = total_msgs;
    total_msgs += dispatch.outbox.size();
  }

  // Phase 3 — parallel lane merge: no sequential replay pass. Each lane
  // routes the whole round's traffic for its own destination slots.
  run_tasks(lane_count, [this](std::size_t l) { merge_lane(l); });

  // Sequential epilogue: fold the lane arenas into the shared engine state
  // in lane order (deterministic), advance the global send stamp past every
  // key handed out this round, and seal the fill lane so next round's
  // concurrent collectors see one flat immutable view.
  for (std::size_t l = 0; l < lane_count; ++l) {
    LaneArena& arena = arenas_[l];
    for (std::size_t k = 0; k < MessageCounters::kKinds; ++k) {
      metrics_.messages.sent[k] += arena.messages.sent[k];
      metrics_.messages.delivered[k] += arena.messages.delivered[k];
    }
    metrics_.fanout += arena.stage.fanout;
    if (chaos_) chaos_->commit_batch(arena.stage.faults);
    if (recorder_) recorder_->record_batch(arena.stage.trace);
    delayed_.hold(arena.stage.delayed);
    if (tracing_) {
      for (TraceEntry& entry : arena.debug_stage) {
        if (trace_.size() >= trace_capacity_) trace_.pop_front();
        trace_.push_back(std::move(entry));
      }
    }
  }
  for (Dispatch& dispatch : dispatches_) {
    if (dispatch.became_done) metrics_.done_round[dispatch.id] = round_;
  }
  seq_ += 2 * total_msgs;
  lanes_[fill_lane_].seal();
}

bool SyncSimulator::run_until(const std::function<bool()>& pred, Round max_rounds) {
  for (Round i = 0; i < max_rounds; ++i) {
    if (pred()) return true;
    step();
  }
  return pred();
}

bool SyncSimulator::run_until_all_correct_done(Round max_rounds) {
  return run_until(
      [this] {
        bool all = true;
        bool any = false;
        for (const auto& [id, member] : members_) {
          if (member.process->byzantine()) continue;
          any = true;
          all = all && member.process->done();
        }
        return any && all;
      },
      max_rounds);
}

void SyncSimulator::run_rounds(Round count) {
  for (Round i = 0; i < count; ++i) step();
}

Process* SyncSimulator::find(NodeId id) {
  auto it = members_.find(id);
  if (it != members_.end()) return it->second.process.get();
  // Processes added but not yet stepped (joins become effective next round)
  // are still addressable — callers often inspect state right after add.
  for (const auto& pending : pending_joins_) {
    if (pending->id() == id) return pending.get();
  }
  return nullptr;
}

const Process* SyncSimulator::find(NodeId id) const {
  auto it = members_.find(id);
  if (it != members_.end()) return it->second.process.get();
  for (const auto& pending : pending_joins_) {
    if (pending->id() == id) return pending.get();
  }
  return nullptr;
}

const std::vector<NodeId>& SyncSimulator::member_ids() const {
  // Rebuilt only after membership changes — run_until predicates call this
  // every round, and at large n the fresh-vector-per-call cost was visible.
  if (member_ids_dirty_) {
    member_ids_cache_.clear();
    member_ids_cache_.reserve(members_.size());
    for (const auto& [id, member] : members_) member_ids_cache_.push_back(id);
    member_ids_dirty_ = false;
  }
  return member_ids_cache_;
}

void SyncSimulator::enable_trace(std::size_t capacity) {
  tracing_ = true;
  trace_capacity_ = capacity == 0 ? 1 : capacity;
}

std::string SyncSimulator::dump_trace(std::optional<Round> only_round) const {
  std::string out;
  for (const TraceEntry& entry : trace_) {
    if (only_round.has_value() && entry.round != *only_round) continue;
    out += "r" + std::to_string(entry.round) + " " + std::to_string(entry.from) + " -> ";
    out += entry.to.has_value() ? std::to_string(*entry.to) : std::string("*");
    out += " " + entry.msg.to_string() + "\n";
  }
  return out;
}

void SyncSimulator::for_each_correct(const std::function<void(Process&)>& fn) {
  for (auto& [id, member] : members_) {
    if (!member.process->byzantine()) fn(*member.process);
  }
}

}  // namespace idonly
