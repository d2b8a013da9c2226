#include "dist/shard_engine.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace idonly {

void ShardEngine::add_process(std::unique_ptr<Process> process) {
  if (process == nullptr) throw std::invalid_argument("add_process: null process");
  const NodeId id = process->id();
  const bool leaving =
      std::find(pending_removals_.begin(), pending_removals_.end(), id) != pending_removals_.end();
  if (leaving) {
    // Re-use of an id whose removal is queued: the removal takes effect now,
    // exactly as in SyncSimulator::add_process.
    members_.erase(id);
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

void ShardEngine::remove_process(NodeId id) { pending_removals_.push_back(id); }

void ShardEngine::begin_round() {
  // Departures announced during the previous round take effect before this
  // one begins; in-flight delayed messages addressed to the leaver die with
  // it. Identical prologue to SyncSimulator::step.
  for (NodeId id : pending_removals_) {
    members_.erase(id);
    std::erase_if(pending_joins_,
                  [id](const std::unique_ptr<Process>& p) { return p->id() == id; });
    delayed_.purge(id);
  }
  pending_removals_.clear();

  for (auto& joiner : pending_joins_) {
    const NodeId id = joiner->id();
    assert(members_.find(id) == members_.end() && "duplicate live node id");
    Member member;
    member.process = std::move(joiner);
    member.joined_round = round_ + 1;
    members_.emplace(id, std::move(member));
  }
  pending_joins_.clear();

  round_ += 1;
  metrics_.rounds_executed = round_;

  // Synchrony-fault-delayed messages land AFTER last round's routed traffic
  // (fresh keys off the advanced counter), preserving back-of-inbox order.
  delayed_.release(
      round_,
      [this](NodeId to) {
        const auto member = members_.find(to);
        return member == members_.end() ? nullptr : &member->second.mailbox;
      },
      seq_, metrics_.fanout);

  // Flip lanes: last round's broadcasts are read now; finish_round fills
  // the other lane.
  const BroadcastLane& deliver_lane = lanes_[fill_lane_];
  fill_lane_ ^= 1;
  lanes_[fill_lane_].clear();

  // Dispatch arena, ascending by id (std::map order). Capacity reused.
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
    dispatch.became_done = false;
  }

  // Inbox assembly for every member BEFORE anyone steps (lock-step
  // semantics). A member admitted this round was not a receiver of last
  // round's broadcasts, so it reads no lane. Delivery records flush before
  // the merge stages send/verdict records, matching the reference engine's
  // per-ring capture order.
  for (Dispatch& dispatch : dispatches_) {
    Member& member = *dispatch.member;
    const BroadcastLane* lane = member.joined_round == round_ ? nullptr : &deliver_lane;
    dispatch.inbox =
        member.mailbox.collect(lane, member.scratch, &metrics_.fanout, &metrics_.messages);
    if (recorder_) {
      for (const Message& msg : dispatch.inbox) {
        stage_.trace.push_back(make_deliver_record(dispatch.id, round_, msg.sender));
      }
    }
  }
  if (recorder_) {
    recorder_->record_batch(stage_.trace);
    stage_.trace.clear();
  }

  // Step every local process, stamp identities, wrap, and lay the round's
  // local traffic out in global send order restricted to local senders.
  local_sends_.clear();
  for (Dispatch& dispatch : dispatches_) {
    Member& member = *dispatch.member;
    const bool was_done = member.process->done();
    RoundInfo info{round_, round_ - member.joined_round + 1};
    member.process->on_round(info, dispatch.inbox, dispatch.outbox);
    dispatch.became_done = !was_done && member.process->done();
    for (Outgoing& out : dispatch.outbox) {
      Message msg = std::move(out.msg);
      msg.sender = dispatch.id;  // unforgeable identity
      local_sends_.push_back(Send{out.to, MessageRef::wrap(std::move(msg))});
    }
  }
}

void ShardEngine::finish_round(std::span<const std::vector<Send>> remote_streams) {
  // K-way merge on sender id. Stream 0 is the local traffic; each remote
  // stream is one shard's visible slab. Streams are internally ascending by
  // sender and sender sets are disjoint, so repeatedly taking the stream
  // with the smallest head sender replays the exact visible subsequence of
  // the global send order.
  const std::size_t k = remote_streams.size() + 1;
  std::vector<std::span<const Send>> streams(k);
  streams[0] = local_sends_;
  for (std::size_t s = 0; s < remote_streams.size(); ++s) streams[s + 1] = remote_streams[s];
  std::vector<std::size_t> heads(k, 0);

  BroadcastLane& lane = lanes_[fill_lane_];
  router_.begin_round(round_, chaos_.get(), nullptr, recorder_ && chaos_, targets_);
  std::uint64_t ordinal = 0;
  for (;;) {
    std::size_t pick = k;
    NodeId best = 0;
    for (std::size_t s = 0; s < k; ++s) {
      if (heads[s] >= streams[s].size()) continue;
      const NodeId sender = streams[s][heads[s]].ref->sender;
      if (pick == k || sender < best) {
        pick = s;
        best = sender;
      }
    }
    if (pick == k) break;
    const Send& send = streams[pick][heads[pick]++];
    const bool local_sender = pick == 0;
    // Two deposit keys per visible ordinal: chaos duplicate at `key`,
    // primary at `key + 1`. Only relative order per mailbox is observable,
    // so the gaps left by traffic this shard never sees are free.
    const std::uint64_t key = seq_ + 2 * ordinal;
    ordinal += 1;
    if (local_sender) {
      metrics_.messages.sent[static_cast<std::size_t>(send.ref->kind)] += 1;
      metrics_.fanout.unique_payloads += 1;
      if (recorder_) stage_.trace.push_back(make_send_record(send.ref->sender, round_, send.to));
    }
    // Every broadcast enters this shard's lane; a unicast to a remote (or
    // departed) recipient finds no local target and is skipped.
    router_.route(stage_, send.ref, send.to, key, &lane, local_sender);
  }

  // Sequential epilogue, mirroring SyncSimulator's lane fold.
  metrics_.fanout += stage_.fanout;
  if (chaos_) chaos_->commit_batch(stage_.faults);
  if (recorder_) recorder_->record_batch(stage_.trace);
  delayed_.hold(stage_.delayed);
  for (const Dispatch& dispatch : dispatches_) {
    if (dispatch.became_done) metrics_.done_round[dispatch.id] = round_;
  }
  seq_ += 2 * ordinal;
  stage_.clear();
  local_sends_.clear();
}

Process* ShardEngine::find(NodeId id) {
  auto it = members_.find(id);
  if (it != members_.end()) return it->second.process.get();
  for (const auto& pending : pending_joins_) {
    if (pending->id() == id) return pending.get();
  }
  return nullptr;
}

std::vector<NodeId> ShardEngine::member_ids() const {
  std::vector<NodeId> out;
  out.reserve(members_.size());
  for (const auto& [id, member] : members_) out.push_back(id);
  return out;
}

}  // namespace idonly
