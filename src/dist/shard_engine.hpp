// One shard's slice of the synchronous round engine.
//
// A ShardEngine holds the processes a shard worker owns and replays exactly
// the round semantics of SyncSimulator (net/sync_simulator.hpp) restricted
// to its local members. A round splits in two:
//
//   begin_round()   removals → joins → delayed flush → inbox assembly →
//                   process stepping → local outboxes wrapped and exposed as
//                   local_sends() (ascending sender id, outbox order)
//   finish_round()  merge the round's GLOBAL traffic — the local sends plus
//                   one decoded stream per remote shard — and route it with
//                   the shared Router (net/router.hpp) into this shard's
//                   broadcast lane and local mailboxes, with the same
//                   deterministic keys the in-process engine uses.
//
// Determinism argument (DESIGN.md §12): the global send order is "ascending
// sender id, then outbox position". Each stream (local, or one per remote
// shard) is internally ascending by sender and shards own disjoint senders,
// so a k-way merge on sender id reconstructs the exact subsequence of the
// global order that is visible to this shard (all broadcasts + unicasts to
// local nodes). Deposit keys are 2·ordinal offsets off a local counter —
// only their RELATIVE order per mailbox is observable, so the gaps left by
// traffic this shard never sees are free, exactly like the gaps unfaulted
// messages leave in the parallel engine's key space. Chaos verdicts are pure
// functions of (seed, round, from, to, per-link seq) and the router counts
// the per-link seq per sender over that same merged order, so verdicts,
// link trace records, and the canonical export reproduce the single-process
// run byte for byte.
//
// Routing is the in-process engine's, not a copy of it: every broadcast goes
// once into a double-buffered BroadcastLane that all local members read, and
// a fault leaves only a sparse per-receiver exception. Inboxes, per-node
// trace rings and `dedup_hits` therefore match SyncSimulator on clean and
// chaos runs alike; a lane-deduplicated broadcast counts its hit on the
// sender's shard only, so the fleet's sum equals the in-process count.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/chaos.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "common/types.hpp"
#include "net/mailbox.hpp"
#include "net/process.hpp"
#include "net/router.hpp"

namespace idonly {

class ShardEngine {
 public:
  /// One message of the round's global traffic: `to` empty → broadcast.
  /// The sender is stamped inside the ref'd message.
  struct Send {
    std::optional<NodeId> to;
    MessageRef ref;
  };

  /// Register a process; it participates from the next begun round. Throws
  /// std::invalid_argument on a duplicate live or queued id. Re-using the id
  /// of a process queued for removal is allowed: that removal takes effect
  /// at once (SyncSimulator::add_process's behaviour).
  void add_process(std::unique_ptr<Process> process);
  /// Remove a process at the start of the next begun round.
  void remove_process(NodeId id);

  void set_chaos(std::shared_ptr<ChaosSchedule> chaos) { chaos_ = std::move(chaos); }
  void set_trace_recorder(std::shared_ptr<TraceRecorder> recorder) {
    recorder_ = std::move(recorder);
  }

  /// First half of a round: membership changes, delayed-message flush,
  /// inbox collection, process stepping, outbox wrapping.
  void begin_round();

  /// The local processes' sends of the current round, in global send order
  /// restricted to local senders (ascending sender id, then outbox
  /// position). Valid until finish_round() returns.
  [[nodiscard]] std::span<const Send> local_sends() const noexcept { return local_sends_; }

  /// Second half: merge the local stream with one stream per remote shard
  /// (each ascending by sender id; sender sets pairwise disjoint — any
  /// number of streams, order of the spans irrelevant) and deposit into the
  /// local mailboxes for delivery at the next begin_round().
  void finish_round(std::span<const std::vector<Send>> remote_streams);

  [[nodiscard]] Round round() const noexcept { return round_; }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }

  [[nodiscard]] Process* find(NodeId id);
  template <typename T>
  [[nodiscard]] T* get(NodeId id) {
    return dynamic_cast<T*>(find(id));
  }
  [[nodiscard]] std::vector<NodeId> member_ids() const;
  [[nodiscard]] std::size_t member_count() const noexcept { return members_.size(); }

 private:
  struct Member {
    std::unique_ptr<Process> process;
    Mailbox mailbox;
    std::vector<Message> scratch;
    Round joined_round = 0;
  };
  struct Dispatch {
    NodeId id = 0;
    Member* member = nullptr;
    std::span<const Message> inbox;
    std::vector<Outgoing> outbox;
    bool became_done = false;
  };

  std::map<NodeId, Member> members_;
  std::vector<std::unique_ptr<Process>> pending_joins_;
  std::vector<NodeId> pending_removals_;
  std::vector<Dispatch> dispatches_;
  std::vector<RouteTarget> targets_;  ///< dispatches_' receivers, same order
  std::vector<Send> local_sends_;

  Round round_ = 0;
  std::uint64_t seq_ = 0;  ///< local deposit-key counter (relative order only)
  Metrics metrics_;
  std::shared_ptr<ChaosSchedule> chaos_;
  std::shared_ptr<TraceRecorder> recorder_;

  // The lane filled by the last finish_round is read by this round's
  // inboxes while this round's finish_round fills the other.
  BroadcastLane lanes_[2];
  int fill_lane_ = 0;
  Router router_;
  RouteStage stage_;  ///< per-round staging, folded in finish_round
  DelayQueue delayed_;
};

}  // namespace idonly
