// Synchronous round-based network simulator — the paper's system model.
//
// Semantics (paper §Model):
//   * Computation proceeds in lock-step rounds; a message sent in round r is
//     delivered at the start of round r+1.
//   * Broadcast reaches *every* current member, including the sender (the
//     self-inclusive reading is explicit in Alg. 4 and implicit in every
//     quorum count of the proofs).
//   * Duplicate identical messages from one sender within a round are
//     discarded at the receiver.
//   * Membership may change between rounds (dynamic networks, §Application
//     to Dynamic Networks): joins become effective at the start of the next
//     round, removals at the end of the current one.
//
// Determinism: processes are stepped in ascending id order and all protocol
// randomness flows from explicit seeds, so a (scenario, seed) pair replays
// bit-identically. With set_threads(k > 1) BOTH halves of a round run on a
// persistent worker pool (net/parallel_exec.hpp): processes fill private
// outbox slabs in parallel, then the destination slots are partitioned into
// contiguous per-worker merge LANES and every lane routes its receivers'
// traffic concurrently through a Router (net/router.hpp). There is no
// sequential replay pass — order-sensitive effects are reconstructed from
// precomputed deterministic keys (send ordinals over the global send order,
// per-sender link counters) or staged per lane and committed in lane order,
// so sequence stamps, chaos verdicts, and trace records are bit-identical to
// the sequential engine for every thread count (DESIGN.md §8 gives the
// argument).
//
// One engine, any slice of ids: a round is begin_round() (membership,
// delayed release, inbox assembly, stepping) then finish_round(remote
// streams) (the merge). step() is begin_round() + finish_round({}). A shard
// worker (dist/shard_worker.hpp) holds a simulator that owns only its slice
// of the ids, ships for_each_local_send()'s traffic to its peers, and hands
// theirs back as remote streams; the merge interleaves them with the local
// sends by sender id, so every process sees the inbox it would see in one
// simulator over all ids (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/chaos.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "common/types.hpp"
#include "net/mailbox.hpp"
#include "net/parallel_exec.hpp"
#include "net/process.hpp"
#include "net/router.hpp"

namespace idonly {

class SyncSimulator {
 public:
  SyncSimulator() = default;

  /// Register a process; it participates from the next executed round.
  /// Throws std::invalid_argument when a live or already-queued process
  /// holds the same id. Re-using the id of a process queued for removal is
  /// allowed (the removal lands first at the next step).
  void add_process(std::unique_ptr<Process> process);

  /// Remove a process after the current round (its messages already sent
  /// this round are still delivered). No-op when the id is unknown.
  void remove_process(NodeId id);

  /// Execute one synchronous round: begin_round() then finish_round({}).
  void step();

  /// One message of a round's traffic as the merge sees it: `to` empty →
  /// broadcast. The sender is stamped inside the ref'd message.
  struct Send {
    std::optional<NodeId> to;
    MessageRef ref;
  };

  /// First half of a round: removals, joins, delayed release, lane flip,
  /// inbox assembly, and stepping every local process. The round's local
  /// sends are then readable through for_each_local_send().
  void begin_round();

  /// Call `fn(const Send&)` for every send of the round begun last, in
  /// global send order restricted to the local processes (ascending sender
  /// id, then outbox position). Valid until finish_round() returns.
  template <typename Fn>
  void for_each_local_send(Fn&& fn) const {
    for (const Dispatch& dispatch : dispatches_) {
      for (const Send& send : dispatch.sends) fn(send);
    }
  }

  /// Second half: route the round's global traffic — the local sends merged
  /// with `remote_streams` in ascending sender id, then outbox position —
  /// into the broadcast lane and the local mailboxes, then fold the round's
  /// counters, verdicts and records. Each remote stream is ascending by
  /// sender; sender sets are pairwise disjoint and disjoint from the local
  /// processes; the order of the streams is irrelevant. A remote broadcast
  /// enters the lane, and a remote unicast reaches only a local receiver.
  /// A round fed remote streams merges in one lane.
  void finish_round(std::span<const std::vector<Send>> remote_streams);

  /// Shard the per-round process stepping across `threads` threads (1 =
  /// sequential, the default). The observable execution — delivery order,
  /// sequence stamps, chaos verdicts, traces — is identical for every
  /// value; only wall-clock changes. May be called between rounds.
  void set_threads(unsigned threads);
  [[nodiscard]] unsigned threads() const noexcept { return threads_; }

  /// Execute rounds until `pred()` is true or `max_rounds` elapse; returns
  /// true when the predicate fired.
  bool run_until(const std::function<bool()>& pred, Round max_rounds);

  /// Execute until every non-Byzantine process reports done(); returns true
  /// on success within `max_rounds`.
  bool run_until_all_correct_done(Round max_rounds);

  void run_rounds(Round count);

  [[nodiscard]] Round round() const noexcept { return round_; }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }

  /// One routed message as observed by the engine (post sender-stamping).
  struct TraceEntry {
    Round round = 0;                ///< round in which the message was SENT
    NodeId from = 0;
    std::optional<NodeId> to;       ///< empty → broadcast
    Message msg;
  };

  /// Synchrony-fault injection: return how many EXTRA rounds to delay this
  /// message (0 = normal next-round delivery). Delaying traffic between
  /// correct nodes deliberately violates the paper's model — the hook exists
  /// to demonstrate, constructively, that the algorithms *need* the
  /// synchrony assumption (experiment E6). Unset by default. The hook is
  /// asked once per link, in send order, in every round while installed.
  using DelayHook = idonly::DelayHook;
  void set_delay_hook(DelayHook hook) { delay_hook_ = std::move(hook); }

  /// Install a shared chaos schedule (common/chaos.hpp). In every round a
  /// chaos phase covers, each delivery attempt — every link of a broadcast
  /// and every unicast — is keyed as a LinkEvent{sent_round, from, to,
  /// per-link seq} and the schedule's verdict applied (net/router.hpp):
  /// broadcasts still go once into the shared lane, and a drop or delay
  /// only withholds that lane entry from its receiver, a delay also queueing
  /// a delayed private copy; a duplicate's second copy dies in the model's
  /// per-round dedup (the verdict still lands in the shared trace, which is
  /// the cross-engine contract). Rounds outside every phase compute no
  /// verdicts and route exactly like a run without chaos. Corruption cannot
  /// mangle a typed Message; it is recorded in the trace only. Self-delivery
  /// is never faulted.
  void set_chaos(std::shared_ptr<ChaosSchedule> chaos) { chaos_ = std::move(chaos); }
  [[nodiscard]] const std::shared_ptr<ChaosSchedule>& chaos() const noexcept { return chaos_; }

  /// Attach a flight recorder (common/trace.hpp): every send, every
  /// delivery, and — when a chaos schedule is installed — one link verdict
  /// per link, kLinkClean included. Off (null) by default; the recorder
  /// never changes what is routed.
  void set_trace_recorder(std::shared_ptr<TraceRecorder> recorder) {
    recorder_ = std::move(recorder);
  }
  [[nodiscard]] const std::shared_ptr<TraceRecorder>& trace_recorder() const noexcept {
    return recorder_;
  }

  /// Start recording every routed message (ring-buffered at `capacity`).
  /// Intended for tests and debugging; off by default.
  void enable_trace(std::size_t capacity = 1 << 20);
  [[nodiscard]] const std::deque<TraceEntry>& trace() const noexcept { return trace_; }
  /// Render the trace (optionally restricted to one round) for debugging.
  [[nodiscard]] std::string dump_trace(std::optional<Round> only_round = std::nullopt) const;

  /// Live process lookup (nullptr when absent). The returned pointer stays
  /// valid until the process is removed.
  [[nodiscard]] Process* find(NodeId id);
  [[nodiscard]] const Process* find(NodeId id) const;

  /// Typed convenience lookup: `sim.get<ConsensusProcess>(id)`.
  template <typename T>
  [[nodiscard]] T* get(NodeId id) {
    return dynamic_cast<T*>(find(id));
  }

  /// Sorted live-member ids. Served from a cache invalidated on membership
  /// change (run_until predicates may call this every round).
  [[nodiscard]] const std::vector<NodeId>& member_ids() const;
  [[nodiscard]] std::size_t member_count() const noexcept { return members_.size(); }

  /// Iterate live correct (non-Byzantine) processes.
  void for_each_correct(const std::function<void(Process&)>& fn);

 private:
  struct Member {
    std::unique_ptr<Process> process;
    Round joined_round = 0;        // global round of first participation
    Mailbox mailbox;               // receiver-specific traffic (unicasts, delays)
    std::vector<Message> scratch;  // merge buffer, reused across rounds
  };

  /// One member's slice of a round, assembled before anyone steps. The
  /// outbox slab, wrapped refs, and done flags live here so the parallel
  /// phases touch only private state; dispatches_ persists across rounds
  /// (the round arena — slab/scratch capacity is reused, steady-state rounds
  /// allocate nothing).
  struct Dispatch {
    NodeId id = 0;
    Member* member = nullptr;
    std::span<const Message> inbox;
    std::vector<Outgoing> outbox;     // private slab filled by on_round
    std::vector<Send> sends;          // outbox wrapped (stamped + hashed), same order
    bool became_done = false;
  };

  /// Per-lane scratch state for the parallel merge: every order-sensitive
  /// side effect a lane produces is either keyed deterministically (mailbox
  /// deposits) or staged here lock-free and folded into the shared engine
  /// state in lane order by the sequential epilogue. Cache-line aligned so
  /// concurrent lanes never false-share counters.
  struct alignas(64) LaneArena {
    MessageCounters messages;  // delivered (inbox phase) + sent (merge phase)
    RouteStage stage;          // fanout, recorder records (per-ring order), faults, delays
    Router router;             // this lane's receivers
    std::vector<TraceEntry> debug_stage;  // enable_trace() ring entries
  };

  /// Run `fn(0..count)` on the pool when it exists (and count warrants it),
  /// inline otherwise.
  void run_tasks(std::size_t count, const std::function<void(std::size_t)>& fn);
  /// Phase 3 for one lane: walk every message in global send order — local
  /// and remote — and apply the effects this lane owns (sender-side
  /// bookkeeping and lane deposits for its senders, verdicts and exceptions
  /// for its receivers). See DESIGN.md §8.
  void merge_lane(std::size_t lane_index, std::span<const std::vector<Send>> remote_streams);

  std::map<NodeId, Member> members_;                 // ordered → deterministic stepping
  std::vector<std::unique_ptr<Process>> pending_joins_;
  std::vector<NodeId> pending_removals_;
  std::vector<Dispatch> dispatches_;                 // round arena, reused across rounds
  std::vector<RouteTarget> targets_;                 // dispatches_' receivers, same order
  std::vector<LaneArena> arenas_;                    // lane arenas, reused across rounds
  std::vector<std::size_t> lane_starts_;  // lane l owns slots [starts[l], starts[l+1])
  std::size_t lane_count_ = 1;            // lanes (arenas) planned by begin_round
  unsigned threads_ = 1;
  std::unique_ptr<ParallelExecutor> executor_;       // live iff threads_ > 1
  mutable std::vector<NodeId> member_ids_cache_;
  mutable bool member_ids_dirty_ = true;
  Round round_ = 0;
  Metrics metrics_;
  bool tracing_ = false;
  std::size_t trace_capacity_ = 0;
  std::deque<TraceEntry> trace_;
  DelayHook delay_hook_;
  std::shared_ptr<ChaosSchedule> chaos_;
  std::shared_ptr<TraceRecorder> recorder_;
  // Broadcast fan-out goes through the shared mailbox layer: one deposit per
  // broadcast instead of a copy per receiver. Two sharded lanes alternate:
  // the one sealed last step is consumed (all members read its flat view)
  // while this step's merge lanes fill the other, one segment per lane.
  ShardedLane lanes_[2];
  int fill_lane_ = 0;    // index of the lane collecting this step's sends
  std::uint64_t seq_ = 0;  // global send-order stamp for lane/mailbox merging
  DelayQueue delayed_;
};

}  // namespace idonly
