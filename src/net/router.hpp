// Pay-per-fault routing: the one routing step of every synchronous engine.
//
// In the paper's synchronous model a broadcast reaches every member, so the
// only receiver-specific traffic is what an injected fault makes so. The
// router therefore deposits every broadcast ONCE into the round's shared
// BroadcastLane, and a chaos verdict only leaves a sparse per-receiver
// exception in that receiver's Mailbox:
//
//   drop               withhold the lane entry from that receiver;
//   delay              withhold it and queue a delayed private copy;
//   duplicate          the second copy dies in dedup — one dedup hit;
//   duplicate + delay  the lane copy stays and a delayed copy is queued.
//
// Unicasts are receiver-specific by nature: they go to the receiver's
// mailbox, with the same verdicts applied. Verdicts are computed only in
// rounds a chaos phase covers or while a delay hook is installed, so a quiet
// round costs O(sends) whatever schedule is installed, and a faulty round
// costs one coin per link plus O(faults) deposits.
//
// Link sequence numbers (LinkEvent::seq: the k-th send on a (round, from, to)
// link) come from per-sender counters — broadcasts so far plus unicasts so
// far to that receiver — since every broadcast is one send on every link. An
// attached recorder gets one link-verdict record per link (kLinkClean
// included) but never changes what is routed.
//
// SyncSimulator runs one Router per parallel merge lane, ShardEngine one for
// its single merge; both feed it the round's messages in global send order
// (ascending sender id, then outbox position), so counters, verdicts and
// staged side effects are the same for every thread and shard count
// (DESIGN.md §8, §12).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/chaos.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "common/types.hpp"
#include "net/mailbox.hpp"

namespace idonly {

/// Synchrony-fault injection: how many EXTRA rounds to hold one link's copy
/// of a message (0 = normal next-round delivery).
using DelayHook =
    std::function<Round(NodeId from, NodeId to, const Message& msg, Round sent_round)>;

/// One receiver a router may deliver to.
struct RouteTarget {
  NodeId id = 0;
  Mailbox* mailbox = nullptr;
};

/// A private copy held back by a delay verdict until round `due`.
struct DelayedCopy {
  Round due = 0;
  NodeId to = 0;
  MessageRef ref;
};

/// A merge lane's staged side effects, folded into the engine in lane order.
/// The engine stages its own records and counters here too.
struct RouteStage {
  FanoutCounters fanout;
  std::vector<TraceRecord> trace;
  std::vector<std::pair<LinkEvent, FaultDecision>> faults;  ///< faulted verdicts only
  std::vector<DelayedCopy> delayed;

  void clear();
};

class Router {
 public:
  /// Start one sent-round of routing to `targets` (ascending id: the lane's
  /// receivers). `chaos` and `hook` may be null; `record_links` stages one
  /// link-verdict record per link. Keeps capacity across rounds.
  void begin_round(Round round, const ChaosSchedule* chaos, const DelayHook* hook,
                   bool record_links, std::span<const RouteTarget> targets);

  /// Route one message (sender stamped in `ref`), called in global send
  /// order. `key` is the message's deposit key: a duplicate copy takes
  /// `key`, the primary `key + 1`. A broadcast is deposited into `lane` when
  /// non-null; `own_sender` marks the lane that accounts the sender side.
  void route(RouteStage& stage, const MessageRef& ref, std::optional<NodeId> to,
             std::uint64_t key, BroadcastLane* lane, bool own_sender);

 private:
  /// How one link's copy reaches its receiver absent a fault.
  enum class Copy : std::uint8_t {
    kPrivate,  ///< through the receiver's mailbox (unicasts)
    kLane,     ///< this broadcast is the receiver's lane entry
    kCovered,  ///< an identical broadcast from the sender already holds the lane entry
  };

  void route_link(RouteStage& stage, const RouteTarget& target, const MessageRef& ref,
                  std::uint64_t key, std::uint64_t link_seq, Copy copy);
  /// Index of `id` in targets_, or targets_.size() when it is not a target.
  [[nodiscard]] std::size_t find(NodeId id) const noexcept;
  [[nodiscard]] std::uint64_t unicasts_to(std::size_t index) const noexcept;

  Round round_ = 0;
  const ChaosSchedule* chaos_ = nullptr;  ///< non-null only while a phase covers round_
  const DelayHook* hook_ = nullptr;
  bool verdicts_ = false;  ///< a fault can fire this round
  bool record_ = false;
  std::span<const RouteTarget> targets_;

  // Per-sender link counters; a sender's messages arrive contiguously.
  std::optional<NodeId> sender_;
  std::uint64_t epoch_ = 0;       ///< bumped per sender; stamps unicasts_
  std::uint64_t broadcasts_ = 0;  ///< the current sender's broadcasts so far
  std::vector<MessageRef> lane_entries_;  ///< its distinct broadcasts (verdict rounds)
  struct UnicastCount {
    std::uint64_t epoch = 0;
    std::uint64_t count = 0;
  };
  std::vector<UnicastCount> unicasts_;  ///< per target, valid when epoch matches
};

/// Private copies held back by delay verdicts, keyed by due round.
class DelayQueue {
 public:
  /// Take over a lane's staged copies (leaves `copies` empty).
  void hold(std::vector<DelayedCopy>& copies);

  /// The receiver left: its in-flight copies die with it, so a later process
  /// re-using the id never inherits them.
  void purge(NodeId to);

  /// Deposit every copy due by `round` into its receiver's mailbox, behind
  /// the routed traffic (fresh keys from `seq`). `mailbox_of(id)` returns
  /// null for a receiver that is gone.
  template <typename MailboxOf>
  void release(Round round, MailboxOf&& mailbox_of, std::uint64_t& seq,
               FanoutCounters& fanout) {
    for (auto it = due_.begin(); it != due_.end() && it->first <= round;) {
      for (auto& [to, ref] : it->second) {
        Mailbox* mailbox = mailbox_of(to);
        if (mailbox != nullptr && !mailbox->deposit(ref, seq++)) fanout.dedup_hits += 1;
      }
      it = due_.erase(it);
    }
  }

 private:
  std::map<Round, std::vector<std::pair<NodeId, MessageRef>>> due_;
};

}  // namespace idonly
