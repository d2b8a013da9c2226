#include "net/router.hpp"

#include <algorithm>

namespace idonly {

void RouteStage::clear() {
  fanout.reset();
  trace.clear();
  faults.clear();
  delayed.clear();
}

void Router::begin_round(Round round, const ChaosSchedule* chaos, const DelayHook* hook,
                         bool record_links, std::span<const RouteTarget> targets) {
  round_ = round;
  chaos_ = chaos != nullptr && chaos->phase_for(round).has_value() ? chaos : nullptr;
  hook_ = hook != nullptr && *hook ? hook : nullptr;
  verdicts_ = chaos_ != nullptr || hook_ != nullptr;
  record_ = record_links;
  targets_ = targets;
  sender_.reset();
  if (verdicts_ || record_) {
    if (unicasts_.size() < targets.size()) unicasts_.resize(targets.size());
  }
}

std::size_t Router::find(NodeId id) const noexcept {
  const auto it = std::lower_bound(targets_.begin(), targets_.end(), id,
                                   [](const RouteTarget& t, NodeId v) { return t.id < v; });
  if (it == targets_.end() || it->id != id) return targets_.size();
  return static_cast<std::size_t>(it - targets_.begin());
}

std::uint64_t Router::unicasts_to(std::size_t index) const noexcept {
  return unicasts_[index].epoch == epoch_ ? unicasts_[index].count : 0;
}

void Router::route(RouteStage& stage, const MessageRef& ref, std::optional<NodeId> to,
                   std::uint64_t key, BroadcastLane* lane, bool own_sender) {
  if (!to.has_value() && lane != nullptr && !lane->deposit(ref, key) && own_sender) {
    stage.fanout.dedup_hits += 1;
  }
  // A unicast whose recipient is gone, or owned by another lane or shard,
  // is not routed here.
  const std::size_t index = to.has_value() ? find(*to) : targets_.size();
  if (to.has_value() && index == targets_.size()) return;
  if (!verdicts_ && !record_) {
    // Quiet round: a broadcast is done once it is in the lane.
    if (to.has_value() && !targets_[index].mailbox->deposit(ref, key + 1)) {
      stage.fanout.dedup_hits += 1;
    }
    return;
  }

  if (sender_ != ref->sender) {
    sender_ = ref->sender;
    epoch_ += 1;
    broadcasts_ = 0;
    lane_entries_.clear();
  }
  if (to.has_value()) {
    const std::uint64_t sent = unicasts_to(index);
    unicasts_[index] = {epoch_, sent + 1};
    route_link(stage, targets_[index], ref, key, broadcasts_ + sent, Copy::kPrivate);
    return;
  }
  Copy copy = Copy::kLane;
  if (verdicts_) {
    // Lane dedup keeps the first of identical broadcasts from one sender, so
    // a repeat's faults apply to that first entry's receivers.
    if (std::find(lane_entries_.begin(), lane_entries_.end(), ref) != lane_entries_.end()) {
      copy = Copy::kCovered;
    } else {
      lane_entries_.push_back(ref);
    }
  }
  for (std::size_t t = 0; t < targets_.size(); ++t) {
    route_link(stage, targets_[t], ref, key, broadcasts_ + unicasts_to(t), copy);
  }
  broadcasts_ += 1;
}

void Router::route_link(RouteStage& stage, const RouteTarget& target, const MessageRef& ref,
                        std::uint64_t key, std::uint64_t link_seq, Copy copy) {
  const LinkEvent event{round_, ref->sender, target.id, link_seq};
  FaultDecision verdict;
  if (chaos_ != nullptr) {
    verdict = chaos_->peek(event);
    if (verdict.faulted()) stage.faults.emplace_back(event, verdict);
  }
  if (record_) stage.trace.push_back(make_link_verdict_record(event, verdict));
  if (!verdicts_) {
    if (copy == Copy::kPrivate && !target.mailbox->deposit(ref, key + 1)) {
      stage.fanout.dedup_hits += 1;
    }
    return;
  }

  Mailbox& mailbox = *target.mailbox;
  // A repeat whose lane entry this receiver lost must travel privately: the
  // receiver would otherwise miss a copy the sender sent it twice.
  if (copy == Copy::kCovered && mailbox.withholds(ref)) copy = Copy::kPrivate;
  if (verdict.drop) {
    if (copy == Copy::kLane) mailbox.withhold(ref, key);
    return;
  }
  Round extra = verdict.delay_rounds;
  if (extra == 0 && hook_ != nullptr) extra = (*hook_)(event.from, event.to, ref.get(), round_);
  switch (copy) {
    case Copy::kPrivate:
      // Duplicate-before-primary, each deduped against what the receiver
      // already holds this round.
      if (verdict.duplicate && !mailbox.deposit(ref, key)) stage.fanout.dedup_hits += 1;
      if (extra > 0) {
        stage.delayed.push_back({round_ + 1 + extra, target.id, ref});
      } else if (!mailbox.deposit(ref, key + 1)) {
        stage.fanout.dedup_hits += 1;
      }
      return;
    case Copy::kLane:
      if (extra > 0) {
        // A duplicate's first copy stays on time in the lane.
        if (!verdict.duplicate) mailbox.withhold(ref, key);
        stage.delayed.push_back({round_ + 1 + extra, target.id, ref});
      } else if (verdict.duplicate) {
        stage.fanout.dedup_hits += 1;
      }
      return;
    case Copy::kCovered:
      if (verdict.duplicate) stage.fanout.dedup_hits += 1;
      if (extra > 0) stage.delayed.push_back({round_ + 1 + extra, target.id, ref});
      return;
  }
}

void DelayQueue::hold(std::vector<DelayedCopy>& copies) {
  for (DelayedCopy& copy : copies) due_[copy.due].emplace_back(copy.to, std::move(copy.ref));
  copies.clear();
}

void DelayQueue::purge(NodeId to) {
  for (auto& [due, entries] : due_) {
    std::erase_if(entries, [to](const auto& entry) { return entry.first == to; });
  }
}

}  // namespace idonly
