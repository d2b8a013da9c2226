// Deterministic chaos-injection schedules shared by every engine.
//
// A flat fault model that flips an independent coin per frame makes
// failures impossible to reproduce across engines: the sync simulator, the
// async simulator, and the runtime each consume randomness in a different
// order. A ChaosSchedule fixes that by
// making every fault verdict a PURE FUNCTION of (seed, link event): the
// engines merely describe each delivery attempt as a LinkEvent{round, from,
// to, seq} and ask `decide()` for the verdict. Same seed + same logical
// traffic ⇒ byte-identical fault trace, no matter which engine replays it or
// in which order its threads drain mailboxes.
//
// A schedule is a sequence of PHASES, each active over an inclusive round
// window: burst loss, duplication, delay distributions (jitter), one-byte
// corruption, bidirectional partitions between id sets, per-link asymmetric
// faults, and crash windows on endpoints (crash-and-rejoin: every frame to
// or from the node dies while the window is open, then traffic resumes —
// the id-only model explicitly tolerates the late rejoin). Self-delivery
// (from == to) is never faulted: a node's loopback is local memory, not
// wire, and every protocol in the library assumes it.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/types.hpp"

namespace idonly {

/// Jitter/delay distribution: with `probability`, hold the frame for a
/// uniform 1..max_extra_rounds extra rounds (the extra count is itself a
/// pure function of the link event, so it reproduces too).
struct DelaySpec {
  double probability = 0.0;
  Round max_extra_rounds = 1;
};

/// Bidirectional partition: every frame crossing between `side_a` and
/// `side_b` (either direction) is dropped while the phase is active. Nodes
/// listed on neither side are unaffected.
struct ChaosPartition {
  std::vector<NodeId> side_a;
  std::vector<NodeId> side_b;
};

/// Asymmetric per-link fault: extra probabilities applied ONLY to frames
/// from → to (not the reverse direction).
struct LinkFaultSpec {
  NodeId from = 0;
  NodeId to = 0;
  double drop = 0.0;
  double duplicate = 0.0;
  double delay = 0.0;
};

/// Crash window on an endpoint: while `first <= round <= last` every frame
/// from or to `node` is dropped. After `last` the node rejoins as a late
/// participant.
struct CrashWindow {
  NodeId node = 0;
  Round first = 1;
  Round last = 1;
};

/// One phase of a fault plan, active for rounds in [first_round, last_round]
/// inclusive. Probabilities compose: partition and crash verdicts are
/// checked first (deterministic, no coin), then drop, duplicate, delay, and
/// corrupt coins in that fixed order.
struct ChaosPhase {
  Round first_round = 1;
  Round last_round = 1;
  double drop = 0.0;
  double duplicate = 0.0;
  double corrupt = 0.0;
  DelaySpec delay;
  std::vector<ChaosPartition> partitions;
  std::vector<LinkFaultSpec> link_faults;
  std::vector<CrashWindow> crashes;
};

struct ChaosPlan {
  std::vector<ChaosPhase> phases;
};

/// One delivery attempt as described by an engine. `round` is the round the
/// message was SENT in (the sync simulator's current round; the runtime's
/// frame round header). `seq` disambiguates multiple sends over the same
/// (round, from, to) link — engines count it per link per round, so the
/// k-th send on a link gets the same verdict everywhere.
struct LinkEvent {
  Round round = 0;
  NodeId from = 0;
  NodeId to = 0;
  std::uint64_t seq = 0;
};

enum class FaultKind : std::uint8_t {
  kDrop,
  kDuplicate,
  kDelay,
  kCorrupt,
  kPartitionDrop,
  kCrashDrop,
};

[[nodiscard]] const char* to_string(FaultKind kind) noexcept;

/// Verdict for one delivery attempt. At most one of drop/duplicate is set;
/// delay and corrupt may combine with duplicate (both copies delayed /
/// corrupted — wire-level faults hit the frame, not a copy).
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  bool corrupt = false;
  Round delay_rounds = 0;   ///< extra rounds to hold the frame (0 = on time)
  int phase = -1;           ///< active phase index, -1 when no phase covers the round
  std::uint64_t entropy = 0;  ///< deterministic per-event word (corrupt position/bit)
  /// Which drop flavour fired (meaningful only when `drop`): crash window,
  /// partition, or the plain drop coin. Lets commit() reconstruct the exact
  /// fault records a verdict implies without re-deriving them.
  FaultKind drop_kind = FaultKind::kDrop;

  /// True when the verdict implies at least one fault record.
  [[nodiscard]] bool faulted() const noexcept {
    return drop || duplicate || corrupt || delay_rounds > 0;
  }
};

/// One recorded fault, in the order the engine asked. `canonical_trace()`
/// sorts these so drain order / thread interleaving cannot perturb the
/// byte-identical comparison across engines.
struct FaultRecord {
  Round round = 0;
  NodeId from = 0;
  NodeId to = 0;
  std::uint64_t seq = 0;
  FaultKind kind{};
  Round extra = 0;  ///< delay length for kDelay, 0 otherwise

  friend bool operator==(const FaultRecord&, const FaultRecord&) = default;
};

class ChaosSchedule {
 public:
  /// Validates the plan: all probabilities must be in [0, 1], round windows
  /// non-empty (first <= last), delay max_extra_rounds >= 1. Throws
  /// std::invalid_argument on violation.
  ChaosSchedule(ChaosPlan plan, std::uint64_t seed);

  /// Verdict for one delivery attempt — pure in (seed, plan, event); the
  /// only mutation is trace/counter recording (thread-safe). Equivalent to
  /// peek() + commit().
  [[nodiscard]] FaultDecision decide(const LinkEvent& event);

  /// The verdict alone — PURE and lock-free, safe to call concurrently from
  /// any number of merge lanes. Records nothing: pair with commit() /
  /// commit_batch() so the fault trace and counters still fill in.
  [[nodiscard]] FaultDecision peek(const LinkEvent& event) const noexcept;

  /// Record the fault trace entries and counters `verdict` implies (no-op
  /// for clean verdicts). One lock acquisition.
  void commit(const LinkEvent& event, const FaultDecision& verdict);

  /// Bulk commit under ONE lock — the merge lanes' flush path. Per-link
  /// record order is preserved within a batch; cross-batch order is
  /// engine-dependent, exactly like interleaved decide() calls (the
  /// canonical trace sorts it away).
  void commit_batch(std::span<const std::pair<LinkEvent, FaultDecision>> staged);

  /// Phase index covering `round`, or nullopt. Later phases win overlaps.
  [[nodiscard]] std::optional<std::size_t> phase_for(Round round) const noexcept;

  [[nodiscard]] const ChaosPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  /// Last round any phase is active; quiet after this (recovery window).
  [[nodiscard]] Round last_faulty_round() const noexcept { return last_faulty_round_; }

  /// Faults in the order they were decided (engine-dependent).
  [[nodiscard]] std::vector<FaultRecord> trace() const;
  /// Faults sorted by (round, from, to, seq, kind) — engine-independent.
  [[nodiscard]] std::vector<FaultRecord> canonical_trace() const;
  /// One line per canonical record — byte-comparable across runs/engines.
  [[nodiscard]] std::string canonical_trace_string() const;

  /// Injected-fault counters, one FaultCounters per phase (recovery fields
  /// are left zero — those belong to the runtime's drivers).
  [[nodiscard]] ChaosCounters counters() const;

  void clear_trace();

  /// The deterministic coin: uniform double in [0, 1) from (seed, event,
  /// salt). Exposed for tests; every verdict in decide() flows from it.
  [[nodiscard]] static double coin(std::uint64_t seed, const LinkEvent& event,
                                   std::uint64_t salt) noexcept;
  /// Deterministic 64-bit word from the same keying (delay lengths, corrupt
  /// positions).
  [[nodiscard]] static std::uint64_t word(std::uint64_t seed, const LinkEvent& event,
                                          std::uint64_t salt) noexcept;

 private:
  void commit_locked(const LinkEvent& event, const FaultDecision& verdict);
  void record_locked(const LinkEvent& event, FaultKind kind, std::size_t phase, Round extra);

  ChaosPlan plan_;
  std::uint64_t seed_ = 0;
  Round last_faulty_round_ = 0;
  mutable std::mutex mutex_;
  std::vector<FaultRecord> trace_;
  std::vector<FaultCounters> per_phase_;
};

}  // namespace idonly
