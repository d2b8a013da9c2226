// ChaosSchedule adapters for the simulators' fault-injection surfaces.
//
// The schedule itself is engine-agnostic (a pure verdict per LinkEvent);
// these helpers translate each engine's native hook into link events so the
// SAME schedule replays the SAME faults everywhere. The sync engines apply
// verdicts in their shared router (net/router.hpp, reached through
// SyncSimulator::set_chaos); this header covers the async engine.
#pragma once

#include <memory>

#include "common/chaos.hpp"
#include "common/trace.hpp"
#include "net/async_simulator.hpp"

namespace idonly {

/// Build a DelayModel for AsyncSimulator that consults `chaos`. Simulated
/// time is mapped onto rounds by `round_duration`: a message sent at time t
/// belongs to round floor(t / round_duration) + 1, and the baseline latency
/// is one round_duration (sent in round r ⇒ delivered in round r+1 — the
/// synchronous model realised on the async engine). Verdicts translate as:
/// drop ⇒ negative latency (never delivered), delay of k rounds ⇒ latency
/// (1 + k) · round_duration. Duplication and corruption cannot be expressed
/// through a latency return; the verdicts still land in the shared trace —
/// the cross-engine reproducibility contract — and the engine applies the
/// subset it can represent.
///
/// Sequence numbers count per (round, from, to) link inside the returned
/// closure, so the k-th send on a link keys identically to the other
/// engines. The model is stateful; use one instance per simulator run.
[[nodiscard]] DelayModel make_chaos_delay_model(std::shared_ptr<ChaosSchedule> chaos,
                                                Time round_duration);

/// Same, with a flight recorder: every verdict the model asks for is also
/// recorded as a canonical link record, so the async engine's
/// `canonical_jsonl()` is byte-comparable with the other engines' traces.
/// Pass a null recorder to get the plain model.
[[nodiscard]] DelayModel make_chaos_delay_model(std::shared_ptr<ChaosSchedule> chaos,
                                                Time round_duration,
                                                std::shared_ptr<TraceRecorder> recorder);

}  // namespace idonly
