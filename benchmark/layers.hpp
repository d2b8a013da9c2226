// Layer-by-layer instrumentation for the benchmark's traced runs.
//
// Everything here times calls INTO the library's public functions from the
// benchmark's own code; nothing inside src/ is instrumented:
//
//   * TimedProcess decorates a Process and times its on_round(), so the
//     protocol (`core`) and adversary layers' busy time is separated from
//     the engine (`net`) time of each SyncSimulator::step() around it.
//   * drive_script() is the direct layer drive: make_scenario, populate and
//     SyncSimulator::step in a loop that mirrors run_script's consensus and
//     totalorder runners, so its results must equal run_script's exactly.
//   * drive_shards() runs the ShardWorkers of a sharded run in one process
//     and times begin_round, decode_peer_slab and merge_round per shard.
//
// Spans are kept in per-thread in-memory buffers and written out at the end
// (write_chrome_trace), never during a measured run.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "harness/script.hpp"
#include "net/process.hpp"

#include "bench_logic.hpp"

namespace bench {

[[nodiscard]] std::int64_t now_ns();

enum class SpanKind : std::uint8_t {
  kOnRound,           ///< a correct process's on_round
  kAdversaryOnRound,  ///< a Byzantine process's on_round
  kStep,              ///< one SyncSimulator::step
  kBeginRound,        ///< ShardWorker::begin_round
  kDecode,            ///< ShardWorker::decode_peer_slab
  kMerge,             ///< ShardWorker::merge_round
  kGenerate,          ///< ScenarioGenerator::generate
  kRunScript,         ///< run_script
};

[[nodiscard]] const char* to_string(SpanKind kind);

struct Span {
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t round = 0;
  std::uint32_t pid = 0;  ///< shard index; 0 for in-process runs
  std::uint32_t tid = 0;  ///< recording thread (assigned by the sink)
  SpanKind kind = SpanKind::kOnRound;
};

/// Collects spans from any number of threads. Each thread appends to its own
/// buffer; the lock is taken once per thread, when its buffer is created.
/// collect() must only run while no thread is recording.
class SpanSink {
 public:
  SpanSink();
  SpanSink(const SpanSink&) = delete;
  SpanSink& operator=(const SpanSink&) = delete;

  void record(Span span);
  [[nodiscard]] std::vector<Span> collect() const;

 private:
  std::vector<Span>& buffer();

  std::uint64_t epoch_ = 0;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;  // guarded by mutex_
};

/// Forwarding decorator that times on_round into a SpanSink.
class TimedProcess final : public idonly::Process {
 public:
  TimedProcess(std::unique_ptr<idonly::Process> inner, SpanSink& sink);

  void on_round(idonly::RoundInfo round, std::span<const idonly::Message> inbox,
                std::vector<idonly::Outgoing>& out) override;
  [[nodiscard]] bool done() const override { return inner_->done(); }
  [[nodiscard]] bool byzantine() const override { return inner_->byzantine(); }

 private:
  std::unique_ptr<idonly::Process> inner_;
  SpanSink& sink_;
  bool byzantine_ = false;
};

/// One SyncSimulator::step as seen from the drive.
struct StepTiming {
  Interval wall;
  std::uint64_t round = 0;
  bool chaos_round = false;  ///< inside some chaos phase's round window
};

struct DriveResult {
  RunOutcome outcome;
  idonly::Metrics metrics;
  std::uint64_t faults = 0;  ///< injected chaos faults, all phases
  std::int64_t build_ns = 0;  ///< make_scenario + populate
  Interval wall;              ///< the whole drive, build included
  std::vector<StepTiming> steps;
};

/// Run a consensus or totalorder script through make_scenario, populate and
/// SyncSimulator::step with `threads` engine threads, mirroring run_script's
/// round loop and checks. With a sink, every process is wrapped in a
/// TimedProcess and each step is recorded. Throws std::invalid_argument for
/// other protocols.
[[nodiscard]] DriveResult drive_script(const idonly::ScenarioScript& script, unsigned threads,
                                       SpanSink* sink);

/// Per-shard, per-round compute of an in-process sharded drive.
struct ShardDriveResult {
  RunOutcome outcome;
  std::int64_t build_ns = 0;  ///< ShardWorker construction (script rebuild), summed
  std::vector<std::int64_t> begin_round_ns;  ///< per shard
  std::vector<std::int64_t> decode_ns;       ///< per shard
  std::vector<std::int64_t> merge_ns;        ///< per shard
  std::int64_t critical_path_ns = 0;  ///< per round the slowest shard's compute, summed
  std::int64_t compute_ns = 0;        ///< all shards' compute, summed
  std::uint64_t slab_bytes = 0;       ///< cross-shard slab bytes, all rounds
  Interval wall;
};

/// Drive the `shards` ShardWorkers of a consensus script in this process,
/// with the coordinator's early-exit policy. With a sink, begin_round,
/// decode_peer_slab and merge_round are timed per shard (pid = shard);
/// without one no clock is read inside the round loop.
[[nodiscard]] ShardDriveResult drive_shards(const std::string& script_text,
                                            std::uint32_t shards, SpanSink* sink);

/// Canonical rendering of consensus decisions for RunOutcome::decisions.
[[nodiscard]] std::string render_decisions(std::size_t tracked,
                                           const std::vector<idonly::Value>& outputs);

/// Write spans as Chrome trace-event "X" records (pid = shard, tid = thread).
void write_chrome_trace(const std::string& path, const std::vector<Span>& spans);

}  // namespace bench
