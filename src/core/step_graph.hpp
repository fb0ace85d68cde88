// core/step_graph.hpp
//
// Dependency-aware step scheduling: Simulation::step() is expressed as an
// explicit graph of named phases (interpolator-load, push, accumulator
// unload, field advance, sort, ...) instead of a hard-coded serial
// sequence. Each phase declares the resources it reads and writes
// ("fields.eb", "acc", "particles.<species>", ...); edges declare
// execution order. validate() proves the graph safe before anything runs:
//
//   * no cycles, and
//   * every pair of phases whose declared sets conflict (write-write, or
//     read-write in either direction) is ordered by some directed path —
//     an undeclared race is a construction-time std::logic_error, not a
//     nondeterministic result.
//
// execute() then runs the graph on a persistent work-stealing pool
// (pk/stealing.hpp): whenever two phases are unordered they may run
// concurrently on different workers. Because every conflicting pair is
// ordered — and ordered edges are inserted to match the legacy serial
// sequence — a graph-scheduled step is bit-identical to the sequential
// one (tests/test_step_graph.cpp proves this on the LPI deck); the graph
// only exposes concurrency that cannot change results (e.g. the
// interpolator load against the accumulator clear, or per-species sorts).
// execute_serial() unrolls the same graph on the calling thread and is
// the reference schedule.
//
// This is the shape the task-based PIC ports take (ZPIC on OmpSs-2
// expresses the step loop as data-dependent tasks) and the enabling layer
// for the comm/compute overlap of DistributedSimulation (docs/ASYNC.md).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "pk/stealing.hpp"

namespace vpic::core {

/// One schedulable unit of a step. `reads`/`writes` name abstract
/// resources (any strings; conventionally "fields.eb", "fields.j",
/// "interp", "acc", "particles.<species>"). The body runs exactly once
/// per execute(), on an arbitrary pool worker.
struct StepPhase {
  std::string name;                 // unique, non-empty
  std::vector<std::string> reads;
  std::vector<std::string> writes;
  std::function<void()> fn;
  // Relative expected wall time, in any consistent unit (the tiled step
  // seeds it from tune-probed ns/particle * tile population). Only the
  // pool executor reads it, for LPT initial placement.
  double cost = 1.0;
};

/// Per-phase record of the most recent execute().
struct PhaseStats {
  std::string name;
  double seconds = 0;          // wall time of the phase body
  std::uint32_t instance_id = 0;  // pool worker that ran it
};

class StepGraph {
 public:
  /// Add a phase; returns its index. Throws std::invalid_argument on an
  /// empty or duplicate name.
  std::size_t add_phase(StepPhase phase);

  /// Declare that `before` must complete before `after` starts (phases
  /// named by their StepPhase::name). Throws std::invalid_argument on
  /// unknown names or a self-edge.
  void add_edge(std::string_view before, std::string_view after);

  /// Prove the graph schedulable: acyclic, and every conflicting pair
  /// ordered by a path. Throws std::logic_error naming the offending
  /// cycle member or the racing phase pair and resource. Idempotent;
  /// execute() calls it if it has not run since the last mutation.
  void validate() const;

  /// Run all phases on the CALLING thread, in phase insertion order
  /// (which by construction is the legacy serial sequence): the
  /// Sequential reference schedule — no pool, no concurrency, just the
  /// validated graph unrolled. Records PhaseStats (instance_id = 0).
  void execute_serial();

  /// Run all phases on a work-stealing pool (pk/stealing.hpp). Initially
  /// ready phases are placed LPT (longest `cost` first onto the
  /// least-loaded worker) so the expected load starts balanced; each
  /// completion spawns its newly-ready successors onto the completing
  /// worker's own deque, and idle workers steal the rest. Returns the
  /// round's steal stats (also retrievable from pool.last_stats()).
  /// After a phase throws, successors are not started; the first
  /// exception is rethrown once in-flight work drains.
  pk::StealStats execute(pk::StealPool& pool);

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }

  /// Wall time + placement of each phase in the most recent execute(),
  /// in phase insertion order. The driver aggregates these into its
  /// legacy push/sort second counters.
  [[nodiscard]] const std::vector<PhaseStats>& last_stats() const noexcept {
    return stats_;
  }

  /// Peak number of phases that were in flight simultaneously during the
  /// most recent execute() — the overlap telemetry for benches/tests.
  [[nodiscard]] std::size_t last_concurrency_peak() const noexcept {
    return concurrency_peak_;
  }

  /// GraphViz rendering of phases and edges (docs/ASYNC.md shows one).
  [[nodiscard]] std::string dot() const;

 private:
  struct Node {
    StepPhase phase;
    std::vector<std::size_t> succ;
    std::vector<std::size_t> pred;
  };

  [[nodiscard]] std::vector<std::vector<bool>> reachability() const;

  std::vector<Node> nodes_;
  std::map<std::string, std::size_t, std::less<>> by_name_;
  std::vector<PhaseStats> stats_;
  std::size_t concurrency_peak_ = 0;
  mutable bool validated_ = false;
};

}  // namespace vpic::core
