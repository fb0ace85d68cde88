// farm/job.hpp
//
// Job model of the vpic::farm run farm (docs/FARM.md): a job is a deck —
// a factory producing a ready-to-run core::Simulation — plus a step
// budget and scheduling parameters. Decks stay decoupled from the engine
// that multiplexes them (the chombo-discharge "solvers behind stable
// interfaces" idea): the scheduler only ever sees the Simulation API
// (run_until / checkpoint / restore_latest), never deck internals.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/simulation.hpp"

namespace vpic::farm {

/// Lifecycle of a job (docs/FARM.md has the transition diagram).
///   Queued    — runnable; a live Simulation may be resident from an
///               earlier slice (ordinary yield keeps it warm).
///   Running   — a worker is stepping it right now.
///   Preempted — runnable, but its engine state was checkpointed to the
///               per-job ring and the Simulation released; the next slice
///               rebuilds from the deck factory and restores.
///   Paused    — not runnable until resume(); state parked in the ring.
///   Completed / Cancelled / Failed — terminal.
enum class JobState : std::uint8_t {
  Queued,
  Running,
  Preempted,
  Paused,
  Completed,
  Cancelled,
  Failed,
};

const char* to_string(JobState s) noexcept;

/// Everything the farm needs to run one simulation job.
struct JobSpec {
  /// Unique within a Scheduler; also names the per-job checkpoint ring
  /// and the "job.<name>." prof counter scope.
  std::string name;
  /// Deck factory: builds the simulation from scratch, deterministically.
  /// Called once on first run and again after every preemption (the
  /// rebuilt simulation is then restored from the ring), so it must
  /// produce the same deck/config each time — restore verifies the
  /// config fingerprint and throws on drift.
  std::function<core::Simulation()> make;
  /// The job is complete when step_count() reaches this.
  std::int64_t total_steps = 0;
  /// Strict scheduling class: a runnable higher-priority job preempts a
  /// lower-priority running one when no worker is idle.
  int priority = 0;
  /// Fair-share weight within a priority class: a weight-2 job receives
  /// twice the simulation steps of a weight-1 peer under contention.
  int weight = 1;
  /// Per-job generation ring base for preemption/pause checkpoints.
  /// Empty: "<Scheduler ring_dir>/<name>".
  std::string ckpt_base;
  int ckpt_keep_last = 2;
  /// Observer called after every completed slice with the quiescent
  /// simulation (in-situ diagnostics, steering experiments). Runs on the
  /// worker thread; must not call back into the Scheduler.
  std::function<void(const core::Simulation&)> on_slice;
  /// Called once with the final simulation state right before the farm
  /// releases it (final outputs, state checksums). Worker thread; may
  /// not call back into the Scheduler.
  std::function<void(core::Simulation&)> on_complete;
};

/// Point-in-time public view of a job (Scheduler::snapshot, StatusBus).
/// Energies are sampled at slice boundaries — the in-situ diagnostics the
/// StatusBus streams — never concurrently with a stepping engine.
struct JobStatus {
  std::string name;
  JobState state = JobState::Queued;
  std::int64_t step = 0;
  std::int64_t total_steps = 0;
  int priority = 0;
  int weight = 1;
  std::int64_t slices = 0;
  std::int64_t preemptions = 0;   // checkpoint-and-release yields
  std::int64_t restores = 0;      // factory-rebuild + ring restores
  std::int64_t checkpoints = 0;   // ring generations written
  std::int64_t rescales = 0;      // Scheduler::rescale calls accepted
  int rescale_workers = 0;        // active worker override (0: deck default)
  int rescale_tiles = 0;          // active tile-count override (0: auto)
  /// Step at which the engine rebuilt at the latest rescale's shape
  /// resumed (its restored step count); -1 until that rescale took
  /// effect.
  std::int64_t rescaled_at_step = -1;
  double vtime = 0;               // weighted fair-queueing virtual time
  double field_energy = 0;        // last slice-boundary sample
  std::vector<double> kinetic;    // per species, same sample
  /// Submit-to-terminal wall latency (seconds); 0 until terminal.
  double latency_s = 0;
  std::string error;              // what() of the failure, state Failed
};

}  // namespace vpic::farm
