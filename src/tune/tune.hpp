// tune/tune.hpp
//
// vpic::tune — startup autotuning of the hot-path dispatch cost models
// (docs/LAYOUT.md, "Autotuning"). The engine's two runtime dispatch
// decisions — run-aware vs generic push (core::active_push_gates, one set
// of gates per particle layout) and counting vs radix sort
// (sort::active_sort_model) — historically used hand-picked constants.
// This module replaces them with values measured on the actual host:
//
//  * micro-probes (< ~50 ms total, run once per process) time the real
//    push kernels per layout at long and short same-cell run lengths and
//    the real counting/radix sorters at two key bounds, then solve the
//    crossover models for the gate values;
//  * results are persisted in a versioned JSON cache ("VPICTUNE1") keyed
//    by a host/build fingerprint (hostname, thread count, SIMD ISA/width,
//    compiler, AoSoA tile width), so later runs on the same host skip the
//    probes;
//  * a corrupt, unreadable, or stale-fingerprint cache NEVER aborts the
//    run: loading yields a typed TuneError, the built-in defaults (or
//    fresh probes) are used instead, and the event is visible as a
//    vpic::prof counter ("tune.cache.corrupt" / "tune.cache.stale").
//
// Environment knob VPIC_TUNE:
//   off      — skip probing and the cache; keep built-in defaults.
//   force    — re-probe even when a valid cache exists, then rewrite it.
//   <path>   — use <path> as the cache file (default ".vpic_tune.json").
//
// Entry point: ensure_initialized() — idempotent, thread-safe via static
// init, called from Simulation's constructor so every deck, test and
// bench runs tuned without wiring.
#pragma once

#include <optional>
#include <string>

#include "core/push_tuning.hpp"

namespace vpic::tune {

// ---------------------------------------------------------------------------
// Typed cache-load failure (satellite requirement: fall back, don't abort).
// ---------------------------------------------------------------------------

enum class TuneErrorKind : std::uint8_t {
  IoError,           // file missing/unreadable (normal on first run)
  BadSchema,         // not a VPICTUNE1 document
  Parse,             // structurally broken JSON / missing or non-numeric key
  StaleFingerprint,  // valid cache from a different host/build
  OutOfRange,        // parsed values outside the sane clamp ranges
};

const char* to_string(TuneErrorKind k) noexcept;

struct TuneError {
  TuneErrorKind kind = TuneErrorKind::IoError;
  std::string detail;
};

// ---------------------------------------------------------------------------
// Tuned values + provenance.
// ---------------------------------------------------------------------------

enum class Source : std::uint8_t {
  Defaults,  // VPIC_TUNE=off, or probing was impossible
  Cache,     // loaded from a fingerprint-matching VPICTUNE1 file
  Probes,    // measured this process (cache miss/stale/corrupt or force)
};

const char* to_string(Source s) noexcept;

struct TuneState {
  Source source = Source::Defaults;
  std::string cache_path;   // resolved cache file ("" when disabled)
  std::string fingerprint;  // this host/build's fingerprint string
  // Why a present cache file was not used (unset on hit / first run).
  std::optional<TuneError> cache_error;
  core::PushGates gates[core::kNumParticleLayouts];
  core::SortDispatchModel sort_model;
  // Measured generic-push cost (seconds per particle) per layout, from
  // the same probe that solves the gates. 0 = unknown (defaults / old
  // cache file without the field) — consumers fall back to uniform
  // costs. Used to seed tile-task placement (docs/TILES.md).
  double push_cost_s[core::kNumParticleLayouts] = {};
};

// ---------------------------------------------------------------------------
// Pieces, exposed for tests and the layout_autotune bench.
// ---------------------------------------------------------------------------

/// Host/build identity string, e.g. "vpictune1;host=node12;
/// probe=serial-tile;threads=8;isa=avx2;w=8;tile=8;compiler=gcc-13".
/// Any field changing invalidates cached probe results; `probe` names the
/// push kernels the gates were measured on.
[[nodiscard]] std::string host_fingerprint();

/// Resolve the cache path from VPIC_TUNE (empty => tuning disabled).
[[nodiscard]] std::string default_cache_path();

/// Probe the run-aware push crossover for one layout. Times the step's
/// serial tile kernels (advance_range_serial and advance_runs_serial over
/// sort::segment_runs, into a one-tile TileAccumulator, on the calling
/// thread) under core::kDefaultStrategy on a synthetic cell-resident
/// species at long and short run lengths, then solves
///   cost_run(r) = c_inf + c_overhead / r  ==  cost_generic
/// for the break-even mean run length. All outputs are clamped:
/// min_particles in [64, 4096], max_stale in [8, 256], min_mean_run in
/// [2, 16] — so a noisy probe can bias dispatch but never disable a path
/// outright.
/// When `gen_cost_s` is non-null it receives the measured generic-push
/// cost in seconds per particle (TuneState::push_cost_s).
[[nodiscard]] core::PushGates probe_push_gates(core::ParticleLayout layout,
                                               double* gen_cost_s = nullptr);

/// Probe the counting-vs-radix crossover: fit the counting sort's
/// per-cell cost from two timed bounds, time the radix fallback, and
/// solve for the histogram-cell budget. Clamped: cells_per_n in
/// [1/64, 1], cells_floor in [2^14, 2^22].
[[nodiscard]] core::SortDispatchModel probe_sort_model();

/// Serialize a state to the VPICTUNE1 JSON document.
[[nodiscard]] std::string encode_cache(const TuneState& s);

/// Parse `text` against `expect_fingerprint`. On success fills gates +
/// sort_model in `out` and returns nullopt; otherwise returns the typed
/// error and leaves `out` untouched.
[[nodiscard]] std::optional<TuneError> decode_cache(
    const std::string& text, const std::string& expect_fingerprint,
    TuneState& out);

// ---------------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------------

/// Idempotent process-wide initialization: resolve VPIC_TUNE, load or
/// probe, install the results into core::active_push_gates() /
/// sort::active_sort_model(), and fire the prof counters. Returns the
/// resulting state (stable reference for the process lifetime).
const TuneState& ensure_initialized();

/// Run the load-or-probe pipeline explicitly against `cache_path`
/// ("" => no cache I/O) — the testable core of ensure_initialized().
/// `force` skips the cache read (VPIC_TUNE=force).
[[nodiscard]] TuneState initialize_from(const std::string& cache_path,
                                        bool force);

/// Tuned generic-push cost for `layout` in seconds per particle, or 0
/// when unknown (tuning disabled, or a cache written before the field
/// existed). Triggers ensure_initialized(). The tiled step multiplies
/// this by each tile's population to seed work-stealing placement.
[[nodiscard]] double push_cost_per_particle(core::ParticleLayout layout);

/// Test hook: forget the memoized ensure_initialized() result and restore
/// the built-in defaults in every registry.
void reset_for_testing();

}  // namespace vpic::tune
