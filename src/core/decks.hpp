// core/decks.hpp
//
// Input decks: the physics scenarios VPIC is run with. The laser-plasma
// instability (LPI) deck is the paper's benchmark problem (Figs. 4, 7,
// 9, 10); magnetic reconnection and Weibel are the other canonical VPIC
// workloads its introduction motivates. Each deck builds a ready-to-run
// Simulation; sizes are parameters so tests use tiny versions and
// examples/benches scale up.
#pragma once

#include "core/simulation.hpp"

namespace vpic::core::decks {

struct LpiParams {
  int nx = 32, ny = 16, nz = 16;
  int ppc = 8;                  // electrons per cell in the slab
  float slab_begin = 0.4f;      // plasma slab (fraction of x extent)
  float slab_end = 1.0f;
  float uth_e = 0.05f;          // electron thermal momentum
  float uth_i = 0.005f;         // ion thermal momentum
  float mi_me = 100.0f;         // reduced ion mass
  float laser_amplitude = 0.1f; // normalized E0
  float laser_omega = 0.9f;     // in plasma-frequency units (underdense)
  int laser_ramp_steps = 20;
  VectorStrategy strategy = kDefaultStrategy;
  sort::SortOrder sort_order = sort::SortOrder::Standard;
  int sort_interval = 20;
  std::uint64_t seed = 42;
  ParticleLayout layout = ParticleLayout::AoS;
  // Gaussian particle clumping (docs/TILES.md): scale the per-cell count
  // by 1 + clump_factor * exp(-z~^2 / 2), z~ = distance (in cells) of the
  // cell's z-plane from the slab mid-plane over sigma = an eighth of nz —
  // a pileup plane like a compression front at the critical surface,
  // uniform in x/y. z is the axis the tile decomposition slabs, so the
  // knob dials in a reproducible tile load imbalance.
  // Per-cell weights are divided by the same factor so the *physical*
  // density profile is unchanged — only the computational load clumps,
  // which is what the tile load-balance benches/tests need reproducibly.
  // 0 (default) leaves the deck bitwise identical to before the knob.
  float clump_factor = 0;
};

/// Laser-plasma instability benchmark: plane-wave antenna at the low-x
/// face driving Ey, under-dense electron/ion slab filling the high-x
/// portion of the box.
Simulation make_lpi(const LpiParams& p);

struct ReconnectionParams {
  int nx = 32, ny = 16, nz = 32;
  int ppc = 8;
  float b0 = 0.1f;        // asymptotic field
  float sheet_half_width = 2.0f;  // in cells
  float uth = 0.05f;
  float drift = 0.02f;    // current-sheet drift momentum (+/- for species)
  float perturbation = 0.02f;    // GEM-style island seed amplitude
  VectorStrategy strategy = kDefaultStrategy;
  std::uint64_t seed = 43;
};

/// Harris current sheet with a GEM-challenge island perturbation: the
/// magnetic-reconnection scenario (paper Sections 2.1 / 6).
Simulation make_reconnection(const ReconnectionParams& p);

struct WeibelParams {
  int nx = 16, ny = 16, nz = 16;
  int ppc = 16;
  float u_beam = 0.3f;  // counter-streaming drift along z
  float uth = 0.01f;
  VectorStrategy strategy = kDefaultStrategy;
  std::uint64_t seed = 44;
};

/// Two counter-streaming electron beams over a neutralizing ion
/// background: grows the Weibel filamentation instability.
Simulation make_weibel(const WeibelParams& p);

}  // namespace vpic::core::decks
