// golden_decks.hpp — the tiny decks behind the golden checkpoint fixtures
// in tests/data/golden/ (docs/CHECKPOINT.md, "Golden fixtures").
//
// tests/make_golden.cpp writes the fixtures from these decks and
// tests/test_golden.cpp restores them into the same decks, so both must
// build byte-for-byte the same configuration: a deck change here changes
// the config fingerprint and makes every fixture unrestorable, which is
// the point — the fixtures pin the on-disk state a future build must keep
// reading.
//
// Both decks set `strategy = VectorStrategy::Auto` explicitly. The push
// strategy is hashed into the config fingerprint, and the fixtures were
// written when Auto was the default; the engine default is now Manual
// (core::kDefaultStrategy). Without the pin these decks would describe a
// different configuration from the one the fixture bytes hold, and every
// restore would fail with the typed fingerprint error.
#pragma once

#include <cstdint>
#include <string>

#include "core/core.hpp"

namespace vpic::golden {

/// Single-node LPI deck small enough that one generation stays < 64 KiB.
inline core::Simulation make_sim() {
  core::decks::LpiParams p;
  p.nx = 4;
  p.ny = 2;
  p.nz = 2;
  p.ppc = 2;
  p.sort_interval = 3;
  p.seed = 2025;
  p.strategy = core::VectorStrategy::Auto;  // fixtures' fingerprint
  auto sim = core::decks::make_lpi(p);
  sim.config().energy_interval = 2;
  return sim;
}

/// Global domain of the 2-rank distributed fixture set.
inline core::DomainConfig dist_config() {
  core::DomainConfig cfg;
  cfg.nx = 2;
  cfg.ny = 2;
  cfg.nz = 4;
  cfg.lx = 2;
  cfg.ly = 2;
  cfg.lz = 4;
  cfg.seed = 2025;
  cfg.strategy = core::VectorStrategy::Auto;  // fixtures' fingerprint
  cfg.overlap = false;
  return cfg;
}

/// Species set of the distributed fixture, added identically by writer
/// and reader (species identities are part of the fingerprint).
inline void add_dist_species(core::DistributedSimulation& sim) {
  sim.add_species("e", -1.0f, 1.0f, 256);
}

inline constexpr int kDistRanks = 2;

// Fixture names under tests/data/golden/ and the steps they were taken at.
inline constexpr const char* kPlainBase = "plain";  // plain.g0
inline constexpr std::int64_t kPlainStep = 6;
inline constexpr const char* kChainBase = "chain";  // chain.g0 .. chain.g2
inline constexpr std::int64_t kChainSteps[3] = {4, 6, 8};
inline constexpr const char* kDistDir = "dist2";
inline constexpr std::int64_t kDistStep = 4;

}  // namespace vpic::golden
