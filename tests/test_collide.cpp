// Tests for the Takizuka–Abe collision module (core/collide.hpp):
// conservation laws and Maxwellianization of the collide_range operator
// (driven directly, no field dynamics), bit-determinism across particle
// layouts and step-pool worker counts, and checkpoint round-trips of a
// collision-enabled run — including the module's counters — across
// layouts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <vector>

#include "core/collide.hpp"
#include "core/decks.hpp"
#include "core/rng.hpp"
#include "core/simulation.hpp"
#include "pk/pk.hpp"

namespace core = vpic::core;
namespace pk = vpic::pk;
namespace fs = std::filesystem;
using pk::index_t;

namespace {

class PkEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    // Built-in tune defaults: a probed cache carries per-layout push
    // gates, and a dispatch decision that differs across layouts changes
    // the deposit grouping — which would break the cross-layout
    // bit-identity this suite asserts.
    setenv("VPIC_TUNE", "off", 1);
    pk::initialize(1);
  }
};
[[maybe_unused]] const auto* const env =
    ::testing::AddGlobalTestEnvironment(new PkEnv);

/// One-cell species with an anisotropic Gaussian momentum spread:
/// sigma_x = uth_x, sigma_y = sigma_z = uth_perp.
core::Species make_cell_species(index_t n, float uth_x, float uth_perp,
                                const core::Grid& g,
                                core::ParticleLayout layout,
                                std::uint64_t seed) {
  core::Species sp("test", -1.0f, 1.0f, n, layout);
  const auto v = static_cast<std::int32_t>(g.voxel(1, 1, 1));
  for (index_t i = 0; i < n; ++i) {
    core::Particle p{};
    p.i = v;
    p.ux = uth_x * static_cast<float>(core::normal(seed, 3 * i + 0));
    p.uy = uth_perp * static_cast<float>(core::normal(seed, 3 * i + 1));
    p.uz = uth_perp * static_cast<float>(core::normal(seed, 3 * i + 2));
    p.w = 1.0f;
    sp.p.set(i, p);
  }
  sp.np = n;
  return sp;
}

struct Moments {
  double px = 0, py = 0, pz = 0;  // total momentum (m * u)
  double ke = 0;                  // non-relativistic kinetic energy
  double tx = 0, ty = 0, tz = 0;  // per-axis temperature (variance of u)
};

Moments moments(const core::Species& sp) {
  Moments m;
  std::vector<core::Particle> ps(static_cast<std::size_t>(sp.np));
  sp.p.export_aos(ps.data(), sp.np);
  for (const auto& p : ps) {
    m.px += static_cast<double>(sp.m) * p.ux;
    m.py += static_cast<double>(sp.m) * p.uy;
    m.pz += static_cast<double>(sp.m) * p.uz;
    m.ke += 0.5 * sp.m *
            (static_cast<double>(p.ux) * p.ux +
             static_cast<double>(p.uy) * p.uy +
             static_cast<double>(p.uz) * p.uz);
  }
  const double n = static_cast<double>(sp.np);
  for (const auto& p : ps) {
    m.tx += (p.ux - m.px / n) * (p.ux - m.px / n);
    m.ty += (p.uy - m.py / n) * (p.uy - m.py / n);
    m.tz += (p.uz - m.pz / n) * (p.uz - m.pz / n);
  }
  m.tx /= n;
  m.ty /= n;
  m.tz /= n;
  return m;
}

std::vector<core::Particle> canon(const core::Species& sp) {
  std::vector<core::Particle> out(static_cast<std::size_t>(sp.np));
  sp.p.export_aos(out.data(), sp.np);
  return out;
}

bool same_particles(core::Simulation& a, core::Simulation& b) {
  if (a.num_species() != b.num_species()) return false;
  for (std::size_t s = 0; s < a.num_species(); ++s) {
    const auto pa = canon(a.species(s));
    const auto pb = canon(b.species(s));
    if (pa.size() != pb.size()) return false;
    if (!pa.empty() &&
        std::memcmp(pa.data(), pb.data(),
                    pa.size() * sizeof(core::Particle)) != 0)
      return false;
  }
  return true;
}

core::Simulation make_colliding_lpi(
    core::ParticleLayout layout = core::ParticleLayout::AoS,
    std::uint64_t seed = 42) {
  core::decks::LpiParams p;
  p.nx = 12;
  p.ny = 4;
  p.nz = 4;
  p.ppc = 4;
  p.sort_interval = 10;
  p.seed = seed;
  p.layout = layout;
  auto sim = core::decks::make_lpi(p);
  sim.config().energy_interval = 5;
  core::CollisionParams cp;
  cp.nu0 = 1e-3;
  sim.add_module<core::CollisionModule>(cp);
  return sim;
}

fs::path scratch(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("vpic_col_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

}  // namespace

// ----------------------------------------------------------------------
// collide_range physics (no field dynamics).
// ----------------------------------------------------------------------

TEST(CollideRange, ConservesMomentumAndEnergy) {
  const core::Grid g(4, 4, 4, 4, 4, 4, 0.1f);
  auto sp = make_cell_species(2000, 0.10f, 0.05f, g,
                              core::ParticleLayout::AoS, 7);
  core::CollisionParams prm;
  prm.nu0 = 2e-3;
  const core::ModuleRng rng{core::hash64(123)};
  const Moments before = moments(sp);
  std::uint64_t pairs = 0;
  for (int it = 0; it < 50; ++it)
    pairs += core::collide_range(sp, sp, g, prm, 0, sp.np, 0, sp.np,
                                 static_cast<std::uint64_t>(it), 0, rng)
                 .pairs;
  EXPECT_EQ(pairs, 50u * 1000u);
  const Moments after = moments(sp);
  // Momentum is conserved pairwise exactly; only float store rounding
  // accumulates. Energy is conserved by the rotation (|g| preserved).
  const double pscale = 2000 * 0.10;
  EXPECT_NEAR(after.px, before.px, 1e-3 * pscale);
  EXPECT_NEAR(after.py, before.py, 1e-3 * pscale);
  EXPECT_NEAR(after.pz, before.pz, 1e-3 * pscale);
  EXPECT_NEAR(after.ke, before.ke, 2e-3 * before.ke);
}

TEST(CollideRange, MaxwellianizesAnisotropicDistribution) {
  const core::Grid g(4, 4, 4, 4, 4, 4, 0.1f);
  // Tx = 4 x Tperp initially.
  auto sp = make_cell_species(4000, 0.10f, 0.05f, g,
                              core::ParticleLayout::AoS, 11);
  core::CollisionParams prm;
  prm.nu0 = 5e-3;
  const core::ModuleRng rng{core::hash64(321)};
  const Moments before = moments(sp);
  const double aniso_before = before.tx / (0.5 * (before.ty + before.tz));
  ASSERT_GT(aniso_before, 3.0);
  for (int it = 0; it < 400; ++it)
    core::collide_range(sp, sp, g, prm, 0, sp.np, 0, sp.np,
                        static_cast<std::uint64_t>(it), 0, rng);
  const Moments after = moments(sp);
  const double aniso_after = after.tx / (0.5 * (after.ty + after.tz));
  // Collisions drive T_x / T_perp toward 1 while conserving energy.
  EXPECT_LT(aniso_after, 0.5 * aniso_before);
  EXPECT_GT(aniso_after, 0.8);
  EXPECT_NEAR(after.ke, before.ke, 5e-3 * before.ke);
}

TEST(CollideRange, InterSpeciesConservesTotalMomentum) {
  const core::Grid g(4, 4, 4, 4, 4, 4, 0.1f);
  auto a = make_cell_species(1500, 0.10f, 0.10f, g,
                             core::ParticleLayout::AoS, 21);
  core::Species b = make_cell_species(1500, 0.02f, 0.02f, g,
                                      core::ParticleLayout::AoS, 22);
  b.m = 4.0f;  // unequal masses exercise the reduced-mass split
  core::CollisionParams prm;
  prm.nu0 = 2e-3;
  const core::ModuleRng rng{core::hash64(99)};
  const Moments ba = moments(a), bb = moments(b);
  for (int it = 0; it < 50; ++it) {
    const auto st = core::collide_range(a, b, g, prm, 0, a.np, 0, b.np,
                                        static_cast<std::uint64_t>(it), 1,
                                        rng);
    EXPECT_EQ(st.pairs, 1500u);
  }
  const Moments aa = moments(a), ab = moments(b);
  const double pscale = 1500 * 0.10 * 4.0;
  EXPECT_NEAR(aa.px + ab.px, ba.px + bb.px, 1e-3 * pscale);
  EXPECT_NEAR(aa.py + ab.py, ba.py + bb.py, 1e-3 * pscale);
  EXPECT_NEAR(aa.pz + ab.pz, ba.pz + bb.pz, 1e-3 * pscale);
  // Energy flows from the hot light species to the cold heavy one.
  EXPECT_LT(aa.ke, ba.ke);
  EXPECT_GT(ab.ke, bb.ke);
  EXPECT_NEAR(aa.ke + ab.ke, ba.ke + bb.ke, 5e-3 * (ba.ke + bb.ke));
}

TEST(CollideRange, BitIdenticalAcrossLayouts) {
  const core::Grid g(4, 4, 4, 4, 4, 4, 0.1f);
  core::CollisionParams prm;
  prm.nu0 = 2e-3;
  const core::ModuleRng rng{core::hash64(55)};
  std::vector<core::Particle> ref;
  for (int li = 0; li < core::kNumParticleLayouts; ++li) {
    auto sp = make_cell_species(1024, 0.10f, 0.05f, g,
                                core::kAllParticleLayouts[li], 13);
    for (int it = 0; it < 10; ++it)
      core::collide_range(sp, sp, g, prm, 0, sp.np, 0, sp.np,
                          static_cast<std::uint64_t>(it), 0, rng);
    const auto got = canon(sp);
    if (li == 0) {
      ref = got;
    } else {
      ASSERT_EQ(got.size(), ref.size());
      EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                            got.size() * sizeof(core::Particle)),
                0)
          << "layout " << core::to_string(core::kAllParticleLayouts[li]);
    }
  }
}

// ----------------------------------------------------------------------
// CollisionModule in the step pipeline.
// ----------------------------------------------------------------------

TEST(CollisionModule, ChangesDynamicsAndCountsPairs) {
  auto plain = [] {
    core::decks::LpiParams p;
    p.nx = 12;
    p.ny = 4;
    p.nz = 4;
    p.ppc = 4;
    return core::decks::make_lpi(p);
  };
  auto with = plain();
  core::CollisionParams cp;
  cp.nu0 = 1e-3;
  auto& col = with.add_module<core::CollisionModule>(cp);
  auto without = plain();
  with.run(10);
  without.run(10);
  EXPECT_GT(col.pairs_scattered(), 0u);
  EXPECT_EQ(col.steps_applied(), 10u);
  EXPECT_FALSE(same_particles(with, without));
}

TEST(CollisionModule, BitDeterministicAcrossWorkerCounts) {
  std::vector<core::Particle> ref_e, ref_i;
  double ref_field = 0;
  for (const std::size_t workers : {1, 2, 4, 8}) {
    auto sim = make_colliding_lpi();
    sim.config().tiles.enabled = true;
    sim.config().graph_instances = workers;
    sim.config().tiles.count = 4;  // fixed: the tile cut is part of the key
    sim.run(30);
    const auto e = canon(sim.species(0));
    const auto i = canon(sim.species(1));
    const double field = sim.energies().field;
    if (workers == 1) {
      ref_e = e;
      ref_i = i;
      ref_field = field;
      continue;
    }
    EXPECT_EQ(std::memcmp(e.data(), ref_e.data(),
                          e.size() * sizeof(core::Particle)),
              0)
        << workers << " workers (electrons)";
    EXPECT_EQ(std::memcmp(i.data(), ref_i.data(),
                          i.size() * sizeof(core::Particle)),
              0)
        << workers << " workers (ions)";
    EXPECT_EQ(field, ref_field) << workers << " workers";
  }
}

TEST(CollisionModule, GraphSchedulerRunsCollidePhases) {
  auto sim = make_colliding_lpi();
  sim.config().scheduler = core::StepScheduler::Graph;
  sim.step();
  bool saw_collide = false;
  for (const auto& st : sim.last_phase_stats())
    if (st.name.rfind("collide[", 0) == 0) saw_collide = true;
  EXPECT_TRUE(saw_collide);
}

TEST(CollisionModule, CheckpointRoundTripsAcrossLayouts) {
  const fs::path dir = scratch("rt");
  auto sim = make_colliding_lpi();
  sim.run(20);
  auto* col = dynamic_cast<core::CollisionModule*>(sim.find_module("collide"));
  ASSERT_NE(col, nullptr);
  const std::uint64_t pairs_at_ckpt = col->pairs_scattered();
  ASSERT_GT(pairs_at_ckpt, 0u);
  sim.checkpoint((dir / "a.ckpt").string());
  sim.run(15);

  // The checkpoint restores bit-identically under every particle layout
  // (the file stores the canonical AoS stream; collisions scan in index
  // order, never layout order) — counters included.
  for (const int li : {0, 1, 2}) {
    auto restored = make_colliding_lpi(core::kAllParticleLayouts[li]);
    restored.restore((dir / "a.ckpt").string());
    EXPECT_TRUE(restored.last_restore_skips().empty());
    auto* rcol =
        dynamic_cast<core::CollisionModule*>(restored.find_module("collide"));
    ASSERT_NE(rcol, nullptr);
    EXPECT_EQ(rcol->pairs_scattered(), pairs_at_ckpt);
    restored.run(15);
    EXPECT_TRUE(same_particles(sim, restored))
        << "layout " << core::to_string(core::kAllParticleLayouts[li]);
    EXPECT_EQ(rcol->pairs_scattered(), col->pairs_scattered());
  }
}
