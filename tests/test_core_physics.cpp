// Physics correctness tests for the PIC engine: interpolation exactness,
// Boris pusher invariants, charge-conserving current deposition
// (continuity equation), mover face-crossing, FDTD vacuum propagation,
// and global energy conservation.
#include <gtest/gtest.h>

#include <cmath>

#include "core/core.hpp"

namespace core = vpic::core;
namespace pk = vpic::pk;
using core::Grid;
using pk::index_t;

namespace {

Grid small_grid(int n = 8, float courant = 0.7f) {
  Grid g(n, n, n, static_cast<float>(n), static_cast<float>(n),
         static_cast<float>(n), 0.0f);
  g.dt = Grid::courant_dt(g.dx, g.dy, g.dz, courant);
  return g;
}

/// Set a uniform E and B everywhere.
void set_uniform_fields(core::FieldArray& f, float ex, float ey, float ez,
                        float bx, float by, float bz) {
  pk::deep_copy(f.ex, ex);
  pk::deep_copy(f.ey, ey);
  pk::deep_copy(f.ez, ez);
  pk::deep_copy(f.bx, bx);
  pk::deep_copy(f.by, by);
  pk::deep_copy(f.bz, bz);
}

}  // namespace

// ----------------------------------------------------------------------
// Grid
// ----------------------------------------------------------------------

TEST(Grid, VoxelRoundTrip) {
  const Grid g = small_grid(6);
  for (int iz = 0; iz < g.sz(); iz += 3)
    for (int iy = 0; iy < g.sy(); iy += 2)
      for (int ix = 0; ix < g.sx(); ++ix) {
        int x, y, z;
        g.cell_of(g.voxel(ix, iy, iz), x, y, z);
        EXPECT_EQ(x, ix);
        EXPECT_EQ(y, iy);
        EXPECT_EQ(z, iz);
      }
}

TEST(Grid, InteriorClassification) {
  const Grid g = small_grid(4);
  EXPECT_TRUE(g.is_interior(g.voxel(1, 1, 1)));
  EXPECT_TRUE(g.is_interior(g.voxel(4, 4, 4)));
  EXPECT_FALSE(g.is_interior(g.voxel(0, 1, 1)));
  EXPECT_FALSE(g.is_interior(g.voxel(5, 1, 1)));
}

TEST(Grid, CourantDtBelowLimit) {
  const float dt = Grid::courant_dt(1.0f, 1.0f, 1.0f, 0.99f);
  EXPECT_LT(dt, 1.0f / std::sqrt(3.0f));
  EXPECT_GT(dt, 0.5f / std::sqrt(3.0f));
}

// ----------------------------------------------------------------------
// Interpolator
// ----------------------------------------------------------------------

TEST(Interpolator, UniformFieldExact) {
  const Grid g = small_grid(6);
  core::FieldArray f(g);
  set_uniform_fields(f, 1.0f, 2.0f, 3.0f, -1.0f, -2.0f, -3.0f);
  core::InterpolatorArray ip(g);
  ip.load(f);
  const auto& rec = ip(g.voxel(3, 3, 3));
  for (float dx : {-0.9f, 0.0f, 0.7f})
    for (float dy : {-0.5f, 0.3f})
      for (float dz : {-0.8f, 0.6f}) {
        const auto fl = core::interpolate(rec, dx, dy, dz);
        EXPECT_FLOAT_EQ(fl.ex, 1.0f);
        EXPECT_FLOAT_EQ(fl.ey, 2.0f);
        EXPECT_FLOAT_EQ(fl.ez, 3.0f);
        EXPECT_FLOAT_EQ(fl.bx, -1.0f);
        EXPECT_FLOAT_EQ(fl.by, -2.0f);
        EXPECT_FLOAT_EQ(fl.bz, -3.0f);
      }
}

TEST(Interpolator, LinearFieldGradientCaptured) {
  const Grid g = small_grid(8);
  core::FieldArray f(g);
  // Ex varying linearly in y: ex(iy) = iy.
  for (int iz = 0; iz < g.sz(); ++iz)
    for (int iy = 0; iy < g.sy(); ++iy)
      for (int ix = 0; ix < g.sx(); ++ix)
        f.ex(g.voxel(ix, iy, iz)) = static_cast<float>(iy);
  core::InterpolatorArray ip(g);
  ip.load(f);
  const auto& rec = ip(g.voxel(4, 4, 4));
  // At cell 4 the four x-edges have ey values {4,5}: center = 4.5,
  // dy = +1 reaches 5, dy = -1 reaches 4.
  EXPECT_FLOAT_EQ(core::interpolate(rec, 0, 0, 0).ex, 4.5f);
  EXPECT_FLOAT_EQ(core::interpolate(rec, 0, 1.0f, 0).ex, 5.0f);
  EXPECT_FLOAT_EQ(core::interpolate(rec, 0, -1.0f, 0).ex, 4.0f);
}

// ----------------------------------------------------------------------
// Boris pusher (via advance_species on uniform fields)
// ----------------------------------------------------------------------

namespace {

/// One-particle species in the middle of the grid with given momentum.
core::Species one_particle(const Grid& g, float ux, float uy, float uz,
                           float q = -1.0f, float m = 1.0f) {
  core::Species sp("test", q, m, 16);
  core::Particle p{};
  p.dx = 0;
  p.dy = 0;
  p.dz = 0;
  p.i = static_cast<std::int32_t>(g.voxel(4, 4, 4));
  p.ux = ux;
  p.uy = uy;
  p.uz = uz;
  p.w = 1.0f;
  sp.p(0) = p;
  sp.np = 1;
  return sp;
}

}  // namespace

TEST(Boris, PureEAcceleration) {
  const Grid g = small_grid(8);
  core::FieldArray f(g);
  const float e0 = 0.01f;
  set_uniform_fields(f, e0, 0, 0, 0, 0, 0);
  core::InterpolatorArray ip(g);
  ip.load(f);
  core::AccumulatorArray acc(g);
  acc.clear();
  core::Species sp = one_particle(g, 0, 0, 0, /*q=*/-1.0f);
  core::advance_species(sp, ip, acc, g, core::VectorStrategy::Auto);
  // du = q E dt / m (two half kicks, no B rotation).
  EXPECT_NEAR(sp.p(0).ux, -e0 * g.dt, 1e-7);
  EXPECT_FLOAT_EQ(sp.p(0).uy, 0.0f);
  EXPECT_FLOAT_EQ(sp.p(0).uz, 0.0f);
}

TEST(Boris, PureBRotationPreservesEnergy) {
  const Grid g = small_grid(8);
  core::FieldArray f(g);
  set_uniform_fields(f, 0, 0, 0, 0, 0, 0.5f);
  core::InterpolatorArray ip(g);
  ip.load(f);
  core::AccumulatorArray acc(g);
  core::Species sp = one_particle(g, 0.1f, 0, 0);
  const float u0 = 0.1f;
  for (int step = 0; step < 50; ++step) {
    acc.clear();
    core::advance_species(sp, ip, acc, g, core::VectorStrategy::Auto);
    const auto& p = sp.p(0);
    const float u2 = p.ux * p.ux + p.uy * p.uy + p.uz * p.uz;
    EXPECT_NEAR(std::sqrt(u2), u0, 1e-5) << "step " << step;
    EXPECT_NEAR(p.uz, 0.0f, 1e-7);
  }
}

TEST(Boris, GyroRotationDirection) {
  // Negative charge in +z B field with +x velocity: force q v x B points
  // along -y * ... : check uy sign after one step.
  const Grid g = small_grid(8);
  core::FieldArray f(g);
  set_uniform_fields(f, 0, 0, 0, 0, 0, 1.0f);
  core::InterpolatorArray ip(g);
  ip.load(f);
  core::AccumulatorArray acc(g);
  core::Species sp = one_particle(g, 0.1f, 0, 0, /*q=*/-1.0f);
  acc.clear();
  core::advance_species(sp, ip, acc, g, core::VectorStrategy::Auto);
  // F = q v x B = (-1)(v_x x_hat) x (B_z z_hat) = (-1) v_x B_z (x_hat x
  // z_hat) = (+1) v_x B_z y_hat => uy > 0.
  EXPECT_GT(sp.p(0).uy, 0.0f);
}

TEST(Boris, RelativisticGammaLimitsSpeed) {
  const Grid g = small_grid(8);
  core::FieldArray f(g);
  set_uniform_fields(f, -1.0f, 0, 0, 0, 0, 0);  // strong E, q=-1 -> +x
  core::InterpolatorArray ip(g);
  ip.load(f);
  core::AccumulatorArray acc(g);
  core::Species sp = one_particle(g, 0, 0, 0);
  float prev_dx = 0;
  for (int step = 0; step < 30; ++step) {
    acc.clear();
    core::advance_species(sp, ip, acc, g, core::VectorStrategy::Auto);
    (void)prev_dx;
  }
  // Momentum grows linearly, velocity saturates below c: displacement per
  // step (local units) must stay below the light-crossing bound.
  const auto& p = sp.p(0);
  const float gamma = std::sqrt(1 + p.ux * p.ux);
  EXPECT_GT(p.ux, 1.0f);                       // relativistic momentum
  EXPECT_LT(p.ux / gamma, 1.0f);               // v < c
}

// ----------------------------------------------------------------------
// move_p + current deposition
// ----------------------------------------------------------------------

TEST(MoveP, WithinCellDepositTotals) {
  const Grid g = small_grid(8);
  core::AccumulatorArray acc(g);
  acc.clear();
  core::Particle p{};
  p.i = static_cast<std::int32_t>(g.voxel(4, 4, 4));
  p.dx = -0.2f;
  p.dy = 0.1f;
  p.dz = 0.0f;
  const float qw = 2.0f;
  core::move_p(p, 0.3f, -0.1f, 0.2f, qw, acc, g);
  EXPECT_FLOAT_EQ(p.dx, 0.1f);
  EXPECT_FLOAT_EQ(p.dy, 0.0f);
  EXPECT_FLOAT_EQ(p.dz, 0.2f);
  EXPECT_EQ(p.i, static_cast<std::int32_t>(g.voxel(4, 4, 4)));
  // The four jx weights sum to 4 * qw * dispx regardless of midpoint.
  const auto& a = acc.a(p.i);
  const float jx_total = a.jx[0] + a.jx[1] + a.jx[2] + a.jx[3];
  EXPECT_NEAR(jx_total, 4.0f * qw * 0.3f, 1e-6);
  const float jy_total = a.jy[0] + a.jy[1] + a.jy[2] + a.jy[3];
  EXPECT_NEAR(jy_total, 4.0f * qw * -0.1f, 1e-6);
  const float jz_total = a.jz[0] + a.jz[1] + a.jz[2] + a.jz[3];
  EXPECT_NEAR(jz_total, 4.0f * qw * 0.2f, 1e-6);
}

TEST(MoveP, FaceCrossingSplitsAndHops) {
  const Grid g = small_grid(8);
  core::AccumulatorArray acc(g);
  acc.clear();
  core::Particle p{};
  p.i = static_cast<std::int32_t>(g.voxel(4, 4, 4));
  p.dx = 0.8f;
  const float qw = 1.0f;
  const auto res = core::move_p(p, 0.6f, 0.0f, 0.0f, qw, acc, g);
  EXPECT_EQ(res, core::MoveResult::Stayed);
  EXPECT_EQ(p.i, static_cast<std::int32_t>(g.voxel(5, 4, 4)));
  EXPECT_NEAR(p.dx, -0.6f, 1e-6);  // entered at -1, moved remaining 0.4
  // Total deposited current must equal the full displacement, split
  // between the two cells.
  const auto& a0 = acc.a(g.voxel(4, 4, 4));
  const auto& a1 = acc.a(g.voxel(5, 4, 4));
  const float jx0 = a0.jx[0] + a0.jx[1] + a0.jx[2] + a0.jx[3];
  const float jx1 = a1.jx[0] + a1.jx[1] + a1.jx[2] + a1.jx[3];
  EXPECT_NEAR(jx0 + jx1, 4.0f * qw * 0.6f, 1e-6);
  EXPECT_NEAR(jx0, 4.0f * qw * 0.2f, 1e-6);
  EXPECT_NEAR(jx1, 4.0f * qw * 0.4f, 1e-6);
}

TEST(MoveP, PeriodicWrapAtDomainFace) {
  const Grid g = small_grid(8);
  core::AccumulatorArray acc(g);
  acc.clear();
  core::Particle p{};
  p.i = static_cast<std::int32_t>(g.voxel(8, 4, 4));
  p.dx = 0.9f;
  const auto res = core::move_p(p, 0.4f, 0.0f, 0.0f, 1.0f, acc, g,
                                /*periodic_mask=*/0b111);
  EXPECT_EQ(res, core::MoveResult::Wrapped);
  EXPECT_EQ(p.i, static_cast<std::int32_t>(g.voxel(1, 4, 4)));
}

TEST(MoveP, ExitModeReportsRemainingDisplacement) {
  const Grid g = small_grid(8);
  core::AccumulatorArray acc(g);
  acc.clear();
  core::Particle p{};
  p.i = static_cast<std::int32_t>(g.voxel(8, 4, 4));
  p.dx = 0.9f;
  float rem[3] = {0, 0, 0};
  const auto res = core::move_p(p, 0.4f, 0.05f, 0.0f, 1.0f, acc, g,
                                /*periodic_mask=*/0b000, rem);
  EXPECT_EQ(res, core::MoveResult::Exited);
  EXPECT_NEAR(rem[0], 0.3f, 1e-6);
  EXPECT_GT(rem[1], 0.0f);
}

TEST(MoveP, CornerCrossingHandled) {
  const Grid g = small_grid(8);
  core::AccumulatorArray acc(g);
  acc.clear();
  core::Particle p{};
  p.i = static_cast<std::int32_t>(g.voxel(4, 4, 4));
  p.dx = 0.95f;
  p.dy = 0.95f;
  p.dz = 0.95f;
  core::move_p(p, 0.2f, 0.2f, 0.2f, 1.0f, acc, g);
  EXPECT_EQ(p.i, static_cast<std::int32_t>(g.voxel(5, 5, 5)));
  EXPECT_NEAR(p.dx, -0.85f, 1e-5);
}

// ----------------------------------------------------------------------
// Continuity: div J == -d(rho)/dt after one particle advance. This pins
// down the charge-conserving deposit and the unload constants.
// ----------------------------------------------------------------------

TEST(Continuity, DivJMatchesChargeChange) {
  const Grid g = small_grid(6, 0.6f);
  core::SimulationConfig cfg;
  cfg.grid = g;
  cfg.sort_interval = 0;
  core::Simulation sim(cfg);
  const auto s = sim.add_species("e", -1.0f, 1.0f, 4000);
  sim.load_uniform_plasma(s, 3, 0.2f, 0.05f, -0.03f, 0.08f);

  const auto rho_before = sim.charge_density();
  // One particle advance with deposit + unload (no field feedback needed).
  sim.interpolator().load(sim.fields());
  sim.accumulator().clear();
  core::advance_species(sim.species(s), sim.interpolator(),
                        sim.accumulator(), g, core::VectorStrategy::Auto);
  sim.accumulator().reduce_ghosts_periodic();
  sim.accumulator().unload(sim.fields());
  const auto rho_after = sim.charge_density();

  const auto& f = sim.fields();
  double max_resid = 0, max_scale = 0;
  auto wrap = [&](int i, int n) { return i < 1 ? i + n : i; };
  for (int iz = 1; iz <= g.nz; ++iz)
    for (int iy = 1; iy <= g.ny; ++iy)
      for (int ix = 1; ix <= g.nx; ++ix) {
        const index_t v = g.voxel(ix, iy, iz);
        const double drho_dt = (rho_after(v) - rho_before(v)) / g.dt;
        const double divj =
            (f.jx(v) - f.jx(g.voxel(wrap(ix - 1, g.nx), iy, iz))) / g.dx +
            (f.jy(v) - f.jy(g.voxel(ix, wrap(iy - 1, g.ny), iz))) / g.dy +
            (f.jz(v) - f.jz(g.voxel(ix, iy, wrap(iz - 1, g.nz)))) / g.dz;
        max_resid = std::max(max_resid, std::abs(drho_dt + divj));
        max_scale = std::max({max_scale, std::abs(drho_dt), std::abs(divj)});
      }
  ASSERT_GT(max_scale, 0.0);
  EXPECT_LT(max_resid / max_scale, 2e-4)
      << "continuity violated: deposit or unload constants wrong";
}

// ----------------------------------------------------------------------
// FDTD field solver
// ----------------------------------------------------------------------

TEST(Fdtd, VacuumFieldsStayFiniteAndConserveEnergy) {
  const Grid g = small_grid(16, 0.9f);
  core::FieldArray f(g);
  // Seed a sinusoidal Ey(x) standing wave mode with matching Bz.
  for (int iz = 0; iz < g.sz(); ++iz)
    for (int iy = 0; iy < g.sy(); ++iy)
      for (int ix = 0; ix < g.sx(); ++ix)
        f.ey(g.voxel(ix, iy, iz)) = 0.01f *
            std::sin(2.0f * 3.14159265f * static_cast<float>(ix - 1) /
                     static_cast<float>(g.nx));
  f.update_ghosts_periodic();
  const double e0 = f.field_energy();
  ASSERT_GT(e0, 0.0);
  for (int step = 0; step < 200; ++step) {
    f.advance_b_half();
    f.update_ghosts_periodic();
    f.advance_e();
    f.update_ghosts_periodic();
    f.advance_b_half();
    f.update_ghosts_periodic();
  }
  const double e1 = f.field_energy();
  EXPECT_TRUE(std::isfinite(e1));
  // Lossless vacuum propagation: energy conserved to a few percent (the
  // half-step splitting exchanges E/B energy within a step).
  EXPECT_NEAR(e1, e0, 0.05 * e0);
}

TEST(Fdtd, UniformFieldIsSteadyState) {
  const Grid g = small_grid(8);
  core::FieldArray f(g);
  set_uniform_fields(f, 0.5f, -0.25f, 0.125f, 1.0f, 2.0f, 3.0f);
  for (int step = 0; step < 10; ++step) {
    f.advance_b_half();
    f.update_ghosts_periodic();
    f.advance_e();
    f.update_ghosts_periodic();
    f.advance_b_half();
    f.update_ghosts_periodic();
  }
  // curl of uniform fields is zero: nothing changes.
  EXPECT_FLOAT_EQ(f.ex(g.voxel(4, 4, 4)), 0.5f);
  EXPECT_FLOAT_EQ(f.bz(g.voxel(2, 3, 4)), 3.0f);
}

TEST(Fdtd, GhostLayersMirrorPeriodically) {
  const Grid g = small_grid(4);
  core::FieldArray f(g);
  f.ex(g.voxel(4, 2, 2)) = 7.0f;
  f.update_ghosts_periodic();
  EXPECT_FLOAT_EQ(f.ex(g.voxel(0, 2, 2)), 7.0f);
  f.ex(g.voxel(1, 3, 3)) = -3.0f;
  f.update_ghosts_periodic();
  EXPECT_FLOAT_EQ(f.ex(g.voxel(5, 3, 3)), -3.0f);
}

// ----------------------------------------------------------------------
// One default push strategy everywhere
// ----------------------------------------------------------------------

// Manual (portable SIMD) is the fastest push on CPUs (paper Fig. 4), so
// every config and deck a user builds without naming a strategy runs it.
TEST(Defaults, EveryConfigAndDeckDefaultsToManualStrategy) {
  constexpr auto kManual = core::VectorStrategy::Manual;
  EXPECT_EQ(core::kDefaultStrategy, kManual);
  EXPECT_EQ(core::SimulationConfig{}.strategy, kManual);
  EXPECT_EQ(core::DomainConfig{}.strategy, kManual);
  EXPECT_EQ(core::decks::LpiParams{}.strategy, kManual);
  EXPECT_EQ(core::decks::ReconnectionParams{}.strategy, kManual);
  EXPECT_EQ(core::decks::WeibelParams{}.strategy, kManual);

  // The decks hand their params' strategy to the engine.
  core::decks::LpiParams lpi;
  lpi.nx = 4;
  lpi.ny = lpi.nz = 2;
  lpi.ppc = 1;
  EXPECT_EQ(core::decks::make_lpi(lpi).config().strategy, kManual);
  core::decks::ReconnectionParams rec;
  rec.nx = rec.nz = 4;
  rec.ny = 2;
  rec.ppc = 1;
  EXPECT_EQ(core::decks::make_reconnection(rec).config().strategy, kManual);
  core::decks::WeibelParams wei;
  wei.nx = wei.ny = wei.nz = 2;
  wei.ppc = 1;
  EXPECT_EQ(core::decks::make_weibel(wei).config().strategy, kManual);
}

// ----------------------------------------------------------------------
// Simulation-level invariants
// ----------------------------------------------------------------------

TEST(Simulation, NeutralPlasmaStaysNeutral) {
  core::SimulationConfig cfg;
  cfg.grid = small_grid(6, 0.6f);
  core::Simulation sim(cfg);
  const auto e = sim.add_species("e", -1.0f, 1.0f, 3000);
  const auto i = sim.add_species("i", 1.0f, 100.0f, 3000);
  sim.load_uniform_plasma(e, 4, 0.05f);
  sim.load_uniform_plasma(i, 4, 0.005f);
  double q_total = 0;
  const auto rho = sim.charge_density();
  for (index_t v = 0; v < rho.size(); ++v) q_total += rho(v);
  EXPECT_NEAR(q_total, 0.0, 1e-6);
}

TEST(Simulation, EnergyConservedThermalPlasma) {
  core::SimulationConfig cfg;
  cfg.grid = small_grid(8, 0.5f);
  cfg.sort_interval = 5;
  core::Simulation sim(cfg);
  const auto e = sim.add_species("e", -1.0f, 1.0f, 10000);
  const auto i = sim.add_species("i", 1.0f, 100.0f, 10000);
  sim.load_uniform_plasma(e, 8, 0.05f);
  sim.load_uniform_plasma(i, 8, 0.005f);
  const auto e0 = sim.energies();
  sim.run(50);
  const auto e1 = sim.energies();
  EXPECT_TRUE(std::isfinite(e1.total()));
  // Tolerate a few percent drift over 50 steps at this resolution.
  EXPECT_NEAR(e1.total(), e0.total(), 0.05 * e0.total());
}

TEST(Simulation, ParticleCountConserved) {
  core::SimulationConfig cfg;
  cfg.grid = small_grid(6, 0.7f);
  core::Simulation sim(cfg);
  const auto e = sim.add_species("e", -1.0f, 1.0f, 4000);
  sim.load_uniform_plasma(e, 5, 0.3f);
  const index_t n0 = sim.species(e).np;
  sim.run(20);
  EXPECT_EQ(sim.species(e).np, n0);
  // All particles still in interior cells with valid offsets.
  for (index_t n = 0; n < n0; ++n) {
    const auto& p = sim.species(e).p(n);
    EXPECT_TRUE(cfg.grid.is_interior(p.i)) << n;
    EXPECT_LE(std::abs(p.dx), 1.0f + 1e-5f);
    EXPECT_LE(std::abs(p.dy), 1.0f + 1e-5f);
    EXPECT_LE(std::abs(p.dz), 1.0f + 1e-5f);
  }
}

TEST(Simulation, SortingDoesNotChangePhysics) {
  auto make = [&](vpic::sort::SortOrder order) {
    core::SimulationConfig cfg;
    cfg.grid = small_grid(6, 0.6f);
    cfg.sort_order = order;
    cfg.sort_interval = 3;
    core::Simulation sim(cfg);
    const auto e = sim.add_species("e", -1.0f, 1.0f, 4000);
    sim.load_uniform_plasma(e, 4, 0.1f);
    sim.run(12);
    return sim.energies().total();
  };
  const double ref = make(vpic::sort::SortOrder::Standard);
  // Particle order changes fp summation order: tolerance, not equality.
  EXPECT_NEAR(make(vpic::sort::SortOrder::Strided), ref, 1e-4 * ref);
  EXPECT_NEAR(make(vpic::sort::SortOrder::TiledStrided), ref, 1e-4 * ref);
  EXPECT_NEAR(make(vpic::sort::SortOrder::Random), ref, 1e-4 * ref);
}

TEST(MoveP, ReflectingWallBounces) {
  const Grid g = small_grid(8);
  core::AccumulatorArray acc(g);
  acc.clear();
  core::Particle p{};
  p.i = static_cast<std::int32_t>(g.voxel(8, 4, 4));
  p.dx = 0.8f;
  p.ux = 0.5f;
  // Heading +x into a reflecting x-wall with displacement 0.6: travels 0.2
  // to the face, bounces, travels 0.4 back.
  const auto res = core::move_p(p, 0.6f, 0.0f, 0.0f, 1.0f, acc, g,
                                /*periodic_mask=*/0b110, nullptr,
                                /*reflect_mask=*/0b001);
  EXPECT_EQ(res, core::MoveResult::Stayed);
  EXPECT_EQ(p.i, static_cast<std::int32_t>(g.voxel(8, 4, 4)));
  EXPECT_NEAR(p.dx, 0.6f, 1e-6);  // 1.0 - 0.4
  EXPECT_FLOAT_EQ(p.ux, -0.5f);   // normal momentum flipped
}

TEST(MoveP, ReflectingWallNetCurrentCancels) {
  // Bounce exactly halfway: the inbound and outbound x-current cancel.
  const Grid g = small_grid(8);
  core::AccumulatorArray acc(g);
  acc.clear();
  core::Particle p{};
  p.i = static_cast<std::int32_t>(g.voxel(8, 4, 4));
  p.dx = 0.6f;
  const float qw = 1.0f;
  core::move_p(p, 0.8f, 0.0f, 0.0f, qw, acc, g, 0b110, nullptr, 0b001);
  EXPECT_NEAR(p.dx, 0.6f, 1e-6);  // back where it started
  const auto& a = acc.a(g.voxel(8, 4, 4));
  EXPECT_NEAR(a.jx[0] + a.jx[1] + a.jx[2] + a.jx[3], 0.0f, 1e-6f);
}

TEST(MoveP, ReflectingBoxConfinesParticles) {
  // Random walkers in an all-reflecting box never leave and never exit.
  const Grid g = small_grid(6);
  core::AccumulatorArray acc(g);
  acc.clear();
  std::uint64_t state = 99;
  auto next = [&] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<float>(static_cast<double>(state >> 33) / 2147483648.0) -
           1.0f;
  };
  core::Particle p{};
  p.i = static_cast<std::int32_t>(g.voxel(3, 3, 3));
  for (int step = 0; step < 500; ++step) {
    const auto r = core::move_p(p, 1.5f * next(), 1.5f * next(),
                                1.5f * next(), 1.0f, acc, g,
                                /*periodic_mask=*/0b000, nullptr,
                                /*reflect_mask=*/0b111);
    ASSERT_EQ(r, core::MoveResult::Stayed) << "step " << step;
    ASSERT_TRUE(g.is_interior(p.i)) << "step " << step;
  }
}
