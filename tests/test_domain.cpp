// Tests for the distributed (z-slab, minimpi-backed) PIC driver: rank
//-count invariance of the physics, particle-exchange correctness, halo
// consistency, and conservation laws across rank boundaries.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/core.hpp"
#include "minimpi/minimpi.hpp"

namespace core = vpic::core;
namespace mpi = vpic::mpi;
namespace pk = vpic::pk;
using pk::index_t;

namespace {

core::DomainConfig test_config() {
  core::DomainConfig cfg;
  cfg.nx = 6;
  cfg.ny = 6;
  cfg.nz = 8;
  cfg.lx = 6;
  cfg.ly = 6;
  cfg.lz = 8;
  cfg.seed = 1234;
  return cfg;
}

/// Run `steps` steps on `nranks` ranks; return the global energies and
/// particle count from rank 0.
struct RunResult {
  core::DistributedEnergy energy;
  std::int64_t np = 0;
  std::int64_t exchanged = 0;
};

RunResult run_distributed(int nranks, int steps, float uth = 0.2f,
                          float udz = 0.1f) {
  RunResult out;
  std::mutex m;
  mpi::run(nranks, [&](mpi::Comm& comm) {
    auto cfg = test_config();
    core::DistributedSimulation sim(cfg, comm);
    const auto e = sim.add_species("e", -1.0f, 1.0f, 20000);
    sim.load_uniform_plasma(e, 3, uth, 0.02f, -0.01f, udz);
    sim.run(steps);
    auto energy = sim.energies();
    auto np = sim.global_np(e);
    if (comm.rank() == 0) {
      std::lock_guard lk(m);
      out.energy = energy;
      out.np = np;
      out.exchanged = sim.exchanged_particles();
    }
  });
  return out;
}

/// End state of one rank: its particles and two field components.
struct RankState {
  std::vector<core::Particle> particles;
  std::vector<float> ex, by;
};

/// 2-rank run (a z-drifting plasma, so particles cross the slab faces
/// every step) of the fenced or the overlapped schedule with
/// `omp_threads` OpenMP threads per rank.
std::vector<RankState> run_schedule(bool overlap, int omp_threads,
                                    int steps) {
  std::vector<RankState> out(2);
  const int before = pk::concurrency();
  {
    pk::ScopeGuard guard(omp_threads);
    mpi::run(2, [&](mpi::Comm& comm) {
      auto cfg = test_config();
      cfg.overlap = overlap;
      core::DistributedSimulation sim(cfg, comm);
      EXPECT_EQ(sim.overlap_active(), overlap);
      const auto e = sim.add_species("e", -1.0f, 1.0f, 20000);
      sim.load_uniform_plasma(e, 3, 0.2f, 0.02f, -0.01f, 0.3f);
      sim.run(steps);
      RankState& st = out[static_cast<std::size_t>(comm.rank())];
      const auto& sp = sim.species(e);
      for (index_t n = 0; n < sp.np; ++n) st.particles.push_back(sp.p(n));
      const auto& f = sim.fields();
      for (index_t v = 0; v < f.ex.size(); ++v) {
        st.ex.push_back(f.ex(v));
        st.by.push_back(f.by(v));
      }
    });
  }
  pk::initialize(before);  // the suite's thread count
  return out;
}

/// Each rank's particles and ex/by, compared bit for bit.
void expect_bit_identical(const std::vector<RankState>& one,
                          const std::vector<RankState>& four) {
  for (std::size_t r = 0; r < one.size(); ++r) {
    const auto& a = one[r];
    const auto& b = four[r];
    ASSERT_EQ(a.particles.size(), b.particles.size()) << "rank " << r;
    for (std::size_t i = 0; i < a.particles.size(); ++i) {
      const auto& p = a.particles[i];
      const auto& q = b.particles[i];
      ASSERT_EQ(p.dx, q.dx) << "rank " << r << " particle " << i;
      ASSERT_EQ(p.dy, q.dy) << "rank " << r << " particle " << i;
      ASSERT_EQ(p.dz, q.dz) << "rank " << r << " particle " << i;
      ASSERT_EQ(p.i, q.i) << "rank " << r << " particle " << i;
      ASSERT_EQ(p.ux, q.ux) << "rank " << r << " particle " << i;
      ASSERT_EQ(p.uy, q.uy) << "rank " << r << " particle " << i;
      ASSERT_EQ(p.uz, q.uz) << "rank " << r << " particle " << i;
      ASSERT_EQ(p.w, q.w) << "rank " << r << " particle " << i;
    }
    ASSERT_EQ(a.ex.size(), b.ex.size());
    for (std::size_t v = 0; v < a.ex.size(); ++v) {
      ASSERT_EQ(a.ex[v], b.ex[v]) << "rank " << r << " ex voxel " << v;
      ASSERT_EQ(a.by[v], b.by[v]) << "rank " << r << " by voxel " << v;
    }
  }
}

}  // namespace

// Both schedules push serially into a private block merged in fixed order
// and queue exits in push order, so each is bit-identical at any OpenMP
// thread count (docs/ASYNC.md).
TEST(Domain, FencedStepBitIdenticalAcrossOmpThreadCounts) {
  expect_bit_identical(run_schedule(false, 1, 10), run_schedule(false, 4, 10));
}

TEST(Domain, OverlappedStepBitIdenticalAcrossOmpThreadCounts) {
  expect_bit_identical(run_schedule(true, 1, 10), run_schedule(true, 4, 10));
}

TEST(Domain, RejectsIndivisibleDecomposition) {
  EXPECT_THROW(mpi::run(3,
                        [&](mpi::Comm& comm) {
                          auto cfg = test_config();  // nz = 8, 3 ranks
                          core::DistributedSimulation sim(cfg, comm);
                        }),
               std::invalid_argument);
}

TEST(Domain, SingleRankRuns) {
  const auto r = run_distributed(1, 5);
  EXPECT_EQ(r.np, 6 * 6 * 8 * 3);
  EXPECT_TRUE(std::isfinite(r.energy.total()));
  EXPECT_GT(r.energy.total(), 0.0);
}

TEST(Domain, LoadIsRankCountInvariant) {
  // Zero steps: the loaded global particle set must be identical.
  const auto r1 = run_distributed(1, 0);
  const auto r2 = run_distributed(2, 0);
  const auto r4 = run_distributed(4, 0);
  EXPECT_EQ(r1.np, r2.np);
  EXPECT_EQ(r1.np, r4.np);
  EXPECT_NEAR(r1.energy.total(), r2.energy.total(),
              1e-9 * r1.energy.total());
  EXPECT_NEAR(r1.energy.total(), r4.energy.total(),
              1e-9 * r1.energy.total());
}

TEST(Domain, PhysicsMatchesAcrossRankCounts) {
  const int steps = 10;
  const auto r1 = run_distributed(1, steps);
  const auto r2 = run_distributed(2, steps);
  const auto r4 = run_distributed(4, steps);
  // Same global particle count (nothing lost or duplicated in exchange).
  EXPECT_EQ(r1.np, r2.np);
  EXPECT_EQ(r1.np, r4.np);
  // Same physics to fp-reordering tolerance.
  const double ref = r1.energy.total();
  EXPECT_NEAR(r2.energy.total(), ref, 2e-4 * ref);
  EXPECT_NEAR(r4.energy.total(), ref, 2e-4 * ref);
  EXPECT_NEAR(r2.energy.field, r1.energy.field,
              2e-3 * std::max(1e-12, r1.energy.field));
}

TEST(Domain, ParticlesActuallyMigrate) {
  // A strong z-drift guarantees slab crossings.
  const auto r = run_distributed(2, 10, 0.05f, 0.4f);
  EXPECT_GT(r.exchanged, 0);
}

TEST(Domain, ParticleCountConservedUnderHeavyMigration) {
  const auto before = run_distributed(4, 0, 0.05f, 0.45f);
  const auto after = run_distributed(4, 15, 0.05f, 0.45f);
  EXPECT_EQ(before.np, after.np);
}

TEST(Domain, EnergyConservedAcrossRanks) {
  const auto start = run_distributed(2, 0, 0.25f, 0.0f);
  const auto end = run_distributed(2, 30, 0.25f, 0.0f);
  EXPECT_NEAR(end.energy.total(), start.energy.total(),
              0.05 * start.energy.total());
}

TEST(Domain, LocalGridsPartitionGlobal) {
  mpi::run(4, [&](mpi::Comm& comm) {
    auto cfg = test_config();
    core::DistributedSimulation sim(cfg, comm);
    EXPECT_EQ(sim.local_grid().nz, 2);
    EXPECT_EQ(sim.z_offset(), comm.rank() * 2);
    EXPECT_FLOAT_EQ(sim.local_grid().dz, 1.0f);
  });
}

TEST(Domain, AllParticlesStayInLocalInterior) {
  mpi::run(2, [&](mpi::Comm& comm) {
    auto cfg = test_config();
    core::DistributedSimulation sim(cfg, comm);
    const auto e = sim.add_species("e", -1.0f, 1.0f, 20000);
    sim.load_uniform_plasma(e, 3, 0.15f, 0.0f, 0.0f, 0.3f);
    sim.run(8);
    const auto& g = sim.local_grid();
    const auto& sp = sim.species(e);
    for (index_t n = 0; n < sp.np; ++n)
      EXPECT_TRUE(g.is_interior(sp.p(n).i)) << "rank " << comm.rank();
  });
}

TEST(Domain, TwoSpeciesExchangeIndependently) {
  mpi::run(2, [&](mpi::Comm& comm) {
    auto cfg = test_config();
    core::DistributedSimulation sim(cfg, comm);
    const auto e = sim.add_species("e", -1.0f, 1.0f, 20000);
    const auto i = sim.add_species("i", 1.0f, 100.0f, 20000);
    sim.load_uniform_plasma(e, 2, 0.1f, 0, 0, 0.3f);
    sim.load_uniform_plasma(i, 2, 0.01f, 0, 0, -0.3f);
    sim.run(6);
    EXPECT_EQ(sim.global_np(e), 6 * 6 * 8 * 2);
    EXPECT_EQ(sim.global_np(i), 6 * 6 * 8 * 2);
    const auto energy = sim.energies();
    EXPECT_TRUE(std::isfinite(energy.total()));
  });
}
