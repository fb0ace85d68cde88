// Tile-level task decomposition tests (core/tiles.hpp, pk/stealing.hpp,
// docs/TILES.md): tile geometry, bucket/sort equivalence with the global
// stable voxel sort, seam correctness of tile-private accumulator blocks
// (boundary, corner, reflecting-wall crossings vs the untiled reference),
// the work-stealing pool, the StepGraph serial and pool executors, and
// the tiled step's guarantees — bit-determinism across worker counts,
// bit-identical checkpoint resume, and the physics invariants (charge
// continuity across tile seams and the periodic z wrap, exact particle
// counts).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <thread>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "core/decks.hpp"
#include "core/simulation.hpp"
#include "core/step_graph.hpp"
#include "core/tiles.hpp"
#include "pk/pk.hpp"
#include "pk/stealing.hpp"

namespace core = vpic::core;
namespace pk = vpic::pk;
using pk::index_t;

namespace {

class PkEnv : public ::testing::Environment {
 public:
  // One kernel thread for the calling thread's kernels (the step pool's
  // workers always use one); CI also runs the invariant suite at
  // OMP_NUM_THREADS=4. StealPool worker threads are independent of this
  // setting, so the stealing tests still exercise real parallelism. The
  // tune cache is pinned off: a stale .vpic_tune.json can flip sort/push
  // dispatch per-layout, breaking the bit-identity comparisons.
  void SetUp() override {
    setenv("VPIC_TUNE", "off", 1);
    pk::initialize(1);
  }
};
[[maybe_unused]] const auto* const env =
    ::testing::AddGlobalTestEnvironment(new PkEnv);

void expect_bitwise_equal(core::Simulation& a, core::Simulation& b) {
  const auto& fa = a.fields();
  const auto& fb = b.fields();
  const pk::View<float, 1>* va[] = {&fa.ex, &fa.ey, &fa.ez, &fa.bx, &fa.by,
                                    &fa.bz, &fa.jx, &fa.jy, &fa.jz};
  const pk::View<float, 1>* vb[] = {&fb.ex, &fb.ey, &fb.ez, &fb.bx, &fb.by,
                                    &fb.bz, &fb.jx, &fb.jy, &fb.jz};
  const char* names[] = {"ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz"};
  for (int c = 0; c < 9; ++c) {
    ASSERT_EQ(va[c]->size(), vb[c]->size());
    for (index_t i = 0; i < va[c]->size(); ++i)
      ASSERT_EQ((*va[c])(i), (*vb[c])(i))
          << names[c] << " diverges at voxel " << i;
  }
  ASSERT_EQ(a.num_species(), b.num_species());
  for (std::size_t s = 0; s < a.num_species(); ++s) {
    const auto& sa = a.species(s);
    const auto& sb = b.species(s);
    ASSERT_EQ(sa.np, sb.np) << sa.name;
    for (index_t i = 0; i < sa.np; ++i) {
      ASSERT_EQ(sa.p(i).dx, sb.p(i).dx) << sa.name << " particle " << i;
      ASSERT_EQ(sa.p(i).dy, sb.p(i).dy) << sa.name << " particle " << i;
      ASSERT_EQ(sa.p(i).dz, sb.p(i).dz) << sa.name << " particle " << i;
      ASSERT_EQ(sa.p(i).i, sb.p(i).i) << sa.name << " particle " << i;
      ASSERT_EQ(sa.p(i).ux, sb.p(i).ux) << sa.name << " particle " << i;
      ASSERT_EQ(sa.p(i).uy, sb.p(i).uy) << sa.name << " particle " << i;
      ASSERT_EQ(sa.p(i).uz, sb.p(i).uz) << sa.name << " particle " << i;
      ASSERT_EQ(sa.p(i).w, sb.p(i).w) << sa.name << " particle " << i;
    }
  }
}

// 4-ulp comparison, not bitwise: this test TU inlines move_p twice (once
// per accumulator type) and -ffp-contract=fast may fuse multiply-adds
// differently in each expansion. The production push TU instantiates both
// paths together, and its bit-identity is proven end-to-end by the
// TiledStep.*BitIdentical* tests below; here we verify the *seam physics*
// (deposits in the right voxels with the right values).
void expect_acc_equal(const core::AccumulatorArray& x,
                      const core::AccumulatorArray& y) {
  ASSERT_EQ(x.a.size(), y.a.size());
  for (index_t v = 0; v < x.a.size(); ++v)
    for (int c = 0; c < 4; ++c) {
      ASSERT_FLOAT_EQ(x.a(v).jx[c], y.a(v).jx[c]) << "jx voxel " << v;
      ASSERT_FLOAT_EQ(x.a(v).jy[c], y.a(v).jy[c]) << "jy voxel " << v;
      ASSERT_FLOAT_EQ(x.a(v).jz[c], y.a(v).jz[c]) << "jz voxel " << v;
    }
}

}  // namespace

// ----------------------------------------------------------------------
// TileMap geometry.
// ----------------------------------------------------------------------

TEST(TileMap, PartitionsInteriorPlanesContiguously) {
  const core::Grid g(4, 4, 10, 4, 4, 10, 0.1f);
  const core::TileMap tm(g, 3);
  ASSERT_EQ(tm.count(), 3);
  EXPECT_EQ(tm.z_lo(0), 1);
  EXPECT_EQ(tm.z_hi(tm.count() - 1), g.nz);
  int planes = 0;
  for (int t = 0; t < tm.count(); ++t) {
    if (t > 0) EXPECT_EQ(tm.z_lo(t), tm.z_hi(t - 1) + 1);
    EXPECT_LE(tm.z_lo(t), tm.z_hi(t));
    planes += tm.z_hi(t) - tm.z_lo(t) + 1;
    EXPECT_EQ(tm.v_lo(t), static_cast<index_t>(tm.z_lo(t)) * tm.plane_voxels());
    EXPECT_EQ(tm.v_hi(t),
              static_cast<index_t>(tm.z_hi(t) + 1) * tm.plane_voxels());
  }
  EXPECT_EQ(planes, g.nz);
}

TEST(TileMap, CountClampsToInteriorPlanes) {
  const core::Grid g(4, 4, 3, 4, 4, 3, 0.1f);
  EXPECT_EQ(core::TileMap(g, 64).count(), 3);  // never more tiles than planes
  EXPECT_EQ(core::TileMap(g, 0).count(), 1);
  EXPECT_GE(core::TileMap::auto_count(g, 2), 1);
  EXPECT_LE(core::TileMap::auto_count(g, 2), 3);
}

TEST(TileMap, TileOfVoxelMatchesPlaneOwnershipAndClampsGhosts) {
  const core::Grid g(4, 4, 8, 4, 4, 8, 0.1f);
  const core::TileMap tm(g, 4);
  for (int t = 0; t < tm.count(); ++t)
    for (int z = tm.z_lo(t); z <= tm.z_hi(t); ++z)
      EXPECT_EQ(tm.tile_of_voxel(g.voxel(2, 2, z)), t) << "plane " << z;
  EXPECT_EQ(tm.tile_of_voxel(g.voxel(2, 2, 0)), 0);           // low ghost
  EXPECT_EQ(tm.tile_of_voxel(g.voxel(2, 2, g.nz + 1)),        // high ghost
            tm.count() - 1);
}

// ----------------------------------------------------------------------
// Bucketing and per-tile sorting vs the global stable voxel sort.
// ----------------------------------------------------------------------

namespace {

// Deterministic scramble of cell assignments across the whole interior.
core::Species make_scrambled_species(const core::Grid& g, int n) {
  core::Species sp("e", -1.0f, 1.0f, static_cast<index_t>(n) + 8);
  for (int k = 0; k < n; ++k) {
    core::Particle p{};
    const int ix = 1 + (k * 7 + 3) % g.nx;
    const int iy = 1 + (k * 5 + 1) % g.ny;
    const int iz = 1 + (k * 11 + 2) % g.nz;
    p.i = static_cast<std::int32_t>(g.voxel(ix, iy, iz));
    p.ux = static_cast<float>(k);  // identity tag: tracks the permutation
    sp.p(sp.np++) = p;
  }
  return sp;
}

}  // namespace

TEST(BucketByTile, PartitionsByTileStably) {
  const core::Grid g(4, 4, 8, 4, 4, 8, 0.1f);
  const core::TileMap tm(g, 4);
  core::Species sp = make_scrambled_species(g, 200);
  core::bucket_by_tile(sp, tm);

  ASSERT_EQ(static_cast<int>(sp.tiles.size()), tm.count());
  EXPECT_EQ(sp.tiles.front().begin, 0);
  EXPECT_EQ(sp.tiles.back().end, sp.np);
  float prev_tag = -1.0f;
  for (int t = 0; t < tm.count(); ++t) {
    const auto& slot = sp.tiles[static_cast<std::size_t>(t)];
    if (t > 0) EXPECT_EQ(slot.begin, sp.tiles[static_cast<std::size_t>(t - 1)].end);
    EXPECT_FALSE(slot.sorted_hint);  // bucketed, not voxel-sorted
    prev_tag = -1.0f;
    for (index_t i = slot.begin; i < slot.end; ++i) {
      EXPECT_EQ(tm.tile_of_voxel(sp.p(i).i), t) << "particle " << i;
      // Stability: tags ascend within a tile (insertion order preserved).
      EXPECT_GT(sp.p(i).ux, prev_tag);
      prev_tag = sp.p(i).ux;
    }
  }
}

TEST(BucketByTile, AscendingVoxelOrderIsIdentityPermutation) {
  // The bit-identity guarantee of the Deterministic mode rests on this:
  // decks load particles in ascending voxel order, so the initial bucket
  // must not move anything.
  const core::Grid g(4, 4, 8, 4, 4, 8, 0.1f);
  const core::TileMap tm(g, 3);
  core::Species sp("e", -1.0f, 1.0f, 600);
  int k = 0;
  for (int iz = 1; iz <= g.nz; ++iz)
    for (int iy = 1; iy <= g.ny; ++iy)
      for (int ix = 1; ix <= g.nx; ++ix) {
        core::Particle p{};
        p.i = static_cast<std::int32_t>(g.voxel(ix, iy, iz));
        p.ux = static_cast<float>(k++);
        sp.p(sp.np++) = p;
      }
  core::bucket_by_tile(sp, tm);
  for (index_t i = 0; i < sp.np; ++i)
    ASSERT_EQ(sp.p(i).ux, static_cast<float>(i)) << "moved at " << i;
}

TEST(TiledSort, MatchesGlobalStableSortByVoxel) {
  const core::Grid g(4, 4, 8, 4, 4, 8, 0.1f);
  const core::TileMap tm(g, 4);
  core::Species sp = make_scrambled_species(g, 300);

  // Reference: stable sort of (voxel, tag) pairs.
  std::vector<std::pair<std::int32_t, float>> ref;
  ref.reserve(static_cast<std::size_t>(sp.np));
  for (index_t i = 0; i < sp.np; ++i) ref.emplace_back(sp.p(i).i, sp.p(i).ux);
  std::stable_sort(ref.begin(), ref.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  core::bucket_by_tile(sp, tm);
  for (int t = 0; t < tm.count(); ++t) core::sort_tile(sp, tm, t);
  core::finish_tile_sort(sp);

  for (index_t i = 0; i < sp.np; ++i) {
    ASSERT_EQ(sp.p(i).i, ref[static_cast<std::size_t>(i)].first) << i;
    ASSERT_EQ(sp.p(i).ux, ref[static_cast<std::size_t>(i)].second) << i;
  }
  for (const auto& slot : sp.tiles) {
    EXPECT_TRUE(slot.sorted_hint);
    EXPECT_EQ(slot.steps_since_sort, 0);
  }
}

TEST(TileImbalance, ReportsMaxOverMean) {
  const core::Grid g(4, 4, 4, 4, 4, 4, 0.1f);
  const core::TileMap tm(g, 4);
  core::Species sp("e", -1.0f, 1.0f, 64);
  for (int k = 0; k < 30; ++k) {  // all particles in plane 1 -> tile 0
    core::Particle p{};
    p.i = static_cast<std::int32_t>(g.voxel(1 + k % g.nx, 1, 1));
    sp.p(sp.np++) = p;
  }
  core::bucket_by_tile(sp, tm);
  EXPECT_NEAR(core::tile_imbalance(sp), 4.0, 1e-9);  // 30 / (30/4)
}

// ----------------------------------------------------------------------
// Tile seam correctness: move_p into a tile-private block, merged, must
// equal the global-accumulator deposit — boundary, corner, and
// reflecting-wall crossings included.
// ----------------------------------------------------------------------

namespace {

// Run the same trajectory through a TileAccumulator (owned by the tile of
// the particle's starting voxel) and the global array; compare deposits
// and final particle state bit for bit.
void check_seam_crossing(const core::Grid& g, const core::TileMap& tm,
                         core::Particle start, float dx, float dy, float dz,
                         std::uint8_t periodic_mask,
                         std::uint8_t reflect_mask) {
  core::Particle p_tile = start, p_ref = start;

  core::AccumulatorArray ref(g);
  ref.clear();
  const auto r_ref = core::move_p<false>(p_ref, dx, dy, dz, 1.0f, ref, g,
                                         periodic_mask, nullptr, reflect_mask);

  const int t = tm.tile_of_voxel(start.i);
  core::TileAccumulator blk(g, tm, t);
  blk.clear();
  const auto r_tile = core::move_p<false>(p_tile, dx, dy, dz, 1.0f, blk, g,
                                          periodic_mask, nullptr, reflect_mask);
  core::AccumulatorArray merged(g);
  merged.clear();
  blk.merge_into(merged);

  EXPECT_EQ(r_tile, r_ref);
  EXPECT_EQ(p_tile.i, p_ref.i);
  EXPECT_FLOAT_EQ(p_tile.dx, p_ref.dx);
  EXPECT_FLOAT_EQ(p_tile.dy, p_ref.dy);
  EXPECT_FLOAT_EQ(p_tile.dz, p_ref.dz);
  EXPECT_FLOAT_EQ(p_tile.ux, p_ref.ux);
  EXPECT_FLOAT_EQ(p_tile.uy, p_ref.uy);
  EXPECT_FLOAT_EQ(p_tile.uz, p_ref.uz);
  expect_acc_equal(merged, ref);
}

}  // namespace

TEST(TileSeams, ZBoundaryCrossingDepositsIntoGhostPlaneWindow) {
  const core::Grid g(4, 4, 8, 4, 4, 8, 0.1f);
  const core::TileMap tm(g, 2);  // seam between planes 4 and 5
  core::Particle p{};
  p.dz = 0.6f;
  p.i = static_cast<std::int32_t>(g.voxel(2, 2, tm.z_hi(0)));
  p.uz = 0.5f;
  check_seam_crossing(g, tm, p, 0.0f, 0.0f, 0.8f, 0b111, 0);
}

TEST(TileSeams, CornerCrossingThroughSeamPlane) {
  const core::Grid g(4, 4, 8, 4, 4, 8, 0.1f);
  const core::TileMap tm(g, 2);
  core::Particle p{};
  p.dx = 0.9f;
  p.dy = 0.9f;
  p.dz = 0.9f;
  p.i = static_cast<std::int32_t>(g.voxel(3, 3, tm.z_hi(0)));
  // Crosses +x, +y, and the +z seam in one move: four deposit segments,
  // the last landing in the neighbor tile's first plane (our ghost plane).
  check_seam_crossing(g, tm, p, 0.8f, 0.8f, 0.8f, 0b111, 0);
}

TEST(TileSeams, ReflectingWallAtDomainFace) {
  const core::Grid g(4, 4, 8, 4, 4, 8, 0.1f);
  const core::TileMap tm(g, 2);
  core::Particle p{};
  p.dz = 0.5f;
  p.i = static_cast<std::int32_t>(g.voxel(2, 2, g.nz));  // top plane, tile 1
  p.uz = 1.0f;
  check_seam_crossing(g, tm, p, 0.0f, 0.0f, 0.9f, 0b011, 0b100);
}

TEST(TileSeams, PeriodicZWrapLandsInOverflowAndMergesExactly) {
  const core::Grid g(4, 4, 8, 4, 4, 8, 0.1f);
  const core::TileMap tm(g, 2);
  core::Particle start{};
  start.dz = 0.9f;
  start.i = static_cast<std::int32_t>(g.voxel(2, 2, g.nz));
  check_seam_crossing(g, tm, start, 0.0f, 0.0f, 0.4f, 0b111, 0);

  // The wrapped deposit (plane 1) is outside tile 1's window (planes
  // 3..9): confirm the overflow map actually caught it.
  core::Particle p = start;
  core::TileAccumulator blk(g, tm, 1);
  blk.clear();
  (void)core::move_p<false>(p, 0.0f, 0.0f, 0.4f, 1.0f, blk, g);
  EXPECT_GE(blk.overflow_size(), 1u);
}

TEST(TileAccumulator, ClearResetsWindowAndOverflow) {
  const core::Grid g(4, 4, 8, 4, 4, 8, 0.1f);
  const core::TileMap tm(g, 2);
  core::TileAccumulator blk(g, tm, 0);
  blk.clear();
  blk.a(g.voxel(2, 2, 2)).jx[0] = 1.0f;                // window
  blk.a(g.voxel(2, 2, g.nz)).jy[1] = 2.0f;             // overflow
  EXPECT_EQ(blk.overflow_size(), 1u);
  blk.clear();
  EXPECT_EQ(blk.overflow_size(), 0u);
  core::AccumulatorArray merged(g);
  merged.clear();
  blk.merge_into(merged);
  for (index_t v = 0; v < merged.a.size(); ++v)
    for (int c = 0; c < 4; ++c) ASSERT_EQ(merged.a(v).jx[c], 0.0f);
}

// ----------------------------------------------------------------------
// Work-stealing pool.
// ----------------------------------------------------------------------

TEST(StealPool, RunsEverySeededTaskExactlyOnce) {
  pk::StealPool pool(4);
  constexpr int kTasks = 64;
  std::vector<std::atomic<int>> ran(kTasks);
  for (int k = 0; k < kTasks; ++k)
    pool.seed(k % pool.workers(), [&ran, k] { ran[static_cast<std::size_t>(k)]++; });
  const auto stats = pool.run();
  EXPECT_EQ(stats.tasks_run, static_cast<std::uint64_t>(kTasks));
  for (int k = 0; k < kTasks; ++k) EXPECT_EQ(ran[static_cast<std::size_t>(k)].load(), 1) << k;
}

TEST(StealPool, StealsWhenSeedingIsLopsided) {
  pk::StealPool pool(4);
  std::atomic<int> ran{0};
  // Everything lands on worker 0's deque; the other three must steal.
  // Tasks sleep (not spin) so on a 1-CPU box the owner yields the core
  // mid-task and the thieves actually get scheduled while work remains.
  for (int k = 0; k < 100; ++k)
    pool.seed(0, [&ran] {
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      ran++;
    });
  const auto stats = pool.run();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_GT(stats.steal_attempts, 0u);
  EXPECT_GT(stats.tasks_stolen, 0u);
}

TEST(StealPool, SpawnFromInsideATaskRunsInSameRound) {
  pk::StealPool pool(2);
  std::atomic<int> ran{0};
  pool.seed(0, [&pool, &ran] {
    ran++;
    for (int k = 0; k < 8; ++k) pool.spawn([&ran] { ran++; });
  });
  const auto stats = pool.run();
  EXPECT_EQ(ran.load(), 9);
  EXPECT_EQ(stats.tasks_run, 9u);
}

TEST(StealPool, CurrentWorkerIsSetInsideTasksOnly) {
  pk::StealPool pool(3);
  EXPECT_EQ(pk::StealPool::current_worker(), -1);
  std::atomic<int> bad{0};
  for (int k = 0; k < 12; ++k)
    pool.seed(k % 3, [&bad] {
      const int w = pk::StealPool::current_worker();
      if (w < 0 || w >= 3) bad++;
    });
  pool.run();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(pk::StealPool::current_worker(), -1);
}

TEST(StealPool, FirstExceptionPropagatesAfterRoundDrains) {
  pk::StealPool pool(2);
  std::atomic<int> ran{0};
  pool.seed(0, [] { throw std::runtime_error("task boom"); });
  for (int k = 0; k < 10; ++k) pool.seed(k % 2, [&ran] { ran++; });
  EXPECT_THROW(pool.run(), std::runtime_error);
  EXPECT_EQ(ran.load(), 10);  // the round still drained
  // The pool stays usable for the next round.
  pool.seed(1, [&ran] { ran++; });
  EXPECT_NO_THROW(pool.run());
  EXPECT_EQ(ran.load(), 11);
}

// ----------------------------------------------------------------------
// StepGraph serial + pool executors.
// ----------------------------------------------------------------------

TEST(StepGraphSerial, RunsPhasesInInsertionOrder) {
  core::StepGraph g;
  std::vector<std::string> order;
  for (const char* n : {"a", "b", "c"})
    g.add_phase({n, {}, {std::string("res.") + n}, [&order, n] { order.emplace_back(n); }});
  g.add_edge("a", "b");
  g.add_edge("b", "c");
  g.execute_serial();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "a");
  EXPECT_EQ(order[1], "b");
  EXPECT_EQ(order[2], "c");
  EXPECT_EQ(g.last_concurrency_peak(), 1u);
}

TEST(StepGraphSerial, BackwardEdgeRejected) {
  core::StepGraph g;
  g.add_phase({"a", {}, {"ra"}, [] {}});
  g.add_phase({"b", {}, {"rb"}, [] {}});
  g.add_edge("b", "a");  // acyclic, but violates insertion order
  EXPECT_THROW(g.execute_serial(), std::logic_error);
}

TEST(StepGraphStealing, RespectsDependenciesAndRunsEverything) {
  pk::StealPool pool(3);
  core::StepGraph g;
  std::atomic<int> done_a{0};
  std::atomic<int> bad{0};
  std::atomic<int> mids{0};
  g.add_phase({"a", {}, {"x"}, [&done_a] { done_a = 1; }, 4.0});
  for (int k = 0; k < 6; ++k) {
    const std::string name = "mid" + std::to_string(k);
    g.add_phase({name,
                 {"x"},
                 {"y" + std::to_string(k)},
                 [&done_a, &bad, &mids] {
                   if (!done_a.load()) bad++;
                   mids++;
                 },
                 1.0 + k});
    g.add_edge("a", name);
  }
  g.add_phase({"z",
               {},
               {"z"},
               [&mids, &bad] {
                 if (mids.load() != 6) bad++;
               }});
  for (int k = 0; k < 6; ++k) g.add_edge("mid" + std::to_string(k), "z");
  g.validate();
  const auto stats = g.execute(pool);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(stats.tasks_run, 8u);
  EXPECT_EQ(g.last_stats().size(), 8u);
}

TEST(StepGraphStealing, TaskExceptionPropagates) {
  pk::StealPool pool(2);
  core::StepGraph g;
  g.add_phase({"boom", {}, {"x"}, [] { throw std::runtime_error("phase boom"); }});
  g.add_phase({"after", {"x"}, {"y"}, [] {}});
  g.add_edge("boom", "after");
  EXPECT_THROW(g.execute(pool), std::runtime_error);
}

// ----------------------------------------------------------------------
// Clumped LPI deck (LpiParams::clump_factor).
// ----------------------------------------------------------------------

TEST(ClumpedDeck, ZeroFactorIsBitwiseIdenticalToBaseline) {
  core::decks::LpiParams p;
  p.nx = 8;
  p.ny = 4;
  p.nz = 6;
  p.ppc = 4;
  core::Simulation base = core::decks::make_lpi(p);
  p.clump_factor = 0.0f;
  core::Simulation zero = core::decks::make_lpi(p);
  expect_bitwise_equal(base, zero);
}

TEST(ClumpedDeck, ClumpingConcentratesParticlesNotCharge) {
  core::decks::LpiParams p;
  p.nx = 8;
  p.ny = 4;
  p.nz = 12;
  p.ppc = 4;
  core::Simulation uni = core::decks::make_lpi(p);
  p.clump_factor = 6.0f;
  core::Simulation clump = core::decks::make_lpi(p);

  const auto& su = uni.species(0);
  const auto& sc = clump.species(0);
  EXPECT_GT(sc.np, su.np);  // boosted cells carry extra particles

  // Per-cell: particle count varies, summed weight stays 1 (the weight is
  // divided by the same boost, so the physical density is unchanged).
  std::map<std::int32_t, int> count;
  std::map<std::int32_t, double> weight;
  for (index_t i = 0; i < sc.np; ++i) {
    count[sc.p(i).i]++;
    weight[sc.p(i).i] += static_cast<double>(sc.p(i).w);
  }
  int min_c = 1 << 30, max_c = 0;
  for (const auto& [v, c] : count) {
    min_c = std::min(min_c, c);
    max_c = std::max(max_c, c);
  }
  EXPECT_GT(max_c, p.ppc);       // center cells clumped
  EXPECT_LE(min_c, p.ppc);       // edge cells at baseline
  for (const auto& [v, w] : weight) EXPECT_NEAR(w, 1.0, 1e-5) << "voxel " << v;
}

// ----------------------------------------------------------------------
// Tiled simulation: bit-determinism across worker counts, checkpoint
// resume, invariants, telemetry, per-tile staleness.
// ----------------------------------------------------------------------

TEST(TiledStep, BitDeterministicAcrossWorkerCounts) {
  core::decks::LpiParams p;
  p.nx = 8;
  p.ny = 4;
  p.nz = 8;
  p.ppc = 4;
  p.clump_factor = 4.0f;

  auto run_with = [&p](std::size_t workers) {
    core::Simulation sim = core::decks::make_lpi(p);
    sim.config().tiles.enabled = true;
    sim.config().tiles.count = 4;
    sim.config().graph_instances = workers;
    sim.run(40);
    return sim;
  };
  core::Simulation one = run_with(1);
  core::Simulation two = run_with(2);
  core::Simulation four = run_with(4);
  core::Simulation again = run_with(2);  // same worker count, fresh run
  expect_bitwise_equal(one, two);
  expect_bitwise_equal(one, four);
  expect_bitwise_equal(two, again);
  EXPECT_GT(two.last_tile_stats().steal.tasks_run, 0u);
}

TEST(TiledStep, CheckpointResumeIsBitIdentical) {
  const auto dir = std::filesystem::temp_directory_path() / "vpic_tiles_ckpt";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "tiled.ckpt").string();
  core::decks::LpiParams p;
  p.nx = 8;
  p.ny = 4;
  p.nz = 8;
  p.ppc = 4;
  auto make = [&p] {
    core::Simulation sim = core::decks::make_lpi(p);
    sim.config().tiles.enabled = true;
    sim.config().tiles.count = 4;
    sim.config().graph_instances = 2;
    return sim;
  };
  // The restored engine must reproduce the uninterrupted run's tile
  // ranges and per-tile push dispatch. At sort steps (interval 20) a
  // re-bucket would do; between sorts (step 27) the ranges also depend on
  // where the last bucketing left each drifting particle, so the
  // checkpoint records them.
  for (const int at : {20, 27, 40}) {
    SCOPED_TRACE("checkpoint at step " + std::to_string(at));
    core::Simulation ref = make();
    ref.run(at);
    ref.checkpoint(path);
    core::Simulation resumed = make();
    resumed.restore(path);
    ref.run(25);
    resumed.run(25);
    EXPECT_EQ(resumed.step_count(), ref.step_count());
    expect_bitwise_equal(ref, resumed);
  }
  std::filesystem::remove_all(dir);
}

namespace {

// Uniform drifting plasma on a periodic box: the z drift carries
// particles across every tile seam and through the periodic z wrap.
core::Simulation make_drifting(std::size_t workers) {
  core::SimulationConfig cfg;
  cfg.grid = core::Grid(8, 4, 8, 8.0f, 4.0f, 8.0f, 0.0f);
  cfg.grid.dt = core::Grid::courant_dt(cfg.grid.dx, cfg.grid.dy,
                                       cfg.grid.dz, 0.7f);
  cfg.sort_interval = 5;
  cfg.tiles.enabled = true;
  cfg.tiles.count = 4;
  cfg.graph_instances = workers;
  core::Simulation sim(cfg);
  const auto e = sim.add_species("electron", -1.0f, 1.0f, 8 * 4 * 8 * 8);
  const auto i = sim.add_species("ion", 1.0f, 25.0f, 8 * 4 * 8 * 4);
  sim.load_uniform_plasma(e, 8, 0.1f, 0.02f, -0.03f, 0.6f);
  sim.load_uniform_plasma(i, 4, 0.02f, 0.0f, 0.0f, -0.3f);
  return sim;
}

/// max |div J + d(rho)/dt| / max(|div J|, |d(rho)/dt|) for one step whose
/// charge densities before and after are rho0 / rho1 (the J the step
/// deposited stays in the field array until the next step).
double continuity_residual(core::Simulation& sim,
                           const pk::View<double, 1>& rho0,
                           const pk::View<double, 1>& rho1) {
  const auto& g = sim.grid();
  const auto& f = sim.fields();
  auto wrap = [](int i, int n) { return i < 1 ? i + n : i; };
  double worst = 0, scale = 0;
  for (int iz = 1; iz <= g.nz; ++iz)
    for (int iy = 1; iy <= g.ny; ++iy)
      for (int ix = 1; ix <= g.nx; ++ix) {
        const index_t v = g.voxel(ix, iy, iz);
        const double drho = (rho1(v) - rho0(v)) / g.dt;
        const double divj =
            (f.jx(v) - f.jx(g.voxel(wrap(ix - 1, g.nx), iy, iz))) / g.dx +
            (f.jy(v) - f.jy(g.voxel(ix, wrap(iy - 1, g.ny), iz))) / g.dy +
            (f.jz(v) - f.jz(g.voxel(ix, iy, wrap(iz - 1, g.nz)))) / g.dz;
        worst = std::max(worst, std::abs(drho + divj));
        scale = std::max({scale, std::abs(drho), std::abs(divj)});
      }
  return scale > 0 ? worst / scale : 1.0;
}

}  // namespace

class TiledInvariants : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TiledInvariants, ContinuityAndExactCountsAcrossSeamsAndWrap) {
  core::Simulation sim = make_drifting(GetParam());
  const int nz = sim.grid().nz;
  std::vector<index_t> np0;
  for (std::size_t s = 0; s < sim.num_species(); ++s)
    np0.push_back(sim.species(s).np);
  std::size_t seam_crossings = 0, wrap_crossings = 0;
  for (int step = 1; step <= 12; ++step) {
    // Plane of every particle before the step (sorts reorder particles
    // only at the end of a sort step, so indices still match after the
    // push on every other step).
    const auto& g = sim.grid();
    std::vector<std::vector<int>> plane(sim.num_species());
    for (std::size_t s = 0; s < sim.num_species(); ++s)
      for (index_t n = 0; n < sim.species(s).np; ++n) {
        int ix, iy, iz;
        g.cell_of(sim.species(s).p(n).i, ix, iy, iz);
        plane[s].push_back(iz);
      }
    const auto rho0 = sim.charge_density();
    sim.step();
    const auto rho1 = sim.charge_density();
    EXPECT_LT(continuity_residual(sim, rho0, rho1), 5e-4) << "step " << step;
    for (std::size_t s = 0; s < sim.num_species(); ++s) {
      ASSERT_EQ(sim.species(s).np, np0[s]) << sim.species(s).name;
      if (step % sim.config().sort_interval == 0) continue;
      for (index_t n = 0; n < sim.species(s).np; ++n) {
        int ix, iy, iz;
        g.cell_of(sim.species(s).p(n).i, ix, iy, iz);
        const int was = plane[s][static_cast<std::size_t>(n)];
        if (was == iz) continue;
        if ((was == nz && iz == 1) || (was == 1 && iz == nz))
          ++wrap_crossings;
        else if (sim.tile_map().tile_of_voxel(g.voxel(ix, iy, was)) !=
                 sim.tile_map().tile_of_voxel(g.voxel(ix, iy, iz)))
          ++seam_crossings;
      }
    }
  }
  EXPECT_GT(seam_crossings, 0u);
  EXPECT_GT(wrap_crossings, 0u);
}

INSTANTIATE_TEST_SUITE_P(Workers, TiledInvariants,
                         ::testing::Values(std::size_t{1}, std::size_t{4}));

TEST(TiledStep, PublishesTileTelemetry) {
  core::decks::LpiParams p;
  p.nx = 8;
  p.ny = 4;
  p.nz = 12;
  p.ppc = 4;
  p.clump_factor = 6.0f;
  core::Simulation sim = core::decks::make_lpi(p);
  sim.config().tiles.enabled = true;
  sim.config().tiles.count = 4;
  sim.config().graph_instances = 2;
  sim.step();
  const auto& st = sim.last_tile_stats();
  EXPECT_EQ(st.tiles, 4);
  EXPECT_GT(st.imbalance, 1.05);  // the clump loads the middle tiles
  EXPECT_GT(st.steal.tasks_run, 0u);
  EXPECT_EQ(sim.tile_map().count(), 4);
  // Phase stats carry per-tile push phases.
  bool saw_tile_push = false;
  for (const auto& ps : sim.last_phase_stats())
    if (ps.name.rfind("push[", 0) == 0 &&
        ps.name.find(".t") != std::string::npos)
      saw_tile_push = true;
  EXPECT_TRUE(saw_tile_push);
}

TEST(TiledStep, PerTileSortednessAgesAndResetsAtSortSteps) {
  core::decks::LpiParams p;
  p.nx = 8;
  p.ny = 4;
  p.nz = 6;
  p.ppc = 2;
  core::Simulation sim = core::decks::make_lpi(p);
  sim.config().tiles.enabled = true;
  sim.config().tiles.count = 3;
  sim.config().graph_instances = 2;
  sim.config().sort_interval = 5;

  sim.run(5);  // step 5 is a sort step: slots end freshly sorted
  for (const auto& slot : sim.species(0).tiles) {
    EXPECT_TRUE(slot.sorted_hint);
    EXPECT_EQ(slot.steps_since_sort, 0);
  }
  sim.step();  // one more step ages every slot by one
  for (const auto& slot : sim.species(0).tiles)
    EXPECT_EQ(slot.steps_since_sort, 1);
}

TEST(TiledStep, PhasePollFiresAtTileGranularity) {
  core::decks::LpiParams p;
  p.nx = 8;
  p.ny = 4;
  p.nz = 8;
  p.ppc = 2;
  core::Simulation sim = core::decks::make_lpi(p);
  sim.config().tiles.enabled = true;
  sim.config().tiles.count = 4;
  std::atomic<int> polls{0};
  sim.set_phase_poll([&polls] { polls++; });
  sim.step();
  // At minimum one poll per per-tile interp and push phase: far more
  // observation points per step than one whole-step yield.
  EXPECT_GE(polls.load(), 8);
}

TEST(TiledStep, RequiresStandardSortOrder) {
  core::decks::LpiParams p;
  p.nx = 8;
  p.ny = 4;
  p.nz = 4;
  p.ppc = 2;
  core::Simulation sim = core::decks::make_lpi(p);
  sim.config().tiles.enabled = true;
  sim.config().sort_order = vpic::sort::SortOrder::Strided;
  EXPECT_THROW(sim.step(), std::logic_error);
}

TEST(TiledStep, RunAwareProfitableRangeRespectsTileStaleness) {
  core::decks::LpiParams p;
  p.nx = 8;
  p.ny = 4;
  p.nz = 4;
  p.ppc = 4;
  core::Simulation sim = core::decks::make_lpi(p);
  const auto& sp = sim.species(0);
  // Unsorted or unknown-staleness tiles must never take the run-aware path.
  EXPECT_FALSE(core::run_aware_profitable_range(sp, 0, sp.np, false, 0));
  EXPECT_FALSE(core::run_aware_profitable_range(sp, 0, sp.np, true, -1));
  EXPECT_FALSE(core::run_aware_profitable_range(sp, 5, 5, true, 0));  // empty
}
