// Tests for the dependency-aware step graph (core/step_graph.hpp) and its
// integration as the default Simulation scheduler (docs/ASYNC.md):
// construction-time validation (cycles, undeclared races), execution
// semantics on the work-stealing pool (once, ordered, concurrent when
// unordered, exception propagation), the headline equivalence guarantee —
// a graph-scheduled step is bit-identical to the legacy sequential
// schedule on the LPI deck — and reuse of one persistent step pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/decks.hpp"
#include "core/simulation.hpp"
#include "core/step_graph.hpp"
#include "pk/pk.hpp"
#include "pk/stealing.hpp"

namespace core = vpic::core;
namespace pk = vpic::pk;

namespace {

class PkEnv : public ::testing::Environment {
 public:
  // One kernel thread: with >1 OpenMP threads the float-atomic current
  // deposits are nondeterministic *within* a kernel (even two sequential
  // runs diverge), which would mask what this suite is about — that the
  // graph *scheduler* never reorders conflicting phases. StealPool worker
  // threads (what the graph schedules onto) are independent of this
  // setting, so the concurrency tests still exercise real parallelism.
  // The tune cache is pinned off: a stale .vpic_tune.json can flip
  // dispatch decisions between the two runs being compared bit-for-bit.
  void SetUp() override {
    setenv("VPIC_TUNE", "off", 1);
    pk::initialize(1);
  }
};
[[maybe_unused]] const auto* const env =
    ::testing::AddGlobalTestEnvironment(new PkEnv);

core::StepPhase phase(std::string name, std::vector<std::string> reads,
                      std::vector<std::string> writes,
                      std::function<void()> fn = [] {}) {
  return {std::move(name), std::move(reads), std::move(writes),
          std::move(fn)};
}

}  // namespace

// ----------------------------------------------------------------------
// Construction and validation.
// ----------------------------------------------------------------------

TEST(StepGraphValidate, EmptyNameRejected) {
  core::StepGraph g;
  EXPECT_THROW(g.add_phase(phase("", {}, {})), std::invalid_argument);
}

TEST(StepGraphValidate, DuplicateNameRejected) {
  core::StepGraph g;
  g.add_phase(phase("a", {}, {}));
  EXPECT_THROW(g.add_phase(phase("a", {}, {})), std::invalid_argument);
}

TEST(StepGraphValidate, UnknownEdgeEndpointRejected) {
  core::StepGraph g;
  g.add_phase(phase("a", {}, {}));
  EXPECT_THROW(g.add_edge("a", "nope"), std::invalid_argument);
  EXPECT_THROW(g.add_edge("nope", "a"), std::invalid_argument);
}

TEST(StepGraphValidate, SelfEdgeRejected) {
  core::StepGraph g;
  g.add_phase(phase("a", {}, {}));
  EXPECT_THROW(g.add_edge("a", "a"), std::invalid_argument);
}

TEST(StepGraphValidate, CycleRejected) {
  core::StepGraph g;
  g.add_phase(phase("a", {}, {}));
  g.add_phase(phase("b", {}, {}));
  g.add_phase(phase("c", {}, {}));
  g.add_edge("a", "b");
  g.add_edge("b", "c");
  g.add_edge("c", "a");
  EXPECT_THROW(g.validate(), std::logic_error);
}

TEST(StepGraphValidate, UnorderedWriteWriteRaceRejected) {
  core::StepGraph g;
  g.add_phase(phase("a", {}, {"acc"}));
  g.add_phase(phase("b", {}, {"acc"}));
  try {
    g.validate();
    FAIL() << "unordered write-write race accepted";
  } catch (const std::logic_error& e) {
    // The diagnostic names both phases and the racing resource.
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'a'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'b'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'acc'"), std::string::npos) << msg;
  }
}

TEST(StepGraphValidate, UnorderedReadWriteRaceRejected) {
  core::StepGraph g;
  g.add_phase(phase("reader", {"fields.eb"}, {}));
  g.add_phase(phase("writer", {}, {"fields.eb"}));
  EXPECT_THROW(g.validate(), std::logic_error);
}

TEST(StepGraphValidate, OrderedConflictAccepted) {
  core::StepGraph g;
  g.add_phase(phase("w1", {}, {"acc"}));
  g.add_phase(phase("w2", {}, {"acc"}));
  g.add_phase(phase("r", {"acc"}, {}));
  g.add_edge("w1", "w2");
  g.add_edge("w2", "r");
  EXPECT_NO_THROW(g.validate());
}

TEST(StepGraphValidate, TransitivePathOrdersConflict) {
  // w1 -> mid -> w2: the conflicting pair (w1, w2) has no direct edge but
  // is ordered by a path, which is all validate() requires.
  core::StepGraph g;
  g.add_phase(phase("w1", {}, {"x"}));
  g.add_phase(phase("mid", {}, {}));
  g.add_phase(phase("w2", {}, {"x"}));
  g.add_edge("w1", "mid");
  g.add_edge("mid", "w2");
  EXPECT_NO_THROW(g.validate());
}

TEST(StepGraphValidate, ConcurrentReadersAccepted) {
  core::StepGraph g;
  g.add_phase(phase("r1", {"interp"}, {}));
  g.add_phase(phase("r2", {"interp"}, {}));
  EXPECT_NO_THROW(g.validate());
}

TEST(StepGraphValidate, DotNamesAllPhases) {
  core::StepGraph g;
  g.add_phase(phase("interpolate", {"fields.eb"}, {"interp"}));
  g.add_phase(phase("push", {"interp"}, {"acc"}));
  g.add_edge("interpolate", "push");
  const std::string dot = g.dot();
  EXPECT_NE(dot.find("interpolate"), std::string::npos);
  EXPECT_NE(dot.find("push"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

// ----------------------------------------------------------------------
// Execution semantics on the work-stealing pool.
// ----------------------------------------------------------------------

TEST(StepGraphExecute, RunsEveryPhaseOnceRespectingEdges) {
  core::StepGraph g;
  std::mutex mu;
  std::vector<std::string> order;
  auto track = [&](const char* n) {
    return [&, n] {
      std::lock_guard lk(mu);
      order.emplace_back(n);
    };
  };
  g.add_phase(phase("a", {}, {"x"}, track("a")));
  g.add_phase(phase("b", {"x"}, {"y"}, track("b")));
  g.add_phase(phase("c", {"y"}, {}, track("c")));
  g.add_edge("a", "b");
  g.add_edge("b", "c");
  pk::StealPool pool(2);
  g.execute(pool);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "a");
  EXPECT_EQ(order[1], "b");
  EXPECT_EQ(order[2], "c");
  // Stats cover every phase, in insertion order, with nonnegative times.
  const auto& st = g.last_stats();
  ASSERT_EQ(st.size(), 3u);
  EXPECT_EQ(st[0].name, "a");
  EXPECT_EQ(st[2].name, "c");
  for (const auto& s : st) EXPECT_GE(s.seconds, 0.0);
}

TEST(StepGraphExecute, UnorderedPhasesRunConcurrently) {
  core::StepGraph g;
  std::atomic<int> active{0}, peak{0};
  auto body = [&] {
    const int now = active.fetch_add(1) + 1;
    int prev = peak.load();
    while (prev < now && !peak.compare_exchange_weak(prev, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    active.fetch_sub(1);
  };
  g.add_phase(phase("left", {"interp"}, {}, body));
  g.add_phase(phase("right", {"interp"}, {}, body));
  pk::StealPool pool(2);
  g.execute(pool);
  EXPECT_EQ(peak.load(), 2) << "independent phases did not overlap";
  EXPECT_GE(g.last_concurrency_peak(), 2u);
}

TEST(StepGraphExecute, SingleWorkerDegradesToSequential) {
  core::StepGraph g;
  std::atomic<int> active{0}, peak{0};
  auto body = [&] {
    const int now = active.fetch_add(1) + 1;
    int prev = peak.load();
    while (prev < now && !peak.compare_exchange_weak(prev, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    active.fetch_sub(1);
  };
  g.add_phase(phase("left", {}, {}, body));
  g.add_phase(phase("right", {}, {}, body));
  pk::StealPool pool(1);
  g.execute(pool);
  EXPECT_EQ(peak.load(), 1);
  EXPECT_EQ(g.last_concurrency_peak(), 1u);
}

TEST(StepGraphExecute, PhaseExceptionRethrownSuccessorsSkipped) {
  core::StepGraph g;
  std::atomic<bool> ran_successor{false};
  g.add_phase(phase("boom", {}, {"x"},
                    [] { throw std::runtime_error("phase failed"); }));
  g.add_phase(phase("after", {"x"}, {},
                    [&] { ran_successor.store(true); }));
  g.add_edge("boom", "after");
  pk::StealPool pool(2);
  EXPECT_THROW(g.execute(pool), std::runtime_error);
  EXPECT_FALSE(ran_successor.load());
}

TEST(StepGraphExecute, ReExecuteRunsAgain) {
  core::StepGraph g;
  std::atomic<int> runs{0};
  g.add_phase(phase("a", {}, {}, [&] { runs.fetch_add(1); }));
  pk::StealPool pool(2);
  g.execute(pool);
  g.execute(pool);
  EXPECT_EQ(runs.load(), 2);
}

TEST(StepGraphExecute, StressManyUnorderedPhases) {
  // TSan target: a wide graph of independent phases over a pool of
  // workers, all bumping one atomic and disjoint slots of a shared vector.
  constexpr int kPhases = 24;
  core::StepGraph g;
  std::vector<int> slots(kPhases, 0);
  std::atomic<int> total{0};
  for (int i = 0; i < kPhases; ++i) {
    g.add_phase(phase("p" + std::to_string(i), {"shared.ro"}, {},
                      [&slots, &total, i] {
                        slots[static_cast<std::size_t>(i)] += 1;
                        total.fetch_add(1, std::memory_order_relaxed);
                      }));
  }
  pk::StealPool pool(4);
  g.execute(pool);
  EXPECT_EQ(total.load(), kPhases);
  for (int v : slots) EXPECT_EQ(v, 1);
  EXPECT_GE(g.last_concurrency_peak(), 1u);
}

// ----------------------------------------------------------------------
// Simulation integration: the graph scheduler must reproduce the legacy
// sequential schedule bit for bit (the graph orders every conflicting
// phase pair to match it; only result-invariant concurrency remains).
// ----------------------------------------------------------------------

namespace {

void expect_bitwise_equal(core::Simulation& a, core::Simulation& b) {
  const auto& fa = a.fields();
  const auto& fb = b.fields();
  const pk::View<float, 1>* views_a[] = {&fa.ex, &fa.ey, &fa.ez, &fa.bx,
                                         &fa.by, &fa.bz, &fa.jx, &fa.jy,
                                         &fa.jz};
  const pk::View<float, 1>* views_b[] = {&fb.ex, &fb.ey, &fb.ez, &fb.bx,
                                         &fb.by, &fb.bz, &fb.jx, &fb.jy,
                                         &fb.jz};
  const char* names[] = {"ex", "ey", "ez", "bx", "by",
                         "bz", "jx", "jy", "jz"};
  for (int c = 0; c < 9; ++c) {
    const auto& x = *views_a[c];
    const auto& y = *views_b[c];
    ASSERT_EQ(x.size(), y.size());
    for (pk::index_t i = 0; i < x.size(); ++i)
      ASSERT_EQ(x(i), y(i)) << names[c] << " diverges at voxel " << i;
  }
  ASSERT_EQ(a.num_species(), b.num_species());
  for (std::size_t s = 0; s < a.num_species(); ++s) {
    const auto& sa = a.species(s);
    const auto& sb = b.species(s);
    ASSERT_EQ(sa.np, sb.np) << sa.name;
    for (core::index_t i = 0; i < sa.np; ++i) {
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

}  // namespace

TEST(StepGraphSimulation, BitIdenticalToSequentialOnLpiDeck) {
  // Small LPI deck, 100 steps: long enough to cross the sort interval
  // (20) and the energy-diagnostic interval set below, so the optional
  // sort[] and diagnostics phases are exercised, not just the core chain.
  core::decks::LpiParams p;
  p.nx = 12;
  p.ny = 6;
  p.nz = 6;
  p.ppc = 4;
  core::Simulation graph_sim = core::decks::make_lpi(p);
  core::Simulation seq_sim = core::decks::make_lpi(p);
  graph_sim.config().scheduler = core::StepScheduler::Graph;
  graph_sim.config().energy_interval = 10;
  seq_sim.config().scheduler = core::StepScheduler::Sequential;
  seq_sim.config().energy_interval = 10;

  graph_sim.run(100);
  seq_sim.run(100);

  EXPECT_EQ(graph_sim.step_count(), 100);
  EXPECT_EQ(seq_sim.step_count(), 100);
  expect_bitwise_equal(graph_sim, seq_sim);

  // The sampled energy series must match exactly too (diagnostics phase
  // ran at the same steps with identical state).
  const auto& ha = graph_sim.energy_history();
  const auto& hb = seq_sim.energy_history();
  ASSERT_EQ(ha.size(), hb.size());
  ASSERT_GT(ha.size(), 0u);
  for (std::size_t i = 0; i < ha.size(); ++i) {
    EXPECT_EQ(ha.step(i), hb.step(i));
    EXPECT_EQ(ha.field(i), hb.field(i));
    EXPECT_EQ(ha.kinetic(i), hb.kinetic(i));
  }
}

TEST(StepGraphSimulation, GraphSchedulerPopulatesPhaseStats) {
  core::decks::LpiParams p;
  p.nx = 8;
  p.ny = 4;
  p.nz = 4;
  p.ppc = 2;
  core::Simulation sim = core::decks::make_lpi(p);
  ASSERT_EQ(sim.config().scheduler, core::StepScheduler::Graph);
  sim.step();
  const auto& st = sim.last_phase_stats();
  ASSERT_FALSE(st.empty());
  bool saw_interpolate = false, saw_field_advance = false, saw_push = false;
  for (const auto& s : st) {
    if (s.name.rfind("interp[", 0) == 0) saw_interpolate = true;
    if (s.name == "field_advance") saw_field_advance = true;
    if (s.name.rfind("push[", 0) == 0) saw_push = true;
    EXPECT_GE(s.seconds, 0.0);
  }
  EXPECT_TRUE(saw_interpolate);
  EXPECT_TRUE(saw_field_advance);
  EXPECT_TRUE(saw_push);
  EXPECT_GE(sim.last_concurrency_peak(), 1u);
}

TEST(StepGraphSimulation, SequentialSchedulerPopulatesPhaseStats) {
  core::decks::LpiParams p;
  p.nx = 8;
  p.ny = 4;
  p.nz = 4;
  p.ppc = 2;
  core::Simulation sim = core::decks::make_lpi(p);
  sim.config().scheduler = core::StepScheduler::Sequential;
  sim.step();
  const auto& st = sim.last_phase_stats();
  ASSERT_FALSE(st.empty());
  bool saw_interpolate = false, saw_field_advance = false, saw_push = false;
  for (const auto& s : st) {
    if (s.name.rfind("interp[", 0) == 0) saw_interpolate = true;
    if (s.name == "field_advance") saw_field_advance = true;
    if (s.name.rfind("push[", 0) == 0) saw_push = true;
    EXPECT_GE(s.seconds, 0.0);
    EXPECT_EQ(s.instance_id, 0u);  // all on the stepping thread
  }
  EXPECT_TRUE(saw_interpolate);
  EXPECT_TRUE(saw_field_advance);
  EXPECT_TRUE(saw_push);
  EXPECT_EQ(sim.last_concurrency_peak(), 1u);
}

TEST(StepGraphSimulation, GraphStepsReuseOnePersistentPool) {
  // Instance ids are handed out sequentially, so the ids consumed between
  // `a` and `b` count every pk::Instance created while stepping: the step
  // pool's workers once, not a fresh pool per step.
  core::decks::LpiParams p;
  p.nx = 8;
  p.ny = 4;
  p.nz = 4;
  p.ppc = 2;
  core::Simulation sim = core::decks::make_lpi(p);
  ASSERT_EQ(sim.config().scheduler, core::StepScheduler::Graph);
  pk::Instance<> a;
  for (int i = 0; i < 20; ++i) sim.step();
  pk::Instance<> b;
  EXPECT_LE(b.id() - a.id() - 1, sim.config().graph_instances);
}

// ----------------------------------------------------------------------
// The default step is bit-identical across OpenMP thread counts: pushes
// deposit with plain adds into per-(species, tile) blocks merged in fixed
// order, and pool workers run their kernels on one OpenMP thread. The
// Sequential scheduler runs the same graph on the calling thread's team.
// Energies come from reductions and are left out.
// ----------------------------------------------------------------------

namespace {

core::Simulation run_default_lpi(int omp_threads,
                                 core::StepScheduler scheduler) {
  core::Simulation sim = core::decks::make_lpi(core::decks::LpiParams{});
  sim.config().scheduler = scheduler;
  {
    pk::ScopeGuard guard(omp_threads);
    sim.run(40);  // steps 20 and 40 sort
  }
  pk::initialize(1);  // the suite's thread count
  return sim;
}

}  // namespace

TEST(DefaultStep, BitIdenticalAcrossOmpThreadCounts) {
  const core::SimulationConfig defaults;
  core::Simulation one = run_default_lpi(1, defaults.scheduler);
  core::Simulation four = run_default_lpi(4, defaults.scheduler);
  EXPECT_EQ(one.step_count(), 40);
  expect_bitwise_equal(one, four);
}

TEST(DefaultStep, SequentialBitIdenticalAcrossOmpThreadCounts) {
  core::Simulation one = run_default_lpi(1, core::StepScheduler::Sequential);
  core::Simulation four = run_default_lpi(4, core::StepScheduler::Sequential);
  expect_bitwise_equal(one, four);
}
