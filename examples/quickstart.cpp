// quickstart — smallest complete use of the public API: build a uniform
// thermal plasma, pick a vectorization strategy and a particle sorting
// order, run a few hundred steps, watch the energy balance.
//
//   ./quickstart [steps]
#include <cstdio>
#include <cstdlib>

#include "core/core.hpp"

int main(int argc, char** argv) {
  using namespace vpic;
  const int steps = argc > 1 ? std::atoi(argv[1]) : 100;

  pk::initialize();

  // 16^3 periodic box, cells of one skin depth, Courant-limited dt.
  core::SimulationConfig cfg;
  cfg.grid = core::Grid(16, 16, 16, 16.0f, 16.0f, 16.0f, 0.0f);
  cfg.grid.dt = core::Grid::courant_dt(1.0f, 1.0f, 1.0f, 0.7f);
  cfg.strategy = core::VectorStrategy::Manual;  // fastest CPU push (Fig. 4)
  cfg.sort_order = vpic::sort::SortOrder::Standard;  // CPU-optimal order
  cfg.sort_interval = 20;

  core::Simulation sim(cfg);
  const auto electrons = sim.add_species("electron", -1.0f, 1.0f, 80'000);
  const auto ions = sim.add_species("ion", +1.0f, 1836.0f, 80'000);
  sim.load_uniform_plasma(electrons, /*ppc=*/16, /*uth=*/0.1f);
  sim.load_uniform_plasma(ions, /*ppc=*/16, /*uth=*/0.002f);

  std::printf("quickstart: %lld electrons + %lld ions on a %dx%dx%d grid\n",
              static_cast<long long>(sim.species(electrons).np),
              static_cast<long long>(sim.species(ions).np), cfg.grid.nx,
              cfg.grid.ny, cfg.grid.nz);
  std::printf("%8s %14s %14s %14s\n", "step", "field E", "kinetic E",
              "total E");

  const auto report = [&] {
    const auto e = sim.energies();
    double kin = 0;
    for (double k : e.species) kin += k;
    std::printf("%8lld %14.6e %14.6e %14.6e\n",
                static_cast<long long>(sim.step_count()), e.field, kin,
                e.total());
  };

  report();
  for (int burst = 0; burst < steps; burst += 20) {
    sim.run(std::min(20, steps - burst));
    report();
  }

  std::printf("push kernel time: %.3f s (%s strategy)\n", sim.push_seconds(),
              core::to_string(cfg.strategy));
  return 0;
}
