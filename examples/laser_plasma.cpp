// laser_plasma — the paper's benchmark problem: a laser driven into an
// under-dense plasma slab (laser-plasma instability deck). Prints the
// field-energy history as the wave propagates into the slab and the push
// kernel throughput for the selected vectorization strategy.
//
//   ./laser_plasma [strategy: auto|guided|manual|adhoc] [steps]
//
// Without a strategy argument the deck's default (manual) runs.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/core.hpp"

namespace {

vpic::core::VectorStrategy parse_strategy(const char* s) {
  using vpic::core::VectorStrategy;
  if (std::strcmp(s, "guided") == 0) return VectorStrategy::Guided;
  if (std::strcmp(s, "manual") == 0) return VectorStrategy::Manual;
  if (std::strcmp(s, "adhoc") == 0) return VectorStrategy::AdHoc;
  return VectorStrategy::Auto;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vpic;
  pk::initialize();

  core::decks::LpiParams p;
  p.nx = 48;
  p.ny = 16;
  p.nz = 16;
  p.ppc = 16;
  if (argc > 1) p.strategy = parse_strategy(argv[1]);  // else the default
  const int steps = argc > 2 ? std::atoi(argv[2]) : 200;

  auto sim = core::decks::make_lpi(p);
  std::printf(
      "laser-plasma instability deck: %dx%dx%d cells, slab x in [%.0f%%, "
      "%.0f%%], %d ppc, laser a0=%.2f omega=%.2f, strategy=%s\n",
      p.nx, p.ny, p.nz, 100 * p.slab_begin, 100 * p.slab_end, p.ppc,
      p.laser_amplitude, p.laser_omega, core::to_string(p.strategy));

  std::printf("%8s %14s %14s %14s\n", "step", "field E", "electron KE",
              "ion KE");
  for (int burst = 0; burst < steps; burst += 25) {
    sim.run(std::min(25, steps - burst));
    const auto e = sim.energies();
    std::printf("%8lld %14.6e %14.6e %14.6e\n",
                static_cast<long long>(sim.step_count()), e.field,
                e.species[0], e.species[1]);
  }

  const double pushed = static_cast<double>(sim.species(0).np +
                                            sim.species(1).np) *
                        steps;
  std::printf("\npush throughput: %.2f Mparticles/s (%s)\n",
              pushed / sim.push_seconds() / 1e6,
              core::to_string(p.strategy));
  return 0;
}
