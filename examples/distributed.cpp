// distributed — multi-rank PIC run over the in-process MPI substrate:
// a drifting thermal plasma decomposed into z-slabs, with halo exchange
// and particle migration between ranks every step. Demonstrates the
// communication pattern behind the paper's scalability results and shows
// the rank-count invariance of the physics.
//
//   ./distributed [nranks] [steps]
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "core/core.hpp"
#include "minimpi/minimpi.hpp"

int main(int argc, char** argv) {
  using namespace vpic;
  pk::initialize();
  const int nranks = argc > 1 ? std::atoi(argv[1]) : 4;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 40;

  core::DomainConfig cfg;
  cfg.nx = 8;
  cfg.ny = 8;
  cfg.nz = 16;
  cfg.lx = 8;
  cfg.ly = 8;
  cfg.lz = 16;
  if (cfg.nz % nranks != 0) {
    std::fprintf(stderr, "nranks must divide nz=%d\n", cfg.nz);
    return 1;
  }

  std::printf("distributed run: %dx%dx%d global grid over %d z-slabs\n",
              cfg.nx, cfg.ny, cfg.nz, nranks);

  std::mutex print_mutex;
  mpi::run(nranks, [&](mpi::Comm& comm) {
    core::DistributedSimulation sim(cfg, comm);
    const auto e = sim.add_species("electron", -1.0f, 1.0f, 1 << 16);
    const auto ion = sim.add_species("ion", +1.0f, 100.0f, 1 << 16);
    // A z-drift guarantees migration across slab boundaries; the ion
    // background keeps the plasma quasi-neutral.
    sim.load_uniform_plasma(e, 8, 0.1f, 0.0f, 0.0f, 0.25f);
    sim.load_uniform_plasma(ion, 8, 0.01f);

    for (int burst = 0; burst <= steps; burst += 10) {
      const auto energy = sim.energies();
      const auto np = sim.global_np(e);
      if (comm.rank() == 0) {
        std::lock_guard lk(print_mutex);
        std::printf(
            "  step %3d: total E %.6e, global particles %lld, rank-0 "
            "local %lld, exchanged so far %lld\n",
            burst, energy.total(), static_cast<long long>(np),
            static_cast<long long>(sim.species(e).np),
            static_cast<long long>(sim.exchanged_particles()));
      }
      comm.barrier();
      if (burst < steps) sim.run(10);
    }

    // Per-rank summary, serialized through a gather.
    const std::int64_t mine = sim.species(e).np;
    const auto all = comm.gather(&mine, 1, 0);
    if (comm.rank() == 0) {
      std::lock_guard lk(print_mutex);
      std::printf("final local particle counts:");
      for (auto c : all) std::printf(" %lld", static_cast<long long>(c));
      std::printf("\n");
    }
  });
  return 0;
}
