// make_golden — regenerate the golden checkpoint fixtures in
// tests/data/golden/ (docs/CHECKPOINT.md, "Golden fixtures"):
//
//   ./build/tests/make_golden tests/data/golden
//
// writes
//
//   plain.g0                 a plain VPICCKP1 ring generation
//   chain.g0 .. chain.g2     a VPICELA1 chain: one full generation and two
//                            DeltaPack deltas
//   dist2/                   a 2-rank distributed set (manifest + ranks)
//
// from the decks in golden_decks.hpp, at one kernel thread with the tuner
// off. Regenerate only on a deliberate format change: the checked-in
// files are the compatibility promise tests/test_golden.cpp enforces.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "golden_decks.hpp"
#include "minimpi/minimpi.hpp"

namespace fs = std::filesystem;
namespace core = vpic::core;
namespace golden = vpic::golden;

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <out_dir>\n", argv[0]);
    return 2;
  }
  setenv("VPIC_TUNE", "off", 1);
  vpic::pk::initialize(1);
  const fs::path out(argv[1]);
  fs::create_directories(out);
  for (const auto& e : fs::directory_iterator(out)) fs::remove_all(e.path());

  {
    auto sim = golden::make_sim();
    sim.run(golden::kPlainStep);
    sim.checkpoint((out / golden::kPlainBase).string() + ".g0");
  }
  {
    auto sim = golden::make_sim();
    sim.config().checkpoint_incremental = true;
    sim.config().checkpoint_full_every = 8;
    sim.config().checkpoint_codec = 1;  // DeltaPack
    for (int g = 0; g < 3; ++g) {
      sim.run(golden::kChainSteps[g] - sim.step_count());
      sim.checkpoint((out / golden::kChainBase).string() + ".g" +
                     std::to_string(g));
    }
  }
  vpic::mpi::run(golden::kDistRanks, [&](vpic::mpi::Comm& comm) {
    core::DistributedSimulation sim(golden::dist_config(), comm);
    golden::add_dist_species(sim);
    sim.load_uniform_plasma(0, 2, 0.2f, 0.0f, 0.0f, 0.1f);
    sim.run(golden::kDistStep);
    sim.checkpoint((out / golden::kDistDir).string());
  });

  int rc = 0;
  for (const auto& e : fs::recursive_directory_iterator(out)) {
    if (!e.is_regular_file()) continue;
    const auto bytes = e.file_size();
    std::printf("%-40s %8llu bytes\n", e.path().string().c_str(),
                static_cast<unsigned long long>(bytes));
    if (bytes >= 64 * 1024) {
      std::fprintf(stderr, "make_golden: %s exceeds 64 KiB\n",
                   e.path().string().c_str());
      rc = 1;
    }
  }
  return rc;
}
