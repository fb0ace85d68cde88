// Golden checkpoint fixtures (tests/data/golden/, docs/CHECKPOINT.md):
// files written by an earlier build, checked in, and restored by every
// later one. Each test restores a fixture into the deck that wrote it
// (tests/golden_decks.hpp), asserts the step count and the exact
// per-species particle counts, then re-encodes the restored engine and
// requires every section payload to match the fixture byte for byte. The
// byte check compares restored state only — no stepping — so it holds at
// any thread count.
//
// A failure here means a reader or writer change broke compatibility
// with checkpoints users already have on disk. Keep restoring them, or
// bump the format version with a typed rejection and regenerate with
// tests/make_golden.cpp.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>

#include "ckpt/ckpt.hpp"
#include "elastic/elastic.hpp"
#include "golden_decks.hpp"
#include "minimpi/minimpi.hpp"

namespace core = vpic::core;
namespace ckpt = vpic::ckpt;
namespace elastic = vpic::elastic;
namespace golden = vpic::golden;
namespace mpi = vpic::mpi;
namespace fs = std::filesystem;

namespace {

class PkEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    setenv("VPIC_TUNE", "off", 1);
    vpic::pk::initialize(1);
  }
};
[[maybe_unused]] const auto* const env =
    ::testing::AddGlobalTestEnvironment(new PkEnv);

const fs::path kGolden = VPIC_GOLDEN_DIR;

fs::path scratch(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("vpic_golden_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string fixture(const std::string& name) {
  return (kGolden / name).string();
}

/// Chunked particle sections of an incremental generation: the resolved
/// chain also carries their reassembled "sp<i>.p", which is what a plain
/// re-encode holds.
bool is_chunk_section(const std::string& name) {
  return name.starts_with("sp") && (name.find(".c") != std::string::npos ||
                                    name.ends_with(".nchunks"));
}

/// Every section of `re` must match the fixture's payload and shape byte
/// for byte, and the two must hold the same logical section set.
void expect_same_sections(ckpt::SectionSource& fix, ckpt::FileReader& re) {
  std::set<std::string> fix_names;
  for (const auto& n : fix.section_names())
    if (!is_chunk_section(n)) fix_names.insert(n);
  const auto re_names = re.section_names();
  EXPECT_EQ(fix_names, std::set<std::string>(re_names.begin(), re_names.end()));
  for (const auto& n : re_names) {
    SCOPED_TRACE("section " + n);
    ASSERT_TRUE(fix.has(n));
    const ckpt::EncodedSection& a = fix.section(n);
    const ckpt::EncodedSection& b = re.section(n);
    EXPECT_EQ(a.elem_size, b.elem_size);
    EXPECT_EQ(a.rank, b.rank);
    EXPECT_EQ(a.extents, b.extents);
    EXPECT_EQ(a.payload, b.payload);
  }
}

// Particle counts the fixtures were written with (make_golden output).
constexpr std::int64_t kPlainNp[2] = {24, 24};
constexpr std::int64_t kChainNp[2] = {24, 24};
constexpr std::int64_t kDistNp = 32;

void expect_counts(core::Simulation& sim, const std::int64_t (&np)[2]) {
  ASSERT_EQ(sim.num_species(), 2u);
  for (std::size_t s = 0; s < 2; ++s)
    EXPECT_EQ(sim.species(s).np, np[s]) << "species " << sim.species(s).name;
}

}  // namespace

TEST(Golden, PlainGenerationRestoresByteIdentical) {
  const std::string path = fixture(std::string(golden::kPlainBase) + ".g0");
  auto sim = golden::make_sim();
  sim.restore(path);
  EXPECT_EQ(sim.step_count(), golden::kPlainStep);
  expect_counts(sim, kPlainNp);

  const auto out = scratch("plain") / "re.g0";
  sim.checkpoint(out.string());
  ckpt::FileReader fix(path);
  ckpt::FileReader re(out.string());
  EXPECT_EQ(re.step(), fix.step());
  EXPECT_EQ(re.fingerprint(), fix.fingerprint());
  expect_same_sections(fix, re);
}

TEST(Golden, ChainGenerationsRestoreByteIdentical) {
  const auto dir = scratch("chain");
  for (int g = 0; g < 3; ++g) {
    SCOPED_TRACE("generation " + std::to_string(g));
    const std::string path =
        fixture(std::string(golden::kChainBase) + ".g" + std::to_string(g));
    elastic::ChainReader fix(path);
    EXPECT_EQ(fix.meta().kind, g == 0 ? elastic::kKindFull
                                      : elastic::kKindDelta);
    EXPECT_EQ(fix.meta().base, 0);

    auto sim = golden::make_sim();
    sim.restore(path);
    EXPECT_EQ(sim.step_count(), golden::kChainSteps[g]);
    if (g == 2) expect_counts(sim, kChainNp);

    const auto out = dir / ("re.g" + std::to_string(g));
    sim.checkpoint(out.string());
    ckpt::FileReader re(out.string());
    EXPECT_EQ(re.step(), fix.step());
    expect_same_sections(fix, re);
  }
}

TEST(Golden, DeltasStoreDeltaPackPayloads) {
  // The chain fixture must exercise the codec, not only raw sections.
  ckpt::FileReader f(fixture(std::string(golden::kChainBase) + ".g2"));
  const ckpt::EncodedSection& m = f.section(elastic::kManifestSection);
  std::size_t packed = 0;
  for (const auto& e : elastic::parse_manifest(m.payload.data(),
                                               m.payload.size()))
    if (e.src_gen == 2 && e.codec == elastic::Codec::DeltaPack) ++packed;
  EXPECT_GT(packed, 0u);
}

TEST(Golden, TwoRankSetRestoresByteIdentical) {
  const std::string set = fixture(golden::kDistDir);
  const std::string out = (scratch("dist") / "set").string();
  std::int64_t np = -1;
  mpi::run(golden::kDistRanks, [&](mpi::Comm& comm) {
    core::DistributedSimulation sim(golden::dist_config(), comm);
    golden::add_dist_species(sim);
    sim.restore(set);
    EXPECT_EQ(sim.step_count(), golden::kDistStep);
    const std::int64_t total = sim.global_np(0);
    if (comm.rank() == 0) np = total;
    sim.checkpoint(out);
  });
  EXPECT_EQ(np, kDistNp);
  for (const std::string file : {"manifest.ckpt", "rank0.ckpt", "rank1.ckpt"}) {
    SCOPED_TRACE(file);
    ckpt::FileReader fix(set + "/" + file);
    ckpt::FileReader re(out + "/" + file);
    EXPECT_EQ(re.step(), fix.step());
    EXPECT_EQ(re.fingerprint(), fix.fingerprint());
    expect_same_sections(fix, re);
  }
}
