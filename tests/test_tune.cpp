// Tests for vpic::tune (src/tune, docs/LAYOUT.md "Autotuning"):
//
//   * host fingerprint format and stability,
//   * VPICTUNE1 encode/decode round trip,
//   * every typed cache failure kind (BadSchema, Parse, StaleFingerprint,
//     OutOfRange) and the decode-leaves-output-untouched contract,
//   * initialize_from(): probe on a cold cache, write-through, hit on the
//     second run, fall back past a corrupt/stale cache with the matching
//     prof counter, force re-probe,
//   * probe outputs always inside the documented clamp ranges, at any
//     OpenMP team size (the push probe times the serial tile kernels),
//   * a cache written by another probe kernel (tagged or untagged) is
//     stale and re-probed,
//   * installation into core::active_push_gates()/sort::active_sort_model()
//     and reset_for_testing() restoring the built-in defaults.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include <cmath>

#include "core/push_tuning.hpp"
#include "pk/config.hpp"
#include "prof/prof.hpp"
#include "tune/tune.hpp"

namespace core = vpic::core;
namespace tune = vpic::tune;
namespace prof = vpic::prof;
namespace fs = std::filesystem;

namespace {

fs::path scratch(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("vpic_tune_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A state with distinctive in-range values so round trips are meaningful.
tune::TuneState sample_state() {
  tune::TuneState s;
  s.fingerprint = tune::host_fingerprint();
  for (int i = 0; i < core::kNumParticleLayouts; ++i) {
    s.gates[i].min_particles = 128 + 64 * i;
    s.gates[i].max_stale = 32 + 8 * i;
    s.gates[i].min_mean_run = 3.5 + 0.25 * i;
  }
  s.sort_model.cells_per_n = 0.25;
  s.sort_model.cells_floor = 65536.0;
  return s;
}

void write_text(const fs::path& p, const std::string& text) {
  std::ofstream out(p, std::ios::trunc);
  out << text;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Clamp-range predicates mirroring tune.hpp's documented bounds.
void expect_gates_in_clamps(const core::PushGates& g) {
  EXPECT_GE(g.min_particles, 64);
  EXPECT_LE(g.min_particles, 4096);
  EXPECT_GE(g.max_stale, 8);
  EXPECT_LE(g.max_stale, 256);
  EXPECT_GE(g.min_mean_run, 2.0);
  EXPECT_LE(g.min_mean_run, 16.0);
}

void expect_model_in_clamps(const core::SortDispatchModel& m) {
  EXPECT_GE(m.cells_per_n, 1.0 / 64.0);
  EXPECT_LE(m.cells_per_n, 1.0);
  EXPECT_GE(m.cells_floor, 16384.0);
  EXPECT_LE(m.cells_floor, 4194304.0);
}

/// Restores untouched registries after each test: the suite mutates
/// process-global dispatch state.
class TuneTest : public ::testing::Test {
 protected:
  void TearDown() override { tune::reset_for_testing(); }
};

}  // namespace

// ---- fingerprint -----------------------------------------------------

TEST_F(TuneTest, FingerprintFormatAndStability) {
  const std::string fp = tune::host_fingerprint();
  EXPECT_EQ(fp.rfind("vpictune1;host=", 0), 0u) << fp;
  EXPECT_NE(fp.find(";probe=serial-tile;"), std::string::npos) << fp;
  EXPECT_NE(fp.find(";threads="), std::string::npos) << fp;
  EXPECT_NE(fp.find(";isa="), std::string::npos) << fp;
  EXPECT_NE(fp.find(";w="), std::string::npos) << fp;
  EXPECT_NE(fp.find(";tile="), std::string::npos) << fp;
  EXPECT_NE(fp.find(";compiler="), std::string::npos) << fp;
  EXPECT_EQ(fp, tune::host_fingerprint());  // deterministic per process
}

// ---- encode/decode ---------------------------------------------------

TEST_F(TuneTest, CacheRoundTrip) {
  const tune::TuneState s = sample_state();
  const std::string text = tune::encode_cache(s);
  EXPECT_NE(text.find("\"schema\": \"VPICTUNE1\""), std::string::npos);

  tune::TuneState back;
  const auto err = tune::decode_cache(text, s.fingerprint, back);
  ASSERT_FALSE(err.has_value()) << tune::to_string(err->kind) << ": "
                                << err->detail;
  for (int i = 0; i < core::kNumParticleLayouts; ++i) {
    EXPECT_EQ(back.gates[i].min_particles, s.gates[i].min_particles);
    EXPECT_EQ(back.gates[i].max_stale, s.gates[i].max_stale);
    EXPECT_DOUBLE_EQ(back.gates[i].min_mean_run, s.gates[i].min_mean_run);
  }
  EXPECT_DOUBLE_EQ(back.sort_model.cells_per_n, s.sort_model.cells_per_n);
  EXPECT_DOUBLE_EQ(back.sort_model.cells_floor, s.sort_model.cells_floor);
}

TEST_F(TuneTest, DecodeRejectsBadSchema) {
  tune::TuneState out;
  auto err = tune::decode_cache("not json at all", "fp", out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, tune::TuneErrorKind::BadSchema);

  err = tune::decode_cache(R"({"schema": "VPICTUNE9"})", "fp", out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, tune::TuneErrorKind::BadSchema);
}

TEST_F(TuneTest, DecodeRejectsStaleFingerprint) {
  const tune::TuneState s = sample_state();
  tune::TuneState out;
  const auto err = tune::decode_cache(tune::encode_cache(s),
                                      "vpictune1;host=elsewhere", out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, tune::TuneErrorKind::StaleFingerprint);
  EXPECT_NE(err->detail.find(s.fingerprint), std::string::npos);
}

TEST_F(TuneTest, DecodeRejectsMissingKeysAsParse) {
  tune::TuneState out;
  // Valid schema + fingerprint but no gate payload.
  const std::string text = "{\"schema\": \"VPICTUNE1\", \"fingerprint\": \"" +
                           tune::host_fingerprint() + "\"}";
  const auto err = tune::decode_cache(text, tune::host_fingerprint(), out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, tune::TuneErrorKind::Parse);
}

TEST_F(TuneTest, DecodeRejectsOutOfRangeValues) {
  tune::TuneState s = sample_state();
  s.gates[0].min_mean_run = 500.0;  // far outside [2, 16]
  // encode_cache writes whatever it is given; the *decoder* owns the
  // range policy (a crafted cache cannot disable a dispatch path).
  tune::TuneState out;
  const auto err =
      tune::decode_cache(tune::encode_cache(s), s.fingerprint, out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, tune::TuneErrorKind::OutOfRange);
}

TEST_F(TuneTest, FailedDecodeLeavesOutputUntouched) {
  tune::TuneState out = sample_state();
  const auto before_mp = out.gates[0].min_particles;
  const auto err = tune::decode_cache("garbage", "fp", out);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(out.gates[0].min_particles, before_mp);
}

// ---- initialize_from pipeline ----------------------------------------

TEST_F(TuneTest, ColdCacheProbesAndWritesThrough) {
  const auto dir = scratch("cold");
  const std::string path = (dir / "cache.json").string();

  const auto probe_before = prof::counter_value("tune.probe");
  const auto written_before = prof::counter_value("tune.cache.written");
  const tune::TuneState s = tune::initialize_from(path, /*force=*/false);
  EXPECT_EQ(s.source, tune::Source::Probes);
  EXPECT_EQ(prof::counter_value("tune.probe"), probe_before + 1);
  EXPECT_EQ(prof::counter_value("tune.cache.written"), written_before + 1);
  ASSERT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // committed via rename

  for (int i = 0; i < core::kNumParticleLayouts; ++i) {
    SCOPED_TRACE(core::to_string(core::kAllParticleLayouts[i]));
    expect_gates_in_clamps(s.gates[i]);
    // initialize_from installs into the live registries.
    const auto& live = core::active_push_gates(core::kAllParticleLayouts[i]);
    EXPECT_EQ(live.min_particles, s.gates[i].min_particles);
    EXPECT_EQ(live.max_stale, s.gates[i].max_stale);
  }
  expect_model_in_clamps(s.sort_model);
  EXPECT_DOUBLE_EQ(vpic::sort::active_sort_model().cells_per_n,
                   s.sort_model.cells_per_n);

  // Second run on the same host: a cache hit with identical values.
  const auto hit_before = prof::counter_value("tune.cache.hit");
  const tune::TuneState again = tune::initialize_from(path, false);
  EXPECT_EQ(again.source, tune::Source::Cache);
  EXPECT_FALSE(again.cache_error.has_value());
  EXPECT_EQ(prof::counter_value("tune.cache.hit"), hit_before + 1);
  for (int i = 0; i < core::kNumParticleLayouts; ++i) {
    EXPECT_EQ(again.gates[i].min_particles, s.gates[i].min_particles);
    EXPECT_EQ(again.gates[i].max_stale, s.gates[i].max_stale);
    EXPECT_DOUBLE_EQ(again.gates[i].min_mean_run, s.gates[i].min_mean_run);
  }
  EXPECT_DOUBLE_EQ(again.sort_model.cells_floor, s.sort_model.cells_floor);
}

TEST_F(TuneTest, CorruptCacheFallsBackWithCounterAndRewrite) {
  const auto dir = scratch("corrupt");
  const std::string path = (dir / "cache.json").string();
  write_text(path, "{\"schema\": \"VPICTUNE1\", \"fingerprint");  // torn

  const auto corrupt_before = prof::counter_value("tune.cache.corrupt");
  const tune::TuneState s = tune::initialize_from(path, false);
  EXPECT_EQ(s.source, tune::Source::Probes);  // fell back, did not abort
  ASSERT_TRUE(s.cache_error.has_value());
  EXPECT_EQ(s.cache_error->kind, tune::TuneErrorKind::Parse);
  EXPECT_EQ(prof::counter_value("tune.cache.corrupt"), corrupt_before + 1);

  // The bad file was replaced by a good one: next run hits.
  tune::TuneState back;
  EXPECT_FALSE(
      tune::decode_cache(slurp(path), tune::host_fingerprint(), back)
          .has_value());
}

TEST_F(TuneTest, StaleCacheFallsBackWithStaleCounter) {
  const auto dir = scratch("stale");
  const std::string path = (dir / "cache.json").string();
  tune::TuneState other = sample_state();
  other.fingerprint = "vpictune1;host=another-machine;threads=1";
  write_text(path, tune::encode_cache(other));

  const auto stale_before = prof::counter_value("tune.cache.stale");
  const tune::TuneState s = tune::initialize_from(path, false);
  EXPECT_EQ(s.source, tune::Source::Probes);
  ASSERT_TRUE(s.cache_error.has_value());
  EXPECT_EQ(s.cache_error->kind, tune::TuneErrorKind::StaleFingerprint);
  EXPECT_EQ(prof::counter_value("tune.cache.stale"), stale_before + 1);
}

// Gates measured on another push kernel do not describe the step's: a
// cache with an older probe tag, or none (the OpenMP-lane probe wrote
// none), must fail the fingerprint and be re-probed, never reused.
TEST_F(TuneTest, CacheFromAnotherProbeKernelIsReprobed) {
  const std::string fp = tune::host_fingerprint();
  const std::string tag = ";probe=serial-tile";
  const std::size_t at = fp.find(tag);
  ASSERT_NE(at, std::string::npos) << fp;
  std::string untagged = fp;
  untagged.erase(at, tag.size());
  std::string old_tag = fp;
  old_tag.replace(at, tag.size(), ";probe=openmp-lane");

  const auto dir = scratch("probe_tag");
  for (const std::string& other : {untagged, old_tag}) {
    SCOPED_TRACE(other);
    const std::string path = (dir / "cache.json").string();
    tune::TuneState old = sample_state();
    old.fingerprint = other;
    write_text(path, tune::encode_cache(old));

    const auto probe_before = prof::counter_value("tune.probe");
    const tune::TuneState s = tune::initialize_from(path, false);
    EXPECT_EQ(s.source, tune::Source::Probes);
    ASSERT_TRUE(s.cache_error.has_value());
    EXPECT_EQ(s.cache_error->kind, tune::TuneErrorKind::StaleFingerprint);
    EXPECT_EQ(prof::counter_value("tune.probe"), probe_before + 1);
    // The re-probe rewrote the cache under this build's fingerprint.
    tune::TuneState back;
    EXPECT_FALSE(tune::decode_cache(slurp(path), fp, back).has_value());
  }
}

// The push probe times the serial tile kernels on the calling thread, so
// the OpenMP team size cannot change what it measures: under 1 and 4
// threads every layout yields finite, clamped gates and a positive cost.
// (Timings differ run to run; only the structure is compared.)
TEST_F(TuneTest, PushProbeGatesClampedAtAnyOmpTeamSize) {
  const int before = vpic::pk::concurrency();
  for (const int threads : {1, 4}) {
    vpic::pk::ScopeGuard guard(threads);
    for (const auto layout : core::kAllParticleLayouts) {
      SCOPED_TRACE(std::string(core::to_string(layout)) + " at " +
                   std::to_string(threads) + " threads");
      double cost = 0;
      const core::PushGates g = tune::probe_push_gates(layout, &cost);
      EXPECT_TRUE(std::isfinite(g.min_mean_run));
      expect_gates_in_clamps(g);
      EXPECT_TRUE(std::isfinite(cost));
      EXPECT_GT(cost, 0.0);
    }
  }
  vpic::pk::initialize(before);
}

TEST_F(TuneTest, MissingCacheCountsAsMissNotCorrupt) {
  const auto dir = scratch("miss");
  const auto miss_before = prof::counter_value("tune.cache.miss");
  const auto corrupt_before = prof::counter_value("tune.cache.corrupt");
  const tune::TuneState s =
      tune::initialize_from((dir / "nope.json").string(), false);
  EXPECT_EQ(s.source, tune::Source::Probes);
  EXPECT_EQ(prof::counter_value("tune.cache.miss"), miss_before + 1);
  EXPECT_EQ(prof::counter_value("tune.cache.corrupt"), corrupt_before);
}

TEST_F(TuneTest, ForceSkipsValidCache) {
  const auto dir = scratch("force");
  const std::string path = (dir / "cache.json").string();
  (void)tune::initialize_from(path, false);  // seed a valid cache
  const auto forced_before = prof::counter_value("tune.forced");
  const tune::TuneState s = tune::initialize_from(path, /*force=*/true);
  EXPECT_EQ(s.source, tune::Source::Probes);
  EXPECT_EQ(prof::counter_value("tune.forced"), forced_before + 1);
}

TEST_F(TuneTest, EmptyPathDisablesCacheIo) {
  const tune::TuneState s = tune::initialize_from("", false);
  EXPECT_EQ(s.source, tune::Source::Probes);
  EXPECT_TRUE(s.cache_path.empty());
  EXPECT_FALSE(s.cache_error.has_value());
}

// ---- registry install / reset ----------------------------------------

TEST_F(TuneTest, ResetRestoresBuiltInDefaults) {
  const core::PushGates defaults;
  const core::SortDispatchModel default_model;
  (void)tune::initialize_from("", false);
  tune::reset_for_testing();
  for (const auto layout : core::kAllParticleLayouts) {
    const auto& g = core::active_push_gates(layout);
    EXPECT_EQ(g.min_particles, defaults.min_particles);
    EXPECT_EQ(g.max_stale, defaults.max_stale);
    EXPECT_DOUBLE_EQ(g.min_mean_run, defaults.min_mean_run);
  }
  EXPECT_DOUBLE_EQ(vpic::sort::active_sort_model().cells_per_n,
                   default_model.cells_per_n);
  EXPECT_DOUBLE_EQ(vpic::sort::active_sort_model().cells_floor,
                   default_model.cells_floor);
}
