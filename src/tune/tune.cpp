// tune/tune.cpp — see tune.hpp for the module contract.
#include "tune/tune.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <vector>

#include "core/grid.hpp"
#include "core/interpolator.hpp"
#include "core/particle.hpp"
#include "core/push.hpp"
#include "core/tiles.hpp"
#include "prof/prof.hpp"
#include "sort/counting.hpp"
#include "sort/radix.hpp"
#include "sort/runs.hpp"

namespace vpic::tune {

namespace {

using core::index_t;

// Clamp ranges: a noisy probe (or a hostile cache file) may bias the
// dispatch, but can never push a gate far enough to disable a code path
// or blow up scratch memory.
constexpr index_t kMinParticlesLo = 64, kMinParticlesHi = 4096;
constexpr int kMaxStaleLo = 8, kMaxStaleHi = 256;
constexpr double kMinMeanRunLo = 2.0, kMinMeanRunHi = 16.0;
constexpr double kCellsPerNLo = 1.0 / 64.0, kCellsPerNHi = 1.0;
constexpr double kCellsFloorLo = static_cast<double>(index_t{1} << 14);
constexpr double kCellsFloorHi = static_cast<double>(index_t{1} << 22);

// Which push kernels the gate probe times, part of the host fingerprint:
// a cache whose gates came from another kernel (the OpenMP-lane
// advance_species of older builds wrote no tag) is stale and re-probed.
constexpr const char* kProbeKernelTag = "serial-tile";

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall time of the fastest of `reps` calls to f().
template <class F>
double time_min(int reps, F&& f) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    f();
    best = std::min(best, now_s() - t0);
  }
  return best;
}

core::PushGates clamp_gates(core::PushGates g) {
  g.min_particles = std::clamp(g.min_particles, kMinParticlesLo, kMinParticlesHi);
  g.max_stale = std::clamp(g.max_stale, kMaxStaleLo, kMaxStaleHi);
  g.min_mean_run = std::clamp(g.min_mean_run, kMinMeanRunLo, kMinMeanRunHi);
  return g;
}

core::SortDispatchModel clamp_model(core::SortDispatchModel m) {
  m.cells_per_n = std::clamp(m.cells_per_n, kCellsPerNLo, kCellsPerNHi);
  m.cells_floor = std::clamp(m.cells_floor, kCellsFloorLo, kCellsFloorHi);
  return m;
}

bool gates_in_range(const core::PushGates& g) {
  return std::isfinite(g.min_mean_run) &&
         g.min_particles >= kMinParticlesLo &&
         g.min_particles <= kMinParticlesHi && g.max_stale >= kMaxStaleLo &&
         g.max_stale <= kMaxStaleHi && g.min_mean_run >= kMinMeanRunLo &&
         g.min_mean_run <= kMinMeanRunHi;
}

bool model_in_range(const core::SortDispatchModel& m) {
  return std::isfinite(m.cells_per_n) && std::isfinite(m.cells_floor) &&
         m.cells_per_n >= kCellsPerNLo && m.cells_per_n <= kCellsPerNHi &&
         m.cells_floor >= kCellsFloorLo && m.cells_floor <= kCellsFloorHi;
}

void install(const TuneState& s) {
  for (int i = 0; i < core::kNumParticleLayouts; ++i)
    core::active_push_gates(core::kAllParticleLayouts[i]) = s.gates[i];
  sort::active_sort_model() = s.sort_model;
}

// ---- JSON helpers (writer + the tolerant targeted reader) --------------
//
// The cache is a fixed, flat schema; rather than a general JSON parser we
// extract the known keys and validate hard. Anything missing, non-numeric
// or truncated yields TuneErrorKind::Parse and the caller falls back.

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // keep it simple
    out.push_back(c);
  }
  return out;
}

/// Find `"key"` at or after `from`; return the index just past the ':'
/// that follows it, or npos.
std::size_t find_key(const std::string& text, const std::string& key,
                     std::size_t from) {
  const std::string needle = "\"" + key + "\"";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos) return std::string::npos;
  std::size_t p = at + needle.size();
  while (p < text.size() && (text[p] == ' ' || text[p] == '\t' ||
                             text[p] == '\n' || text[p] == '\r'))
    ++p;
  if (p >= text.size() || text[p] != ':') return std::string::npos;
  return p + 1;
}

std::optional<double> read_number(const std::string& text,
                                  const std::string& key, std::size_t from) {
  const std::size_t p = find_key(text, key, from);
  if (p == std::string::npos) return std::nullopt;
  const char* start = text.c_str() + p;
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start || !std::isfinite(v)) return std::nullopt;
  return v;
}

std::optional<std::string> read_string(const std::string& text,
                                       const std::string& key,
                                       std::size_t from) {
  std::size_t p = find_key(text, key, from);
  if (p == std::string::npos) return std::nullopt;
  while (p < text.size() && (text[p] == ' ' || text[p] == '\t' ||
                             text[p] == '\n' || text[p] == '\r'))
    ++p;
  if (p >= text.size() || text[p] != '"') return std::nullopt;
  const std::size_t close = text.find('"', p + 1);
  if (close == std::string::npos) return std::nullopt;
  return text.substr(p + 1, close - p - 1);
}

// ---- push probe ---------------------------------------------------------

/// Synthetic probe species: `ppc` particles per interior cell of an
/// 8x8x8 grid, zero momentum (the push then never moves a particle, so
/// one filled array serves every timing rep), cells assigned either in
/// sorted order (maximal runs of length ppc) or round-robin (runs of 1).
void fill_probe_species(core::Species& sp, const core::Grid& g, int ppc,
                        bool sorted) {
  const index_t cells = g.interior_cells();
  const index_t n = cells * ppc;
  std::vector<std::int32_t> voxels(static_cast<std::size_t>(cells));
  index_t c = 0;
  for (int iz = 1; iz <= g.nz; ++iz)
    for (int iy = 1; iy <= g.ny; ++iy)
      for (int ix = 1; ix <= g.nx; ++ix)
        voxels[static_cast<std::size_t>(c++)] =
            static_cast<std::int32_t>(g.voxel(ix, iy, iz));
  for (index_t i = 0; i < n; ++i) {
    core::Particle p{};
    // sorted: ppc consecutive particles share a cell. round-robin: every
    // particle lands in a different cell than its neighbors.
    const index_t cell_idx = sorted ? i / ppc : i % cells;
    p.i = voxels[static_cast<std::size_t>(cell_idx)];
    p.dx = 0.1f;
    p.dy = -0.2f;
    p.dz = 0.3f;
    p.w = 1.0f;
    sp.p.set(i, p);
  }
  sp.np = n;
  sp.mark_sorted(sorted);
}

}  // namespace

const char* to_string(TuneErrorKind k) noexcept {
  switch (k) {
    case TuneErrorKind::IoError:
      return "io_error";
    case TuneErrorKind::BadSchema:
      return "bad_schema";
    case TuneErrorKind::Parse:
      return "parse";
    case TuneErrorKind::StaleFingerprint:
      return "stale_fingerprint";
    case TuneErrorKind::OutOfRange:
      return "out_of_range";
  }
  return "?";
}

const char* to_string(Source s) noexcept {
  switch (s) {
    case Source::Defaults:
      return "defaults";
    case Source::Cache:
      return "cache";
    case Source::Probes:
      return "probes";
  }
  return "?";
}

std::string host_fingerprint() {
  char host[256] = {0};
  if (gethostname(host, sizeof(host) - 1) != 0) {
    const char* env = std::getenv("HOSTNAME");
    std::snprintf(host, sizeof(host), "%s", env ? env : "unknown");
  }
  const char* isa =
#if defined(__AVX512F__)
      "avx512";
#elif defined(__AVX2__)
      "avx2";
#elif defined(__SSE2__)
      "sse2";
#elif defined(__ARM_NEON)
      "neon";
#else
      "scalar";
#endif
  const char* compiler =
#if defined(__clang__)
      "clang";
#elif defined(__GNUC__)
      "gcc";
#else
      "unknown";
#endif
  std::ostringstream os;
  os << "vpictune1;host=" << host << ";probe=" << kProbeKernelTag
     << ";threads=" << pk::DefaultExecSpace::concurrency() << ";isa=" << isa
     << ";w=" << core::kManualVecWidth << ";tile=" << core::kAosoaTileWidth
     << ";compiler=" << compiler <<
#if defined(__GNUC__) && !defined(__clang__)
      "-" << __GNUC__;
#else
      "";
#endif
  return os.str();
}

std::string default_cache_path() {
  const char* env = std::getenv("VPIC_TUNE");
  if (env != nullptr && env[0] != '\0') {
    const std::string v(env);
    if (v == "off") return "";
    if (v != "force") return v;  // explicit cache path
  }
  return ".vpic_tune.json";
}

core::PushGates probe_push_gates(core::ParticleLayout layout,
                                 double* gen_cost_s) {
  const core::Grid g(8, 8, 8, 8.f, 8.f, 8.f, core::Grid::courant_dt(1, 1, 1));
  core::InterpolatorArray interp(g);  // zero fields: particles never move
  // One tile over the whole grid: the deposit block of the step's
  // untiled push. Zero momenta deposit zeros, so it is never cleared.
  core::TileAccumulator acc(g, core::TileMap(g, 1), 0);
  constexpr int kPpc = 32;
  const index_t n = g.interior_cells() * kPpc;

  core::Species sp("tune_probe", -1.0f, 1.0f, n, layout);
  const auto strat = core::kDefaultStrategy;
  constexpr int kReps = 3;

  // The step's tile-push kernels (pipeline_modules.cpp), serial on the
  // calling thread: the probe is independent of the OpenMP team.
  const auto push_generic = [&] {
    core::advance_range_serial(sp, interp, acc, g, strat, {}, 0, sp.np);
  };
  const auto push_runs = [&] {
    core::dispatch_layout(sp.p, [&](auto a) {
      sort::segment_runs(sp.np, [a](index_t i) { return a.cell(i); },
                         sp.push_runs);
    });
    core::advance_runs_serial(sp, interp, acc, g, strat, {}, sp.push_runs);
  };

  // Long runs (length kPpc): per-particle cost ~ c_inf.
  fill_probe_species(sp, g, kPpc, /*sorted=*/true);
  const double t_gen = time_min(kReps, push_generic);
  const double t_long = time_min(kReps, push_runs);

  // Runs of length 1: per-particle cost ~ c_inf + c_overhead.
  fill_probe_species(sp, g, kPpc, /*sorted=*/false);
  const double t_short = time_min(kReps, push_runs);

  // Small-n fixed overhead (segmentation pass, run vector).
  fill_probe_species(sp, g, kPpc, /*sorted=*/true);
  const index_t n_small = 64;
  sp.np = n_small;
  const double t_small = time_min(kReps, push_runs);

  const double nn = static_cast<double>(n);
  const double per_gen = t_gen / nn;
  if (gen_cost_s != nullptr) *gen_cost_s = per_gen;
  const double per_long = t_long / nn;  // ~ c_inf + c_over/kPpc
  const double per_short = t_short / nn;
  const double c_over = std::max(per_short - per_long, 0.0);
  const double c_inf = std::max(per_long - c_over / kPpc, 0.0);
  const double benefit = per_gen - c_inf;  // savings per particle at r->inf

  core::PushGates gates;  // start from the defaults
  if (benefit <= 1e-12) {
    // Run-aware never wins on this host/layout: gate it as hard as the
    // clamps allow (the path stays reachable; forced RunAware is honored).
    gates.min_mean_run = kMinMeanRunHi;
    gates.max_stale = kMaxStaleLo;
    gates.min_particles = kMinParticlesHi;
    return clamp_gates(gates);
  }
  // Break-even mean run length: c_inf + c_over / r == per_gen.
  gates.min_mean_run = c_over / benefit;
  // Staleness budget scales with how much the fast path wins when it hits
  // (per_gen / per_long): a bigger win justifies probing longer after the
  // last sort, a marginal one gives up sooner.
  gates.max_stale =
      static_cast<int>(64.0 * std::min(per_gen / std::max(per_long, 1e-12),
                                       4.0));
  // Below this count the fixed dispatch overhead eats the benefit.
  const double fixed =
      std::max(t_small - static_cast<double>(n_small) * per_long, 0.0);
  gates.min_particles = static_cast<index_t>(fixed / benefit);
  return clamp_gates(gates);
}

core::SortDispatchModel probe_sort_model() {
  const int nthreads = pk::DefaultExecSpace::concurrency();
  const index_t n = index_t{1} << 15;
  constexpr int kReps = 3;
  std::uint64_t state = 0x243f6a8885a308d3ull;
  auto next = [&state]() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dull;
  };

  std::vector<std::uint32_t> base(static_cast<std::size_t>(n));
  for (auto& k : base) k = static_cast<std::uint32_t>(next());

  std::vector<std::uint32_t> keys(static_cast<std::size_t>(n));
  std::vector<std::uint32_t> vals(static_cast<std::size_t>(n));
  std::vector<std::uint32_t> tk(static_cast<std::size_t>(n));
  std::vector<std::uint32_t> tv(static_cast<std::size_t>(n));
  std::vector<std::uint32_t> out(static_cast<std::size_t>(n));
  std::vector<index_t> offsets;

  // Timed counting sort (offsets + scatter — the two bound-scaling
  // passes) at bound `b`; key regeneration and the histogram zero-fill
  // happen outside the timer.
  auto timed_counting = [&](index_t b) {
    double best = 1e30;
    for (int r = 0; r < kReps; ++r) {
      for (index_t i = 0; i < n; ++i) {
        keys[static_cast<std::size_t>(i)] =
            base[static_cast<std::size_t>(i)] %
            static_cast<std::uint32_t>(b);
        vals[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(i);
      }
      offsets.assign(sort::detail::counting_hist_cells(nthreads, b), 0);
      const double t0 = now_s();
      sort::detail::counting_offsets(keys.data(), n, b, offsets.data(),
                                     nthreads);
      sort::detail::counting_scatter(keys.data(), vals.data(), n, b,
                                     offsets.data(), nthreads, out.data());
      best = std::min(best, now_s() - t0);
    }
    return best;
  };

  auto timed_radix = [&](index_t nn, index_t b) {
    const int passes = sort::detail::passes_for(
        static_cast<std::uint32_t>(b > 0 ? b - 1 : 0));
    double best = 1e30;
    for (int r = 0; r < kReps; ++r) {
      for (index_t i = 0; i < nn; ++i) {
        keys[static_cast<std::size_t>(i)] =
            base[static_cast<std::size_t>(i)] %
            static_cast<std::uint32_t>(b);
        vals[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(i);
      }
      offsets.assign(static_cast<std::size_t>(nthreads) * 256, 0);
      const double t0 = now_s();
      sort::detail::radix_passes(keys.data(), vals.data(), tk.data(),
                                 tv.data(), nn, passes, offsets.data(),
                                 nthreads);
      best = std::min(best, now_s() - t0);
    }
    return best;
  };

  // Fit counting cost ~ a*n + b_cell*cells from two bounds.
  const index_t b1 = index_t{1} << 10;
  const index_t b2 = index_t{1} << 17;
  const double cells1 =
      static_cast<double>(sort::detail::counting_hist_cells(nthreads, b1));
  const double cells2 =
      static_cast<double>(sort::detail::counting_hist_cells(nthreads, b2));
  const double tc1 = timed_counting(b1);
  const double tc2 = timed_counting(b2);
  const double b_cell = (tc2 - tc1) / std::max(cells2 - cells1, 1.0);
  const double a_n = std::max(tc1 - b_cell * cells1, 0.0);

  core::SortDispatchModel m;  // defaults as the fallback
  if (b_cell <= 0) return clamp_model(m);

  // Crossover at the probe size: counting wins while
  // a*n + b_cell*cells <= t_radix.
  const double t_radix = timed_radix(n, b2);
  const double cells_star = (t_radix - a_n) / b_cell;
  if (cells_star > 0) m.cells_per_n = cells_star / static_cast<double>(n);

  // Floor: the same crossover at small n, where per-element costs are
  // negligible and the bound-scaling work dominates both sides.
  const index_t n0 = index_t{1} << 12;
  const double t_radix_small = timed_radix(n0, b2);
  const double a_small =
      a_n * static_cast<double>(n0) / static_cast<double>(n);
  const double floor_star = (t_radix_small - a_small) / b_cell;
  if (floor_star > 0) m.cells_floor = floor_star;

  return clamp_model(m);
}

std::string encode_cache(const TuneState& s) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"VPICTUNE1\",\n  \"fingerprint\": \""
     << json_escape(s.fingerprint) << "\",\n  \"push_gates\": {\n";
  for (int i = 0; i < core::kNumParticleLayouts; ++i) {
    const core::PushGates& g = s.gates[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    \"%s\": {\"min_particles\": %lld, \"max_stale\": %d, "
                  "\"min_mean_run\": %.17g, \"gen_s_per_particle\": %.17g}%s\n",
                  core::to_string(core::kAllParticleLayouts[i]),
                  static_cast<long long>(g.min_particles), g.max_stale,
                  g.min_mean_run, s.push_cost_s[i],
                  i + 1 < core::kNumParticleLayouts ? "," : "");
    os << buf;
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "  },\n  \"sort_model\": {\"cells_per_n\": %.17g, "
                "\"cells_floor\": %.17g}\n}\n",
                s.sort_model.cells_per_n, s.sort_model.cells_floor);
  os << buf;
  return os.str();
}

std::optional<TuneError> decode_cache(const std::string& text,
                                      const std::string& expect_fingerprint,
                                      TuneState& out) {
  const auto schema = read_string(text, "schema", 0);
  if (!schema || *schema != "VPICTUNE1")
    return TuneError{TuneErrorKind::BadSchema,
                     schema ? "schema is '" + *schema + "'"
                            : "no schema key"};
  const auto fp = read_string(text, "fingerprint", 0);
  if (!fp) return TuneError{TuneErrorKind::Parse, "no fingerprint key"};
  if (*fp != expect_fingerprint)
    return TuneError{TuneErrorKind::StaleFingerprint,
                     "cache is for '" + *fp + "'"};

  const std::size_t gates_at = find_key(text, "push_gates", 0);
  if (gates_at == std::string::npos)
    return TuneError{TuneErrorKind::Parse, "no push_gates object"};

  core::PushGates gates[core::kNumParticleLayouts];
  double push_cost[core::kNumParticleLayouts] = {};
  for (int i = 0; i < core::kNumParticleLayouts; ++i) {
    const char* name = core::to_string(core::kAllParticleLayouts[i]);
    const std::size_t at = find_key(text, name, gates_at);
    if (at == std::string::npos)
      return TuneError{TuneErrorKind::Parse,
                       std::string("no gates for layout ") + name};
    const auto mp = read_number(text, "min_particles", at);
    const auto ms = read_number(text, "max_stale", at);
    const auto mr = read_number(text, "min_mean_run", at);
    if (!mp || !ms || !mr)
      return TuneError{TuneErrorKind::Parse,
                       std::string("incomplete gates for layout ") + name};
    // Range-check the integer fields as parsed doubles: converting an
    // out-of-range double to an integer is undefined behaviour.
    if (!(*mp >= kMinParticlesLo && *mp <= kMinParticlesHi &&
          *ms >= kMaxStaleLo && *ms <= kMaxStaleHi))
      return TuneError{TuneErrorKind::OutOfRange,
                       std::string("gates out of range for layout ") + name};
    gates[i].min_particles = static_cast<index_t>(*mp);
    gates[i].max_stale = static_cast<int>(*ms);
    gates[i].min_mean_run = *mr;
    if (!gates_in_range(gates[i]))
      return TuneError{TuneErrorKind::OutOfRange,
                       std::string("gates out of range for layout ") + name};
    // Optional (added after VPICTUNE1 shipped): tolerate its absence so
    // existing cache files stay valid; nonsense values degrade to
    // "unknown" rather than rejecting the whole cache. Bounded to this
    // layout's object so a pre-field cache can't borrow the next
    // layout's value.
    const std::size_t next =
        i + 1 < core::kNumParticleLayouts
            ? find_key(text, core::to_string(core::kAllParticleLayouts[i + 1]),
                       at)
            : find_key(text, "sort_model", at);
    const std::size_t pc_at = find_key(text, "gen_s_per_particle", at);
    if (pc_at != std::string::npos &&
        (next == std::string::npos || pc_at < next)) {
      const auto pc = read_number(text, "gen_s_per_particle", at);
      if (pc && std::isfinite(*pc) && *pc > 0) push_cost[i] = *pc;
    }
  }

  const std::size_t model_at = find_key(text, "sort_model", 0);
  if (model_at == std::string::npos)
    return TuneError{TuneErrorKind::Parse, "no sort_model object"};
  const auto cpn = read_number(text, "cells_per_n", model_at);
  const auto cf = read_number(text, "cells_floor", model_at);
  if (!cpn || !cf)
    return TuneError{TuneErrorKind::Parse, "incomplete sort_model"};
  core::SortDispatchModel model;
  model.cells_per_n = *cpn;
  model.cells_floor = *cf;
  if (!model_in_range(model))
    return TuneError{TuneErrorKind::OutOfRange, "sort_model out of range"};

  for (int i = 0; i < core::kNumParticleLayouts; ++i) {
    out.gates[i] = gates[i];
    out.push_cost_s[i] = push_cost[i];
  }
  out.sort_model = model;
  return std::nullopt;
}

TuneState initialize_from(const std::string& cache_path, bool force) {
  TuneState s;
  s.cache_path = cache_path;
  s.fingerprint = host_fingerprint();

  if (!force && !cache_path.empty()) {
    std::ifstream in(cache_path, std::ios::binary);
    if (!in) {
      // Normal on first run: probe and write below.
      s.cache_error = TuneError{TuneErrorKind::IoError, "cannot open file"};
      prof::counter_add("tune.cache.miss");
    } else {
      std::ostringstream buf;
      buf << in.rdbuf();
      const std::string text = buf.str();
      auto err = decode_cache(text, s.fingerprint, s);
      if (!err) {
        s.source = Source::Cache;
        prof::counter_add("tune.cache.hit");
        install(s);
        return s;
      }
      s.cache_error = std::move(err);
      prof::counter_add(s.cache_error->kind == TuneErrorKind::StaleFingerprint
                            ? "tune.cache.stale"
                            : "tune.cache.corrupt");
    }
  }
  if (force) prof::counter_add("tune.forced");

  {
    prof::ScopedRegion r("tune_probe");
    for (int i = 0; i < core::kNumParticleLayouts; ++i)
      s.gates[i] =
          probe_push_gates(core::kAllParticleLayouts[i], &s.push_cost_s[i]);
    s.sort_model = probe_sort_model();
    s.source = Source::Probes;
    prof::counter_add("tune.probe");
  }

  if (!cache_path.empty()) {
    // Write-through via rename so a crash mid-write never leaves a
    // half-cache for the next run to reject.
    const std::string tmp = cache_path + ".tmp";
    std::ofstream outf(tmp, std::ios::binary | std::ios::trunc);
    bool ok = static_cast<bool>(outf);
    if (ok) {
      outf << encode_cache(s);
      outf.flush();
      ok = static_cast<bool>(outf);
      outf.close();
    }
    if (!ok || std::rename(tmp.c_str(), cache_path.c_str()) != 0) {
      std::remove(tmp.c_str());
      prof::counter_add("tune.cache.write_failed");
    } else {
      prof::counter_add("tune.cache.written");
    }
  }

  install(s);
  return s;
}

namespace {
std::mutex g_mu;
std::optional<TuneState> g_state;
}  // namespace

const TuneState& ensure_initialized() {
  std::lock_guard lk(g_mu);
  if (!g_state) {
    const char* env = std::getenv("VPIC_TUNE");
    if (env != nullptr && std::string_view(env) == "off") {
      TuneState s;  // built-in defaults
      s.fingerprint = host_fingerprint();
      prof::counter_add("tune.disabled");
      install(s);
      g_state = std::move(s);
    } else {
      const bool force = env != nullptr && std::string_view(env) == "force";
      g_state = initialize_from(default_cache_path(), force);
    }
  }
  return *g_state;
}

double push_cost_per_particle(core::ParticleLayout layout) {
  const TuneState& s = ensure_initialized();
  for (int i = 0; i < core::kNumParticleLayouts; ++i)
    if (core::kAllParticleLayouts[i] == layout) return s.push_cost_s[i];
  return 0.0;
}

void reset_for_testing() {
  std::lock_guard lk(g_mu);
  g_state.reset();
  core::reset_tuning_defaults();
}

}  // namespace vpic::tune
