// perfbench/stepbench.cpp
//
// Whole-step PIC benchmark harness: runs ONE workload in this process and
// prints one JSON line with its metrics, its correctness tally and the
// run's shape (perfbench/README.md has the metric and workload tables).
//
// The engine is measured from outside. Every span is recorded here,
// around calls this file makes into the public API: deck build,
// tune::initialize_from, each Simulation::step(), restore_latest. A step's
// child spans are the per-phase wall times the step already publishes
// (last_phase_stats()); dispatch and scheduling counts come from
// last_push_paths() / last_concurrency_peak() / elastic_ckpt_stats(), and
// run lengths from sort::probe_runs. Nothing under src/ is changed.
//
// A run is a sequence of episodes. An episode builds the deck fresh with
// the default SimulationConfig (the config a user gets), steps it a fixed
// number of times, checkpoints, tears the writer down and restarts from
// the ring. Fixed-length episodes keep the simulated window the same on
// every commit, however fast the engine is; the run repeats episodes
// until --seconds have passed.
//
// Usage (normally through perfbench/run.py, which builds this binary and
// pins the tuner cache per thread count):
//   stepbench --workload lpi_1t --seed 1 --seconds 30 --trace 0
//             --work DIR --tune-cache FILE [--smoke]
//   stepbench --tune-only --tune-cache FILE
// The workloads need OMP_NUM_THREADS=1.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/decks.hpp"
#include "core/simulation.hpp"
#include "pk/execution.hpp"
#include "sort/runs.hpp"
#include "tune/tune.hpp"

namespace {

namespace fs = std::filesystem;
using namespace vpic;
using core::Simulation;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Minimal JSON writer (flat objects of numbers, strings and nested objects).
// ---------------------------------------------------------------------------

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out + "\"";
}

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class JObj {
 public:
  JObj& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + jstr(k) + ":" + v;
    return *this;
  }
  JObj& num(const std::string& k, double v) { return raw(k, jnum(v)); }
  JObj& str(const std::string& k, const std::string& v) {
    return raw(k, jstr(v));
  }
  JObj& obj(const std::string& k, const JObj& o) { return raw(k, o.dump()); }
  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  int steps;       // timed steps per episode, after the set-up step
  int ckpt_every;  // in-loop incremental checkpoint cadence (0: none)
  int tail_ckpts;  // checkpointing steps after the timed loop (plain ring)
};

// Timed steps per episode are multiples of the default sort interval (20)
// so every episode sees the same sort cadence. Every workload runs on one
// OpenMP thread (perfbench/README.md, "Why one thread").
const Workload kWorkloads[] = {
    {"lpi_1t", 100, 0, 3},
    {"reconnection_1t", 100, 0, 3},
    {"weibel_ckpt_1t", 100, 20, 0},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (w.name == name) return &w;
  return nullptr;
}

/// Deck inputs: every input comes from a core::decks deck function, and the
/// workload seed reaches the deck's particle-loading seed.
///
/// Each deck is sized so that its particles and per-voxel arrays stay
/// near 2 MiB, the size of a core-private L2. A deck that lives in the L3
/// shares that cache with every other tenant of the host: on a 4-vCPU Xeon
/// VM (2 MiB L2 per core, 300 MiB shared L3) the median step of the
/// 48x16x16 LPI deck (7.6 MB of particles) moved by up to a third from one
/// run to the next, while a pointer chase over 256 KiB held within 5%.
struct Deck {
  std::string name;
  JObj params;
  std::function<Simulation()> build;
};

Deck make_deck(const Workload& w, std::uint64_t seed, bool smoke) {
  Deck d;
  if (w.name == "lpi_1t") {
    core::decks::LpiParams p;
    p.nx = smoke ? 16 : 24;
    p.ny = 8;
    p.nz = 8;
    p.ppc = smoke ? 4 : 16;
    p.seed = seed;
    d.name = "make_lpi";
    d.params.num("nx", p.nx).num("ny", p.ny).num("nz", p.nz).num("ppc", p.ppc);
    d.build = [p] { return core::decks::make_lpi(p); };
  } else if (w.name == "reconnection_1t") {
    core::decks::ReconnectionParams p;
    p.nx = smoke ? 16 : 32;
    p.ny = 8;
    p.nz = smoke ? 16 : 32;
    p.ppc = 1;
    p.seed = seed;
    d.name = "make_reconnection";
    d.params.num("nx", p.nx).num("ny", p.ny).num("nz", p.nz).num("ppc", p.ppc);
    d.build = [p] { return core::decks::make_reconnection(p); };
  } else {
    core::decks::WeibelParams p;
    p.nx = p.ny = p.nz = smoke ? 8 : 16;
    p.ppc = smoke ? 4 : 8;
    p.seed = seed;
    d.name = "make_weibel";
    d.params.num("nx", p.nx).num("ny", p.ny).num("nz", p.nz).num("ppc", p.ppc);
    d.build = [p] { return core::decks::make_weibel(p); };
  }
  d.params.num("seed", static_cast<double>(seed));
  return d;
}

// ---------------------------------------------------------------------------
// Measurements.
// ---------------------------------------------------------------------------

/// One timed step. The trace fields are filled only in a traced run.
struct StepRecord {
  double wall_s = 0;
  bool committed = false;   // a checkpoint generation was committed
  bool tail = false;        // checkpoint tail, outside the timed loop
  std::vector<core::PhaseStats> phases;
  std::vector<core::PushPath> paths;
  std::vector<double> run_len;  // sampled mean run length per species
  std::size_t concurrency_peak = 0;
};

/// Wall times of steps [begin, end) in ms: the timed-loop steps that
/// committed no checkpoint (ckpt == false), or every step that committed
/// one (ckpt == true).
std::vector<double> step_ms(const std::vector<StepRecord>& steps,
                            std::size_t begin, std::size_t end, bool ckpt) {
  std::vector<double> v;
  for (std::size_t i = begin; i < end; ++i) {
    const StepRecord& r = steps[i];
    if (r.committed == ckpt && (ckpt || !r.tail)) v.push_back(r.wall_s * 1e3);
  }
  return v;
}

struct Episode {
  std::size_t first_step = 0, end_step = 0;  // range in Measurements::steps
  double setup_s = 0;
  double restart_s = 0;
  double restore_s = 0;
};

struct Measurements {
  std::vector<StepRecord> steps;
  std::vector<Episode> episodes;  // completed episodes only
  std::uint64_t ckpt_bytes = 0;   // bytes of committed generation files
  std::int64_t ckpt_gens = 0;
  core::ElasticCkptStats elastic;
  std::int64_t particles = 0;

  [[nodiscard]] std::vector<double> step_ms(bool ckpt) const {
    return ::step_ms(steps, 0, steps.size(), ckpt);
  }
};

/// Correctness tally: every step, checkpoint, restore and end-of-episode
/// check is one operation; a thrown exception or a failed check is one
/// failure, recorded with its reason.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
};

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool energies_bit_equal(const core::EnergyReport& a,
                        const core::EnergyReport& b) {
  if (!bit_equal(a.field, b.field) || a.species.size() != b.species.size())
    return false;
  for (std::size_t i = 0; i < a.species.size(); ++i)
    if (!bit_equal(a.species[i], b.species[i])) return false;
  return true;
}

bool energies_finite(const core::EnergyReport& e) {
  if (!std::isfinite(e.field)) return false;
  return std::all_of(e.species.begin(), e.species.end(),
                     [](double k) { return std::isfinite(k); });
}

/// Sizes of ring files not seen before (generation numbers only grow, so a
/// new name is a newly committed generation).
std::uint64_t new_file_bytes(const fs::path& dir, std::set<std::string>& seen) {
  std::uint64_t bytes = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (!e.is_regular_file() || name.ends_with(".tmp")) continue;
    if (seen.insert(name).second) bytes += e.file_size();
  }
  return bytes;
}

class Runner {
 public:
  Runner(const Workload& w, const Deck& deck, fs::path work, bool smoke)
      : w_(w), deck_(deck), work_(std::move(work)), smoke_(smoke) {}

  [[nodiscard]] int episode_steps() const {
    return smoke_ ? std::min(w_.steps, 40) : w_.steps;
  }

  /// The deck's SimulationConfig as built (before any checkpoint knobs
  /// this harness sets); empty until the first episode.
  [[nodiscard]] const std::optional<core::SimulationConfig>& config() const {
    return config_;
  }

  /// Run whole episodes until `budget_s` has passed (at least one).
  void run(double budget_s, bool traced, Measurements& m, Tally& t) {
    const auto t0 = Clock::now();
    do {
      episode(traced, m, t);
    } while (seconds_since(t0) < budget_s);
  }

 private:
  void configure_ring(Simulation& sim, const std::string& base) const {
    if (w_.ckpt_every == 0) return;
    auto& cfg = sim.config();
    cfg.checkpoint_every = w_.ckpt_every;
    cfg.checkpoint_path = base;
    cfg.checkpoint_incremental = true;
  }

  void episode(bool traced, Measurements& m, Tally& t) {
    const fs::path ring_dir =
        work_ / ("ring-" + std::to_string(::getpid()) + "-" +
                 std::to_string(episode_++));
    fs::remove_all(ring_dir);
    fs::create_directories(ring_dir);
    const std::string base = (ring_dir / "ckpt").string();
    try {
      run_episode(traced, base, ring_dir, m, t);
    } catch (const std::exception& e) {
      t.fail(std::string("episode aborted: ") + e.what());
    }
    fs::remove_all(ring_dir);
  }

  void run_episode(bool traced, const std::string& base,
                   const fs::path& ring_dir, Measurements& m, Tally& t) {
    // Set-up: deck build (constructor with the warm tune cache, plasma
    // load) through the end of the first step.
    const auto ts = Clock::now();
    auto sim = std::make_unique<Simulation>(deck_.build());
    if (!config_) config_ = sim->config();
    configure_ring(*sim, base);
    std::vector<core::index_t> initial;
    std::int64_t np = 0;
    for (std::size_t s = 0; s < sim->num_species(); ++s) {
      initial.push_back(sim->species(s).np);
      np += sim->species(s).np;
    }
    ++t.attempted;
    sim->step();
    Episode ep;
    ep.setup_s = seconds_since(ts);
    ep.first_step = m.steps.size();
    m.particles = np;

    // Writer-side state at the newest committed generation, for the
    // restore contract check (docs/CHECKPOINT.md).
    std::int64_t newest_step = -1;
    core::EnergyReport newest_energies;
    std::set<std::string> seen;
    auto do_step = [&](bool tail) {
      StepRecord r;
      r.tail = tail;
      if (traced) {
        for (std::size_t s = 0; s < sim->num_species(); ++s) {
          auto& sp = sim->species(s);
          const auto pr = sort::probe_runs(
              sp.np, [&sp](core::index_t i) { return sp.p.cell(i); }, 1024);
          r.run_len.push_back(pr.mean_run_estimate());
        }
      }
      const std::int64_t written = sim->checkpoints_written();
      ++t.attempted;
      const auto t0 = Clock::now();
      sim->step();
      r.wall_s = seconds_since(t0);
      r.committed = sim->checkpoints_written() > written;
      const auto& cfg = sim->config();
      const bool due = cfg.checkpoint_every > 0 &&
                       sim->step_count() % cfg.checkpoint_every == 0;
      if (due || r.committed) {
        t.check(due && r.committed,
                "checkpoint at step " + std::to_string(sim->step_count()));
        newest_step = sim->step_count();
        newest_energies = sim->energies();
        m.ckpt_bytes += new_file_bytes(ring_dir, seen);
        ++m.ckpt_gens;
      }
      if (traced) {
        r.phases = sim->last_phase_stats();
        r.paths = sim->last_push_paths();
        r.concurrency_peak = sim->last_concurrency_peak();
      }
      m.steps.push_back(std::move(r));
    };

    for (int k = 0; k < episode_steps(); ++k) do_step(false);

    // Checkpoint tail: workloads without in-loop checkpoints commit a few
    // plain-ring generations after the timed loop, so every workload has
    // a checkpoint and restart to measure.
    if (w_.tail_ckpts > 0) {
      auto& cfg = sim->config();
      cfg.checkpoint_every = 1;
      cfg.checkpoint_path = base;
      for (int k = 0; k < w_.tail_ckpts; ++k) do_step(true);
    }

    // End-of-episode checks: periodic decks with no particle sources keep
    // every species' count, and energies stay finite.
    for (std::size_t s = 0; s < sim->num_species(); ++s)
      t.check(sim->species(s).np == initial[s],
              "particle count of species " + sim->species(s).name);
    t.check(energies_finite(sim->energies()), "finite energies");
    const core::ElasticCkptStats es = sim->elastic_ckpt_stats();
    m.elastic.full_generations += es.full_generations;
    m.elastic.delta_generations += es.delta_generations;
    m.elastic.logical_bytes += es.logical_bytes;
    m.elastic.stored_raw_bytes += es.stored_raw_bytes;
    m.elastic.stored_bytes += es.stored_bytes;
    sim.reset();

    // Restart: fresh deck build + restore_latest of the final ring.
    ++t.attempted;
    const auto tr = Clock::now();
    auto restored = std::make_unique<Simulation>(deck_.build());
    configure_ring(*restored, base);
    const auto trs = Clock::now();
    restored->restore_latest(base);
    ep.restore_s = seconds_since(trs);
    ep.restart_s = seconds_since(tr);
    t.check(restored->step_count() == newest_step &&
                energies_bit_equal(restored->energies(), newest_energies),
            "restored state bit-equal to the writer at step " +
                std::to_string(restored->step_count()));
    ep.end_step = m.steps.size();
    m.episodes.push_back(ep);
  }

  const Workload& w_;
  const Deck& deck_;
  fs::path work_;
  bool smoke_;
  int episode_ = 0;
  std::optional<core::SimulationConfig> config_;
};

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    obj_.obj(name, JObj().num("value", value).str("unit", unit));
  }
  [[nodiscard]] const JObj& json() const { return obj_; }

 private:
  JObj obj_;
};

/// End-to-end metrics. Every episode runs the same step sequence (same
/// deck, seed and checkpoint schedule), so step k of one episode does the
/// work of step k of any other. The host's CPUs are shared, and
/// interference only ever adds time: for each step of the sequence the run
/// keeps its fastest repetition, and the step metrics are taken over that
/// sequence. Set-up and restart, one of each per episode, are medians over
/// episodes: a restart is mostly file reads, where the fastest of a few
/// dozen is one lucky sample.
void end_to_end(const Measurements& m, Metrics& out) {
  std::vector<StepRecord> fastest;
  std::vector<double> setup, restart;
  for (const Episode& e : m.episodes) {
    for (std::size_t i = e.first_step; i < e.end_step; ++i) {
      const std::size_t k = i - e.first_step;
      if (k == fastest.size()) {
        fastest.push_back(m.steps[i]);
      } else {
        fastest[k].wall_s = std::min(fastest[k].wall_s, m.steps[i].wall_s);
      }
    }
    setup.push_back(e.setup_s);
    restart.push_back(e.restart_s);
  }
  const auto plain = step_ms(fastest, 0, fastest.size(), false);
  double loop_s = 0;
  double timed_steps = 0;
  for (const StepRecord& r : fastest) {
    if (r.tail) continue;
    loop_s += r.wall_s;
    timed_steps += 1;
  }
  out.add("step_ms_p50", median(plain), "ms");
  out.add("step_ms_p90", quantile(plain, 0.9), "ms");
  out.add("push_rate_mps",
          loop_s > 0 ? static_cast<double>(m.particles) * timed_steps /
                           loop_s / 1e6
                     : 0.0,
          "M/s");
  out.add("setup_s", median(setup), "s");
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
  out.add("ckpt_step_ms_p50", median(step_ms(fastest, 0, fastest.size(), true)),
          "ms");
  out.add("restart_s", median(restart), "s");
}

double phase_sum(const StepRecord& r, const char* prefix, bool exact) {
  double s = 0;
  for (const auto& p : r.phases)
    if (exact ? p.name == prefix : p.name.starts_with(prefix)) s += p.seconds;
  return s;
}

void per_layer(const Measurements& m, double untraced_p50_ms,
               double probe_s, bool cache_hit, const Tally& tally,
               Metrics& out) {
  std::vector<double> interp, clear, unload, field, push, push_ns, inject,
      other, sort_ms, ckpt_ms;
  double run_aware = 0, species_steps = 0, run_len_sum = 0, run_len_n = 0;
  double sorts = 0;
  std::size_t peak = 0;
  const auto per_step_ms = [](double s) { return s * 1e3; };
  for (const StepRecord& r : m.steps) {
    double phases = 0;
    for (const auto& p : r.phases) phases += p.seconds;
    if (r.committed) ckpt_ms.push_back(per_step_ms(phase_sum(r, "ckpt", true)));
    peak = std::max(peak, r.concurrency_peak);
    if (r.tail) continue;
    interp.push_back(per_step_ms(phase_sum(r, "interpolate", true)));
    clear.push_back(per_step_ms(phase_sum(r, "acc_clear", true)));
    unload.push_back(per_step_ms(phase_sum(r, "accumulate", true)));
    field.push_back(per_step_ms(phase_sum(r, "field_advance", true)));
    inject.push_back(per_step_ms(phase_sum(r, "injection", true)));
    const double push_s = phase_sum(r, "push[", false);
    push.push_back(per_step_ms(push_s));
    push_ns.push_back(push_s * 1e9 / static_cast<double>(m.particles));
    other.push_back(per_step_ms(r.wall_s - phases));
    const double sort_s = phase_sum(r, "sort[", false);
    if (sort_s > 0) {
      sort_ms.push_back(per_step_ms(sort_s));
      ++sorts;
    }
    for (core::PushPath p : r.paths) {
      species_steps += 1;
      if (p == core::PushPath::RunAware) run_aware += 1;
    }
    for (double len : r.run_len) {
      run_len_sum += len;
      run_len_n += 1;
    }
  }
  const double traced_p50 = median(m.step_ms(false));

  out.add("interp.ms", median(interp), "ms");
  out.add("acc.clear_ms", median(clear), "ms");
  out.add("acc.unload_ms", median(unload), "ms");
  out.add("field.ms", median(field), "ms");
  out.add("push.ms", median(push), "ms");
  out.add("push.ns_per_particle", median(push_ns), "ns");
  out.add("push.run_aware_frac",
          species_steps > 0 ? run_aware / species_steps : 0.0, "fraction");
  out.add("push.mean_run_len", run_len_n > 0 ? run_len_sum / run_len_n : 0.0,
          "particles");
  out.add("sort.count", sorts, "count");
  out.add("sort.ms_per_sort", median(sort_ms), "ms");
  out.add("injection.ms", median(inject), "ms");
  out.add("sched.other_ms", median(other), "ms");
  out.add("sched.concurrency_peak", static_cast<double>(peak), "count");
  out.add("tune.probe_s", probe_s, "s");
  out.add("tune.cache_hit", cache_hit ? 1.0 : 0.0, "count");

  const double write_ms = median(ckpt_ms);
  const double mb_per_gen =
      m.ckpt_gens > 0 ? static_cast<double>(m.ckpt_bytes) / (1 << 20) /
                            static_cast<double>(m.ckpt_gens)
                      : 0.0;
  out.add("ckpt.write_ms", write_ms, "ms");
  out.add("ckpt.mb_per_gen", mb_per_gen, "MiB");
  out.add("ckpt.write_mbps", write_ms > 0 ? mb_per_gen / (write_ms / 1e3) : 0.0,
          "MiB/s");
  std::vector<double> restore_ms;
  for (const Episode& e : m.episodes) restore_ms.push_back(e.restore_s * 1e3);
  out.add("ckpt.restore_ms", median(restore_ms), "ms");
  const auto& e = m.elastic;
  out.add("elastic.incremental_ratio",
          e.stored_raw_bytes > 0 ? static_cast<double>(e.logical_bytes) /
                                       static_cast<double>(e.stored_raw_bytes)
                                 : 0.0,
          "ratio");
  out.add("elastic.codec_ratio",
          e.stored_bytes > 0 ? static_cast<double>(e.stored_raw_bytes) /
                                   static_cast<double>(e.stored_bytes)
                             : 0.0,
          "ratio");
  out.add("elastic.full_gens", static_cast<double>(e.full_generations),
          "count");
  out.add("elastic.delta_gens", static_cast<double>(e.delta_generations),
          "count");
  out.add("trace.overhead_frac",
          untraced_p50_ms > 0 ? traced_p50 / untraced_p50_ms - 1.0 : 0.0,
          "fraction");
  out.add("error_rate",
          tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                    static_cast<double>(tally.attempted)
                              : 1.0,
          "fraction");
}

/// Write the traced run's spans (durations only: the engine publishes no
/// phase start times). Roots: the cold tuner probe and one span per
/// episode, whose children are its set-up, its steps (each with its phases
/// as children) and its restart (with restore_latest as child).
void write_trace(const fs::path& file, const Measurements& m, double probe_s) {
  std::FILE* f = std::fopen(file.c_str(), "w");
  if (f == nullptr) return;
  constexpr std::size_t kRoot = static_cast<std::size_t>(-1);
  std::size_t next_id = 0;
  const auto span = [&](std::size_t parent, const std::string& name,
                        double dur_s) {
    const std::size_t id = next_id++;
    const std::string parent_json =
        parent == kRoot ? "null" : std::to_string(parent);
    std::fprintf(f, "%s\n{\"id\":%zu,\"parent\":%s,\"name\":%s,\"dur_s\":%s}",
                 id ? "," : "[", id, parent_json.c_str(), jstr(name).c_str(),
                 jnum(dur_s).c_str());
    return id;
  };
  span(kRoot, "tune.initialize_from", probe_s);
  for (const Episode& e : m.episodes) {
    double total = e.setup_s + e.restart_s;
    for (std::size_t i = e.first_step; i < e.end_step; ++i)
      total += m.steps[i].wall_s;
    const std::size_t ep = span(kRoot, "episode", total);
    span(ep, "deck_build+first_step", e.setup_s);
    for (std::size_t i = e.first_step; i < e.end_step; ++i) {
      const StepRecord& r = m.steps[i];
      const std::size_t st = span(ep, "step", r.wall_s);
      for (const auto& p : r.phases) span(st, p.name, p.seconds);
    }
    const std::size_t rs = span(ep, "restart", e.restart_s);
    span(rs, "restore_latest", e.restore_s);
  }
  std::fputs("\n]\n", f);
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Run shape: what a later change to a default must show up in.
// ---------------------------------------------------------------------------

JObj tune_record(const tune::TuneState& s) {
  JObj gates;
  for (int i = 0; i < core::kNumParticleLayouts; ++i) {
    const auto& g = s.gates[i];
    gates.obj(core::to_string(core::kAllParticleLayouts[i]),
              JObj()
                  .num("min_particles", static_cast<double>(g.min_particles))
                  .num("max_stale", g.max_stale)
                  .num("min_mean_run", g.min_mean_run));
  }
  return JObj()
      .str("source", tune::to_string(s.source))
      .str("fingerprint", s.fingerprint)
      .obj("push_gates", gates)
      .obj("sort_model", JObj()
                             .num("cells_per_n", s.sort_model.cells_per_n)
                             .num("cells_floor", s.sort_model.cells_floor));
}

JObj config_record(const core::SimulationConfig& c) {
  return JObj()
      .str("scheduler", core::to_string(c.scheduler))
      .num("graph_instances", static_cast<double>(c.graph_instances))
      .num("sort_interval", c.sort_interval)
      .str("sort_order", sort::to_string(c.sort_order))
      .str("layout", core::to_string(c.layout))
      .str("strategy", core::to_string(c.strategy))
      .str("push_path", core::to_string(c.push_path))
      .num("tiles_enabled", c.tiles.enabled ? 1 : 0)
      .num("checkpoint_keep_last", c.checkpoint_keep_last)
      .num("checkpoint_async", c.checkpoint_async ? 1 : 0)
      .num("checkpoint_full_every", c.checkpoint_full_every)
      .num("checkpoint_codec", c.checkpoint_codec);
}

// ---------------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool tune_only = false;
  std::string work = ".";
  std::string tune_cache;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = std::stoi(value()) != 0;
    else if (a == "--work") o.work = value();
    else if (a == "--tune-cache") o.tune_cache = value();
    else if (a == "--smoke") o.smoke = true;
    else if (a == "--tune-only") o.tune_only = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (o.tune_cache.empty())
    throw std::invalid_argument("--tune-cache is required");
  return o;
}

int run(const Options& o) {
  // Every Simulation constructor resolves the tuner through VPIC_TUNE;
  // point it at this thread count's pinned cache before the first one.
  ::setenv("VPIC_TUNE", o.tune_cache.c_str(), 1);
  const int threads = pk::DefaultExecSpace::concurrency();

  if (o.tune_only) {
    // The cold pass: probe once and write the cache the runs then load.
    const auto t0 = Clock::now();
    const tune::TuneState s = tune::initialize_from(o.tune_cache, false);
    std::printf("%s\n", JObj()
                            .num("threads", threads)
                            .num("seconds", seconds_since(t0))
                            .obj("tune", tune_record(s))
                            .dump()
                            .c_str());
    return 0;
  }

  const Workload* w = find_workload(o.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "stepbench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  if (threads != 1) {
    std::fprintf(stderr, "stepbench: %s needs OMP_NUM_THREADS=1 (have %d)\n",
                 w->name.c_str(), threads);
    return 2;
  }
  const fs::path work(o.work);
  fs::create_directories(work);

  Tally tally;
  const tune::TuneState& pinned = tune::ensure_initialized();
  const bool cache_hit = pinned.source == tune::Source::Cache;
  tally.check(cache_hit, "tuner cache " + o.tune_cache + " not warm");

  const Deck deck = make_deck(*w, o.seed, o.smoke);
  Runner runner(*w, deck, work, o.smoke);
  Measurements untraced;
  Measurements traced;
  double probe_s = 0;
  if (!o.trace) {
    runner.run(o.seconds, false, untraced, tally);
  } else {
    // Span around a cold tune::initialize_from (no cache): what a first
    // run on a new host pays. It installs its own probed gates, so the
    // pinned cache is loaded again right after.
    const auto tp = Clock::now();
    (void)tune::initialize_from("", true);
    probe_s = seconds_since(tp);
    const tune::TuneState again = tune::initialize_from(o.tune_cache, false);
    tally.check(again.source == tune::Source::Cache,
                "pinned tuner cache reloaded");
    runner.run(o.seconds / 2, false, untraced, tally);
    runner.run(o.seconds / 2, true, traced, tally);
    write_trace(work / ("trace-" + w->name + ".json"), traced, probe_s);
  }

  Metrics metrics;
  if (!o.trace) {
    end_to_end(untraced, metrics);
  } else {
    per_layer(traced, median(untraced.step_ms(false)), probe_s, cache_hit,
              tally, metrics);
  }

  JObj shape;
  shape.str("workload", w->name)
      .num("seed", static_cast<double>(o.seed))
      .num("smoke", o.smoke ? 1 : 0)
      .num("threads", threads)
      .num("nproc", std::thread::hardware_concurrency())
      .str("compiler", __VERSION__)
      .str("deck", deck.name)
      .obj("deck_params", deck.params)
      .num("particles", static_cast<double>(untraced.particles))
      .num("episode_steps", runner.episode_steps())
      .num("episodes", static_cast<double>(untraced.episodes.size() +
                                           traced.episodes.size()))
      .num("timed_steps", static_cast<double>(untraced.step_ms(false).size()))
      .num("ckpt_every", w->ckpt_every)
      .num("tail_ckpts", w->tail_ckpts)
      .num("ckpt_bytes_written",
           static_cast<double>(untraced.ckpt_bytes + traced.ckpt_bytes))
      .obj("config", runner.config() ? config_record(*runner.config()) : JObj())
      .obj("tune", tune_record(pinned));

  std::string failures = "[";
  for (std::size_t i = 0; i < tally.failures.size(); ++i)
    failures += (i ? "," : "") + jstr(tally.failures[i]);
  failures += "]";

  std::printf("%s\n", JObj()
                          .num("attempted", static_cast<double>(tally.attempted))
                          .num("failed", static_cast<double>(tally.failed))
                          .raw("failures", failures)
                          .obj("metrics", metrics.json())
                          .obj("shape", shape)
                          .dump()
                          .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stepbench: %s\n", e.what());
    return 2;
  }
}
