// core/collide.cpp — Takizuka–Abe binary collisions (see collide.hpp).

#include "core/collide.hpp"

#include <cmath>
#include <map>

#include "core/rng.hpp"
#include "core/simulation.hpp"
#include "prof/prof.hpp"

namespace vpic::core {

namespace {

/// Scatter one pair: rotate the relative velocity g = ua - ub by a
/// Gaussian polar angle (variance nu0 dt (qa qb / m_ab)^2 / g^3) and a
/// uniform azimuth, then share the change with reduced-mass weights so
/// total momentum is conserved exactly. All math in doubles; stores
/// round once to float.
bool scatter_pair(Particle& pa, Particle& pb, double ma, double mb,
                  double qa, double qb, double nu0_dt, double u_floor,
                  double delta_n, double phi_u) {
  const double gx = static_cast<double>(pa.ux) - pb.ux;
  const double gy = static_cast<double>(pa.uy) - pb.uy;
  const double gz = static_cast<double>(pa.uz) - pb.uz;
  const double g2 = gx * gx + gy * gy + gz * gz;
  if (g2 <= 0) return false;  // identical momenta: no scattering axis
  const double g = std::sqrt(g2);
  const double m_ab = ma * mb / (ma + mb);
  const double g_eff = g > u_floor ? g : u_floor;
  const double var =
      nu0_dt * (qa * qa * qb * qb) / (m_ab * m_ab * g_eff * g_eff * g_eff);
  const double delta = delta_n * std::sqrt(var);
  const double d2 = delta * delta;
  const double sin_t = 2.0 * delta / (1.0 + d2);
  const double omc = 2.0 * d2 / (1.0 + d2);  // 1 - cos(theta)
  const double phi = 2.0 * 3.14159265358979323846 * phi_u;
  const double stc = sin_t * std::cos(phi);
  const double sts = sin_t * std::sin(phi);
  const double g_perp = std::sqrt(gx * gx + gy * gy);
  double dgx, dgy, dgz;
  if (g_perp > 1e-30 * g) {
    dgx = (gx / g_perp) * gz * stc - (gy / g_perp) * g * sts - gx * omc;
    dgy = (gy / g_perp) * gz * stc + (gx / g_perp) * g * sts - gy * omc;
    dgz = -g_perp * stc - gz * omc;
  } else {
    // g along z: any perpendicular frame works, pick x-y.
    dgx = g * stc;
    dgy = g * sts;
    dgz = -g * omc;
  }
  pa.ux = static_cast<float>(pa.ux + (m_ab / ma) * dgx);
  pa.uy = static_cast<float>(pa.uy + (m_ab / ma) * dgy);
  pa.uz = static_cast<float>(pa.uz + (m_ab / ma) * dgz);
  pb.ux = static_cast<float>(pb.ux - (m_ab / mb) * dgx);
  pb.uy = static_cast<float>(pb.uy - (m_ab / mb) * dgy);
  pb.uz = static_cast<float>(pb.uz - (m_ab / mb) * dgz);
  return true;
}

/// Deterministic Fisher–Yates off a counter-based stream.
void shuffle(std::vector<index_t>& v, std::uint64_t seed) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        uniform01(seed, i - 1) * static_cast<double>(i));
    std::swap(v[i - 1], v[j < i ? j : i - 1]);
  }
}

/// Voxel -> particle indices for an index range, scanning in index order
/// (layout-independent). std::map iterates in ascending voxel order, so
/// the cell visit order is deterministic too.
std::map<std::int32_t, std::vector<index_t>> cell_lists(const Species& sp,
                                                        index_t begin,
                                                        index_t end) {
  std::map<std::int32_t, std::vector<index_t>> cells;
  dispatch_layout(sp.p, [&](auto a) {
    for (index_t i = begin; i < end; ++i) cells[a.cell(i)].push_back(i);
  });
  return cells;
}

}  // namespace

CollisionStats collide_range(Species& sa, Species& sb, const Grid& g,
                             const CollisionParams& prm, index_t a_begin,
                             index_t a_end, index_t b_begin, index_t b_end,
                             std::uint64_t step, std::uint64_t pair_key,
                             const ModuleRng& rng) {
  CollisionStats st;
  const bool self = &sa == &sb;
  const double nu0_dt = prm.nu0 * static_cast<double>(g.dt);
  auto cells_a = cell_lists(sa, a_begin, a_end);
  auto cells_b =
      self ? std::map<std::int32_t, std::vector<index_t>>{}
           : cell_lists(sb, b_begin, b_end);

  dispatch_layout(sa.p, [&](auto aa) {
    dispatch_layout(sb.p, [&](auto ab) {
      for (auto& [voxel, la] : cells_a) {
        const std::uint64_t seed_cell =
            rng.stream(step, pair_key, static_cast<std::uint64_t>(voxel));
        const std::uint64_t seed_shuffle = hash64(seed_cell ^ 1);
        const std::uint64_t seed_theta = hash64(seed_cell ^ 2);
        const std::uint64_t seed_phi = hash64(seed_cell ^ 3);
        shuffle(la, seed_shuffle);
        std::size_t npair = 0;
        if (self) {
          npair = la.size() / 2;
          for (std::size_t k = 0; k < npair; ++k) {
            Particle pa = aa.load(la[2 * k]);
            Particle pb = aa.load(la[2 * k + 1]);
            if (scatter_pair(pa, pb, sa.m, sa.m, sa.q, sa.q, nu0_dt,
                             prm.u_floor, normal(seed_theta, k),
                             uniform01(seed_phi, k))) {
              aa.store(la[2 * k], pa);
              aa.store(la[2 * k + 1], pb);
              ++st.pairs;
            }
          }
        } else {
          const auto itb = cells_b.find(voxel);
          if (itb == cells_b.end()) continue;
          auto& lb = itb->second;
          shuffle(lb, hash64(seed_cell ^ 4));
          npair = la.size() < lb.size() ? la.size() : lb.size();
          for (std::size_t k = 0; k < npair; ++k) {
            Particle pa = aa.load(la[k]);
            Particle pb = ab.load(lb[k]);
            if (scatter_pair(pa, pb, sa.m, sb.m, sa.q, sb.q, nu0_dt,
                             prm.u_floor, normal(seed_theta, k),
                             uniform01(seed_phi, k))) {
              aa.store(la[k], pa);
              ab.store(lb[k], pb);
              ++st.pairs;
            }
          }
        }
        if (npair) ++st.cells;
      }
    });
  });
  return st;
}

void CollisionModule::attach(Simulation& sim) {
  rng_ = sim.module_rng(id());
}

void CollisionModule::plan(Simulation& sim, const ModuleStepContext& ctx,
                           StepComposer& c) {
  if (prm_.interval <= 0 || ctx.next_step % prm_.interval != 0) return;
  std::vector<std::pair<std::size_t, std::size_t>> pairs = prm_.pairs;
  if (pairs.empty())
    for (std::size_t a = 0; a < sim.num_species(); ++a)
      for (std::size_t b = a; b < sim.num_species(); ++b)
        pairs.emplace_back(a, b);

  const auto phase_body = [this, &sim](std::size_t a, std::size_t b, int t,
                                       std::int64_t next_step) {
    Species& sa = sim.species(a);
    Species& sb = sim.species(b);
    const auto& slot_a = sa.tiles[static_cast<std::size_t>(t)];
    const auto& slot_b = sb.tiles[static_cast<std::size_t>(t)];
    const std::uint64_t pair_key = a * 1024 + b;
    const CollisionStats st = collide_range(
        sa, sb, sim.grid(), prm_, slot_a.begin, slot_a.end, slot_b.begin,
        slot_b.end, static_cast<std::uint64_t>(next_step), pair_key, rng_);
    pairs_.fetch_add(st.pairs, std::memory_order_relaxed);
    cells_.fetch_add(st.cells, std::memory_order_relaxed);
    prof::counter_add("collide.pairs", st.pairs);
  };

  auto part_res = [&sim](std::size_t s, int t) {
    return "particles." + sim.species(s).name + ".t" + std::to_string(t);
  };
  auto pair_name = [&sim](std::size_t a, std::size_t b, int t) {
    return "collide[" + sim.species(a).name + ":" + sim.species(b).name +
           ".t" + std::to_string(t) + "]";
  };

  // One task per (pair, tile). Tiles are independent (their particle
  // index ranges are disjoint and cell streams are voxel-keyed);
  // same-tile tasks of pairs sharing a species are chained in pair
  // order. Each pair's population scales the LPT cost hint.
  const int nt = ctx.tiles->count();
  const auto poll = ctx.poll;
  for (int t = 0; t < nt; ++t) {
    std::vector<std::string> planned;  // same-tile pair phases, in order
    for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
      const auto [a, b] = pairs[pi];
      const std::string name = pair_name(a, b, t);
      std::vector<std::string> wr{part_res(a, t)};
      if (b != a) wr.push_back(part_res(b, t));
      const double cost =
          static_cast<double>(
              sim.species(a).tiles[static_cast<std::size_t>(t)].count() +
              sim.species(b).tiles[static_cast<std::size_t>(t)].count()) *
          2e-8;
      c.add_branch({name,
                    {},
                    std::move(wr),
                    [phase_body, poll, a = a, b = b, t, ns = ctx.next_step] {
                      poll();
                      phase_body(a, b, t, ns);
                    },
                    cost});
      for (std::size_t pj = 0; pj < pi; ++pj)
        if (pairs[pj].first == a || pairs[pj].second == a ||
            pairs[pj].first == b || pairs[pj].second == b)
          c.edge(planned[pj], name);
      planned.push_back(name);
      // Every pair phase joins (join dedups): later spine phases
      // (diagnostics, ckpt) then order after all of them, not only the
      // ones the last pair happens to chain from.
      c.join(name);
    }
  }
  steps_.fetch_add(1, std::memory_order_relaxed);
}

void CollisionModule::save_state(ModuleStateWriter& w) const {
  w.add_pod("steps", steps_.load(std::memory_order_relaxed));
  w.add_pod("pairs", pairs_.load(std::memory_order_relaxed));
  w.add_pod("cells", cells_.load(std::memory_order_relaxed));
}

void CollisionModule::load_state(ModuleStateReader& r,
                                 std::uint32_t /*version*/) {
  steps_.store(r.pod<std::uint64_t>("steps"), std::memory_order_relaxed);
  pairs_.store(r.pod<std::uint64_t>("pairs"), std::memory_order_relaxed);
  cells_.store(r.pod<std::uint64_t>("cells"), std::memory_order_relaxed);
}

void CollisionModule::clear_state() {
  steps_.store(0, std::memory_order_relaxed);
  pairs_.store(0, std::memory_order_relaxed);
  cells_.store(0, std::memory_order_relaxed);
}

}  // namespace vpic::core
