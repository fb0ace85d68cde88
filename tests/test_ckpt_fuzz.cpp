// Deterministic mutation fuzz of the checkpoint restore reader
// (docs/CHECKPOINT.md, "Fuzzing"). The inputs are the golden fixtures
// (tests/data/golden/): a plain generation, the full base of a chain, a
// delta, and a delta whose sibling is mutated instead of itself. A fifth
// target feeds mutated streams to deltapack_decode directly.
//
// Mutations: bit flips, truncation, header length/offset fields, section
// table length/offset/shape fields, section reordering (table permutation
// and payload-region swaps), and — for chain files — fields inside
// "ela.manifest" and "ela.meta". Structural mutations recompute the CRCs
// that guard them, so the decoder's own bounds and consistency checks are
// reached instead of stopping at the first CRC. A last mutation overwrites
// a word inside any section payload and re-seals its CRC: the file stays
// consistent but means something else, which reaches the engine's section
// parsers (species metadata, energy history, module index) and, in a
// chain, the codec and the manifest hash check.
//
// Invariant: every restore either throws a typed ckpt::RestoreError or
// succeeds; after every mutation but the sealed-payload one (which changes
// what the file means) a success must land on exactly the state of the
// unmutated restore. A crash, an out-of-bounds read (run under ASan/UBSan)
// or an untyped exception fails the test. The seed is fixed, so a failure
// reproduces.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "elastic/elastic.hpp"
#include "golden_decks.hpp"

namespace core = vpic::core;
namespace ckpt = vpic::ckpt;
namespace elastic = vpic::elastic;
namespace golden = vpic::golden;
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

constexpr int kMutations = 10000;  // per target
const fs::path kGolden = VPIC_GOLDEN_DIR;

using Bytes = std::vector<std::byte>;

Bytes slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  const std::string s((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  Bytes b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

void spit(const fs::path& p, const Bytes& b) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

/// SplitMix64: a fixed-seed stream, identical on every host.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : next() % n; }
};

/// Replacement for an integer field: boundary values, near misses of the
/// current value, and random bits.
std::uint64_t mutate_int(Rng& rng, std::uint64_t v) {
  switch (rng.below(10)) {
    case 0: return 0;
    case 1: return v + 1;
    case 2: return v - 1;
    case 3: return v + 8 * (1 + rng.below(64));
    case 4: return v - 8 * (1 + rng.below(64));
    case 5: return v * 2;
    case 6: return ~std::uint64_t{0} - rng.below(256);
    case 7: return std::uint64_t{1} << rng.below(64);
    case 8: return rng.below(1 << 16);
    default: return rng.next();
  }
}

// ---- container surgery over the VPICCKP1 layout (ckpt/format.hpp) ----

ckpt::FileHeader header(const Bytes& b) {
  ckpt::FileHeader h;
  std::memcpy(&h, b.data(), sizeof h);
  return h;
}

void put_header(Bytes& b, ckpt::FileHeader h) {
  h.header_crc = ckpt::crc32(&h, ckpt::kHeaderCrcBytes);
  std::memcpy(b.data(), &h, sizeof h);
}

std::size_t record_at(const Bytes& b, std::size_t i) {
  return header(b).table_offset + i * sizeof(ckpt::SectionRecord);
}

ckpt::SectionRecord record(const Bytes& b, std::size_t i) {
  ckpt::SectionRecord r;
  std::memcpy(&r, b.data() + record_at(b, i), sizeof r);
  return r;
}

/// Store a record and re-seal the table and header CRCs.
void put_record(Bytes& b, std::size_t i, const ckpt::SectionRecord& r) {
  std::memcpy(b.data() + record_at(b, i), &r, sizeof r);
  ckpt::FileHeader h = header(b);
  h.table_crc = ckpt::crc32(b.data() + h.table_offset,
                            h.section_count * sizeof(ckpt::SectionRecord));
  put_header(b, h);
}

std::size_t find_record(const Bytes& b, const std::string& name) {
  for (std::size_t i = 0; i < header(b).section_count; ++i)
    if (name == record(b, i).name) return i;
  ADD_FAILURE() << "no section " << name;
  return 0;
}

void mutate_header(Rng& rng, Bytes& b) {
  ckpt::FileHeader h = header(b);
  switch (rng.below(3)) {
    case 0:
      h.section_count =
          static_cast<std::uint32_t>(mutate_int(rng, h.section_count));
      break;
    case 1: h.table_offset = mutate_int(rng, h.table_offset); break;
    default: h.total_bytes = mutate_int(rng, h.total_bytes); break;
  }
  put_header(b, h);
}

void mutate_record(Rng& rng, Bytes& b) {
  const std::size_t i = rng.below(header(b).section_count);
  ckpt::SectionRecord r = record(b, i);
  switch (rng.below(5)) {
    case 0: r.payload_offset = mutate_int(rng, r.payload_offset); break;
    case 1: r.payload_bytes = mutate_int(rng, r.payload_bytes); break;
    case 2: {
      auto& e = r.extents[rng.below(4)];
      e = static_cast<std::int64_t>(
          mutate_int(rng, static_cast<std::uint64_t>(e)));
      break;
    }
    case 3:
      r.elem_size = static_cast<std::uint32_t>(mutate_int(rng, r.elem_size));
      break;
    default:
      r.rank = static_cast<std::uint32_t>(mutate_int(rng, r.rank));
      break;
  }
  put_record(b, i, r);
}

void reorder_sections(Rng& rng, Bytes& b) {
  const std::size_t n = header(b).section_count;
  const std::size_t i = rng.below(n), j = rng.below(n);
  ckpt::SectionRecord a = record(b, i), c = record(b, j);
  if (rng.below(2) == 0) {
    // Permute the table: the same sections in another order.
    put_record(b, i, c);
    put_record(b, j, a);
  } else {
    // Swap which payload region two sections point at.
    std::swap(a.payload_offset, c.payload_offset);
    std::swap(a.payload_bytes, c.payload_bytes);
    put_record(b, i, a);
    put_record(b, j, c);
  }
}

/// Mutate a field inside a chain section payload, then re-seal its CRC.
void mutate_chain_section(Rng& rng, Bytes& b) {
  const bool meta = rng.below(4) == 0;
  const std::size_t i =
      find_record(b, std::string(meta ? elastic::kMetaSection
                                      : elastic::kManifestSection));
  ckpt::SectionRecord r = record(b, i);
  std::byte* p = b.data() + r.payload_offset;
  const std::size_t n = r.payload_bytes;
  if (meta || rng.below(3) == 0) {
    // A random 1/2/4/8-byte word, as an integer field.
    const std::size_t w = std::size_t{1} << rng.below(4);
    if (n >= w) {
      const std::size_t at = rng.below(n - w + 1);
      std::uint64_t v = 0;
      std::memcpy(&v, p + at, w);
      v = mutate_int(rng, v);
      std::memcpy(p + at, &v, w);
    }
  } else {
    // Walk the manifest to a field of a chosen entry (delta.cpp layout).
    std::uint32_t count = 0;
    std::memcpy(&count, p, 4);
    std::size_t at = 4;
    const std::size_t target = rng.below(count + 1);
    for (std::size_t k = 0; k < target && at + 2 <= n; ++k) {
      std::uint16_t len = 0;
      std::memcpy(&len, p + at, 2);
      at += 2 + len + 8 + 1 + 1 + 4 + 4 + 32 + 8 + 8;
    }
    if (target == count || at + 2 > n) {
      std::memcpy(&count, p, 4);
      count = static_cast<std::uint32_t>(mutate_int(rng, count));
      std::memcpy(p, &count, 4);
    } else {
      std::uint16_t len = 0;
      std::memcpy(&len, p + at, 2);
      // name_len | src_gen | codec | layout | elem_size | rank | extents |
      // raw_bytes | hash
      const std::size_t off[] = {0, 2u + len, 10u + len, 11u + len,
                                 12u + len, 16u + len, 20u + len, 52u + len,
                                 60u + len};
      const std::size_t wid[] = {2, 8, 1, 1, 4, 4, 8, 8, 8};
      const std::size_t f = rng.below(9);
      std::size_t fa = at + off[f] + (f == 6 ? 8 * rng.below(4) : 0);
      if (fa + wid[f] <= n) {
        std::uint64_t v = 0;
        std::memcpy(&v, p + fa, wid[f]);
        v = mutate_int(rng, v);
        std::memcpy(p + fa, &v, wid[f]);
      }
    }
  }
  r.payload_crc = ckpt::crc32(p, n);
  put_record(b, i, r);
}

/// Overwrite a word inside any section's payload and re-seal its CRC.
void mutate_sealed_payload(Rng& rng, Bytes& b) {
  const std::size_t i = rng.below(header(b).section_count);
  ckpt::SectionRecord r = record(b, i);
  const std::size_t w = std::size_t{1} << rng.below(4);
  if (r.payload_bytes < w) return;
  std::byte* p =
      b.data() + r.payload_offset + rng.below(r.payload_bytes - w + 1);
  std::uint64_t v = 0;
  std::memcpy(&v, p, w);
  v = mutate_int(rng, v);
  std::memcpy(p, &v, w);
  r.payload_crc = ckpt::crc32(b.data() + r.payload_offset, r.payload_bytes);
  put_record(b, i, r);
}

/// One mutation of a VPICCKP1 image; `chain` enables the ela.* fields.
/// Returns whether the mutation keeps the file's meaning: only then must a
/// successful restore land on the unmutated state.
bool mutate(Rng& rng, Bytes& b, bool chain) {
  switch (rng.below(chain ? 7 : 6)) {
    case 0: {
      const std::size_t flips = 1 + rng.below(4);
      for (std::size_t k = 0; k < flips; ++k)
        b[rng.below(b.size())] ^= static_cast<std::byte>(1u << rng.below(8));
      break;
    }
    case 1: b.resize(rng.below(b.size())); break;
    case 2: mutate_header(rng, b); break;
    case 3: mutate_record(rng, b); break;
    case 4: reorder_sections(rng, b); break;
    case 5: mutate_sealed_payload(rng, b); return false;
    default: mutate_chain_section(rng, b); break;
  }
  return true;
}

/// Everything a restore sets that a later step or checkpoint can see.
std::uint64_t digest(core::Simulation& sim) {
  ckpt::Fingerprint h;
  const auto& f = sim.fields();
  for (const auto* v : {&f.ex, &f.ey, &f.ez, &f.bx, &f.by, &f.bz, &f.jx,
                        &f.jy, &f.jz})
    h.add_bytes(v->data(), static_cast<std::size_t>(v->size()) * 4);
  h.add(sim.step_count());
  for (std::size_t s = 0; s < sim.num_species(); ++s) {
    const auto& sp = sim.species(s);
    h.add(sp.np);
    h.add(sp.q);
    h.add(sp.m);
    h.add(sp.steps_since_sort);
    std::vector<core::Particle> ps(static_cast<std::size_t>(sp.np));
    sp.p.export_aos(ps.data(), sp.np);
    h.add_bytes(ps.data(), ps.size() * sizeof(core::Particle));
  }
  const auto& e = sim.energy_history();
  for (std::size_t i = 0; i < e.size(); ++i) {
    h.add(e.step(i));
    h.add(e.field(i));
    for (std::size_t s = 0; s < e.species_count(i); ++s)
      h.add(e.species_ke(i, s));
  }
  return h.value();
}

struct Tally {
  int typed = 0;
  int restored = 0;
};

/// Fuzz `victim` (a file of the ring in `dir`) and restore `target`.
Tally fuzz_restore(const fs::path& victim, const fs::path& target,
                   bool chain, std::uint64_t seed) {
  const Bytes original = slurp(victim);
  auto sim = golden::make_sim();
  sim.restore(target.string());
  const std::uint64_t want = digest(sim);

  Rng rng{seed};
  Tally t;
  for (int k = 0; k < kMutations; ++k) {
    Bytes b = original;
    const bool same_meaning = mutate(rng, b, chain);
    spit(victim, b);
    try {
      sim.restore(target.string());
      ++t.restored;
      if (same_meaning && digest(sim) != want)
        ADD_FAILURE() << "mutation " << k << " restored a different state";
    } catch (const ckpt::RestoreError&) {
      ++t.typed;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << k << " threw an untyped exception: "
                    << e.what();
    }
    if (::testing::Test::HasFailure()) break;
  }
  spit(victim, original);
  return t;
}

fs::path stage(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("vpic_fuzz_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Copy the chain fixture into `dir` as ring "fz": fz.g0 .. fz.g2.
void stage_chain(const fs::path& dir) {
  for (int g = 0; g < 3; ++g)
    fs::copy_file(kGolden / (std::string(golden::kChainBase) + ".g" +
                             std::to_string(g)),
                  dir / ("fz.g" + std::to_string(g)));
}

void report(const char* target, const Tally& t, double seconds) {
  std::printf("[fuzz] %-14s %5d mutations: %5d typed errors, %5d restores "
              "(%.2f s)\n",
              target, t.typed + t.restored, t.typed, t.restored, seconds);
}

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

TEST(Fuzz, PlainGeneration) {
  const auto t0 = std::chrono::steady_clock::now();
  const fs::path dir = stage("plain");
  const fs::path p = dir / "pl.g0";
  fs::copy_file(kGolden / (std::string(golden::kPlainBase) + ".g0"), p);
  const Tally t = fuzz_restore(p, p, /*chain=*/false, 0x9A1);
  EXPECT_EQ(t.typed + t.restored, kMutations);
  EXPECT_GT(t.typed, kMutations / 3);  // the mutations reach error paths
  report("plain", t, since(t0));
}

TEST(Fuzz, FullChainGeneration) {
  const auto t0 = std::chrono::steady_clock::now();
  const fs::path dir = stage("full");
  stage_chain(dir);
  const Tally t = fuzz_restore(dir / "fz.g0", dir / "fz.g0", true, 0xF011);
  EXPECT_EQ(t.typed + t.restored, kMutations);
  EXPECT_GT(t.typed, kMutations / 3);  // the mutations reach error paths
  report("full-chain", t, since(t0));
}

TEST(Fuzz, DeltaGeneration) {
  const auto t0 = std::chrono::steady_clock::now();
  const fs::path dir = stage("delta");
  stage_chain(dir);
  const Tally t = fuzz_restore(dir / "fz.g2", dir / "fz.g2", true, 0xDE17A);
  EXPECT_EQ(t.typed + t.restored, kMutations);
  EXPECT_GT(t.typed, kMutations / 3);  // the mutations reach error paths
  report("delta", t, since(t0));
}

TEST(Fuzz, DeltaWithCorruptedSibling) {
  const auto t0 = std::chrono::steady_clock::now();
  const fs::path dir = stage("sibling");
  stage_chain(dir);
  const fs::path target = dir / "fz.g2";
  // Mutate the sibling the delta actually reads from: its chain base.
  const auto sources = elastic::ChainReader(target.string()).sources();
  ASSERT_NE(std::find(sources.begin(), sources.end(), 0), sources.end());
  const Tally t = fuzz_restore(dir / "fz.g0", target, true, 0x51B);
  EXPECT_EQ(t.typed + t.restored, kMutations);
  EXPECT_GT(t.typed, kMutations / 3);  // the mutations reach error paths
  report("sibling", t, since(t0));
}

TEST(Fuzz, DeltaPackDecode) {
  const auto t0 = std::chrono::steady_clock::now();
  // A real particle payload: the chain fixture's reassembled species 0.
  elastic::ChainReader r(
      (kGolden / (std::string(golden::kChainBase) + ".g2")).string());
  const Bytes raw = r.section("sp0.p").payload;
  const std::uint32_t elem = sizeof(core::Particle);
  const Bytes packed = elastic::deltapack_encode(raw.data(), raw.size(), elem);
  ASSERT_FALSE(packed.empty());
  {
    Bytes back(raw.size());
    ASSERT_TRUE(elastic::deltapack_decode(packed.data(), packed.size(),
                                          back.data(), back.size(), elem));
    ASSERT_EQ(back, raw);
  }

  Rng rng{0xC0DEC};
  int accepted = 0;
  for (int k = 0; k < kMutations; ++k) {
    Bytes s = packed;
    std::size_t raw_bytes = raw.size();
    std::uint32_t es = elem;
    switch (rng.below(5)) {
      case 0:
        for (std::size_t f = 1 + rng.below(4); f > 0; --f)
          s[rng.below(s.size())] ^= static_cast<std::byte>(1u << rng.below(8));
        break;
      case 1: s.resize(rng.below(s.size())); break;
      case 2:
        for (std::size_t f = 1 + rng.below(16); f > 0; --f)
          s.push_back(static_cast<std::byte>(rng.next()));
        break;
      case 3:
        // Decoded length: bounded, since the caller sizes dst from it.
        raw_bytes = std::min<std::uint64_t>(mutate_int(rng, raw_bytes),
                                            16 * raw.size());
        break;
      default:
        es = static_cast<std::uint32_t>(mutate_int(rng, es));
        break;
    }
    // An exactly-sized heap buffer: ASan flags any write past the end.
    Bytes dst(raw_bytes);
    if (elastic::deltapack_decode(s.data(), s.size(), dst.data(), raw_bytes,
                                  es))
      ++accepted;
  }
  std::printf("[fuzz] %-14s %5d mutations: %5d accepted (%.2f s)\n",
              "deltapack", kMutations, accepted, since(t0));
}

TEST(Fuzz, CraftedEngineSectionsAreTypedErrors) {
  // Two consistent (CRC-sealed) files the random mutations rarely reach:
  // an energy-history row count that wraps the cursor, and a module index
  // whose version is not a number. Both must be typed restore failures.
  const fs::path dir = stage("crafted");
  const std::string src =
      (kGolden / (std::string(golden::kPlainBase) + ".g0")).string();
  const auto rewrite = [&](const std::string& name, const Bytes& payload) {
    ckpt::FileReader r(src);
    ckpt::FileWriter w;
    for (const std::string& n : r.section_names()) {
      ckpt::EncodedSection s = r.section(n);
      if (n == name) {
        s.payload = payload;
        s.extents[0] = static_cast<std::int64_t>(payload.size() / s.elem_size);
      }
      w.add(std::move(s));
    }
    const std::string out = (dir / (name + ".g0")).string();
    w.commit(out, r.fingerprint(), r.step());
    return out;
  };
  auto sim = golden::make_sim();

  ckpt::FileReader plain(src);
  Bytes counts = plain.section("diag.counts").payload;
  ASSERT_GE(counts.size(), 2 * sizeof(std::uint64_t));
  const std::uint64_t wrap = ~std::uint64_t{0} - 1;  // cursor + wrap == 0
  std::memcpy(counts.data() + sizeof(std::uint64_t), &wrap, sizeof wrap);
  EXPECT_THROW(sim.restore(rewrite("diag.counts", counts)),
               ckpt::RestoreError);

  const std::string index = "tracer:v2\n";
  Bytes bad(index.size());
  std::memcpy(bad.data(), index.data(), index.size());
  EXPECT_THROW(sim.restore(rewrite("mod.index", bad)), ckpt::RestoreError);
}
