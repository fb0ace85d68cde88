// Deterministic mutation fuzz of the two decoders of untrusted bytes
// outside the checkpoint reader (tests/test_ckpt_fuzz.cpp covers that
// one), in the same style: a fixed-seed stream of 10,000 mutations per
// target, labelled `fuzz` in ctest so the sanitizer job runs it.
//
//  * VPICTUNE1 (tune::decode_cache): the autotuner cache is a file any
//    process on the host may rewrite. Mutations: bit flips, truncation,
//    byte insertion and deletion, region swaps, key renames, and number
//    fields replaced by boundary values (huge, negative, NaN, Inf,
//    fractional, long digit strings). Invariant: either a typed TuneError
//    with `out` untouched, or success with every value inside the clamp
//    ranges the probes themselves obey.
//  * farm::wire frames: the steering socket reads length-prefixed frames
//    from any local client. Mutations over a stream of valid frames:
//    bit flips, truncation, length-header rewrites, insertion and
//    deletion. Invariant: decode_frame either consumes a whole frame whose
//    payload is exactly the announced bytes, reports an incomplete frame,
//    or throws std::length_error; recv_frame over a socket pair delivers
//    the same frames and then reports failure. Every decoded payload is
//    also fed to StatusBus::handle_command, which must answer with a JSON
//    object and never throw.
//
// A crash, an out-of-bounds access (run under ASan/UBSan), an untyped
// exception or a broken invariant fails the test. The seed is fixed, so a
// failure reproduces.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "farm/farm.hpp"
#include "tune/tune.hpp"

namespace core = vpic::core;
namespace farm = vpic::farm;
namespace tune = vpic::tune;

namespace {

constexpr int kMutations = 10000;  // per target

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

/// Byte-level mutations shared by both targets.
void mutate_bytes(Rng& rng, std::string& b) {
  switch (rng.below(6)) {
    case 0:  // bit flips
      for (std::size_t k = 1 + rng.below(4); k > 0 && !b.empty(); --k)
        b[rng.below(b.size())] ^= static_cast<char>(1u << rng.below(8));
      break;
    case 1:  // truncation
      b.resize(rng.below(b.size() + 1));
      break;
    case 2:  // insertion of random bytes
      b.insert(rng.below(b.size() + 1),
               std::string(1 + rng.below(8),
                           static_cast<char>(rng.below(256))));
      break;
    case 3: {  // deletion
      const std::size_t at = rng.below(b.size() + 1);
      b.erase(at, rng.below(16));
      break;
    }
    case 4: {  // swap two regions of equal length
      if (b.size() < 4) break;
      const std::size_t n = 1 + rng.below(b.size() / 4);
      const std::size_t x = rng.below(b.size() - n + 1);
      const std::size_t y = rng.below(b.size() - n + 1);
      std::string tmp = b.substr(x, n);
      b.replace(x, n, b.substr(y, n));
      b.replace(y, n, tmp);
      break;
    }
    default:  // overwrite one byte with a structural character
      if (!b.empty()) b[rng.below(b.size())] = "{}\":,0-.e9 \n"[rng.below(12)];
      break;
  }
}

// ---- VPICTUNE1 ----------------------------------------------------------

tune::TuneState sample_state() {
  tune::TuneState s;
  s.fingerprint = tune::host_fingerprint();
  for (int i = 0; i < core::kNumParticleLayouts; ++i) {
    s.gates[i].min_particles = 128 + 64 * i;
    s.gates[i].max_stale = 32 + 8 * i;
    s.gates[i].min_mean_run = 3.5 + 0.25 * i;
    s.push_cost_s[i] = 4e-9 * (i + 1);
  }
  s.sort_model.cells_per_n = 0.25;
  s.sort_model.cells_floor = 65536.0;
  return s;
}

/// Replace the value after the n-th ':' with a boundary number.
void mutate_number(Rng& rng, std::string& b) {
  static const char* const kValues[] = {
      "1e308",  "-1e308", "nan",   "inf",   "-inf",  "9.3e18", "-9.3e18",
      "4096.5", "63.999", "-0",    "0x40",  "1e-320", "2",     "16",
      "256",    "64",     "4097",  "7",     "17",    "",       "\"12\"",
      "123456789012345678901234567890"};
  std::vector<std::size_t> colons;
  for (std::size_t i = 0; i < b.size(); ++i)
    if (b[i] == ':') colons.push_back(i);
  if (colons.empty()) return;
  const std::size_t at = colons[rng.below(colons.size())] + 1;
  std::size_t end = at;
  while (end < b.size() && b[end] != ',' && b[end] != '}' && b[end] != '\n')
    ++end;
  b.replace(at, end - at,
            std::string(" ") +
                kValues[rng.below(sizeof kValues / sizeof *kValues)]);
}

/// Rename or duplicate a key so lookups land on the wrong object.
void mutate_key(Rng& rng, std::string& b) {
  static const char* const kKeys[] = {
      "\"schema\"",       "\"fingerprint\"",  "\"push_gates\"",
      "\"aos\"",          "\"soa\"",          "\"aosoa\"",
      "\"min_particles\"", "\"max_stale\"",    "\"min_mean_run\"",
      "\"gen_s_per_particle\"", "\"sort_model\"", "\"cells_per_n\"",
      "\"cells_floor\""};
  const std::string from = kKeys[rng.below(sizeof kKeys / sizeof *kKeys)];
  const std::string to = kKeys[rng.below(sizeof kKeys / sizeof *kKeys)];
  const std::size_t at = b.find(from, rng.below(b.size() + 1));
  if (at == std::string::npos) return;
  if (rng.below(2))
    b.replace(at, from.size(), to);
  else
    b.insert(at, to + ": 1, ");
}

bool same_state(const tune::TuneState& a, const tune::TuneState& b) {
  for (int i = 0; i < core::kNumParticleLayouts; ++i)
    if (a.gates[i].min_particles != b.gates[i].min_particles ||
        a.gates[i].max_stale != b.gates[i].max_stale ||
        std::memcmp(&a.gates[i].min_mean_run, &b.gates[i].min_mean_run,
                    sizeof(double)) != 0 ||
        std::memcmp(&a.push_cost_s[i], &b.push_cost_s[i], sizeof(double)) !=
            0)
      return false;
  return std::memcmp(&a.sort_model.cells_per_n, &b.sort_model.cells_per_n,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.sort_model.cells_floor, &b.sort_model.cells_floor,
                     sizeof(double)) == 0;
}

// ---- farm::wire ---------------------------------------------------------

const char* const kCommands[] = {
    "ping",           "status",       "rescale job 2 4", "rescale job 1",
    "prio job 5",     "pause job",    "resume job",      "preempt job",
    "cancel job drop", "cancel job",  "nonsense verb"};

std::string frame_stream(Rng& rng) {
  std::string out;
  for (std::size_t k = 1 + rng.below(4); k > 0; --k)
    out += farm::wire::encode_frame(
        kCommands[rng.below(sizeof kCommands / sizeof *kCommands)]);
  return out;
}

/// Overwrite one frame's length header with a boundary value.
void mutate_length(Rng& rng, std::string& b) {
  if (b.size() < 4) return;
  static const std::uint32_t kLengths[] = {0u, 1u, 3u, 4u, 64u, 65u,
                                           (1u << 20), (1u << 20) + 1,
                                           0x7fffffffu, 0xffffffffu};
  std::uint32_t n = kLengths[rng.below(sizeof kLengths / sizeof *kLengths)];
  if (rng.below(3) == 0) n = static_cast<std::uint32_t>(rng.next());
  const std::size_t at = rng.below(b.size() - 3);
  for (int i = 0; i < 4; ++i)
    b[at + static_cast<std::size_t>(i)] = static_cast<char>((n >> (8 * i)) & 0xffu);
}

bool is_json_object(const std::string& s) {
  return s.size() >= 2 && s.front() == '{' && s.back() == '}';
}

}  // namespace

TEST(DecoderFuzz, TuneCacheIsTypedErrorOrInRangeState) {
  const tune::TuneState ref = sample_state();
  const std::string clean = tune::encode_cache(ref);
  {
    tune::TuneState back;
    ASSERT_FALSE(tune::decode_cache(clean, ref.fingerprint, back).has_value());
    ASSERT_TRUE(same_state(back, ref));
  }
  tune::TuneState sentinel;
  for (int i = 0; i < core::kNumParticleLayouts; ++i) {
    sentinel.gates[i].min_particles = 777;
    sentinel.gates[i].max_stale = 77;
    sentinel.gates[i].min_mean_run = 7.7;
    sentinel.push_cost_s[i] = 7e-7;
  }
  sentinel.sort_model.cells_per_n = 0.7;
  sentinel.sort_model.cells_floor = 7e5;

  Rng rng{0x7475'6e65'6675'7a7aull};
  int accepted = 0;
  for (int m = 0; m < kMutations; ++m) {
    std::string text = clean;
    for (std::size_t k = 1 + rng.below(3); k > 0; --k) {
      switch (rng.below(3)) {
        case 0: mutate_bytes(rng, text); break;
        case 1: mutate_number(rng, text); break;
        default: mutate_key(rng, text); break;
      }
    }
    tune::TuneState out = sentinel;
    std::optional<tune::TuneError> err;
    try {
      err = tune::decode_cache(text, ref.fingerprint, out);
    } catch (const std::exception& e) {
      FAIL() << "mutation " << m << ": untyped exception: " << e.what();
    }
    if (err) {
      ASSERT_TRUE(same_state(out, sentinel))
          << "mutation " << m << ": a failed decode wrote its output";
      continue;
    }
    ++accepted;
    for (int i = 0; i < core::kNumParticleLayouts; ++i) {
      const auto& g = out.gates[i];
      ASSERT_TRUE(g.min_particles >= 64 && g.min_particles <= 4096 &&
                  g.max_stale >= 8 && g.max_stale <= 256 &&
                  g.min_mean_run >= 2 && g.min_mean_run <= 16)
          << "mutation " << m << ": gates out of range accepted";
      ASSERT_TRUE(std::isfinite(out.push_cost_s[i]) &&
                  out.push_cost_s[i] >= 0)
          << "mutation " << m;
    }
    ASSERT_TRUE(out.sort_model.cells_per_n >= 1.0 / 64 &&
                out.sort_model.cells_per_n <= 1 &&
                out.sort_model.cells_floor >= 16384 &&
                out.sort_model.cells_floor <= 4194304)
        << "mutation " << m << ": sort model out of range accepted";
  }
  // Some mutations (whitespace, in-range numbers) keep the file valid.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutations);
}

TEST(DecoderFuzz, WireFramesDecodeWholeOrNotAtAll) {
  farm::Scheduler sched;
  farm::StatusBus bus(sched, 0);
  Rng rng{0x7769'7265'6675'7a7aull};
  int frames = 0, oversize = 0;
  for (int m = 0; m < kMutations; ++m) {
    std::string bytes = frame_stream(rng);
    for (std::size_t k = 1 + rng.below(3); k > 0; --k) {
      if (rng.below(3) == 0)
        mutate_length(rng, bytes);
      else
        mutate_bytes(rng, bytes);
    }
    const std::size_t max_bytes =
        rng.below(4) == 0 ? 1 + rng.below(64) : farm::wire::kMaxFrameBytes;

    // Buffer decoder: whole frames front to back, then an incomplete
    // tail or a typed oversize rejection.
    std::vector<std::string> decoded;
    bool rejected = false;
    std::size_t at = 0;
    for (;;) {
      std::string payload;
      std::size_t used = 0;
      try {
        used = farm::wire::decode_frame(std::string_view(bytes).substr(at),
                                        payload, max_bytes);
      } catch (const std::length_error&) {
        rejected = true;
        break;
      } catch (const std::exception& e) {
        FAIL() << "mutation " << m << ": untyped exception: " << e.what();
      }
      if (used == 0) break;
      ASSERT_GE(used, 4u) << "mutation " << m;
      ASSERT_LE(at + used, bytes.size()) << "mutation " << m;
      ASSERT_EQ(payload, bytes.substr(at + 4, used - 4)) << "mutation " << m;
      ASSERT_LE(payload.size(), max_bytes) << "mutation " << m;
      decoded.push_back(std::move(payload));
      at += used;
    }
    frames += static_cast<int>(decoded.size());
    oversize += rejected ? 1 : 0;

    // The steering surface answers every decoded payload with JSON.
    for (const std::string& payload : decoded) {
      std::string reply;
      try {
        reply = bus.handle_command(payload);
      } catch (const std::exception& e) {
        FAIL() << "mutation " << m << ": handle_command threw: " << e.what();
      }
      ASSERT_TRUE(is_json_object(reply)) << "mutation " << m << ": " << reply;
    }

    // Socket decoder on every 10th stream: the same frames, then false
    // (EOF mid-frame, oversize header, or end of stream).
    if (m % 10 != 0) continue;
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ASSERT_EQ(::write(sv[0], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
    ::shutdown(sv[0], SHUT_WR);
    std::string payload;
    std::size_t got = 0;
    while (farm::wire::recv_frame(sv[1], payload, max_bytes)) {
      ASSERT_LT(got, decoded.size()) << "mutation " << m;
      ASSERT_EQ(payload, decoded[got]) << "mutation " << m;
      ++got;
    }
    EXPECT_EQ(got, decoded.size()) << "mutation " << m;
    ::close(sv[0]);
    ::close(sv[1]);
  }
  EXPECT_GT(frames, 0);
  EXPECT_GT(oversize, 0);
}
