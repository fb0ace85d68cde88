// ckpt/ring.hpp
//
// Generation ring: periodic checkpoints write `<base>.g<N>` with a
// monotonically increasing generation number. Combined with the writer's
// rename-commit this gives the classic fault-tolerance ladder
// (docs/CHECKPOINT.md):
//
//   * a crash mid-write leaves the previous generations untouched,
//   * a corrupted newest generation (detected by the reader's CRCs as a
//     typed RestoreError) falls back to the one before it,
//   * restore_latest() walks generations newest-first until one restores.
//
// Retention is not decided here: the one chain-aware prune
// (elastic::prune_chains, docs/ELASTIC.md) keeps the newest whole chains,
// a plain generation counting as a chain of one.
//
// Ownership is per base path, not per directory: every query and mutation
// matches "<basename>.g<digits>" exactly, so many rings — e.g. the farm's
// per-job rings (docs/FARM.md) — can share one directory and a prune or
// purge of one never touches a sibling's generations, even when one base
// name is a prefix of another ("a" vs "ab").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace vpic::ckpt {

class GenerationRing {
 public:
  /// `base` may include directories ("out/ckpt"); generation files are
  /// siblings named "<base>.g<N>".
  explicit GenerationRing(std::string base);

  /// The one parser of the ring naming: split "<base>.g<N>" into its ring
  /// and generation, or nullopt for any other path.
  struct Member;
  [[nodiscard]] static std::optional<Member> parse(const std::string& path);

  [[nodiscard]] const std::string& base() const noexcept { return base_; }

  [[nodiscard]] std::string path_for(std::uint64_t gen) const;

  /// Committed generation numbers found on disk, ascending. Stale .tmp
  /// files (a crash mid-write) are ignored.
  [[nodiscard]] std::vector<std::uint64_t> generations() const;

  /// Next generation number to write (max existing + 1, or 0).
  [[nodiscard]] std::uint64_t next_generation() const;

  /// Delete stale "<base>.g<N>.tmp" leftovers — uncommitted wrecks from a
  /// crash mid-write. Callers must NOT run this while an asynchronous
  /// commit may be in flight: it would unlink the tmp file out from under
  /// the writer and the rename-commit would fail, losing the checkpoint
  /// (Simulation::checkpoint_to_ring defers it until the queue is idle).
  void remove_stale_tmp() const;

  /// Delete every committed generation AND stale tmp of this ring — full
  /// retirement of a job's checkpoint state (a farm job cancelled with
  /// drop_checkpoints, docs/FARM.md). Same in-flight-writer caveat as
  /// remove_stale_tmp(). Only files of THIS base are touched; sibling
  /// rings in the directory are untouched. Best-effort; returns the
  /// number of files removed.
  std::size_t purge() const;

 private:
  std::string base_;
};

struct GenerationRing::Member {
  GenerationRing ring;
  std::uint64_t generation = 0;
};

}  // namespace vpic::ckpt
