#include "ckpt/ring.hpp"

#include <algorithm>
#include <filesystem>
#include <string_view>

namespace vpic::ckpt {

namespace fs = std::filesystem;

namespace {

/// Generation number spelled by `digits`, or nullopt unless it is a
/// non-empty all-digit string that fits in 64 bits.
std::optional<std::uint64_t> parse_generation(std::string_view digits) {
  if (digits.empty() || digits.size() > 19 ||
      digits.find_first_not_of("0123456789") != std::string_view::npos)
    return std::nullopt;
  std::uint64_t g = 0;
  for (const char c : digits) g = g * 10 + static_cast<std::uint64_t>(c - '0');
  return g;
}

fs::path ring_dir(const std::string& base) {
  const fs::path p(base);
  return p.has_parent_path() ? p.parent_path() : fs::path(".");
}

}  // namespace

GenerationRing::GenerationRing(std::string base) : base_(std::move(base)) {}

std::optional<GenerationRing::Member> GenerationRing::parse(
    const std::string& path) {
  const auto dot = path.rfind(".g");
  if (dot == std::string::npos) return std::nullopt;
  const auto gen = parse_generation(std::string_view(path).substr(dot + 2));
  if (!gen) return std::nullopt;
  return Member{GenerationRing(path.substr(0, dot)), *gen};
}

std::string GenerationRing::path_for(std::uint64_t gen) const {
  return base_ + ".g" + std::to_string(gen);
}

std::vector<std::uint64_t> GenerationRing::generations() const {
  const std::string prefix = fs::path(base_).filename().string() + ".g";
  std::vector<std::uint64_t> gens;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(ring_dir(base_), ec)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with(prefix)) continue;
    // Skips ".tmp" suffixes and unrelated files.
    if (const auto g = parse_generation(
            std::string_view(name).substr(prefix.size())))
      gens.push_back(*g);
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

std::uint64_t GenerationRing::next_generation() const {
  const auto gens = generations();
  return gens.empty() ? 0 : gens.back() + 1;
}

std::size_t GenerationRing::purge() const {
  std::size_t removed = 0;
  std::error_code ec;
  for (std::uint64_t g : generations())
    if (fs::remove(path_for(g), ec)) ++removed;
  remove_stale_tmp();
  return removed;
}

void GenerationRing::remove_stale_tmp() const {
  std::error_code ec;
  const std::string prefix = fs::path(base_).filename().string() + ".g";
  for (const auto& entry : fs::directory_iterator(ring_dir(base_), ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > prefix.size() + 4 && name.starts_with(prefix) &&
        name.ends_with(".tmp"))
      fs::remove(entry.path(), ec);
  }
}

}  // namespace vpic::ckpt
