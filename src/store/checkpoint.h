// Checkpoint manifests: the small human-readable file that binds a
// store directory's record/blob files into one resumable snapshot. A
// manifest is an ordered list of key/value lines — `cbwt-checkpoint 1`
// header, then `key value` per line — so a directory listing plus `cat`
// tells the whole story. Doubles are stored as their IEEE-754 bit
// pattern in hex: resume must reproduce bit-identical results, and a
// decimal round-trip is exactly the kind of off-by-one-ulp leak that
// would break that silently.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cbwt::store {

inline constexpr std::uint32_t kManifestVersion = 1;

/// Ordered key/value manifest. Keys may repeat (e.g. one `file` entry
/// per persisted store file); first match wins on lookup.
class Manifest {
 public:
  void set(std::string key, std::string value);
  void set_u64(std::string key, std::uint64_t value);
  /// Stores the exact IEEE-754 bit pattern, not a decimal rendering.
  void set_f64(std::string key, double value);

  [[nodiscard]] std::optional<std::string_view> get(std::string_view key) const;
  [[nodiscard]] std::optional<std::uint64_t> get_u64(std::string_view key) const;
  [[nodiscard]] std::optional<double> get_f64(std::string_view key) const;

  /// All values for a repeated key, in insertion order.
  [[nodiscard]] std::vector<std::string_view> get_all(std::string_view key) const;

  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& entries()
      const noexcept {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// The text write_manifest stores: the header line, then one
/// `key value` line per entry.
[[nodiscard]] std::string format_manifest(const Manifest& manifest);

/// Parses manifest text. Throws StoreError on a bad header, an
/// unsupported version or a line without a key; never crashes, whatever
/// the bytes (the input is a file on disk, fuzzed by fuzz_manifest).
/// parse_manifest(format_manifest(m)) has m's entries.
[[nodiscard]] Manifest parse_manifest(std::string_view text);

/// Writes `manifest` to `path` atomically (temp file + rename).
/// Throws StoreError on I/O failure.
void write_manifest(const std::string& path, const Manifest& manifest);

/// Reads the file at `path` and parses it. Throws StoreError on I/O
/// failure or whatever parse_manifest rejects, naming `path`.
[[nodiscard]] Manifest read_manifest(const std::string& path);

}  // namespace cbwt::store
