#include "store/checkpoint.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "store/mapped_file.h"
#include "util/contract.h"

namespace cbwt::store {

namespace {

constexpr std::string_view kManifestTag = "cbwt-checkpoint";

[[nodiscard]] std::string hex_u64(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

[[nodiscard]] std::uint64_t f64_bits(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof value);
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

[[nodiscard]] double f64_from_bits(std::uint64_t bits) {
  double value = 0;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

}  // namespace

void Manifest::set(std::string key, std::string value) {
  CBWT_EXPECTS(!key.empty());
  CBWT_EXPECTS(key.find_first_of(" \n") == std::string::npos);
  CBWT_EXPECTS(value.find('\n') == std::string::npos);
  entries_.emplace_back(std::move(key), std::move(value));
}

void Manifest::set_u64(std::string key, std::uint64_t value) {
  set(std::move(key), std::to_string(value));
}

void Manifest::set_f64(std::string key, double value) {
  set(std::move(key), hex_u64(f64_bits(value)));
}

std::optional<std::string_view> Manifest::get(std::string_view key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return std::string_view(v);
  }
  return std::nullopt;
}

std::optional<std::uint64_t> Manifest::get_u64(std::string_view key) const {
  const auto text = get(key);
  if (!text) return std::nullopt;
  // Exactly what set_u64 and set_f64 write: `[0-9]+`, or `0x` followed
  // by hex digits. No sign, no whitespace, no overflow (from_chars takes
  // none of them for an unsigned type).
  std::string_view digits = *text;
  int base = 10;
  if (digits.starts_with("0x")) {
    digits.remove_prefix(2);
    base = 16;
  }
  std::uint64_t value = 0;
  const auto [end, error] =
      std::from_chars(digits.data(), digits.data() + digits.size(), value, base);
  if (error != std::errc{} || end != digits.data() + digits.size()) return std::nullopt;
  return value;
}

std::optional<double> Manifest::get_f64(std::string_view key) const {
  const auto bits = get_u64(key);
  if (!bits) return std::nullopt;
  return f64_from_bits(*bits);
}

std::vector<std::string_view> Manifest::get_all(std::string_view key) const {
  std::vector<std::string_view> values;
  for (const auto& [k, v] : entries_) {
    if (k == key) values.emplace_back(v);
  }
  return values;
}

std::string format_manifest(const Manifest& manifest) {
  std::string text = std::string(kManifestTag) + ' ' + std::to_string(kManifestVersion) + '\n';
  for (const auto& [key, value] : manifest.entries()) {
    text.append(key).append(1, ' ').append(value).append(1, '\n');
  }
  return text;
}

Manifest parse_manifest(std::string_view text) {
  const auto next_line = [&text] {
    const std::size_t end = text.find('\n');
    const std::string_view line = text.substr(0, end);
    text.remove_prefix(end == std::string_view::npos ? text.size() : end + 1);
    return line;
  };
  if (text.empty()) throw StoreError("store: empty manifest");
  // Header: `cbwt-checkpoint <version>`, the version in plain decimal.
  const std::string_view header = next_line();
  const std::size_t space = header.find(' ');
  if (space == std::string_view::npos || header.substr(0, space) != kManifestTag) {
    throw StoreError("store: not a checkpoint manifest");
  }
  const std::string_view digits = header.substr(space + 1);
  std::uint32_t version = 0;
  const auto [end, error] =
      std::from_chars(digits.data(), digits.data() + digits.size(), version);
  if (error != std::errc{} || end != digits.data() + digits.size() ||
      version != kManifestVersion) {
    throw StoreError("store: unsupported manifest version");
  }
  Manifest manifest;
  while (!text.empty()) {
    const std::string_view line = next_line();
    if (line.empty()) continue;
    const std::size_t key_end = line.find(' ');
    if (key_end == 0 || key_end == std::string_view::npos) {
      throw StoreError("store: malformed manifest line");
    }
    manifest.set(std::string(line.substr(0, key_end)), std::string(line.substr(key_end + 1)));
  }
  return manifest;
}

void write_manifest(const std::string& path, const Manifest& manifest) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) throw StoreError("store: cannot write manifest '" + tmp + "'");
    out << format_manifest(manifest);
    out.flush();
    if (!out) throw StoreError("store: cannot write manifest '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw StoreError("store: cannot rename manifest into '" + path + "'");
  }
}

Manifest read_manifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw StoreError("store: cannot open manifest '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return parse_manifest(text.view());
  } catch (const StoreError& error) {
    throw StoreError(std::string(error.what()) + " in '" + path + "'");
  }
}

}  // namespace cbwt::store
