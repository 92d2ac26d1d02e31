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

void write_manifest(const std::string& path, const Manifest& manifest) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw StoreError("store: cannot write manifest '" + tmp + "'");
    out << "cbwt-checkpoint " << kManifestVersion << '\n';
    for (const auto& [key, value] : manifest.entries()) {
      out << key << ' ' << value << '\n';
    }
    out.flush();
    if (!out) throw StoreError("store: cannot write manifest '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw StoreError("store: cannot rename manifest into '" + path + "'");
  }
}

Manifest read_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw StoreError("store: cannot open manifest '" + path + "'");
  std::string header;
  if (!std::getline(in, header)) {
    throw StoreError("store: empty manifest '" + path + "'");
  }
  std::uint32_t version = 0;
  {
    std::istringstream line(header);
    std::string tag;
    if (!(line >> tag >> version) || tag != "cbwt-checkpoint") {
      throw StoreError("store: '" + path + "' is not a checkpoint manifest");
    }
  }
  if (version != kManifestVersion) {
    throw StoreError("store: unsupported manifest version in '" + path + "'");
  }
  Manifest manifest;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t space = line.find(' ');
    if (space == 0 || space == std::string::npos) {
      throw StoreError("store: malformed manifest line in '" + path + "'");
    }
    manifest.set(line.substr(0, space), line.substr(space + 1));
  }
  return manifest;
}

}  // namespace cbwt::store
