// Small statistics toolkit used by the analysis and reporting layers:
// empirical CDFs, quantiles, tallies, correlation.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace cbwt::util {

/// Empirical CDF over a sample; sorted once at construction.
class EmpiricalCdf {
 public:
  explicit EmpiricalCdf(std::vector<double> samples);

  /// Fraction of samples <= x.
  [[nodiscard]] double at(double x) const noexcept;
  /// Inverse CDF; q clamped to [0,1]. Empty CDF returns 0.
  [[nodiscard]] double quantile(double q) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }
  [[nodiscard]] std::span<const double> sorted() const noexcept { return sorted_; }

  /// Evaluates the CDF at `points` evenly spaced quantile knots, returning
  /// (x, F(x)) pairs suitable for plotting a figure-2-style curve.
  [[nodiscard]] std::vector<std::pair<double, double>> curve(std::size_t points) const;

 private:
  std::vector<double> sorted_;
};

/// Counter keyed by string: the workhorse for per-domain / per-country
/// tallies. Deterministic iteration (std::map) so reports are stable.
class Tally {
 public:
  void add(const std::string& key, std::uint64_t weight = 1);

  [[nodiscard]] std::uint64_t count(const std::string& key) const noexcept;
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t distinct() const noexcept { return counts_.size(); }
  /// Share of the total mass held by `key`, in [0,1]; 0 when empty.
  [[nodiscard]] double share(const std::string& key) const noexcept;

  /// Keys sorted by descending count (ties broken lexicographically).
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> top(std::size_t n) const;
  [[nodiscard]] const std::map<std::string, std::uint64_t>& items() const noexcept {
    return counts_;
  }

 private:
  std::map<std::string, std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Pearson correlation of two equally-sized series; 0 if degenerate.
[[nodiscard]] double pearson(std::span<const double> xs, std::span<const double> ys) noexcept;

/// Spearman rank correlation; 0 if degenerate.
[[nodiscard]] double spearman(std::span<const double> xs, std::span<const double> ys);

/// Percentage helper: 100 * part / whole, 0 when whole == 0.
[[nodiscard]] double percent(double part, double whole) noexcept;

}  // namespace cbwt::util
