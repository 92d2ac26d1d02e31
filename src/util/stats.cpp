#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace cbwt::util {

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples) : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::at(double x) const noexcept {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(std::distance(sorted_.begin(), it)) /
         static_cast<double>(sorted_.size());
}

double EmpiricalCdf::quantile(double q) const noexcept {
  if (sorted_.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  if (idx + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[idx] * (1.0 - frac) + sorted_[idx + 1] * frac;
}

std::vector<std::pair<double, double>> EmpiricalCdf::curve(std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (sorted_.empty() || points == 0) return out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double q = points == 1 ? 1.0 : static_cast<double>(i) / static_cast<double>(points - 1);
    const double x = quantile(q);
    out.emplace_back(x, at(x));
  }
  return out;
}

void Tally::add(const std::string& key, std::uint64_t weight) {
  counts_[key] += weight;
  total_ += weight;
}

std::uint64_t Tally::count(const std::string& key) const noexcept {
  const auto it = counts_.find(key);
  return it == counts_.end() ? 0 : it->second;
}

double Tally::share(const std::string& key) const noexcept {
  return total_ == 0 ? 0.0
                     : static_cast<double>(count(key)) / static_cast<double>(total_);
}

std::vector<std::pair<std::string, std::uint64_t>> Tally::top(std::size_t n) const {
  std::vector<std::pair<std::string, std::uint64_t>> items(counts_.begin(), counts_.end());
  std::sort(items.begin(), items.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (items.size() > n) items.resize(n);
  return items;
}

double pearson(std::span<const double> xs, std::span<const double> ys) noexcept {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  const auto n = static_cast<double>(xs.size());
  const double mx = std::accumulate(xs.begin(), xs.end(), 0.0) / n;
  const double my = std::accumulate(ys.begin(), ys.end(), 0.0) / n;
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

namespace {

std::vector<double> ranks_of(std::span<const double> xs) {
  std::vector<std::size_t> order(xs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  std::vector<double> ranks(xs.size(), 0.0);
  std::size_t i = 0;
  while (i < order.size()) {
    std::size_t j = i;
    while (j + 1 < order.size() && xs[order[j + 1]] == xs[order[i]]) ++j;
    const double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

}  // namespace

double spearman(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  const auto rx = ranks_of(xs);
  const auto ry = ranks_of(ys);
  return pearson(rx, ry);
}

double percent(double part, double whole) noexcept {
  return whole == 0.0 ? 0.0 : 100.0 * part / whole;
}

}  // namespace cbwt::util
