// Plain-text rendering of tables, bar charts and CDF curves. The bench
// harnesses use these to print paper-style tables and figure series.
#pragma once

#include <string>
#include <vector>

namespace cbwt::util {

/// Column-aligned text table with a header row.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);

  /// Renders with a box-drawing-free ASCII layout (padded columns).
  [[nodiscard]] std::string render() const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// One labelled bar of a horizontal ASCII bar chart.
struct Bar {
  std::string label;
  double value = 0.0;
  std::string annotation;  ///< extra text appended after the bar
};

/// Renders labelled horizontal bars scaled to `width` characters.
[[nodiscard]] std::string render_bars(const std::vector<Bar>& bars, std::size_t width = 50);

}  // namespace cbwt::util
