#include "util/table.h"

#include <algorithm>
#include <cmath>

#include "util/strings.h"

namespace cbwt::util {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> row) {
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  const auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (std::size_t c = 0; c < row.size(); ++c) {
      line += row[c];
      if (c + 1 < row.size()) line.append(widths[c] - row[c].size() + 2, ' ');
    }
    line += '\n';
    return line;
  };

  std::string out;
  out += render_row(header_);
  std::size_t rule = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) rule += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  out.append(rule, '-');
  out += '\n';
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

std::string render_bars(const std::vector<Bar>& bars, std::size_t width) {
  double max_value = 0.0;
  std::size_t label_width = 0;
  for (const auto& bar : bars) {
    max_value = std::max(max_value, bar.value);
    label_width = std::max(label_width, bar.label.size());
  }
  std::string out;
  for (const auto& bar : bars) {
    std::string line = bar.label;
    line.append(label_width - bar.label.size() + 2, ' ');
    const auto filled = max_value <= 0.0
                            ? std::size_t{0}
                            : static_cast<std::size_t>(
                                  std::lround(bar.value / max_value * static_cast<double>(width)));
    line.append(filled, '#');
    line += "  " + fmt_fixed(bar.value, 2);
    if (!bar.annotation.empty()) line += "  " + bar.annotation;
    out += line + '\n';
  }
  return out;
}

}  // namespace cbwt::util
