// Fig. 6: the continent/region-level Sankey of tracking flows under
// active geolocation — who sends where, and who hosts the backends.
#include "bench_common.h"

void cbwt::bench::fig6_continent_sankey(core::Study& study, IspRuns&, Report& report) {
  print_title("Fig. 6: tracking flows between regions (Sankey matrix)");

  auto analyzer = study.analyzer();
  const auto matrix = analyzer.region_matrix(study.flows());

  // Row-normalized origin -> destination shares.
  util::TextTable table({"origin \\ destination", "EU 28", "Rest of Europe", "N. America",
                         "S. America", "Asia", "Africa", "Oceania", "flows"});
  const std::vector<std::string> columns = {"EU 28",      "Rest of Europe", "N. America",
                                            "S. America", "Asia",           "Africa",
                                            "Oceania"};
  util::Tally destination_mass;
  for (const auto& [origin, row] : matrix) {
    std::uint64_t total = 0;
    for (const auto& [destination, weight] : row) {
      total += weight;
      destination_mass.add(destination, weight);
    }
    std::vector<std::string> cells{origin};
    for (const auto& column : columns) {
      const auto it = row.find(column);
      const double share = it == row.end() ? 0.0 : static_cast<double>(it->second);
      cells.push_back(util::fmt_pct(util::percent(share, static_cast<double>(total)), 1));
    }
    cells.push_back(util::fmt_count(total));
    table.add_row(std::move(cells));
  }
  std::printf("%s", table.render().c_str());

  std::printf("\nshare of all flow terminations per region:\n");
  for (const auto& [destination, weight] : destination_mass.top(7)) {
    std::printf("  %-16s %6.2f%%\n", destination.c_str(),
                100.0 * destination_mass.share(destination));
  }

  print_paper_note(
      "Fig. 6: EU28-origin flows mostly stay in EU28; South America leaks ~95%\n"
      "(90% into N. America). Terminations concentrate in EU28 (51.7%) and\n"
      "N. America (40.9%). Reproduced shape: high EU self-containment, strong\n"
      "SA->NA leakage, EU+NA hosting nearly all backends.");

  for (const auto& [destination, weight] : destination_mass.top(7)) {
    report.emplace_back("termination_share_" + destination,
                        destination_mass.share(destination));
  }
}
