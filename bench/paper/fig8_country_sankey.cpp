// Fig. 8: origin -> destination countries for EU28 users' tracking flows
// (the national-confinement Sankey) under active geolocation.
#include "bench_common.h"

void cbwt::bench::fig8_country_sankey(core::Study& study, IspRuns&, Report& report) {
  print_title("Fig. 8: EU28 tracking flows, per-country Sankey");

  const auto eu_flows = analysis::flows_from_region(study.flows(), geo::Region::EU28);
  auto analyzer = study.analyzer();

  // Per-origin confinement table (the left column of the diagram).
  const auto by_origin = analyzer.per_origin_confinement(eu_flows);
  util::TextTable table({"origin", "flows", "in-country", "in EU28"});
  std::vector<std::pair<std::string, analysis::Confinement>> ordered(by_origin.begin(),
                                                                     by_origin.end());
  std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
    return a.second.in_country > b.second.in_country;
  });
  for (const auto& [origin, confinement] : ordered) {
    table.add_row({origin, util::fmt_count(confinement.total),
                   util::fmt_pct(confinement.in_country, 1),
                   util::fmt_pct(confinement.in_eu28, 1)});
  }
  std::printf("%s", table.render().c_str());

  // Destination-country mass (the right column of the diagram).
  const auto destinations = analyzer.destination_countries(eu_flows);
  std::vector<std::pair<std::string, double>> top(destinations.begin(),
                                                  destinations.end());
  std::sort(top.begin(), top.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::printf("\ntop destination countries of EU28 tracking flows:\n");
  for (std::size_t i = 0; i < top.size() && i < 12; ++i) {
    std::printf("  %-3s %6.2f%%\n", top[i].first.c_str(), 100.0 * top[i].second);
  }

  print_paper_note(
      "Fig. 8: UK leads national confinement with 58.4%, Spain 33.1%; small\n"
      "countries are single-digit (Greece 6.77%, Romania 5.1%, Cyprus 1.16%).\n"
      "Destination mass concentrates on hosting magnets: Spain 17.6%,\n"
      "Netherlands 14.0%, UK 12.3%, US 10.6%, Germany 9.6%, France 9.5%,\n"
      "Ireland 6.6%. Reproduced shape: large/hosting-dense origins confine\n"
      "most; destinations concentrate on NL/DE/GB/FR/IE/US + local markets.");

  // The countries the paper quotes, from most to least confined.
  for (const std::string origin : {"GB", "DE", "ES", "GR", "RO", "CY"}) {
    const auto it = by_origin.find(origin);
    if (it != by_origin.end()) {
      report.emplace_back("in_country_pct_" + origin, it->second.in_country);
    }
  }
}
