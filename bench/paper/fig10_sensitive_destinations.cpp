// Fig. 10: destination regions of EU28 users' sensitive tracking flows,
// per category.
#include "bench_common.h"

void cbwt::bench::fig10_sensitive_destinations(core::Study& study, IspRuns&, Report&) {
  print_title("Fig. 10: destination regions of sensitive tracking flows (EU28 users)");
  auto analyzer = study.analyzer();

  util::TextTable table(
      {"category", "flows", "EU 28", "N. America", "Rest of Europe", "other"});
  const auto breakdown = sensitive::sensitive_breakdown(
      study.world(), study.sensitive_catalog(), study.dataset(), study.outcomes());

  const auto row_for = [&](const std::string& category) {
    const auto flows = sensitive::sensitive_flows(study.world(), study.sensitive_catalog(),
                                                  study.dataset(), study.outcomes(),
                                                  category);
    const auto eu = analysis::flows_from_region(flows, geo::Region::EU28);
    if (eu.empty()) return;
    const auto regions = analyzer.destination_regions(eu);
    const auto share = [&](geo::Region region) {
      const auto it = regions.share.find(region);
      return it == regions.share.end() ? 0.0 : 100.0 * it->second;
    };
    const double other = 100.0 - share(geo::Region::EU28) -
                         share(geo::Region::NorthAmerica) -
                         share(geo::Region::RestOfEurope);
    table.add_row({category.empty() ? "ALL SENSITIVE" : category,
                   util::fmt_count(eu.size()), util::fmt_pct(share(geo::Region::EU28), 1),
                   util::fmt_pct(share(geo::Region::NorthAmerica), 1),
                   util::fmt_pct(share(geo::Region::RestOfEurope), 1),
                   util::fmt_pct(other < 0 ? 0.0 : other, 1)});
  };
  row_for("");
  for (const auto& category : breakdown.categories) row_for(category.category);
  std::printf("%s", table.render().c_str());

  print_paper_note(
      "Fig. 10: aggregated sensitive flows mirror general traffic — EU28 84.9%,\n"
      "N.America 12.07%, Rest of Europe 2.4%. The leakiest categories are porn\n"
      "(44% outside EU28), sexual orientation (36%) and alcohol (33%).\n"
      "Reproduced shape: the ALL row tracks the general confinement, with\n"
      "category-level variation around it.");
}
