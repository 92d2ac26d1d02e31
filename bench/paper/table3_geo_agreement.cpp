// Table 3: pairwise country/continent agreement across the three
// geolocation tools over the tracker IP set.
#include "bench_common.h"

void cbwt::bench::table3_geo_agreement(core::Study& study, IspRuns&, Report&) {
  print_title("Table 3: pairwise agreement across geolocation tools");

  const auto& ips = study.completed_tracker_ips();
  const auto& geo = study.geo();
  using geoloc::Tool;
  const Tool tools[] = {Tool::IpApiLike, Tool::MaxMindLike, Tool::ActiveIpmap};

  util::TextTable table({"Service", "ip-api (ctry/cont)", "MaxMind (ctry/cont)",
                         "RIPE IPmap (ctry/cont)"});
  for (const Tool a : tools) {
    std::vector<std::string> row{std::string(geoloc::to_string(a))};
    for (const Tool b : tools) {
      if (a == b) {
        row.push_back("100% / 100%");
        continue;
      }
      const auto agreement = geoloc::pairwise_agreement(geo, ips, a, b);
      row.push_back(util::fmt_pct(100.0 * agreement.country) + " / " +
                    util::fmt_pct(100.0 * agreement.continent));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s", table.render().c_str());
  std::printf("\n(%zu tracker IPs compared)\n", ips.size());

  print_paper_note(
      "Table 3: ip-api vs MaxMind agree on 96.13% of countries and 99.15% of\n"
      "continents; each agrees with RIPE IPmap on only ~53% of countries and\n"
      "~65% of continents. Reproduced shape: the commercial pair is highly\n"
      "consistent with itself and much less consistent with the active tool.");
}
