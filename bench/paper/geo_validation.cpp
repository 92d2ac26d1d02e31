// §3.4 validation: active geolocation checked against the published
// server locations of the public clouds (the paper used AWS's and
// Azure's published ranges: 99.58% country, 100% continent).
#include "bench_common.h"

void cbwt::bench::geo_validation(core::Study& study, IspRuns&, Report&) {
  print_title("Sect. 3.4: active-geolocation validation against cloud ground truth");
  const auto& world = study.world();
  const auto& geo = study.geo();

  util::TextTable table({"cloud", "# servers", "country acc.", "continent acc."});
  std::uint64_t total = 0;
  std::uint64_t country_ok = 0;
  std::uint64_t continent_ok = 0;
  for (const auto& cloud : world.clouds()) {
    std::uint64_t cloud_total = 0;
    std::uint64_t cloud_country = 0;
    std::uint64_t cloud_continent = 0;
    for (const auto& server : world.servers()) {
      const auto& dc = world.datacenter(server.datacenter);
      if (dc.cloud != cloud.id) continue;
      ++cloud_total;
      const auto estimate = geo.locate(server.ip, geoloc::Tool::ActiveIpmap);
      if (estimate == dc.country) ++cloud_country;
      const auto* truth = geo::find_country(dc.country);
      const auto* guess = geo::find_country(estimate);
      if (truth != nullptr && guess != nullptr && truth->continent == guess->continent) {
        ++cloud_continent;
      }
    }
    if (cloud_total == 0) continue;
    total += cloud_total;
    country_ok += cloud_country;
    continent_ok += cloud_continent;
    table.add_row({cloud.name, util::fmt_count(cloud_total),
                   util::fmt_pct(util::percent(static_cast<double>(cloud_country),
                                               static_cast<double>(cloud_total))),
                   util::fmt_pct(util::percent(static_cast<double>(cloud_continent),
                                               static_cast<double>(cloud_total)))});
  }
  table.add_row({"ALL", util::fmt_count(total),
                 util::fmt_pct(util::percent(static_cast<double>(country_ok),
                                             static_cast<double>(total))),
                 util::fmt_pct(util::percent(static_cast<double>(continent_ok),
                                             static_cast<double>(total)))});
  std::printf("%s", table.render().c_str());

  print_paper_note(
      "Sect. 3.4: against the AWS/Azure published locations, RIPE IPmap was\n"
      "99.58% accurate at country level and 100% at continent level.\n"
      "Reproduced shape: near-perfect continent accuracy and high country\n"
      "accuracy (residual errors sit at tight European borders).");
}
