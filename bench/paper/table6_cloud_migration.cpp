// Table 6: per-country improvement from cloud PoP mirroring and from
// full migration to any public-cloud PoP, on top of TLD-level
// redirection.
#include "bench_common.h"

void cbwt::bench::table6_cloud_migration(core::Study& study, IspRuns&, Report& report) {
  print_title("Table 6: per-country gains from PoP mirroring and cloud migration");

  const auto& localization = study.localization();
  using whatif::Scenario;
  const auto mirroring_over_tld = localization.improvement_per_country(
      Scenario::RedirectTld, Scenario::RedirectTldPlusMirroring);
  const auto migration_over_tld = localization.improvement_per_country(
      Scenario::RedirectTld, Scenario::CloudMigration);
  const auto migration_over_default = localization.improvement_per_country(
      Scenario::Default, Scenario::CloudMigration);
  const auto per_country = localization.evaluate_per_country(Scenario::Default);

  util::TextTable table({"country", "flows", "mirroring over TLD",
                         "migration over TLD", "migration over default"});
  std::vector<std::pair<std::string, double>> ordered(migration_over_default.begin(),
                                                      migration_over_default.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (const auto& [country, gain] : ordered) {
    const auto mirror_it = mirroring_over_tld.find(country);
    const auto tld_it = migration_over_tld.find(country);
    const auto flows = per_country.at(country).total;
    const double mirroring = mirror_it == mirroring_over_tld.end() ? 0.0 : mirror_it->second;
    const double migration = tld_it == migration_over_tld.end() ? 0.0 : tld_it->second;
    report.emplace_back(country + "_flows", static_cast<double>(flows));
    report.emplace_back(country + "_mirroring_over_tld", mirroring);
    report.emplace_back(country + "_migration_over_tld", migration);
    report.emplace_back(country + "_migration_over_default", gain);
    table.add_row({country, util::fmt_count(flows), util::fmt_pct(mirroring),
                   util::fmt_pct(migration), util::fmt_pct(gain)});
  }
  std::printf("%s", table.render().c_str());

  print_paper_note(
      "Table 6: mirroring over TLD redirection adds little (UK +5.47%, Spain\n"
      "+1.84%, <1.3% for GR/IT/RO, 0 for CY/DK); migration to any cloud PoP is\n"
      "transformative for small countries with cloud presence (Denmark +96.85%,\n"
      "Greece +79.25%, Romania +72.12%) and modest for the big ones (Italy\n"
      "+25.64%, UK +18.20%, Spain +12.15%); Cyprus gains 0 — no cloud has a\n"
      "PoP there. Reproduced shape: the same ordering and the Cyprus zero.");
}
