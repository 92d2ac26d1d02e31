// Table 5: potential localization improvements for EU28 tracking flows —
// DNS redirection (FQDN / TLD), cloud PoP mirroring, and the combination.
#include "bench_common.h"

void cbwt::bench::table5_localization(core::Study& study, IspRuns&, Report& report) {
  print_title("Table 5: localization what-if scenarios (EU28 flows)");

  const auto& localization = study.localization();
  using whatif::Scenario;
  // Each scenario with the key its metrics carry in the --json report.
  const std::pair<Scenario, const char*> scenarios[] = {
      {Scenario::Default, "default"},
      {Scenario::RedirectFqdn, "redirect_fqdn"},
      {Scenario::RedirectTld, "redirect_tld"},
      {Scenario::PopMirroring, "pop_mirroring"},
      {Scenario::RedirectTldPlusMirroring, "redirect_tld_plus_mirroring"}};

  const auto base = localization.evaluate(Scenario::Default);
  util::TextTable table({"scenario", "in-country", "in-continent", "improvement (ctry)",
                         "improvement (cont)"});
  for (const auto& [scenario, key] : scenarios) {
    const auto result = localization.evaluate(scenario);
    report.emplace_back(std::string("in_country_pct_") + key, result.in_country_pct);
    report.emplace_back(std::string("in_continent_pct_") + key, result.in_continent_pct);
    table.add_row({std::string(whatif::to_string(scenario)),
                   util::fmt_pct(result.in_country_pct),
                   util::fmt_pct(result.in_continent_pct),
                   scenario == Scenario::Default
                       ? "-"
                       : util::fmt_pct(result.in_country_pct - base.in_country_pct),
                   scenario == Scenario::Default
                       ? "-"
                       : util::fmt_pct(result.in_continent_pct - base.in_continent_pct)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\n(%zu EU28 tracking flows evaluated)\n", localization.flow_count());

  print_paper_note(
      "Table 5 (1,824,873 EU28 flows): Default 27.60% country / 88.00% continent;\n"
      "FQDN redirection 52.15%/93.53% (+24.55/+5.53); TLD redirection\n"
      "66.13%/98.33% (+38.53/+10.33); PoP mirroring 30.79%/92.09% (+3.19/+4.09);\n"
      "TLD + mirroring 68.12%/99.20% (+40.52/+11.20). Reproduced shape: TLD\n"
      "redirection is the big national-level lever; mirroring mainly helps at\n"
      "continent level; the combination is best.");

}
