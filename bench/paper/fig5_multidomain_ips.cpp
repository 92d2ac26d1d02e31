// Fig. 5: the IPs hosting 10+ ad/tracking domains (exchange points,
// RTB auction hosts, cookie-sync hubs) and where they physically are.
#include "bench_common.h"

void cbwt::bench::fig5_multidomain_ips(core::Study& study, IspRuns&, Report&) {
  print_title("Fig. 5: IPs hosting 10+ tracking domains, by location");

  const auto& store = study.pdns_store();
  util::Tally by_country;
  std::size_t hub_count = 0;
  std::size_t in_us_or_eu = 0;
  for (const auto& ip : study.completed_tracker_ips()) {
    const auto domains = store.registrable_count(ip);
    if (domains < 10) continue;
    ++hub_count;
    const auto country = study.geo().locate(ip, geoloc::Tool::ActiveIpmap);
    by_country.add(country.empty() ? "unknown" : country);
    const auto* info = geo::find_country(country);
    if (info != nullptr && (country == "US" || info->eu28)) ++in_us_or_eu;
  }

  util::TextTable table({"country", "# hub IPs"});
  for (const auto& [country, count] : by_country.top(15)) {
    table.add_row({country, util::fmt_count(count)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nhub IPs (>=10 domains): %zu; in US or EU28: %.0f%%\n", hub_count,
              hub_count == 0 ? 0.0
                             : util::percent(static_cast<double>(in_us_or_eu),
                                             static_cast<double>(hub_count)));
  // Sanity: the hubs really are the world's shared exchange servers.
  std::size_t exchange_servers = 0;
  for (const auto& server : study.world().servers()) {
    if (server.shared_exchange) ++exchange_servers;
  }
  std::printf("shared-exchange servers in the world model: %zu\n", exchange_servers);

  print_paper_note(
      "Fig. 5: 114 IPs serve 10+ tracking domains; about half sit in the USA\n"
      "and EU28, and closer inspection shows they are ad-exchange / RTB /\n"
      "cookie-sync infrastructure. Reproduced shape: a small set of hub IPs\n"
      "concentrated in the US and the EU hosting magnets.");
}
