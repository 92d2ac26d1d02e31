// Table 4: mis-geolocation by the MaxMind-like database for the largest
// ad+tracking organizations, measured against the active tool — by IPs
// and by request volume.
#include <map>

#include "bench_common.h"

void cbwt::bench::table4_maxmind_errors(core::Study& study, IspRuns&, Report&) {
  print_title("Table 4: commercial-DB mis-geolocation for the top tracking orgs");
  const auto& world = study.world();
  const auto& geo = study.geo();

  // Request volume per server IP from the classified dataset.
  std::map<net::IpAddress, std::uint64_t> requests_by_ip;
  const auto& dataset = study.dataset();
  const auto& outcomes = study.outcomes();
  std::map<world::OrgId, std::uint64_t> volume_by_org;
  for (std::size_t i = 0; i < dataset.requests.size(); ++i) {
    if (!classify::is_tracking(outcomes[i].method)) continue;
    ++requests_by_ip[dataset.requests[i].server_ip];
    ++volume_by_org[world.domain(dataset.requests[i].domain).org];
  }

  // The three biggest orgs by request volume play Google/Amazon/Facebook.
  std::vector<std::pair<world::OrgId, std::uint64_t>> ranked(volume_by_org.begin(),
                                                             volume_by_org.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  util::TextTable table({"Org (role)", "# IPs", "wrong country", "wrong continent",
                         "# requests", "wrong country", "wrong continent"});
  for (std::size_t r = 0; r < 3 && r < ranked.size(); ++r) {
    const auto& org = world.org(ranked[r].first);
    geoloc::MisgeolocationStats stats;
    for (const auto sid : org.servers) {
      const auto& ip = world.server(sid).ip;
      const auto reference = geo.locate(ip, geoloc::Tool::ActiveIpmap);
      const auto commercial = geo.locate(ip, geoloc::Tool::MaxMindLike);
      const auto continent_ref = geo.continent(ip, geoloc::Tool::ActiveIpmap);
      const auto continent_com = geo.continent(ip, geoloc::Tool::MaxMindLike);
      const auto volume = requests_by_ip.contains(ip) ? requests_by_ip.at(ip) : 0;
      ++stats.ips;
      stats.requests += volume;
      if (commercial != reference) {
        ++stats.wrong_country_ips;
        stats.wrong_country_requests += volume;
      }
      if (continent_ref && continent_com && *continent_ref != *continent_com) {
        ++stats.wrong_continent_ips;
        stats.wrong_continent_requests += volume;
      }
    }
    table.add_row(
        {org.name + " (" + std::string(world::to_string(org.role)) + ")",
         util::fmt_count(stats.ips),
         util::fmt_pct(util::percent(static_cast<double>(stats.wrong_country_ips),
                                     static_cast<double>(stats.ips))),
         util::fmt_pct(util::percent(static_cast<double>(stats.wrong_continent_ips),
                                     static_cast<double>(stats.ips))),
         util::fmt_count(stats.requests),
         util::fmt_pct(util::percent(static_cast<double>(stats.wrong_country_requests),
                                     static_cast<double>(stats.requests))),
         util::fmt_pct(util::percent(static_cast<double>(stats.wrong_continent_requests),
                                     static_cast<double>(stats.requests)))});
  }
  std::printf("%s", table.render().c_str());

  print_paper_note(
      "Table 4: Google ads+tracking — 57.9% of IPs in the wrong country, 43.1%\n"
      "wrong continent (63%/60% by requests); Amazon 59%/59%; Facebook 45%/30%.\n"
      "Reproduced shape: for globally deployed orgs, the commercial database\n"
      "puts roughly half the IPs (and a comparable request share) in the wrong\n"
      "country, mostly at the US legal home.");
}
