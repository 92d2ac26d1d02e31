// §3.3: completeness of the tracker IP set — what passive DNS replication
// adds beyond the IPs the recruited users' browsers saw, and the IPv4/v6
// split of the result.
#include "bench_common.h"

void cbwt::bench::pdns_completeness(core::Study& study, IspRuns&, Report&) {
  print_title("Sect. 3.3: tracker-IP completeness via passive DNS");

  const auto& observed = study.observed_tracker_ips();
  const auto& completed = study.completed_tracker_ips();
  const auto added = completed.size() - observed.size();

  std::size_t v4_total = 0;
  for (const auto& ip : completed) v4_total += ip.is_v4() ? 1 : 0;
  std::size_t v4_added = 0;
  {
    std::size_t i = 0;
    for (const auto& ip : completed) {
      const bool was_observed =
          std::binary_search(observed.begin(), observed.end(), ip);
      if (!was_observed && ip.is_v4()) ++v4_added;
      ++i;
    }
  }

  util::TextTable table({"metric", "value"});
  table.add_row({"IPs observed by the 350 users", util::fmt_count(observed.size())});
  table.add_row({"IPs after pDNS forward completion", util::fmt_count(completed.size())});
  table.add_row({"additional IPs from pDNS", util::fmt_count(added)});
  table.add_row({"pDNS gain",
                 util::fmt_pct(util::percent(static_cast<double>(added),
                                             static_cast<double>(observed.size())))});
  table.add_row({"IPv4 share of completed set",
                 util::fmt_pct(util::percent(static_cast<double>(v4_total),
                                             static_cast<double>(completed.size())))});
  table.add_row({"IPv4 share of the added IPs",
                 added == 0 ? "n/a"
                            : util::fmt_pct(util::percent(static_cast<double>(v4_added),
                                                          static_cast<double>(added)))});
  std::printf("%s", table.render().c_str());

  // Where do the pDNS-only IPs live? (They hide in regions the EU/SA-heavy
  // user base is never mapped to.)
  util::Tally regions;
  for (const auto& ip : completed) {
    if (std::binary_search(observed.begin(), observed.end(), ip)) continue;
    const auto region = study.geo().region(ip, geoloc::Tool::GroundTruth);
    regions.add(region ? std::string(geo::to_string(*region)) : "unknown");
  }
  std::printf("\npDNS-only IPs by true region:\n");
  for (const auto& [region, count] : regions.top(8)) {
    std::printf("  %-16s %llu\n", region.c_str(),
                static_cast<unsigned long long>(count));
  }

  print_paper_note(
      "Sect. 3.3: 28,939 tracker IPs from the users, +806 (+2.78%) from pDNS,\n"
      "~97% IPv4 (60% of the additions IPv4). Reproduced shape: a small\n"
      "single-digit-percent completion, concentrated on replicas outside the\n"
      "recruited users' serving regions.");
}
