// Fig. 7: destination regions of EU28 users' tracking flows under
// (a) the MaxMind-like commercial database and (b) active geolocation —
// the single methodological choice that flips the paper's conclusion.
#include "bench_common.h"

void cbwt::bench::fig7_eu28_geolocation(core::Study& study, IspRuns&, Report& report) {
  print_title("Fig. 7: EU28 tracking-flow destinations, MaxMind vs IPmap");

  const auto eu_flows = analysis::flows_from_region(study.flows(), geo::Region::EU28);
  const auto print_breakdown = [&](geoloc::Tool tool) {
    const auto breakdown = study.analyzer(tool).destination_regions(eu_flows);
    std::vector<util::Bar> bars;
    for (const auto& [region, share] : breakdown.share) {
      bars.push_back({std::string(geo::to_string(region)), 100.0 * share, ""});
    }
    std::printf("\n(%s)\n%s", std::string(geoloc::to_string(tool)).c_str(),
                util::render_bars(bars, 40).c_str());
    return breakdown;
  };

  const auto maxmind = print_breakdown(geoloc::Tool::MaxMindLike);
  const auto ipmap = print_breakdown(geoloc::Tool::ActiveIpmap);

  const auto share = [](const analysis::RegionBreakdown& breakdown, geo::Region region) {
    const auto it = breakdown.share.find(region);
    return it == breakdown.share.end() ? 0.0 : 100.0 * it->second;
  };
  std::printf("\nqualitative flip: EU28 share %.1f%% (MaxMind-like) vs %.1f%% "
              "(IPmap-like); N.America %.1f%% vs %.1f%%\n",
              share(maxmind, geo::Region::EU28), share(ipmap, geo::Region::EU28),
              share(maxmind, geo::Region::NorthAmerica),
              share(ipmap, geo::Region::NorthAmerica));

  print_paper_note(
      "Fig. 7(a) MaxMind: EU28 33.16%, N.America 65.94%. Fig. 7(b) RIPE IPmap:\n"
      "EU28 84.93%, N.America 10.75%, Rest of Europe 3.07%. Reproduced shape:\n"
      "under the commercial DB most flows appear to leak to N. America; under\n"
      "active geolocation the large majority terminates inside EU28.");

  report.emplace_back("maxmind_eu28_pct", share(maxmind, geo::Region::EU28));
  report.emplace_back("maxmind_north_america_pct",
                      share(maxmind, geo::Region::NorthAmerica));
  report.emplace_back("ipmap_eu28_pct", share(ipmap, geo::Region::EU28));
  report.emplace_back("ipmap_north_america_pct", share(ipmap, geo::Region::NorthAmerica));
}
