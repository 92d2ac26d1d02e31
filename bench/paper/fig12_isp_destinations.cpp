// Fig. 12: the top-5 destination countries of each ISP's tracking flows
// (April 4 snapshot) — the local-IT-infrastructure effect.
#include "bench_common.h"
#include "netflow/profile.h"

void cbwt::bench::fig12_isp_destinations(core::Study& study, IspRuns& isp_runs, Report&) {
  print_title("Fig. 12: top-5 destination countries per ISP (April 4)");
  auto analyzer = study.analyzer();
  const auto& snapshot = netflow::default_snapshots()[1];  // April 4

  for (const auto& isp : netflow::default_isps()) {
    const auto& run = isp_runs.get(isp, snapshot);
    const auto destinations = analyzer.destination_countries(run.flows);
    std::vector<std::pair<std::string, double>> ranked(destinations.begin(),
                                                       destinations.end());
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    double shown = 0.0;
    std::vector<util::Bar> bars;
    for (std::size_t i = 0; i < ranked.size() && i < 5; ++i) {
      bars.push_back({ranked[i].first, 100.0 * ranked[i].second,
                      ranked[i].first == isp.country ? "(home)" : ""});
      shown += 100.0 * ranked[i].second;
    }
    bars.push_back({"Rest World", 100.0 - shown, ""});
    std::printf("\n[%s]\n%s", std::string(isp.name).c_str(),
                util::render_bars(bars, 40).c_str());
    const auto home = destinations.find(std::string(isp.country));
    std::printf("home-country confinement: %.2f%%\n",
                home == destinations.end() ? 0.0 : 100.0 * home->second);
  }

  print_paper_note(
      "Fig. 12 (April 4): DE-Broadband terminates 69.0% in Germany (then NL\n"
      "7.9%, US 9.7%, IE 5.2%); DE-Mobile 67.3% in Germany; PL only 0.25% in\n"
      "Poland (NL 32.9%, US 20.7%, DE 20.5%); HU 6.85% in Hungary with Austria\n"
      "taking 62.3%. Reproduced shape: German ISPs mostly confined at home;\n"
      "PL/HU leak to neighbouring hosting hubs (DE/NL for PL, AT for HU).");
}
