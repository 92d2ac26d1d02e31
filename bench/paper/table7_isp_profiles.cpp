// Table 7: the profiles of the four European ISPs whose NetFlow scales
// the study up, plus the derived per-day export volumes of the model.
#include "bench_common.h"
#include "netflow/generator.h"
#include "netflow/profile.h"

void cbwt::bench::table7_isp_profiles(core::Study&, IspRuns&, Report&) {
  print_title("Table 7: profiles of the four European ISPs");

  util::TextTable table({"Name", "Country", "Access", "Demographics",
                         "3rd-party DNS share", "paper-scale flows/day"});
  const netflow::GeneratorConfig generator;
  for (const auto& isp : netflow::default_isps()) {
    const double paper_scale_flows =
        generator.flows_per_subscriber_m * isp.subscribers_m * isp.web_activity;
    table.add_row({std::string(isp.name), std::string(isp.country),
                   std::string(netflow::to_string(isp.access)),
                   util::fmt_fixed(isp.subscribers_m, 0) + "M+ users",
                   util::fmt_pct(100.0 * isp.third_party_resolver_share, 0),
                   util::fmt_count(static_cast<std::uint64_t>(paper_scale_flows))});
  }
  std::printf("%s", table.render().c_str());

  std::printf("\nsnapshot days (since Sep 1, 2017): ");
  for (const auto& snapshot : netflow::default_snapshots()) {
    std::printf("%s(day %d)  ", std::string(snapshot.label).c_str(), snapshot.day);
  }
  std::printf("\n");

  print_paper_note(
      "Table 7: DE-Broadband (Germany, 15M+ broadband households), DE-Mobile\n"
      "(Germany, 40M+ mobile), PL (Poland, 11M+ mixed), HU (Hungary, 6M+\n"
      "mostly mobile). Snapshots: Nov 8, April 4, May 16 (pre-GDPR) and\n"
      "June 20 (post-GDPR). The derived flows/day land on Table 8's sampled\n"
      "volumes (DE-Broadband ~1.05e9/day).");
}
