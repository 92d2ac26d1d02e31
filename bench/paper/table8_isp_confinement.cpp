// Table 8: sampled tracking-flow statistics across the four ISPs and the
// four snapshot days — volumes and destination-region shares.
#include "bench_common.h"
#include "netflow/profile.h"

void cbwt::bench::table8_isp_confinement(core::Study& study, IspRuns& isp_runs, Report& report) {
  // NetFlow volume is scaled down 1000x from the paper's Table 8; the
  // destination shares are scale-free.
  print_title(
      "Table 8: sampled tracking flows across EU ISPs and over time "
      "(volumes ~1/1000 of the paper's)");
  auto analyzer = study.analyzer();

  for (const auto& isp : netflow::default_isps()) {
    util::TextTable table({"snapshot", "sampled tracking flows", "EU28", "N. America",
                           "Rest Europe", "Asia", "Rest World", "HTTPS share"});
    for (const auto& snapshot : netflow::default_snapshots()) {
      const auto& run = isp_runs.get(isp, snapshot);
      const auto regions = analyzer.destination_regions(run.flows);
      const auto share = [&](geo::Region region) {
        const auto it = regions.share.find(region);
        return it == regions.share.end() ? 0.0 : 100.0 * it->second;
      };
      const double rest_world = share(geo::Region::SouthAmerica) +
                                share(geo::Region::Africa) + share(geo::Region::Oceania);
      const std::string key =
          std::string(isp.name) + "/" + std::string(snapshot.label);
      report.emplace_back(key + "/matched_records",
                          static_cast<double>(run.collection.matched_records));
      report.emplace_back(key + "/eu28_pct", share(geo::Region::EU28));
      report.emplace_back(
          key + "/https_pct",
          util::percent(static_cast<double>(run.collection.https_records),
                        static_cast<double>(run.collection.matched_records)));
      table.add_row(
          {std::string(snapshot.label), util::fmt_count(run.collection.matched_records),
           util::fmt_pct(share(geo::Region::EU28), 1),
           util::fmt_pct(share(geo::Region::NorthAmerica), 1),
           util::fmt_pct(share(geo::Region::RestOfEurope), 1),
           util::fmt_pct(share(geo::Region::Asia), 1), util::fmt_pct(rest_world, 1),
           util::fmt_pct(util::percent(
                             static_cast<double>(run.collection.https_records),
                             static_cast<double>(run.collection.matched_records)),
                         1)});
    }
    std::printf("\n[%s]\n%s", std::string(isp.name).c_str(), table.render().c_str());
  }

  print_paper_note(
      "Table 8: EU28 confinement 86.5-88.5% (DE-Broadband), 89.9-92.5%\n"
      "(DE-Mobile), 74.7-77.5% (PL), 89.5-93.1% (HU); N.America takes most of\n"
      "the remainder; volumes 1,057M / 70M / 14M / 43M sampled flows per day,\n"
      "stable across the GDPR implementation date; >83% of matched traffic on\n"
      "443. Reproduced shape: high and stable EU28 confinement, N.America the\n"
      "main leak. Not reproduced: mobile above broadband, and PL lowest\n"
      "(DESIGN.md section 8).");
}
