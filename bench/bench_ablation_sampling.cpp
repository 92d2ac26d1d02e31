// Ablation: NetFlow sampling rate vs the confinement estimate. Packet
// sampling scales the counters but the EU28-share estimator is a ratio,
// so the estimate should be unbiased — only its variance grows.
#include "bench_common.h"
#include "netflow/profile.h"

int main(int argc, char** argv) {
  using namespace cbwt;
  bench::reject_arguments(argc, argv);
  auto config = bench::bench_config();
  bench::print_header("Ablation: NetFlow sampling rate vs confinement estimate",
                      config);

  util::TextTable table({"sampled flows", "EU28 share", "in-country share"});
  const auto& isp = netflow::default_isps()[0];
  const auto& snapshot = netflow::default_snapshots()[1];
  double reference = -1.0;
  double max_dev = 0.0;
  for (const double netflow_scale : {1e-3, 2e-4, 5e-5, 1e-5}) {
    core::StudyConfig variant = config;
    variant.netflow.scale = netflow_scale;
    core::Study study(variant);
    const auto run = study.run_isp_snapshot(isp, snapshot);
    auto analyzer = study.analyzer();
    const auto regions = analyzer.destination_regions(run.flows);
    const auto eu_it = regions.share.find(geo::Region::EU28);
    const double eu = eu_it == regions.share.end() ? 0.0 : 100.0 * eu_it->second;
    const auto confinement = analyzer.confinement(run.flows);
    table.add_row({util::fmt_count(run.collection.matched_records),
                   util::fmt_pct(eu, 2), util::fmt_pct(confinement.in_country, 2)});
    if (reference < 0.0) reference = eu;
    max_dev = std::max(max_dev, std::abs(eu - reference));
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nmax deviation of the EU28 share across sampling rates: %.2f pp\n",
              max_dev);

  bench::print_paper_note(
      "Design-choice check (§7.2): the ISPs' NetFlow is packet-sampled at a\n"
      "constant rate; the paper's confinement percentages are ratios and thus\n"
      "insensitive to the rate. Expected: the EU28 share moves by at most a\n"
      "couple of percentage points as the sampled volume drops by 100x.");
  return 0;
}
