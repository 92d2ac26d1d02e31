// §2.3 design-choice check: why the paper joins ISP *NetFlow* against an
// extension-derived IP list instead of mining hostnames out of sFlow
// payload samples. Hostname visibility collapses on encrypted transports
// (TLS ClientHello only, QUIC hardly at all), while the IP join works
// "irrespective of the protocol used" (§8, Traffic Type row of Table 9).
#include "bench_common.h"
#include "netflow/sflow.h"

int main(int argc, char** argv) {
  using namespace cbwt;
  bench::reject_arguments(argc, argv);
  const auto config = bench::bench_config();
  bench::print_header(
      "Sect. 2.3: hostname matching on sFlow vs IP matching on NetFlow", config);
  core::Study study(config);
  const auto& world = study.world();

  // The IP join list: the pipeline's completed tracker IPs.
  netflow::TrackerIpIndex trackers;
  for (const auto& ip : study.completed_tracker_ips()) trackers.add(ip);
  // The hostname list: tracking registrable domains from classification.
  std::set<std::string> registrable_set;
  const auto& dataset = study.dataset();
  const auto& outcomes = study.outcomes();
  for (std::size_t i = 0; i < dataset.requests.size(); ++i) {
    if (!classify::is_tracking(outcomes[i].method)) continue;
    registrable_set.insert(world.domain(dataset.requests[i].domain).registrable);
  }
  const std::vector<std::string> registrables(registrable_set.begin(),
                                              registrable_set.end());

  netflow::GeneratorConfig traffic;
  traffic.scale = 2e-4;
  util::TextTable table({"ISP", "tracking samples", "host-match recall",
                         "IP-match recall", "either", "false host", "false IP"});
  for (const auto& isp : netflow::default_isps()) {
    auto rng = util::Rng(config.world.seed ^ isp.name.size());
    const auto exported = netflow::generate_sflow_snapshot(
        world, study.resolver(), isp, netflow::default_snapshots()[1], traffic,
        netflow::SflowConfig{}, rng);
    const auto comparison =
        netflow::compare_matchers(world, exported, registrables, trackers);
    table.add_row({std::string(isp.name), util::fmt_count(comparison.tracking_samples),
                   util::fmt_pct(100.0 * comparison.host_recall(), 1),
                   util::fmt_pct(100.0 * comparison.ip_recall(), 1),
                   util::fmt_pct(util::percent(
                                     static_cast<double>(comparison.matched_by_either),
                                     static_cast<double>(comparison.tracking_samples)),
                                 1),
                   util::fmt_count(comparison.false_host_matches),
                   util::fmt_count(comparison.false_ip_matches)});
  }
  std::printf("%s", table.render().c_str());

  bench::print_paper_note(
      "No numeric table in the paper; §2.3 argues the design: payload-based\n"
      "identification fails when traffic is encrypted (83%+ of tracking flows\n"
      "already were), while the extension-derived IP list joins against bare\n"
      "flow records regardless of protocol. Expected: IP-match recall in the\n"
      "high 90s, host-match recall capped near the handshake-visibility rate\n"
      "(~45% TLS, ~8% QUIC, ~95% plaintext).");
  return 0;
}
