// Fig. 4: how many registrable domains each tracking IP serves, weighted
// by requests — the "are tracker IPs dedicated?" check.
#include "bench_common.h"

void cbwt::bench::fig4_domains_per_ip(core::Study& study, IspRuns&, Report&) {
  print_title("Fig. 4: registrable domains served per tracking IP");

  const auto& store = study.pdns_store();
  const auto& ips = study.completed_tracker_ips();

  std::map<std::size_t, std::uint64_t> ip_histogram;      // #domains -> #IPs
  std::map<std::size_t, std::uint64_t> request_histogram; // #domains -> observations
  std::uint64_t total_observations = 0;
  for (const auto& ip : ips) {
    const auto domains = store.registrable_count(ip);
    if (domains == 0) continue;
    const auto observations = store.observations_of(ip);
    ++ip_histogram[domains];
    request_histogram[domains] += observations;
    total_observations += observations;
  }

  util::TextTable table({"# TLDs on IP", "# IPs", "share of IPs", "share of requests"});
  std::uint64_t total_ips = 0;
  for (const auto& [domains, count] : ip_histogram) total_ips += count;
  std::uint64_t multi_domain_ips = 0;
  std::uint64_t single_domain_requests = 0;
  for (const auto& [domains, count] : ip_histogram) {
    const auto requests = request_histogram[domains];
    table.add_row({std::to_string(domains), util::fmt_count(count),
                   util::fmt_pct(util::percent(static_cast<double>(count),
                                               static_cast<double>(total_ips))),
                   util::fmt_pct(util::percent(static_cast<double>(requests),
                                               static_cast<double>(total_observations)))});
    if (domains > 1) multi_domain_ips += count;
    if (domains == 1) single_domain_requests = requests;
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nIPs serving one TLD handle %.1f%% of observed requests; "
              "%.2f%% of IPs serve more than one TLD\n",
              util::percent(static_cast<double>(single_domain_requests),
                            static_cast<double>(total_observations)),
              util::percent(static_cast<double>(multi_domain_ips),
                            static_cast<double>(total_ips)));

  print_paper_note(
      "Fig. 4: ~85% of requests are served by IPs dedicated to a single TLD;\n"
      "fewer than 2% of IPs serve more than one domain (RTB latency pressure\n"
      "keeps tracking IPs dedicated). Reproduced shape: single-TLD IPs dominate\n"
      "the request mass, multi-TLD IPs are a small minority.");
}
