// Ablation: EDNS-Client-Subnet adoption vs confinement. The paper
// attributes the broadband/mobile confinement gap to third-party
// resolvers hiding the client's location (§7.3, citing the ECS work);
// this sweep shows ECS closing exactly that gap.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace cbwt;
  bench::reject_arguments(argc, argv);
  auto base_config = bench::bench_config();
  base_config.world.scale = 0.04;  // several studies below, keep each small
  bench::print_header("Ablation: EDNS-Client-Subnet adoption vs EU28 confinement",
                      base_config);

  util::TextTable table({"ECS adoption", "EU28 share", "in-country share",
                         "3rd-party-resolver users' in-country"});
  for (const double adoption : {0.0, 0.5, 1.0}) {
    core::StudyConfig config = base_config;
    config.resolver.ecs_adoption = adoption;
    core::Study study(config);
    const auto eu_flows = analysis::flows_from_region(study.flows(), geo::Region::EU28);
    auto analyzer = study.analyzer(geoloc::Tool::GroundTruth);
    const auto confinement = analyzer.confinement(eu_flows);

    // Same metric restricted to users on public resolvers.
    std::vector<analysis::Flow> public_resolver_flows;
    const auto& dataset = study.dataset();
    const auto& outcomes = study.outcomes();
    for (std::size_t i = 0; i < dataset.requests.size(); ++i) {
      if (!classify::is_tracking(outcomes[i].method)) continue;
      const auto& user = study.world().users()[dataset.requests[i].user];
      const auto* info = geo::find_country(user.country);
      if (info == nullptr || !info->eu28 || !user.third_party_resolver) continue;
      public_resolver_flows.push_back(
          {user.country, dataset.requests[i].server_ip, 1});
    }
    const auto public_confinement = analyzer.confinement(public_resolver_flows);

    table.add_row({util::fmt_pct(100.0 * adoption, 0),
                   util::fmt_pct(confinement.in_eu28, 1),
                   util::fmt_pct(confinement.in_country, 1),
                   util::fmt_pct(public_confinement.in_country, 1)});
  }
  std::printf("%s", table.render().c_str());

  bench::print_paper_note(
      "Design-choice check (§7.3 + ref [59]): broadband users on Google-DNS-\n"
      "style resolvers get mapped from the resolver's anycast site, eroding\n"
      "national confinement; ECS restores the client's subnet to the\n"
      "authoritative side. Expected: the last column climbs steeply with ECS\n"
      "adoption, pulling the aggregate in-country share up with it.");
  return 0;
}
