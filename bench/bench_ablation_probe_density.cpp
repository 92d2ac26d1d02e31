// Ablation: active-geolocation accuracy vs probe-mesh size. The paper's
// method hinges on RIPE Atlas's density (11K probes, EU-heavy); this
// sweep shows how country-level accuracy decays with a thinner mesh.
#include "bench_common.h"
#include "geoloc/active.h"

int main(int argc, char** argv) {
  using namespace cbwt;
  bench::reject_arguments(argc, argv);
  const auto config = bench::bench_config();
  bench::print_header("Ablation: probe-mesh density vs geolocation accuracy", config);
  core::Study study(config);
  const auto& world = study.world();

  util::TextTable table({"probes", "country acc. (EU+US)", "continent acc."});
  for (const std::uint32_t probes : {50U, 150U, 400U, 1100U, 3000U}) {
    auto mesh_rng = util::Rng(util::mix64(config.world.seed ^ probes));
    const geoloc::ProbeMesh mesh({probes}, mesh_rng);
    const geoloc::ActiveGeolocator locator(world, mesh);
    util::Rng rng(7);
    std::size_t checked = 0;
    std::size_t country_ok = 0;
    std::size_t continent_ok = 0;
    for (const auto& server : world.servers()) {
      const auto truth = world.true_country_of(server.ip);
      const auto* info = geo::find_country(truth);
      if (info == nullptr ||
          (info->continent != geo::Continent::Europe && truth != "US")) {
        continue;
      }
      if (++checked > 400) break;
      const auto estimate = locator.locate(server.ip, rng);
      if (estimate.country == truth) ++country_ok;
      const auto* guess = geo::find_country(estimate.country);
      if (guess != nullptr && guess->continent == info->continent) ++continent_ok;
    }
    table.add_row({util::fmt_count(probes),
                   util::fmt_pct(util::percent(static_cast<double>(country_ok),
                                               static_cast<double>(checked))),
                   util::fmt_pct(util::percent(static_cast<double>(continent_ok),
                                               static_cast<double>(checked)))});
  }
  std::printf("%s", table.render().c_str());

  bench::print_paper_note(
      "Design-choice check (§3.4): the paper reports >90% country-level vote\n"
      "agreement and 99.58% validated country accuracy thanks to Atlas's\n"
      "density. Expected: accuracy rises monotonically with mesh size and\n"
      "saturates near the full mesh; continent accuracy is robust even when\n"
      "the mesh is thin.");
  return 0;
}
