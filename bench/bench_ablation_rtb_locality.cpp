// Ablation: the RTB latency budget vs bidder geography. The paper argues
// (§2.2, §5) that the ~100 ms bidding budget is why tracking backends
// chase locality; this sweep measures bid-timeout rates for EU-hosted vs
// US-only bidders from a European user as the budget tightens.
#include "bench_common.h"
#include "rtb/auction.h"

int main(int argc, char** argv) {
  using namespace cbwt;
  bench::reject_arguments(argc, argv);
  const auto config = bench::bench_config();
  bench::print_header("Ablation: RTB timeout budget vs bidder locality", config);
  core::Study study(config);
  const auto& world = study.world();

  // Split DSP bid endpoints by where they can serve a German user from.
  std::vector<world::OrgId> eu_hosted;
  std::vector<world::OrgId> us_only;
  for (const auto& org : world.orgs()) {
    if (org.role != world::OrgRole::Dsp || org.domains.empty()) continue;
    bool any_eu = false;
    bool all_us = true;
    for (const auto sid : world.domain(org.domains.front()).servers) {
      const auto& country = world.datacenter(world.server(sid).datacenter).country;
      const auto* info = geo::find_country(country);
      if (info != nullptr && info->eu28) any_eu = true;
      if (country != "US") all_us = false;
    }
    if (any_eu) eu_hosted.push_back(org.id);
    else if (all_us) us_only.push_back(org.id);
  }
  std::printf("bidders: %zu EU-hosted, %zu US-only (from a German user's view)\n\n",
              eu_hosted.size(), us_only.size());

  rtb::BidRequest request;
  request.id = "sweep";
  request.imp.id = "1";
  request.imp.bidfloor = 0.05;
  request.site_domain = "news.example.de";
  request.user_country = "DE";

  util::TextTable table({"timeout (ms)", "EU-hosted timeout rate", "US-only timeout rate",
                         "EU win share"});
  for (const double timeout : {40.0, 80.0, 100.0, 150.0, 250.0}) {
    rtb::AuctionConfig auction;
    auction.timeout_ms = timeout;
    const rtb::AuctionEngine engine(world, study.resolver(), auction);
    rtb::CookieJar jar;
    util::Rng rng(config.world.seed ^ static_cast<std::uint64_t>(timeout));

    std::uint64_t eu_solicited = 0;
    std::uint64_t eu_dropped = 0;
    std::uint64_t us_solicited = 0;
    std::uint64_t us_dropped = 0;
    std::uint64_t eu_wins = 0;
    std::uint64_t wins = 0;
    for (int round = 0; round < 400; ++round) {
      std::vector<world::OrgId> bidders;
      for (int k = 0; k < 3 && !eu_hosted.empty(); ++k) {
        bidders.push_back(eu_hosted[rng.next_below(eu_hosted.size())]);
      }
      for (int k = 0; k < 3 && !us_only.empty(); ++k) {
        bidders.push_back(us_only[rng.next_below(us_only.size())]);
      }
      const auto outcome = engine.run(request, bidders, jar, rng);
      for (const auto dsp : outcome.participants) {
        const bool is_eu = std::find(eu_hosted.begin(), eu_hosted.end(), dsp) !=
                           eu_hosted.end();
        (is_eu ? eu_solicited : us_solicited) += 1;
      }
      for (const auto dsp : outcome.timed_out) {
        const bool is_eu = std::find(eu_hosted.begin(), eu_hosted.end(), dsp) !=
                           eu_hosted.end();
        (is_eu ? eu_dropped : us_dropped) += 1;
      }
      if (outcome.winner) {
        ++wins;
        if (std::find(eu_hosted.begin(), eu_hosted.end(), outcome.winner->dsp) !=
            eu_hosted.end()) {
          ++eu_wins;
        }
      }
    }
    table.add_row(
        {util::fmt_fixed(timeout, 0),
         util::fmt_pct(util::percent(static_cast<double>(eu_dropped),
                                     static_cast<double>(eu_solicited))),
         util::fmt_pct(util::percent(static_cast<double>(us_dropped),
                                     static_cast<double>(us_solicited))),
         util::fmt_pct(util::percent(static_cast<double>(eu_wins),
                                     static_cast<double>(wins)))});
  }
  std::printf("%s", table.render().c_str());

  bench::print_paper_note(
      "Design-choice check: the ~100 ms RTB budget (§3.3 cites it as the reason\n"
      "tracker IPs stay dedicated; §5 as the business case for locality) is a\n"
      "cliff for transatlantic bidders: at 100 ms, US-only bidders serving\n"
      "German users miss the budget far more often than EU-hosted ones, and the\n"
      "EU win share collapses toward 50% only when the budget is generous.");
  return 0;
}
