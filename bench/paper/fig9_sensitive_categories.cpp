// Fig. 9: the twelve GDPR-sensitive categories and the share of tracking
// flows each one attracts.
#include "bench_common.h"

void cbwt::bench::fig9_sensitive_categories(core::Study& study, IspRuns&, Report&) {
  print_title("Fig. 9: tracking flows on GDPR-sensitive categories");

  const auto breakdown = sensitive::sensitive_breakdown(
      study.world(), study.sensitive_catalog(), study.dataset(), study.outcomes());

  std::vector<util::Bar> bars;
  for (const auto& category : breakdown.categories) {
    bars.push_back({category.category,
                    util::percent(static_cast<double>(category.flows),
                                  static_cast<double>(breakdown.sensitive_flows)),
                    std::to_string(category.publishers) + " domains"});
  }
  std::printf("%s", util::render_bars(bars, 40).c_str());

  std::printf("\nsensitive publishers detected: %zu of %s inspected\n",
              study.sensitive_catalog().detected.size(),
              util::fmt_count(study.sensitive_catalog().inspected_domains).c_str());
  std::printf("sensitive tracking flows: %s of %s total (%.2f%%)\n",
              util::fmt_count(breakdown.sensitive_flows).c_str(),
              util::fmt_count(breakdown.tracking_flows).c_str(),
              util::percent(static_cast<double>(breakdown.sensitive_flows),
                            static_cast<double>(breakdown.tracking_flows)));

  print_paper_note(
      "Fig. 9: 1,067 sensitive domains out of 5,698 inspected; 127K flows =\n"
      "2.89% of all tracking flows. Health leads at 38%, gambling 22%, sexual\n"
      "orientation ~11%, pregnancy ~11%, politics 9%, porn 7%, the rest <3%\n"
      "each. Reproduced shape: ~3% sensitive share with health and gambling on\n"
      "top in that order.");
}
