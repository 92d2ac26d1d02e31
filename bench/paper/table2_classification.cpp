// Table 2: AdBlockPlus lists vs the semi-automatic classification —
// FQDN / registrable-domain ("TLD") / unique-request / total-request
// counts per stage.
#include "bench_common.h"

void cbwt::bench::table2_classification(core::Study& study, IspRuns&, Report& report) {
  print_title("Table 2: ABP lists vs semi-automatic third-party classification");

  const auto summary = classify::summarize(study.dataset(), study.outcomes());
  util::TextTable table({"", "# FQDN", "# TLD", "# Unique Requests", "# Total Requests"});
  const auto row = [&](const char* label, const classify::StageStats& stats) {
    table.add_row({label, util::fmt_count(stats.fqdns), util::fmt_count(stats.registrables),
                   util::fmt_count(stats.unique_urls),
                   util::fmt_count(stats.total_requests)});
  };
  row("AdBlockPlus Lists", summary.abp);
  row("Semi-automatic", summary.semi);
  row("Total", summary.total);
  std::printf("%s", table.render().c_str());

  std::printf("\nnon-tracking (NTF) requests: %s  (%.1f%% of all 3rd-party)\n",
              util::fmt_count(summary.untracked_requests).c_str(),
              util::percent(static_cast<double>(summary.untracked_requests),
                            static_cast<double>(summary.untracked_requests +
                                                summary.total.total_requests)));
  std::printf("semi-automatic gain over ABP-only: +%.1f%% tracking requests\n",
              util::percent(static_cast<double>(summary.semi.total_requests),
                            static_cast<double>(summary.abp.total_requests)));

  print_paper_note(
      "Table 2: ABP 6,259 FQDNs / 1,863 TLDs / 539,293 unique / 2,446,460 total;\n"
      "SEMI adds 3,620 FQDNs / 879 TLDs / 453,457 unique / 1,964,408 total\n"
      "(+80% requests over ABP-only). Reproduced shape: the second stage adds\n"
      "roughly as many tracking flows again as the lists alone.");

  report.emplace_back("abp_requests", static_cast<double>(summary.abp.total_requests));
  report.emplace_back("semi_requests", static_cast<double>(summary.semi.total_requests));
  report.emplace_back("untracked_requests",
                      static_cast<double>(summary.untracked_requests));
}
