// Border-crossing analysis of tracking flows (§4): aggregates flows by
// origin country / destination location under a chosen geolocation tool,
// computes confinement at national, EU28 and continent level, and builds
// the origin->destination matrices behind the paper's Sankey diagrams.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "browser/extension.h"
#include "classify/classifier.h"
#include "geoloc/service.h"

namespace cbwt::analysis {

/// A (possibly aggregated) tracking flow: origin user country ->
/// destination server IP, with a request-count weight.
struct Flow {
  std::string origin_country;
  net::IpAddress destination;
  std::uint64_t weight = 1;
};

/// Extracts the classified tracking flows from an extension dataset
/// (the world maps each request's user to their country).
[[nodiscard]] std::vector<Flow> tracking_flows(const world::World& world,
                                               const browser::ExtensionDataset& dataset,
                                               const std::vector<classify::Outcome>& outcomes);

/// The one geolocation step of the analysis tail: locates `ips[i]` for
/// every i under `tool`, looking each distinct IP up once. The distinct
/// IPs (in first-appearance order) are prefetched together for the
/// active tool, then located one by one. Entry i is the registry country
/// of ips[i], nullptr when the tool cannot locate it; a non-empty
/// verdict that is not a registry code is a contract failure.
[[nodiscard]] std::vector<const geo::Country*> locate_destinations(
    const geoloc::GeoService& service, geoloc::Tool tool,
    std::span<const net::IpAddress> ips);

/// Keeps only flows originating in `region`.
[[nodiscard]] std::vector<Flow> flows_from_region(std::span<const Flow> flows,
                                                  geo::Region region);

/// Weighted destination-region shares (Fig. 6 / Fig. 7 slices).
struct RegionBreakdown {
  std::map<geo::Region, double> share;      ///< sums to ~1 over located flows
  std::uint64_t located = 0;                ///< weight with a known location
  std::uint64_t unknown = 0;                ///< weight that failed to geolocate
};

/// Confinement percentages for a flow set (paper's headline metrics).
struct Confinement {
  std::uint64_t total = 0;
  double in_country = 0.0;     ///< % terminating in the origin country
  double in_eu28 = 0.0;        ///< % terminating inside EU28
  double in_continent = 0.0;   ///< % terminating on the origin's continent
};

/// Analyzer bound to one geolocation tool; swapping the tool is exactly
/// the paper's Fig. 7(a)-vs-7(b) experiment.
class FlowAnalyzer {
 public:
  FlowAnalyzer(const geoloc::GeoService& service, geoloc::Tool tool);

  [[nodiscard]] RegionBreakdown destination_regions(std::span<const Flow> flows) const;

  /// origin country -> destination country -> weight (Fig. 8 matrix).
  [[nodiscard]] std::map<std::string, std::map<std::string, std::uint64_t>>
  country_matrix(std::span<const Flow> flows) const;

  /// origin region -> destination region -> weight (Fig. 6 matrix).
  [[nodiscard]] std::map<std::string, std::map<std::string, std::uint64_t>>
  region_matrix(std::span<const Flow> flows) const;

  [[nodiscard]] Confinement confinement(std::span<const Flow> flows) const;

  /// Per-origin-country confinement (Fig. 8 / Fig. 11 rows).
  [[nodiscard]] std::map<std::string, Confinement> per_origin_confinement(
      std::span<const Flow> flows) const;

  /// Weighted destination-country shares of a flow set (Fig. 12 slices).
  [[nodiscard]] std::map<std::string, double> destination_countries(
      std::span<const Flow> flows) const;

  [[nodiscard]] geoloc::Tool tool() const noexcept { return tool_; }

 private:
  /// Each flow's destination country (nullptr when unlocated), every
  /// distinct destination located once (locate_destinations).
  [[nodiscard]] std::vector<const geo::Country*> locate(std::span<const Flow> flows) const;

  const geoloc::GeoService* service_;
  geoloc::Tool tool_;
};

}  // namespace cbwt::analysis
