#include "analysis/flows.h"

#include <unordered_map>

#include "geo/country.h"
#include "util/contract.h"

namespace cbwt::analysis {

std::vector<Flow> tracking_flows(const world::World& world,
                                 const browser::ExtensionDataset& dataset,
                                 const std::vector<classify::Outcome>& outcomes) {
  std::vector<Flow> flows;
  flows.reserve(dataset.requests.size() / 2);
  for (std::size_t i = 0; i < dataset.requests.size(); ++i) {
    if (!classify::is_tracking(outcomes[i].method)) continue;
    const auto& request = dataset.requests[i];
    // The extension logs the user's country, never their IP (§3.1 ethics).
    Flow flow;
    flow.origin_country = world.users().at(request.user).country;
    flow.destination = request.server_ip;
    flow.weight = 1;
    flows.push_back(std::move(flow));
  }
  return flows;
}

std::vector<const geo::Country*> locate_destinations(const geoloc::GeoService& service,
                                                     geoloc::Tool tool,
                                                     std::span<const net::IpAddress> ips) {
  std::unordered_map<net::IpAddress, std::uint32_t> slot_of;
  std::vector<net::IpAddress> distinct;
  std::vector<std::uint32_t> slots;
  slots.reserve(ips.size());
  for (const auto& ip : ips) {
    const auto [it, inserted] =
        slot_of.try_emplace(ip, static_cast<std::uint32_t>(distinct.size()));
    if (inserted) distinct.push_back(ip);
    slots.push_back(it->second);
  }
  // Batch-measure up front: the same verdicts as on-demand lookups, but
  // sharded across the service's pool (the other tools are cheap lookups).
  if (tool == geoloc::Tool::ActiveIpmap) service.prefetch(distinct);
  std::vector<const geo::Country*> countries(distinct.size());
  for (std::size_t d = 0; d < distinct.size(); ++d) {
    const auto code = service.locate(distinct[d], tool);
    countries[d] = geo::find_country(code);
    CBWT_ENSURES(code.empty() || countries[d] != nullptr);
  }
  std::vector<const geo::Country*> located;
  located.reserve(ips.size());
  for (const auto slot : slots) located.push_back(countries[slot]);
  return located;
}

std::vector<Flow> flows_from_region(std::span<const Flow> flows, geo::Region region) {
  std::vector<Flow> out;
  for (const auto& flow : flows) {
    const auto origin_region = geo::region_of_code(flow.origin_country);
    if (origin_region && *origin_region == region) out.push_back(flow);
  }
  return out;
}

namespace {

/// Weighted confinement counts of a flow set, before the percentages.
struct ConfinementTally {
  std::uint64_t total = 0;
  std::uint64_t in_country = 0;
  std::uint64_t in_eu28 = 0;
  std::uint64_t in_continent = 0;

  void add(const geo::Country* origin, const geo::Country* destination,
           std::uint64_t weight) {
    total += weight;
    if (destination == nullptr) return;
    if (destination == origin) in_country += weight;
    if (destination->eu28) in_eu28 += weight;
    if (origin != nullptr && destination->continent == origin->continent) {
      in_continent += weight;
    }
  }

  [[nodiscard]] Confinement finish() const {
    Confinement result;
    result.total = total;
    if (total > 0) {
      const auto denominator = static_cast<double>(total);
      result.in_country = 100.0 * static_cast<double>(in_country) / denominator;
      result.in_eu28 = 100.0 * static_cast<double>(in_eu28) / denominator;
      result.in_continent = 100.0 * static_cast<double>(in_continent) / denominator;
    }
    return result;
  }
};

std::string country_key(const geo::Country* country) {
  return country == nullptr ? std::string("unknown") : std::string(country->code);
}

}  // namespace

FlowAnalyzer::FlowAnalyzer(const geoloc::GeoService& service, geoloc::Tool tool)
    : service_(&service), tool_(tool) {}

std::vector<const geo::Country*> FlowAnalyzer::locate(std::span<const Flow> flows) const {
  std::vector<net::IpAddress> ips;
  ips.reserve(flows.size());
  for (const auto& flow : flows) ips.push_back(flow.destination);
  return locate_destinations(*service_, tool_, ips);
}

RegionBreakdown FlowAnalyzer::destination_regions(std::span<const Flow> flows) const {
  const auto destinations = locate(flows);
  RegionBreakdown breakdown;
  std::map<geo::Region, std::uint64_t> weights;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (destinations[i] == nullptr) {
      breakdown.unknown += flows[i].weight;
      continue;
    }
    weights[geo::region_of(*destinations[i])] += flows[i].weight;
    breakdown.located += flows[i].weight;
  }
  for (const auto& [region, weight] : weights) {
    breakdown.share[region] =
        static_cast<double>(weight) / static_cast<double>(breakdown.located);
  }
  return breakdown;
}

std::map<std::string, std::map<std::string, std::uint64_t>> FlowAnalyzer::country_matrix(
    std::span<const Flow> flows) const {
  const auto destinations = locate(flows);
  std::map<std::string, std::map<std::string, std::uint64_t>> matrix;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    matrix[flows[i].origin_country][country_key(destinations[i])] += flows[i].weight;
  }
  return matrix;
}

std::map<std::string, std::map<std::string, std::uint64_t>> FlowAnalyzer::region_matrix(
    std::span<const Flow> flows) const {
  const auto destinations = locate(flows);
  std::map<std::string, std::map<std::string, std::uint64_t>> matrix;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto origin_region = geo::region_of_code(flows[i].origin_country);
    const std::string origin =
        origin_region ? std::string(geo::to_string(*origin_region)) : "unknown";
    const std::string destination =
        destinations[i] != nullptr
            ? std::string(geo::to_string(geo::region_of(*destinations[i])))
            : "unknown";
    matrix[origin][destination] += flows[i].weight;
  }
  return matrix;
}

Confinement FlowAnalyzer::confinement(std::span<const Flow> flows) const {
  const auto destinations = locate(flows);
  ConfinementTally tally;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    tally.add(geo::find_country(flows[i].origin_country), destinations[i], flows[i].weight);
  }
  return tally.finish();
}

std::map<std::string, Confinement> FlowAnalyzer::per_origin_confinement(
    std::span<const Flow> flows) const {
  const auto destinations = locate(flows);
  std::map<std::string, ConfinementTally> tallies;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    tallies[flows[i].origin_country].add(geo::find_country(flows[i].origin_country),
                                         destinations[i], flows[i].weight);
  }
  std::map<std::string, Confinement> out;
  for (const auto& [origin, tally] : tallies) out[origin] = tally.finish();
  return out;
}

std::map<std::string, double> FlowAnalyzer::destination_countries(
    std::span<const Flow> flows) const {
  const auto destinations = locate(flows);
  std::map<std::string, std::uint64_t> weights;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    weights[country_key(destinations[i])] += flows[i].weight;
    total += flows[i].weight;
  }
  std::map<std::string, double> shares;
  for (const auto& [country, weight] : weights) {
    shares[country] = total == 0 ? 0.0
                                 : static_cast<double>(weight) / static_cast<double>(total);
  }
  return shares;
}

}  // namespace cbwt::analysis
