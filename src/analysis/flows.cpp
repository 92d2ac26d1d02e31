#include "analysis/flows.h"

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

std::vector<Flow> flows_from_region(std::span<const Flow> flows, geo::Region region) {
  std::vector<Flow> out;
  for (const auto& flow : flows) {
    const auto origin_region = geo::region_of_code(flow.origin_country);
    if (origin_region && *origin_region == region) out.push_back(flow);
  }
  return out;
}

FlowAnalyzer::FlowAnalyzer(const geoloc::GeoService& service, geoloc::Tool tool)
    : service_(&service), tool_(tool) {}

std::string FlowAnalyzer::locate(const net::IpAddress& ip) const {
  return service_->locate(ip, tool_);
}

void FlowAnalyzer::warm_cache(std::span<const Flow> flows) const {
  if (tool_ != geoloc::Tool::ActiveIpmap) return;  // other tools are cheap lookups
  std::vector<net::IpAddress> ips;
  ips.reserve(flows.size());
  for (const auto& flow : flows) ips.push_back(flow.destination);
  service_->prefetch(ips);
}

RegionBreakdown FlowAnalyzer::destination_regions(std::span<const Flow> flows) const {
  warm_cache(flows);
  RegionBreakdown breakdown;
  std::map<geo::Region, std::uint64_t> weights;
  for (const auto& flow : flows) {
    const auto region = service_->region(flow.destination, tool_);
    if (!region) {
      breakdown.unknown += flow.weight;
      continue;
    }
    weights[*region] += flow.weight;
    breakdown.located += flow.weight;
  }
  for (const auto& [region, weight] : weights) {
    breakdown.share[region] =
        static_cast<double>(weight) / static_cast<double>(breakdown.located);
  }
  return breakdown;
}

std::map<std::string, std::map<std::string, std::uint64_t>> FlowAnalyzer::country_matrix(
    std::span<const Flow> flows) const {
  warm_cache(flows);
  std::map<std::string, std::map<std::string, std::uint64_t>> matrix;
  for (const auto& flow : flows) {
    auto destination = locate(flow.destination);
    if (destination.empty()) destination = "unknown";
    matrix[flow.origin_country][destination] += flow.weight;
  }
  return matrix;
}

std::map<std::string, std::map<std::string, std::uint64_t>> FlowAnalyzer::region_matrix(
    std::span<const Flow> flows) const {
  warm_cache(flows);
  std::map<std::string, std::map<std::string, std::uint64_t>> matrix;
  for (const auto& flow : flows) {
    const auto origin_region = geo::region_of_code(flow.origin_country);
    const auto dest_region = service_->region(flow.destination, tool_);
    const std::string origin =
        origin_region ? std::string(geo::to_string(*origin_region)) : "unknown";
    const std::string destination =
        dest_region ? std::string(geo::to_string(*dest_region)) : "unknown";
    matrix[origin][destination] += flow.weight;
  }
  return matrix;
}

Confinement FlowAnalyzer::confinement(std::span<const Flow> flows) const {
  warm_cache(flows);
  Confinement result;
  std::uint64_t in_country = 0;
  std::uint64_t in_eu28 = 0;
  std::uint64_t in_continent = 0;
  for (const auto& flow : flows) {
    result.total += flow.weight;
    const auto destination = locate(flow.destination);
    if (destination.empty()) continue;
    if (destination == flow.origin_country) in_country += flow.weight;
    const geo::Country* dest = geo::find_country(destination);
    const geo::Country* origin = geo::find_country(flow.origin_country);
    if (dest != nullptr && dest->eu28) in_eu28 += flow.weight;
    if (dest != nullptr && origin != nullptr && dest->continent == origin->continent) {
      in_continent += flow.weight;
    }
  }
  if (result.total > 0) {
    const auto total = static_cast<double>(result.total);
    result.in_country = 100.0 * static_cast<double>(in_country) / total;
    result.in_eu28 = 100.0 * static_cast<double>(in_eu28) / total;
    result.in_continent = 100.0 * static_cast<double>(in_continent) / total;
  }
  return result;
}

std::map<std::string, Confinement> FlowAnalyzer::per_origin_confinement(
    std::span<const Flow> flows) const {
  std::map<std::string, std::vector<Flow>> by_origin;
  for (const auto& flow : flows) by_origin[flow.origin_country].push_back(flow);
  std::map<std::string, Confinement> out;
  for (const auto& [origin, subset] : by_origin) {
    out[origin] = confinement(subset);
  }
  return out;
}

std::map<std::string, double> FlowAnalyzer::destination_countries(
    std::span<const Flow> flows) const {
  warm_cache(flows);
  std::map<std::string, std::uint64_t> weights;
  std::uint64_t total = 0;
  for (const auto& flow : flows) {
    auto destination = locate(flow.destination);
    if (destination.empty()) destination = "unknown";
    weights[destination] += flow.weight;
    total += flow.weight;
  }
  std::map<std::string, double> shares;
  for (const auto& [country, weight] : weights) {
    shares[country] = total == 0 ? 0.0
                                 : static_cast<double>(weight) / static_cast<double>(total);
  }
  return shares;
}

}  // namespace cbwt::analysis
