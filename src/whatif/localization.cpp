#include "whatif/localization.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "util/contract.h"

namespace cbwt::whatif {

namespace {

std::uint8_t country_index(const geo::Country& country) {
  return static_cast<std::uint8_t>(&country - geo::all_countries().data());
}

std::uint64_t country_bit(std::uint8_t index) { return std::uint64_t{1} << index; }

}  // namespace

std::string_view to_string(Scenario scenario) noexcept {
  switch (scenario) {
    case Scenario::Default: return "Default";
    case Scenario::RedirectFqdn: return "Redirections (FQDN)";
    case Scenario::RedirectTld: return "Redirections (TLD)";
    case Scenario::PopMirroring: return "POP Mirroring (Cloud)";
    case Scenario::RedirectTldPlusMirroring: return "Redirection (TLD) + POP Mirroring";
    case Scenario::CloudMigration: return "Migration to Cloud";
  }
  return "?";
}

LocalizationStudy::LocalizationStudy(const world::World& world,
                                     const geoloc::GeoService& service, geoloc::Tool tool)
    : world_(&world), service_(&service), tool_(tool) {
  const auto countries = geo::all_countries();
  CBWT_EXPECTS(countries.size() <= 64);  // every country set fits one CountryMask
  for (const auto& country : countries) {
    continent_countries_.at(static_cast<std::size_t>(country.continent)) |=
        country_bit(country_index(country));
  }
  // Published cloud footprints (country level, as the providers advertise).
  std::vector<CountryMask> cloud_countries(world.clouds().size());
  for (const auto& cloud : world.clouds()) {
    for (const auto pop : cloud.pops) {
      const geo::Country* country = geo::find_country(world.datacenter(pop).country);
      CBWT_ASSERT(country != nullptr);
      cloud_countries.at(cloud.id) |= country_bit(country_index(*country));
    }
    all_cloud_countries_ |= cloud_countries.at(cloud.id);
  }
  std::unordered_map<std::string_view, std::uint32_t> registrable_slots;
  domain_keys_.reserve(world.domains().size());
  for (const auto& domain : world.domains()) {
    DomainKeys keys;
    keys.fqdn = world.find_domain(domain.fqdn)->id;
    keys.registrable =
        registrable_slots
            .try_emplace(domain.registrable, static_cast<std::uint32_t>(registrable_slots.size()))
            .first->second;
    const auto cloud = world.org(domain.org).cloud;
    if (cloud != world::kNoCloud) keys.cloud = cloud_countries.at(cloud);
    domain_keys_.push_back(keys);
  }
  countries_by_registrable_.resize(registrable_slots.size());
}

void LocalizationStudy::load(const browser::ExtensionDataset& dataset,
                             const std::vector<classify::Outcome>& outcomes) {
  // Table 5 scope: EU28 users. Each user's country is looked up once.
  constexpr std::uint8_t kOutOfScope = kUnlocated;
  std::vector<std::uint8_t> origin_of_user;
  origin_of_user.reserve(world_->users().size());
  for (const auto& user : world_->users()) {
    const geo::Country* origin = geo::find_country(user.country);
    origin_of_user.push_back(origin != nullptr && origin->eu28 ? country_index(*origin)
                                                               : kOutOfScope);
  }

  flows_.clear();
  std::vector<net::IpAddress> destinations;
  for (std::size_t i = 0; i < dataset.requests.size(); ++i) {
    if (!classify::is_tracking(outcomes[i].method)) continue;
    const auto& request = dataset.requests[i];
    const std::uint8_t origin = origin_of_user.at(request.user);
    if (origin == kOutOfScope) continue;
    flows_.push_back({origin, kUnlocated, request.domain});
    destinations.push_back(request.server_ip);
  }

  // Record each located flow's destination as an observed alternative
  // server location for its FQDN and its registrable domain.
  countries_by_fqdn_.assign(domain_keys_.size(), 0);
  std::fill(countries_by_registrable_.begin(), countries_by_registrable_.end(), 0);
  const auto located = analysis::locate_destinations(*service_, tool_, destinations);
  for (std::size_t k = 0; k < flows_.size(); ++k) {
    if (located[k] == nullptr) continue;
    auto& flow = flows_[k];
    flow.destination = country_index(*located[k]);
    const auto& keys = domain_keys_.at(flow.domain);
    countries_by_fqdn_[keys.fqdn] |= country_bit(flow.destination);
    countries_by_registrable_[keys.registrable] |= country_bit(flow.destination);
  }
}

LocalizationStudy::CountryMask LocalizationStudy::alternatives(const StudyFlow& flow,
                                                               Scenario scenario) const {
  const auto& keys = domain_keys_[flow.domain];
  switch (scenario) {
    case Scenario::Default:
      return 0;
    case Scenario::RedirectFqdn:
      return countries_by_fqdn_[keys.fqdn];
    case Scenario::RedirectTld:
      return countries_by_registrable_[keys.registrable];
    case Scenario::PopMirroring:
      return keys.cloud;
    case Scenario::RedirectTldPlusMirroring:
      // The org's cloud footprint on top of TLD redirection.
      return countries_by_registrable_[keys.registrable] | keys.cloud;
    case Scenario::CloudMigration:
      return all_cloud_countries_;
  }
  return 0;
}

bool LocalizationStudy::scenario_confines_to_country(const StudyFlow& flow,
                                                     Scenario scenario) const {
  if (flow.destination == flow.origin) return true;
  return (alternatives(flow, scenario) & country_bit(flow.origin)) != 0;
}

bool LocalizationStudy::scenario_confines_to_continent(const StudyFlow& flow,
                                                       Scenario scenario) const {
  const CountryMask continent =
      continent_countries_[static_cast<std::size_t>(geo::all_countries()[flow.origin].continent)];
  if (flow.destination != kUnlocated && (continent & country_bit(flow.destination)) != 0) {
    return true;
  }
  return (alternatives(flow, scenario) & continent) != 0;
}

LocalizationResult LocalizationStudy::evaluate(Scenario scenario) const {
  LocalizationResult result;
  std::uint64_t in_country = 0;
  std::uint64_t in_continent = 0;
  for (const auto& flow : flows_) {
    ++result.total;
    if (scenario_confines_to_country(flow, scenario)) ++in_country;
    if (scenario_confines_to_continent(flow, scenario)) ++in_continent;
  }
  if (result.total > 0) {
    result.in_country_pct =
        100.0 * static_cast<double>(in_country) / static_cast<double>(result.total);
    result.in_continent_pct =
        100.0 * static_cast<double>(in_continent) / static_cast<double>(result.total);
  }
  return result;
}

std::map<std::string, LocalizationResult> LocalizationStudy::evaluate_per_country(
    Scenario scenario) const {
  struct Tally {
    std::uint64_t total = 0;
    std::uint64_t in_country = 0;
    std::uint64_t in_continent = 0;
  };
  std::vector<Tally> tallies(geo::all_countries().size());
  for (const auto& flow : flows_) {
    auto& tally = tallies[flow.origin];
    ++tally.total;
    if (scenario_confines_to_country(flow, scenario)) ++tally.in_country;
    if (scenario_confines_to_continent(flow, scenario)) ++tally.in_continent;
  }
  std::map<std::string, LocalizationResult> out;
  for (std::size_t origin = 0; origin < tallies.size(); ++origin) {
    const auto& tally = tallies[origin];
    if (tally.total == 0) continue;
    LocalizationResult result;
    result.total = tally.total;
    result.in_country_pct =
        100.0 * static_cast<double>(tally.in_country) / static_cast<double>(tally.total);
    result.in_continent_pct =
        100.0 * static_cast<double>(tally.in_continent) / static_cast<double>(tally.total);
    out[std::string(geo::all_countries()[origin].code)] = result;
  }
  return out;
}

std::map<std::string, double> LocalizationStudy::improvement_per_country(
    Scenario baseline, Scenario scenario) const {
  const auto base = evaluate_per_country(baseline);
  const auto improved = evaluate_per_country(scenario);
  std::map<std::string, double> out;
  for (const auto& [country, result] : improved) {
    const auto it = base.find(country);
    const double baseline_pct = it == base.end() ? 0.0 : it->second.in_country_pct;
    out[country] = result.in_country_pct - baseline_pct;
  }
  return out;
}

}  // namespace cbwt::whatif
