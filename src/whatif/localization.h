// "What-if" localization study (§5): how much tracking-flow confinement
// improves if tracker operators redirect DNS to alternative servers they
// already run (FQDN- or TLD-level), mirror PoPs across their cloud's
// footprint, or migrate to any public-cloud PoP. The study only uses
// alternatives *observed in the dataset* (for redirection) and the
// clouds' *published* footprints (for mirroring/migration), exactly as
// the paper does.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/flows.h"
#include "browser/extension.h"
#include "classify/classifier.h"
#include "geo/country.h"
#include "geoloc/service.h"

namespace cbwt::whatif {

enum class Scenario : std::uint8_t {
  Default,                   ///< what DNS actually did
  RedirectFqdn,              ///< redirect to any observed server of the same FQDN
  RedirectTld,               ///< ... of the same registrable domain
  PopMirroring,              ///< replicate onto the org's cloud footprint
  RedirectTldPlusMirroring,  ///< both of the above
  CloudMigration,            ///< move to any PoP of any of the nine clouds
};

[[nodiscard]] std::string_view to_string(Scenario scenario) noexcept;

/// Confinement of a scenario over the loaded flow set.
struct LocalizationResult {
  std::uint64_t total = 0;
  double in_country_pct = 0.0;
  double in_continent_pct = 0.0;
};

/// The per-flow and per-domain state the scenarios are evaluated on.
class LocalizationStudy {
 public:
  LocalizationStudy(const world::World& world, const geoloc::GeoService& service,
                    geoloc::Tool tool);

  /// Loads the classified tracking flows of EU28 users (Table 5 scope).
  void load(const browser::ExtensionDataset& dataset,
            const std::vector<classify::Outcome>& outcomes);

  [[nodiscard]] LocalizationResult evaluate(Scenario scenario) const;

  /// Per-origin-country in-country confinement under a scenario.
  [[nodiscard]] std::map<std::string, LocalizationResult> evaluate_per_country(
      Scenario scenario) const;

  /// Improvement (percentage points of in-country confinement) of
  /// `scenario` over `baseline`, per origin country (Table 6 columns).
  [[nodiscard]] std::map<std::string, double> improvement_per_country(
      Scenario baseline, Scenario scenario) const;

  [[nodiscard]] std::size_t flow_count() const noexcept { return flows_.size(); }

 private:
  /// A set of countries: bit i stands for geo::all_countries()[i].
  using CountryMask = std::uint64_t;
  /// StudyFlow::destination of a flow the tool could not locate.
  static constexpr std::uint8_t kUnlocated = 0xFF;

  struct StudyFlow {
    std::uint8_t origin = 0;                 ///< registry index of the user's country
    std::uint8_t destination = kUnlocated;   ///< registry index of the verdict
    world::DomainId domain = 0;
  };

  /// Where a world domain's alternative destinations are kept.
  struct DomainKeys {
    world::DomainId fqdn = 0;       ///< find_domain(fqdn)->id: one mask per FQDN
    std::uint32_t registrable = 0;  ///< slot in countries_by_registrable_
    CountryMask cloud = 0;          ///< the org's cloud footprint; 0 without a cloud
  };

  [[nodiscard]] bool scenario_confines_to_country(const StudyFlow& flow,
                                                  Scenario scenario) const;
  [[nodiscard]] bool scenario_confines_to_continent(const StudyFlow& flow,
                                                    Scenario scenario) const;
  /// Candidate destination countries a scenario may redirect a flow to
  /// (for RedirectTldPlusMirroring, the registrable's and the cloud's).
  [[nodiscard]] CountryMask alternatives(const StudyFlow& flow, Scenario scenario) const;

  const world::World* world_;
  const geoloc::GeoService* service_;
  geoloc::Tool tool_;

  std::vector<StudyFlow> flows_;
  /// Per world domain id; fixed by the world.
  std::vector<DomainKeys> domain_keys_;
  /// Countries of each continent, indexed by geo::Continent.
  std::array<CountryMask, static_cast<std::size_t>(geo::Continent::Oceania) + 1>
      continent_countries_{};
  /// Observed destination countries per FQDN (indexed by DomainKeys::fqdn)
  /// and per registrable domain (by DomainKeys::registrable).
  std::vector<CountryMask> countries_by_fqdn_;
  std::vector<CountryMask> countries_by_registrable_;
  /// Published footprint of every cloud.
  CountryMask all_cloud_countries_ = 0;
};

}  // namespace cbwt::whatif
