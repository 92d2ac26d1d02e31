#include "geo/country.h"
#include "geo/location.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <set>
#include <vector>

#include "util/prng.h"

namespace cbwt::geo {
namespace {

TEST(Location, ZeroDistanceToSelf) {
  const LatLon berlin{52.5, 13.4};
  EXPECT_NEAR(distance_km(berlin, berlin), 0.0, 1e-9);
}

TEST(Location, KnownDistances) {
  const LatLon berlin{52.52, 13.40};
  const LatLon madrid{40.42, -3.70};
  const LatLon new_york{40.71, -74.01};
  // Great-circle references: Berlin-Madrid ~1870 km, Berlin-NYC ~6390 km.
  EXPECT_NEAR(distance_km(berlin, madrid), 1870.0, 40.0);
  EXPECT_NEAR(distance_km(berlin, new_york), 6390.0, 80.0);
}

TEST(Location, Symmetry) {
  const LatLon a{10.0, 20.0};
  const LatLon b{-30.0, 140.0};
  EXPECT_DOUBLE_EQ(distance_km(a, b), distance_km(b, a));
}

TEST(Location, AntipodalIsHalfCircumference) {
  const LatLon a{0.0, 0.0};
  const LatLon b{0.0, 180.0};
  EXPECT_NEAR(distance_km(a, b), 20015.0, 30.0);
}

TEST(Location, PropagationDelayScalesWithDistance) {
  const LatLon a{50.0, 8.0};
  const LatLon b{52.0, 5.0};
  const LatLon c{40.0, -74.0};
  EXPECT_LT(propagation_delay_ms(a, b), propagation_delay_ms(a, c));
  // 1000 km at 2/3 c with stretch 1.6 is ~8 ms one way.
  const LatLon x{0.0, 0.0};
  const LatLon y{0.0, 8.9932};  // ~1000 km on the equator
  EXPECT_NEAR(propagation_delay_ms(x, y), 8.0, 0.5);
}

/// The haversine as first written, both cosines taken per call: the
/// spec that distance_km over Sites must reproduce bit for bit.
double haversine_km(const LatLon& a, const LatLon& b) {
  const auto radians = [](double degrees) { return degrees * std::numbers::pi / 180.0; };
  const double phi1 = radians(a.lat);
  const double phi2 = radians(b.lat);
  const double dphi = radians(b.lat - a.lat);
  const double dlambda = radians(b.lon - a.lon);
  const double sin_dphi = std::sin(dphi / 2.0);
  const double sin_dlambda = std::sin(dlambda / 2.0);
  const double h =
      sin_dphi * sin_dphi + std::cos(phi1) * std::cos(phi2) * sin_dlambda * sin_dlambda;
  return 2.0 * 6371.0 * std::asin(std::min(1.0, std::sqrt(h)));
}

TEST(Location, SiteDistanceIsTheHaversineBitForBit) {
  std::vector<std::pair<LatLon, LatLon>> pairs = {
      {{90.0, 0.0}, {-90.0, 0.0}},      // pole to pole
      {{90.0, 10.0}, {90.0, -170.0}},   // one pole, two longitudes
      {{-90.0, 0.0}, {12.5, 40.0}},
      {{0.0, 0.0}, {0.0, 180.0}},       // antipodes on the equator
      {{45.0, 30.0}, {-45.0, -150.0}},  // antipodes off it
      {{52.52, 13.40}, {52.52, 13.40}}, // the same point
      {{0.0, -179.9}, {0.0, 179.9}},    // across the date line
  };
  util::Rng rng(0x6E0ULL);
  for (int i = 0; i < 20000; ++i) {
    pairs.push_back({{rng.next_double_in(-90.0, 90.0), rng.next_double_in(-180.0, 180.0)},
                     {rng.next_double_in(-90.0, 90.0), rng.next_double_in(-180.0, 180.0)}});
  }
  for (const auto& [a, b] : pairs) {
    const auto want = std::bit_cast<std::uint64_t>(haversine_km(a, b));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(distance_km(Site(a), Site(b))), want)
        << a.lat << "," << a.lon << " " << b.lat << "," << b.lon;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(distance_km(a, b)), want);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(propagation_delay_ms(Site(a), Site(b))),
              std::bit_cast<std::uint64_t>(propagation_delay_ms(a, b)));
  }
}

TEST(Countries, RegistryIsUsable) {
  EXPECT_GE(country_count(), 55U);
  EXPECT_EQ(all_countries().size(), country_count());
}

TEST(Countries, LookupKnownCodes) {
  const Country* de = find_country("DE");
  ASSERT_NE(de, nullptr);
  EXPECT_EQ(de->name, "Germany");
  EXPECT_TRUE(de->eu28);
  EXPECT_EQ(de->continent, Continent::Europe);
  EXPECT_EQ(find_country("XX"), nullptr);
  EXPECT_EQ(find_country(""), nullptr);
}

TEST(Countries, EU28HasTwentyEightMembers) {
  std::size_t members = 0;
  for (const auto& country : all_countries()) {
    if (country.eu28) ++members;
  }
  // The registry carries the 2018 EU28 (including the UK).
  EXPECT_EQ(members, 28U);
  EXPECT_TRUE(find_country("GB")->eu28);
  EXPECT_FALSE(find_country("CH")->eu28);
  EXPECT_FALSE(find_country("NO")->eu28);
  EXPECT_FALSE(find_country("RU")->eu28);
}

TEST(Countries, RegionPartition) {
  EXPECT_EQ(*region_of_code("DE"), Region::EU28);
  EXPECT_EQ(*region_of_code("CH"), Region::RestOfEurope);
  EXPECT_EQ(*region_of_code("US"), Region::NorthAmerica);
  EXPECT_EQ(*region_of_code("BR"), Region::SouthAmerica);
  EXPECT_EQ(*region_of_code("JP"), Region::Asia);
  EXPECT_EQ(*region_of_code("ZA"), Region::Africa);
  EXPECT_EQ(*region_of_code("AU"), Region::Oceania);
  EXPECT_FALSE(region_of_code("??").has_value());
}

TEST(Countries, ToStringNames) {
  EXPECT_EQ(to_string(Region::EU28), "EU 28");
  EXPECT_EQ(to_string(Region::RestOfEurope), "Rest of Europe");
  EXPECT_EQ(to_string(Continent::NorthAmerica), "N. America");
}

/// Registry-wide invariants, parameterized over every country.
class CountryInvariants : public ::testing::TestWithParam<Country> {};

TEST_P(CountryInvariants, FieldsAreSane) {
  const Country& country = GetParam();
  EXPECT_EQ(country.code.size(), 2U);
  EXPECT_FALSE(country.name.empty());
  EXPECT_GE(country.centroid.lat, -60.0);
  EXPECT_LE(country.centroid.lat, 72.0);
  EXPECT_GE(country.centroid.lon, -180.0);
  EXPECT_LE(country.centroid.lon, 180.0);
  EXPECT_GT(country.population_m, 0.0);
  EXPECT_GE(country.infra_density, 0.0);
  EXPECT_LE(country.infra_density, 100.0);
  EXPECT_GE(country.probe_share, 0.0);
}

TEST_P(CountryInvariants, EU28ImpliesEurope) {
  const Country& country = GetParam();
  if (country.eu28) {
    EXPECT_EQ(country.continent, Continent::Europe);
  }
}

TEST_P(CountryInvariants, RegionAgreesWithContinent) {
  const Country& country = GetParam();
  const Region region = region_of(country);
  if (country.continent != Continent::Europe) {
    EXPECT_NE(region, Region::EU28);
    EXPECT_NE(region, Region::RestOfEurope);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCountries, CountryInvariants,
                         ::testing::ValuesIn(all_countries().begin(),
                                             all_countries().end()),
                         [](const ::testing::TestParamInfo<Country>& info) {
                           return std::string(info.param.code);
                         });

TEST(Countries, CodesAreUnique) {
  std::set<std::string_view> codes;
  for (const auto& country : all_countries()) codes.insert(country.code);
  EXPECT_EQ(codes.size(), country_count());
}

TEST(Countries, ProbeShareIsEuropeHeavy) {
  double europe = 0.0;
  double total = 0.0;
  for (const auto& country : all_countries()) {
    total += country.probe_share;
    if (country.continent == Continent::Europe) europe += country.probe_share;
  }
  // RIPE Atlas reality: more than 45% of probes are European.
  EXPECT_GT(europe / total, 0.45);
}

}  // namespace
}  // namespace cbwt::geo
