#include "geo/location.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace cbwt::geo {

namespace {
constexpr double kEarthRadiusKm = 6371.0;
// Speed of light in fibre (2/3 of c), in km per millisecond.
constexpr double kFibreSpeedKmPerMs = 299.792458 * 2.0 / 3.0;

double radians(double degrees) noexcept { return degrees * std::numbers::pi / 180.0; }
}  // namespace

Site::Site(const LatLon& point) noexcept
    : location(point), cos_lat(std::cos(radians(point.lat))) {}

double distance_km(const Site& a, const Site& b) noexcept {
  const double dphi = radians(b.location.lat - a.location.lat);
  const double dlambda = radians(b.location.lon - a.location.lon);
  const double sin_dphi = std::sin(dphi / 2.0);
  const double sin_dlambda = std::sin(dlambda / 2.0);
  const double h = sin_dphi * sin_dphi + a.cos_lat * b.cos_lat * sin_dlambda * sin_dlambda;
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(h)));
}

double distance_km(const LatLon& a, const LatLon& b) noexcept {
  return distance_km(Site(a), Site(b));
}

double propagation_delay_ms(const Site& a, const Site& b, double path_stretch) noexcept {
  return distance_km(a, b) * path_stretch / kFibreSpeedKmPerMs;
}

double propagation_delay_ms(const LatLon& a, const LatLon& b, double path_stretch) noexcept {
  return propagation_delay_ms(Site(a), Site(b), path_stretch);
}

}  // namespace cbwt::geo
