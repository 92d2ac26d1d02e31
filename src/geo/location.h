// Geographic primitives: latitude/longitude pairs and great-circle
// distance. The active-geolocation RTT model and the geo-DNS policies
// both run on these.
#pragma once

#include <compare>

namespace cbwt::geo {

/// A point on the globe in decimal degrees.
struct LatLon {
  double lat = 0.0;
  double lon = 0.0;

  friend constexpr auto operator<=>(const LatLon&, const LatLon&) noexcept = default;
};

/// A point with the cosine of its latitude, the one term of the
/// haversine formula that depends on a single endpoint. A point that
/// many distances are measured from (a probe, a measured target) is
/// made a Site once, and every distance from it skips that cosine.
struct Site {
  explicit Site(const LatLon& point) noexcept;

  LatLon location;
  double cos_lat = 1.0;
};

/// Great-circle (haversine) distance in kilometres.
[[nodiscard]] double distance_km(const Site& a, const Site& b) noexcept;
/// As above; the same operations in the same order, so the same bits.
[[nodiscard]] double distance_km(const LatLon& a, const LatLon& b) noexcept;

/// One-way propagation delay in milliseconds for light in fibre
/// (~2/3 c) along the great circle, with a path-stretch factor to model
/// that real routes are not geodesics.
[[nodiscard]] double propagation_delay_ms(const Site& a, const Site& b,
                                          double path_stretch = 1.6) noexcept;
[[nodiscard]] double propagation_delay_ms(const LatLon& a, const LatLon& b,
                                          double path_stretch = 1.6) noexcept;

}  // namespace cbwt::geo
