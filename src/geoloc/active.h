// Active (RIPE-IPmap-style) geolocation: a global probe mesh measures
// RTT to the target; the lowest-RTT probes vote on the target's country
// and a majority decides. The mesh is Europe-dense like RIPE Atlas
// (5K+ of 11K probes in Europe), which is what makes the method reliable
// at country granularity for European infrastructure (§3.4).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "geo/country.h"
#include "geo/location.h"
#include "net/ip.h"
#include "util/prng.h"
#include "world/world.h"

namespace cbwt::geoloc {

struct Probe {
  std::string country;
  geo::LatLon location;
};

struct MeshConfig {
  std::uint32_t probes = 1100;  ///< scaled-down RIPE Atlas (11K in paper)
};

/// A deployed probe mesh (built once per study).
class ProbeMesh {
 public:
  ProbeMesh(MeshConfig config, util::Rng& rng);

  [[nodiscard]] const std::vector<Probe>& probes() const noexcept { return probes_; }
  /// Number of probes in a given country.
  [[nodiscard]] std::size_t count_in(std::string_view country) const;

 private:
  std::vector<Probe> probes_;
};

/// One geolocation verdict.
struct GeoEstimate {
  std::string country;          ///< majority country (empty = unlocatable)
  geo::Continent continent = geo::Continent::Europe;
  double country_agreement = 0; ///< share of voters backing the winner
  double min_rtt_ms = 0;
  std::uint32_t lost_probes = 0; ///< panel probes lost to injected faults
};

struct ActiveGeolocatorOptions {
  /// Probes per IP (paper: >100), the first third scouting the whole
  /// mesh. At least 3, from a mesh of at least 3 probes.
  std::uint32_t probes_per_measurement = 100;
  std::uint32_t voters = 12;                   ///< lowest-RTT probes that vote
  /// Probe-side access latency (min over repeated pings keeps this low).
  double last_mile_ms_min = 0.5;
  double last_mile_ms_max = 3.0;
  double queue_noise_rate = 2.0;               ///< exp-distributed queueing
  /// Votes are weighted by rtt^-vote_falloff: the probes closest to the
  /// target dominate, as in delay-based multilateration.
  double vote_falloff = 4.0;
  /// Minimum surviving panel for a verdict under fault injection: fewer
  /// than `quorum` responsive probes means the engine refuses to locate
  /// the IP (empty estimate). Only enforced when a live fault plan is
  /// passed to locate(), so the fault-free path is untouched.
  std::uint32_t quorum = 5;
  /// RTT penalty of a SlowResponse-faulted probe (congested path): the
  /// sample survives but drops down the low-RTT voter ranking.
  double slow_probe_penalty_ms = 150.0;
};

/// Measurement-driven geolocator over a World (the World provides the
/// hidden ground truth that RTTs are synthesized from; the estimator
/// itself never reads the true country).
///
/// The refinement round's probe weights depend only on which probe won
/// the scouting round (the focus). The first locate() that needs a focus
/// builds its refinement table, a cumulative-only util::DiscreteSampler,
/// and publishes it with one compare_exchange; later calls reuse it. The
/// table draws exactly as sample_discrete over the same weights, so every
/// verdict and every rng state is the same as without it. locate() is
/// safe from many threads on one geolocator.
class ActiveGeolocator {
 public:
  ActiveGeolocator(const world::World& world, const ProbeMesh& mesh,
                   ActiveGeolocatorOptions options = {});
  ~ActiveGeolocator();

  ActiveGeolocator(const ActiveGeolocator&) = delete;
  ActiveGeolocator& operator=(const ActiveGeolocator&) = delete;

  /// Locates a server IP. Unknown IPs (not in the world) return an empty
  /// estimate. Deterministic given the Rng.
  ///
  /// `fault_plan` (optional) subjects each panel slot to the
  /// `geoloc_probe` injection site: lost probes (Timeout/Error) are
  /// discarded from the voting set, slow probes are penalised down the
  /// RTT ranking, and a surviving panel below `quorum` yields an empty
  /// (unlocated) estimate. Probes are measured first and losses applied
  /// to the collected dataset, so the rng stream matches the fault-free
  /// run draw for draw and the surviving sample set at rate r is a
  /// superset of the one at any higher rate (nested-loss monotonicity,
  /// checked by tests/test_fault.cpp).
  [[nodiscard]] GeoEstimate locate(const net::IpAddress& ip, util::Rng& rng,
                                   const fault::FaultPlan* fault_plan = nullptr) const;

  /// Refinement tables built so far (at most one per mesh probe).
  [[nodiscard]] std::size_t refine_tables() const noexcept;

  /// The refinement weights around mesh probe `focus`: 1 / (km + 50)^2
  /// in each probe's distance from it. Its table draws as
  /// sample_discrete over these.
  [[nodiscard]] std::vector<double> refine_weights(std::size_t focus) const;

 private:
  [[nodiscard]] double measure_rtt(const geo::Site& probe, const geo::Site& target,
                                   util::Rng& rng) const;
  /// The refinement table of mesh probe `focus`, built on first use.
  [[nodiscard]] const util::DiscreteSampler& refine_table(std::size_t focus) const;

  const world::World* world_;
  const ProbeMesh* mesh_;
  ActiveGeolocatorOptions options_;
  /// Each mesh probe's location with its latitude's cosine, computed
  /// once for every refinement table and RTT that measures from it.
  std::vector<geo::Site> sites_;
  /// One slot per mesh probe: null until that focus's table is published
  /// by a single compare_exchange. Owned.
  std::unique_ptr<std::atomic<const util::DiscreteSampler*>[]> refine_tables_;
};

}  // namespace cbwt::geoloc
