#include "geoloc/active.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "fault/retry.h"
#include "util/contract.h"

namespace cbwt::geoloc {

ProbeMesh::ProbeMesh(MeshConfig config, util::Rng& rng) {
  const auto countries = geo::all_countries();
  std::vector<double> weights;
  weights.reserve(countries.size());
  for (const auto& country : countries) weights.push_back(country.probe_share);
  probes_.reserve(config.probes);
  for (std::uint32_t i = 0; i < config.probes; ++i) {
    const auto& country = countries[util::sample_discrete(rng, weights)];
    Probe probe;
    probe.country = std::string(country.code);
    // Probes scatter around the population centroid; the scatter must
    // stay inside national scale or small-country probes leak abroad.
    probe.location = {country.centroid.lat + rng.next_double_in(-0.7, 0.7),
                      country.centroid.lon + rng.next_double_in(-0.9, 0.9)};
    probes_.push_back(std::move(probe));
  }
}

std::size_t ProbeMesh::count_in(std::string_view country) const {
  return static_cast<std::size_t>(
      std::count_if(probes_.begin(), probes_.end(),
                    [&](const Probe& probe) { return probe.country == country; }));
}

ActiveGeolocator::ActiveGeolocator(const world::World& world, const ProbeMesh& mesh,
                                   ActiveGeolocatorOptions options)
    : world_(&world),
      mesh_(&mesh),
      options_(options),
      refine_tables_(std::make_unique<std::atomic<const util::DiscreteSampler*>[]>(
          mesh.probes().size())) {
  // A panel of three probes has one scout, whose probe is the focus the
  // refinement round samples around; a smaller panel has none.
  CBWT_EXPECTS(std::min<std::size_t>(options.probes_per_measurement, mesh.probes().size()) >=
               3);
  sites_.reserve(mesh.probes().size());
  for (const Probe& probe : mesh.probes()) sites_.emplace_back(probe.location);
}

ActiveGeolocator::~ActiveGeolocator() {
  for (std::size_t focus = 0; focus < mesh_->probes().size(); ++focus) {
    delete refine_tables_[focus].load();
  }
}

std::size_t ActiveGeolocator::refine_tables() const noexcept {
  std::size_t built = 0;
  for (std::size_t focus = 0; focus < mesh_->probes().size(); ++focus) {
    if (refine_tables_[focus].load(std::memory_order_acquire) != nullptr) ++built;
  }
  return built;
}

std::vector<double> ActiveGeolocator::refine_weights(std::size_t focus) const {
  const geo::Site& center = sites_[focus];
  std::vector<double> weights(sites_.size());
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    const double km = geo::distance_km(sites_[i], center);
    weights[i] = 1.0 / ((km + 50.0) * (km + 50.0));
  }
  return weights;
}

const util::DiscreteSampler& ActiveGeolocator::refine_table(std::size_t focus) const {
  std::atomic<const util::DiscreteSampler*>& entry = refine_tables_[focus];
  const util::DiscreteSampler* published = entry.load(std::memory_order_acquire);
  if (published != nullptr) return *published;
  auto built = std::make_unique<const util::DiscreteSampler>(
      util::DiscreteSampler::cumulative_only(refine_weights(focus)));
  if (entry.compare_exchange_strong(published, built.get(), std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
    return *built.release();
  }
  // Another thread published first; every build of a focus is identical,
  // so its table draws exactly as this one would.
  return *published;
}

double ActiveGeolocator::measure_rtt(const geo::Site& probe, const geo::Site& target,
                                     util::Rng& rng) const {
  const double propagation = 2.0 * geo::propagation_delay_ms(probe, target);
  const double last_mile =
      rng.next_double_in(options_.last_mile_ms_min, options_.last_mile_ms_max);
  const double queueing = rng.next_exponential(options_.queue_noise_rate);
  return propagation + last_mile + queueing;
}

GeoEstimate ActiveGeolocator::locate(const net::IpAddress& ip, util::Rng& rng,
                                     const fault::FaultPlan* fault_plan) const {
  const world::Server* server = world_->find_server(ip);
  if (server == nullptr) return {};
  const geo::Site target(world_->datacenter(server->datacenter).location);

  // Two measurement rounds, as the IPmap engine runs them: a worldwide
  // scouting panel first, then a panel concentrated around the scouting
  // round's lowest-RTT probe.
  const auto& probes = mesh_->probes();
  const std::size_t panel_size =
      std::min<std::size_t>(options_.probes_per_measurement, probes.size());
  const std::size_t scout_size = panel_size / 3;
  struct Sample {
    double rtt;
    const Probe* probe;
  };
  std::vector<Sample> samples;
  samples.reserve(panel_size);
  for (std::size_t i = 0; i < scout_size; ++i) {
    const auto index = static_cast<std::size_t>(rng.next_below(probes.size()));
    samples.push_back({measure_rtt(sites_[index], target, rng), &probes[index]});
  }
  const auto best_scout =
      std::min_element(samples.begin(), samples.end(),
                       [](const Sample& a, const Sample& b) { return a.rtt < b.rtt; });
  const auto focus = static_cast<std::size_t>(best_scout->probe - probes.data());
  // Refinement round: sample probes with weight falling off in distance
  // from the scouting winner, so the local neighbourhood is represented.
  const util::DiscreteSampler& refine = refine_table(focus);
  const auto weights = [&] { return refine_weights(focus); };
  for (std::size_t i = scout_size; i < panel_size; ++i) {
    const std::size_t index = refine.sample(rng, weights);
    samples.push_back({measure_rtt(sites_[index], target, rng), &probes[index]});
  }
  GeoEstimate estimate;
  const auto probe_site =
      fault::StageSite::resolve(fault_plan, fault::sites::kGeoProbe, /*registry=*/nullptr);
  if (probe_site.live()) {
    // Faults are applied to the *collected* dataset: every probe above
    // was measured exactly as in the fault-free run (same rng draws),
    // and the loss decision per panel slot is stateless, so the
    // surviving samples at a low loss rate are a superset of those at
    // any higher rate. Located-or-not then depends only on whether the
    // survivors clear the quorum — the nesting that makes the located
    // count monotone in the loss rate.
    std::size_t kept = 0;
    for (std::size_t slot = 0; slot < samples.size(); ++slot) {
      const fault::FaultKind kind =
          probe_site.decide(ip.hash(), static_cast<std::uint32_t>(slot));
      if (fault::is_loss(kind)) {
        ++estimate.lost_probes;
        continue;  // no response: the slot never enters the voting set
      }
      if (kind == fault::FaultKind::SlowResponse) {
        samples[slot].rtt += options_.slow_probe_penalty_ms;
      }
      samples[kept++] = samples[slot];
    }
    samples.resize(kept);
    if (samples.size() < options_.quorum) {
      return estimate;  // below quorum: refuse to locate, report the losses
    }
  }
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.rtt < b.rtt; });

  // The lowest-RTT probes vote with their own country; votes fall off
  // steeply with RTT so near probes dominate (delay-based location).
  const std::size_t voters = std::min<std::size_t>(options_.voters, samples.size());
  std::map<std::string, double> votes;
  std::map<std::string, std::size_t> headcount;
  for (std::size_t i = 0; i < voters; ++i) {
    const double weight =
        1.0 / std::pow(std::max(samples[i].rtt, 0.1), options_.vote_falloff);
    votes[samples[i].probe->country] += weight;
    ++headcount[samples[i].probe->country];
  }

  double best = 0.0;
  for (const auto& [country, weight] : votes) {
    if (weight > best) {
      best = weight;
      estimate.country = country;
    }
  }
  estimate.country_agreement =
      voters == 0 ? 0.0
                  : static_cast<double>(headcount[estimate.country]) /
                        static_cast<double>(voters);
  estimate.min_rtt_ms = samples.empty() ? 0.0 : samples.front().rtt;
  if (const geo::Country* country = geo::find_country(estimate.country)) {
    estimate.continent = country->continent;
  }
  return estimate;
}

}  // namespace cbwt::geoloc
