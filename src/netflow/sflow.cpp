#include "netflow/sflow.h"

#include <cmath>

#include "net/domain.h"

namespace cbwt::netflow {

SflowExport generate_sflow_snapshot(const world::World& world,
                                    const dns::Resolver& resolver, const IspProfile& isp,
                                    const Snapshot& snapshot, const GeneratorConfig& traffic,
                                    const SflowConfig& config, util::Rng& rng) {
  SflowExport out;
  out.tracking_intended =
      static_cast<std::uint64_t>(std::llround(tracking_volume(isp, snapshot, traffic)));
  out.samples.reserve(out.tracking_intended + out.tracking_intended / 4);
  const TrafficMix mix(world, resolver, isp);

  const auto emit = [&](world::DomainId domain_id) {
    const auto answer = resolver.resolve(domain_id, mix.query_origin(rng), rng);
    SflowSample sample;
    sample.src = mix.subscriber_ip(rng);
    sample.dst = answer.ip;
    sample.src_port = static_cast<std::uint16_t>(32768 + rng.next_below(28000));
    sample.true_domain = domain_id;
    const bool https = rng.chance(traffic.https_share);
    sample.dst_port = https ? 443 : 80;
    const bool quic = https && rng.chance(traffic.quic_share);
    sample.protocol = quic ? 17 : 6;
    const double visible = !https ? config.host_visible_http
                                  : (quic ? config.host_visible_quic
                                          : config.host_visible_tls);
    if (rng.chance(visible)) sample.visible_host = world.domain(domain_id).fqdn;
    out.samples.push_back(std::move(sample));
  };

  for (std::uint64_t i = 0; i < out.tracking_intended; ++i) emit(mix.tracking_domain(rng));
  const std::uint64_t background = out.tracking_intended / 4;
  for (std::uint64_t i = 0; i < background && mix.has_clean(); ++i) {
    emit(mix.clean_domain(rng));
  }
  return out;
}

SflowComparison compare_matchers(const world::World& world, const SflowExport& exported,
                                 const std::vector<std::string>& tracking_registrables,
                                 const TrackerIpIndex& trackers) {
  SflowComparison comparison;
  for (const auto& sample : exported.samples) {
    const bool truly_tracking =
        world.org(world.domain(sample.true_domain).org).role !=
        world::OrgRole::CleanService;

    bool host_hit = false;
    if (!sample.visible_host.empty()) {
      const auto registrable = net::registrable_domain(sample.visible_host);
      for (const auto& candidate : tracking_registrables) {
        if (registrable == candidate) {
          host_hit = true;
          break;
        }
      }
    }
    const bool ip_hit = trackers.contains(sample.dst);

    if (truly_tracking) {
      ++comparison.tracking_samples;
      comparison.matched_by_host += host_hit ? 1 : 0;
      comparison.matched_by_ip += ip_hit ? 1 : 0;
      comparison.matched_by_either += (host_hit || ip_hit) ? 1 : 0;
    } else {
      comparison.false_host_matches += host_hit ? 1 : 0;
      comparison.false_ip_matches += ip_hit ? 1 : 0;
    }
  }
  return comparison;
}

}  // namespace cbwt::netflow
