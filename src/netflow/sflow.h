// sFlow-style sampled packet export — the alternative passive vantage
// the paper weighs and rejects (§2.3): sFlow captures truncated packet
// headers, so a hostname (TLS SNI / HTTP Host) is sometimes visible, but
// only when the sampler happens to catch the right packet, and not at
// all for encrypted-transport flows. The comparison harness shows why
// the paper's IP-level NetFlow join — fed by the browser-extension IP
// list — beats hostname matching on coverage.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dns/resolver.h"
#include "netflow/collector.h"
#include "netflow/generator.h"
#include "netflow/profile.h"
#include "util/prng.h"
#include "world/world.h"

namespace cbwt::netflow {

/// One sampled, truncated packet header.
struct SflowSample {
  net::IpAddress src;
  net::IpAddress dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 443;
  std::uint8_t protocol = 6;
  /// Hostname recovered from the captured bytes: the TLS SNI or the
  /// plaintext HTTP Host header. Empty when the sampled packet was not a
  /// handshake/header packet, or the transport hides it.
  std::string visible_host;
  /// Ground truth for scoring (never consulted by the matchers).
  world::DomainId true_domain = 0;
};

/// What the sampled packet exposes. Volume and port mix come from the
/// NetFlow GeneratorConfig, so both vantages sample the same traffic.
struct SflowConfig {
  /// Probability the sampler catches a packet exposing the hostname:
  /// high for plaintext HTTP (every request carries Host), moderate for
  /// TLS (only the ClientHello), low for QUIC (handshake largely hidden
  /// in 2017/18 gQUIC crypto).
  double host_visible_http = 0.95;
  double host_visible_tls = 0.45;
  double host_visible_quic = 0.08;
};

struct SflowExport {
  std::vector<SflowSample> samples;
  std::uint64_t tracking_intended = 0;
};

/// Emits one ISP-day of sFlow samples over the NetFlow generator's
/// traffic mix (TrafficMix) and volume: `traffic`'s tracking volume plus
/// a quarter as many background samples, with its port mix.
[[nodiscard]] SflowExport generate_sflow_snapshot(const world::World& world,
                                                  const dns::Resolver& resolver,
                                                  const IspProfile& isp,
                                                  const Snapshot& snapshot,
                                                  const GeneratorConfig& traffic,
                                                  const SflowConfig& config,
                                                  util::Rng& rng);

/// How each matching strategy did against the ground truth.
struct SflowComparison {
  std::uint64_t tracking_samples = 0;   ///< truly-tracking samples seen
  std::uint64_t matched_by_host = 0;    ///< hostname-suffix match hits
  std::uint64_t matched_by_ip = 0;      ///< IP-set join hits
  std::uint64_t matched_by_either = 0;
  std::uint64_t false_host_matches = 0; ///< non-tracking flagged by host
  std::uint64_t false_ip_matches = 0;

  [[nodiscard]] double host_recall() const noexcept {
    return tracking_samples == 0 ? 0.0
                                 : static_cast<double>(matched_by_host) /
                                       static_cast<double>(tracking_samples);
  }
  [[nodiscard]] double ip_recall() const noexcept {
    return tracking_samples == 0 ? 0.0
                                 : static_cast<double>(matched_by_ip) /
                                       static_cast<double>(tracking_samples);
  }
};

/// Scores hostname matching (against the tracking registrable-domain
/// list) vs IP matching (against `trackers`) on an sFlow export.
[[nodiscard]] SflowComparison compare_matchers(
    const world::World& world, const SflowExport& exported,
    const std::vector<std::string>& tracking_registrables,
    const TrackerIpIndex& trackers);

}  // namespace cbwt::netflow
