#include "world/world.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "world/names.h"
#include "world/topics.h"

namespace cbwt::world {

namespace {

using util::Rng;

// ---------------------------------------------------------------------
// Static calibration tables.
// ---------------------------------------------------------------------

/// Extension-user country mix (weights). Mirrors the paper's recruitment:
/// EU28-heavy (Spain, UK, Germany, ... ~52%), a South American cluster
/// (~25%), small tails elsewhere.
struct UserMixEntry {
  std::string_view country;
  double weight;
};
constexpr std::array<UserMixEntry, 30> kUserMix = {{
    // EU28 (183/350)
    {"ES", 55}, {"GB", 30}, {"DE", 25}, {"IT", 15}, {"GR", 12}, {"PL", 10},
    {"RO", 8},  {"DK", 6},  {"BE", 6},  {"HU", 6},  {"CY", 5},  {"BG", 5},
    // South America (86/350)
    {"BR", 60}, {"AR", 20}, {"CO", 6},
    // Rest of Europe (23/350)
    {"RU", 10}, {"CH", 8},  {"RS", 3},  {"MD", 2},
    // Africa (22/350)
    {"ZA", 8},  {"TN", 5},  {"EG", 5},  {"NG", 4},
    // Asia (20/350)
    {"JP", 5},  {"IN", 5},  {"SG", 4},  {"MY", 3},  {"TH", 3},
    // North America (16/350)
    {"US", 14}, {"CA", 2},
}};

/// Cloud-provider footprints: country sets chosen so the what-if study
/// has the paper's structure (clouds present in DK/GR/RO/HU/AT but not
/// in CY/MT; US + the European hosting magnets everywhere).
struct CloudSpec {
  std::string_view name;
  std::array<std::string_view, 14> countries;  // ""-padded
};
constexpr std::array<CloudSpec, 9> kClouds = {{
    {"nimbus", {"US", "DE", "IE", "NL", "GB", "FR", "SG", "JP", "AU", "BR", "IN", "SE", "ES", "IT"}},
    {"stratocloud", {"US", "DE", "NL", "GB", "FR", "IE", "SG", "JP", "KR", "CA", "IT", "PL", "", ""}},
    {"cumulonet", {"US", "DE", "NL", "GB", "FR", "FI", "BE", "AT", "DK", "CH", "SG", "HK", "BR", ""}},
    {"altostrat", {"US", "DE", "NL", "FR", "GB", "RO", "", "", "", "", "", "", "", ""}},
    {"cirrushost", {"US", "NL", "DE", "GR", "IT", "ES", "", "", "", "", "", "", "", ""}},
    {"vaporgrid", {"US", "DE", "GB", "SE", "NO", "FI", "DK", "", "", "", "", "", "", ""}},
    {"skyforge", {"US", "NL", "", "", "", "", "", "", "", "", "", "", "", ""}},
    {"cloudnine", {"US", "DE", "HU", "CZ", "AT", "", "", "", "", "", "", "", "", ""}},
    {"fogbank", {"US", "GB", "FR", "PT", "PL", "", "", "", "", "", "", "", "", ""}},
}};

/// Per-country weight for tracker PoP placement: hosting magnets attract
/// deployments super-linearly in their infrastructure density.
double placement_weight(const geo::Country& country, double bias) {
  return std::pow(std::max(country.infra_density, 0.0), bias);
}

geo::LatLon jitter(Rng& rng, const geo::LatLon& base, double degrees) {
  return {base.lat + rng.next_double_in(-degrees, degrees),
          base.lon + rng.next_double_in(-degrees, degrees)};
}

}  // namespace

namespace detail {

using util::Rng;

// ---------------------------------------------------------------------
// Build phases. Each phase only appends to the world and uses a forked
// RNG so later phases do not perturb earlier ones when knobs change.
// ---------------------------------------------------------------------

class Builder {
 public:
  Builder(World& world, const WorldConfig& config) : w_(world), config_(config) {}

  void run() {
    Rng root(config_.seed);
    auto rng_infra = root.fork(1);
    auto rng_orgs = root.fork(2);
    auto rng_pubs = root.fork(3);
    auto rng_users = root.fork(4);
    build_infrastructure(rng_infra);
    build_organizations(rng_orgs);
    build_exchanges(rng_orgs);
    build_publishers(rng_pubs);
    build_users(rng_users);
    build_indices();
  }

 private:
  void add_datacenter(Rng& rng, const geo::Country& country, CloudId cloud,
                      std::string_view owner) {
    Datacenter dc;
    dc.id = static_cast<DatacenterId>(w_.datacenters_.size());
    dc.country = std::string(country.code);
    dc.cloud = cloud;
    dc.location = jitter(rng, country.centroid, 0.6);
    dc.name = make_datacenter_name(country.code, dc.id, owner);
    dc.prefix = w_.addresses_.allocate_server_v4(22);
    w_.datacenters_.push_back(std::move(dc));
    pop_weights_.push_back(placement_weight(country, config_.placement_bias));
    if (cloud != kNoCloud) w_.clouds_[cloud].pops.push_back(w_.datacenters_.back().id);
  }

  void build_infrastructure(Rng& rng) {
    // Cloud PoPs first (paper: nine public clouds with published maps).
    const auto cloud_count =
        std::min<std::size_t>(config_.cloud_providers, kClouds.size());
    for (std::size_t i = 0; i < cloud_count; ++i) {
      CloudProvider provider;
      provider.id = static_cast<CloudId>(i);
      provider.name = std::string(kClouds[i].name);
      w_.clouds_.push_back(std::move(provider));
    }
    for (std::size_t i = 0; i < cloud_count; ++i) {
      for (const auto code : kClouds[i].countries) {
        if (code.empty()) continue;
        const geo::Country* country = geo::find_country(code);
        if (country == nullptr) throw std::logic_error("unknown cloud country");
        add_datacenter(rng, *country, static_cast<CloudId>(i), kClouds[i].name);
      }
    }
    // Eyeball (end-user access) space: one block per country, so the
    // geolocation emulators and the NetFlow generator can address it.
    for (const auto& country : geo::all_countries()) {
      (void)w_.addresses_.eyeball_block(std::string(country.code));
    }
    // Independent colos: density-driven, with the paper's floor that
    // every EU28 country has at least one datacenter.
    for (const auto& country : geo::all_countries()) {
      auto colos = static_cast<std::uint32_t>(
          std::lround(country.infra_density * config_.datacenters_per_density * 0.4));
      if (country.eu28 && colos == 0) colos = 1;
      for (std::uint32_t i = 0; i < colos; ++i) {
        add_datacenter(rng, country, kNoCloud, "colo");
      }
    }
  }

  /// Picks `count` deployment datacenters for an org, weighted towards
  /// hosting magnets, preferring distinct countries.
  [[nodiscard]] std::vector<DatacenterId> pick_pops(Rng& rng,
                                                    const std::vector<DatacenterId>& pool,
                                                    std::size_t count) const {
    std::vector<DatacenterId> chosen;
    std::vector<double> adjusted(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) adjusted[i] = pop_weights_[pool[i]];
    for (std::size_t n = 0; n < count && n < pool.size() * 2; ++n) {
      const std::size_t idx = util::sample_discrete(rng, adjusted);
      if (adjusted[idx] <= 0.0) break;
      const DatacenterId pick = pool[idx];
      chosen.push_back(pick);
      if (chosen.size() >= count) break;
      // Damp the picked country's other sites to spread PoPs out, and
      // never pick the same site twice.
      const std::string& country = w_.datacenters_[pick].country;
      const bool first_in_country = std::none_of(
          chosen.begin(), chosen.end() - 1,
          [&](DatacenterId dc) { return w_.datacenters_[dc].country == country; });
      for (std::size_t i = 0; i < pool.size(); ++i) {
        if (pool[i] == pick) {
          adjusted[i] = 0.0;
        } else if (first_in_country && adjusted[i] > 0.0 &&
                   w_.datacenters_[pool[i]].country == country) {
          adjusted[i] = pop_weights_[pool[i]] * 0.30;
        }
      }
    }
    return chosen;
  }

  [[nodiscard]] std::vector<DatacenterId> pops_in_country(std::string_view code) const {
    std::vector<DatacenterId> out;
    for (const auto& dc : w_.datacenters_) {
      if (dc.country == code) out.push_back(dc.id);
    }
    return out;
  }

  ServerId add_server(Rng& rng, OrgId org, DatacenterId dc_id) {
    Server server;
    server.id = static_cast<ServerId>(w_.servers_.size());
    server.org = org;
    server.datacenter = dc_id;
    auto& cursor = server_cursor_[dc_id];
    ++cursor;
    if (rng.chance(config_.ipv6_share)) {
      // Give the v6 tail a distinct block derived from the DC prefix.
      server.ip = net::IpAddress::v6(0x2A01'0000'0000'0000ULL +
                                         (static_cast<std::uint64_t>(dc_id) << 16),
                                     cursor);
    } else {
      server.ip = w_.datacenters_[dc_id].prefix.at(cursor);
    }
    w_.servers_.push_back(server);
    w_.orgs_[org].servers.push_back(server.id);
    return server.id;
  }

  /// Creates the org's FQDNs and distributes them over its deployments.
  void add_domains(Rng& rng, Organization& org, std::size_t fqdn_count,
                   double list_coverage, double keyword_share) {
    const std::string registrable = org.name + "." + make_domain_suffix(rng);
    std::string second_registrable;
    if (org.role == OrgRole::AdNetwork && rng.chance(0.25)) {
      // Some ad networks run a sibling brand (doubleclick-style).
      second_registrable = org.name + "-media." + make_domain_suffix(rng);
    }
    for (std::uint32_t i = 0; i < fqdn_count; ++i) {
      TrackerDomain domain;
      domain.id = static_cast<DomainId>(w_.domains_.size());
      domain.org = org.id;
      domain.registrable = (!second_registrable.empty() && i + 1 == fqdn_count)
                               ? second_registrable
                               : registrable;
      domain.fqdn = make_host_label(rng, org.role, i) + "." + domain.registrable;
      const bool listed = rng.chance(list_coverage);
      if (org.role == OrgRole::Analytics) {
        domain.in_easyprivacy = listed;
      } else if (org.role != OrgRole::CleanService) {
        domain.in_easylist = listed;
      }
      domain.keyword_urls = rng.chance(keyword_share);
      // Deployment per FQDN: entry-layer (ad network / analytics) primary
      // FQDNs answer from every org deployment; chained-layer primaries
      // answer from ~70% of them, secondary FQDNs from random subsets.
      // Per-FQDN partial deployment is why TLD-level DNS redirection has
      // more alternatives than FQDN-level redirection (Table 5), and a
      // home-country server is always kept when one exists (local
      // operators serve their home market from every brand).
      const bool entry_role =
          org.role == OrgRole::AdNetwork || org.role == OrgRole::Analytics;
      if (org.servers.size() <= 1 || (i == 0 && entry_role)) {
        domain.servers = org.servers;
      } else {
        std::size_t take;
        if (i == 0) {
          take = std::max<std::size_t>(
              1, static_cast<std::size_t>(
                     std::lround(0.7 * static_cast<double>(org.servers.size()))));
        } else {
          take = 1 + static_cast<std::size_t>(rng.next_below(org.servers.size()));
        }
        std::vector<ServerId> pool = org.servers;
        rng.shuffle(std::span<ServerId>(pool));
        pool.resize(take);
        // Keep a home-market server reachable under this FQDN if the org
        // has one at all.
        const auto at_home = [&](ServerId sid) {
          return w_.datacenters_[w_.servers_[sid].datacenter].country ==
                 org.hq_country;
        };
        const bool subset_has_home = std::any_of(pool.begin(), pool.end(), at_home);
        if (!subset_has_home) {
          const auto home_it =
              std::find_if(org.servers.begin(), org.servers.end(), at_home);
          if (home_it != org.servers.end()) pool.push_back(*home_it);
        }
        domain.servers = std::move(pool);
      }
      org.domains.push_back(domain.id);
      w_.domains_.push_back(std::move(domain));
    }
  }

  void make_orgs_for_role(Rng& rng, OrgRole role, std::uint32_t count, double zipf_s) {
    const auto zipf = util::zipf_masses(count, zipf_s);
    for (std::uint32_t i = 0; i < count; ++i) {
      Organization org;
      org.id = static_cast<OrgId>(w_.orgs_.size());
      org.role = role;
      org.name = make_org_name(rng, role, org.id);
      org.popularity = zipf[i];

      // The market leaders all run European PoPs (the paper's Googles and
      // Facebooks); US-only deployments live in the mid/long tail.
      const bool top_quartile = i < count / 4;
      // The chained ad-tech layer (bidders, cookie-sync brokers) is more
      // US-centric than the entry layer, which drives the residual
      // N.America leakage of EU flows.
      double us_only_chance =
          (role == OrgRole::Dsp || role == OrgRole::SyncService)
              ? config_.us_only_org_share * 1.9
              : config_.us_only_org_share;
      // Even some market-leading bidders/sync brokers served Europe from
      // US-only deployments in 2017/18; the entry layer's leaders did not.
      if (top_quartile) {
        us_only_chance = (role == OrgRole::Dsp || role == OrgRole::SyncService)
                             ? 0.30
                             : 0.0;
      }
      const bool us_only =
          role != OrgRole::CleanService && rng.chance(us_only_chance);
      if (us_only) {
        org.hq_country = "US";
      } else if (top_quartile && rng.chance(0.72)) {
        // The giants of the ecosystem are overwhelmingly US legal
        // entities even where their servers are European (Table 4).
        org.hq_country = "US";
      } else {
        // Legal homes: US-heavy at the top of the market, then the large
        // EU countries (local ad markets), then a CH/RU/Asia tail.
        const double roll = rng.next_double();
        if (roll < 0.48) org.hq_country = "US";
        else if (roll < 0.57) org.hq_country = "DE";
        else if (roll < 0.65) org.hq_country = "GB";
        else if (roll < 0.72) org.hq_country = "FR";
        else if (roll < 0.78) org.hq_country = "NL";
        else if (roll < 0.84) org.hq_country = "ES";
        else if (roll < 0.88) org.hq_country = "IT";
        else if (roll < 0.91) org.hq_country = "PL";
        else if (roll < 0.95) org.hq_country = "CH";
        else if (roll < 0.98) org.hq_country = "RU";
        else org.hq_country = "JP";
      }

      // The market leaders run latency-optimizing geo-DNS; the tails mix
      // in HQ-pinned and location-blind setups.
      if (top_quartile) {
        org.dns_policy = DnsPolicy::NearestPop;
      } else if (rng.chance(config_.location_blind_share)) {
        org.dns_policy = DnsPolicy::RandomPop;
      } else if (rng.chance(0.07)) {
        org.dns_policy = DnsPolicy::HqOnly;
      } else {
        org.dns_policy = DnsPolicy::NearestPop;
      }

      // Half the market leases from a public cloud, preferring the large
      // footprints.
      if (rng.chance(0.5)) {
        std::vector<double> cloud_weights;
        cloud_weights.reserve(w_.clouds_.size());
        for (const auto& cloud : w_.clouds_) {
          cloud_weights.push_back(static_cast<double>(cloud.pops.size()));
        }
        org.cloud = static_cast<CloudId>(util::sample_discrete(rng, cloud_weights));
      }

      w_.orgs_.push_back(org);
      Organization& stored = w_.orgs_.back();

      // Deployment size scales with within-role rank.
      const double rank_frac =
          1.0 - static_cast<double>(i) / std::max<double>(1.0, count - 1);
      std::size_t max_pops = 1;
      switch (role) {
        case OrgRole::AdNetwork: max_pops = 20; break;
        case OrgRole::Analytics: max_pops = 12; break;
        case OrgRole::Dsp: max_pops = 12; break;
        case OrgRole::SyncService: max_pops = 12; break;
        case OrgRole::CleanService: max_pops = 6; break;
      }
      std::size_t n_pops = 1 + static_cast<std::size_t>(std::lround(
                                   std::pow(rank_frac, 1.1) * static_cast<double>(max_pops - 1)));

      std::vector<DatacenterId> pool;
      if (us_only) {
        pool = pops_in_country("US");
        n_pops = std::min<std::size_t>(n_pops, 3);
      } else if (stored.dns_policy == DnsPolicy::HqOnly) {
        pool = pops_in_country(stored.hq_country);
        n_pops = std::min<std::size_t>(n_pops, 2);
        if (pool.empty()) pool = all_pops();
      } else if (stored.cloud != kNoCloud) {
        pool = w_.clouds_[stored.cloud].pops;
      } else {
        pool = colo_pops();
      }
      if (pool.empty()) pool = all_pops();

      auto deployment = pick_pops(rng, pool, n_pops);
      // Companies host at home when they can: ensure a PoP in the HQ
      // country (drawn from the org's own candidate pool) unless the org
      // is deliberately US-only.
      if (!us_only) {
        const bool has_home = std::any_of(
            deployment.begin(), deployment.end(), [&](DatacenterId dc) {
              return w_.datacenters_[dc].country == stored.hq_country;
            });
        if (!has_home) {
          for (const DatacenterId dc : pool) {
            if (w_.datacenters_[dc].country == stored.hq_country) {
              deployment.push_back(dc);
              break;
            }
          }
        }
      }
      for (const DatacenterId dc : deployment) {
        const std::size_t replicas = rank_frac > 0.9 ? 2 : 1;
        for (std::size_t r = 0; r < replicas; ++r) add_server(rng, stored.id, dc);
      }
      if (stored.servers.empty()) {
        // Safety net: every org must answer from somewhere.
        add_server(rng, stored.id, static_cast<DatacenterId>(rng.next_below(
                                       w_.datacenters_.size())));
      }

      std::size_t fqdns = 1;
      double list_coverage = 0.0;
      double keyword_share = 0.0;
      switch (role) {
        case OrgRole::AdNetwork:
          fqdns = 2 + static_cast<std::size_t>(rng.next_below(4));
          list_coverage = 0.95;
          keyword_share = 0.30;
          break;
        case OrgRole::Analytics:
          fqdns = 1 + static_cast<std::size_t>(rng.next_below(2));
          list_coverage = 0.90;
          keyword_share = 0.10;
          break;
        case OrgRole::Dsp:
          fqdns = 1 + static_cast<std::size_t>(rng.next_below(3));
          list_coverage = 0.38;
          keyword_share = 0.70;
          break;
        case OrgRole::SyncService:
          fqdns = 1 + static_cast<std::size_t>(rng.next_below(2));
          list_coverage = 0.28;
          keyword_share = 1.0;
          break;
        case OrgRole::CleanService:
          fqdns = 1 + static_cast<std::size_t>(rng.next_below(2));
          list_coverage = 0.0;
          keyword_share = 0.0;
          break;
      }
      add_domains(rng, stored, fqdns, list_coverage, keyword_share);
    }
  }

  void build_organizations(Rng& rng) {
    make_orgs_for_role(rng, OrgRole::AdNetwork, config_.ad_networks, config_.org_zipf);
    make_orgs_for_role(rng, OrgRole::Analytics, config_.analytics_orgs, config_.org_zipf);
    make_orgs_for_role(rng, OrgRole::Dsp, config_.dsps, config_.org_zipf);
    make_orgs_for_role(rng, OrgRole::SyncService, config_.sync_services, config_.org_zipf);
    make_orgs_for_role(rng, OrgRole::CleanService, config_.clean_orgs, config_.org_zipf);
  }

  /// A handful of ad-exchange hosts serve many tracking domains each
  /// (paper Fig. 5: 114 such IPs, about half in the US and EU28).
  void build_exchanges(Rng& rng) {
    const std::size_t exchange_count = 12;
    static constexpr std::array<std::string_view, 4> kExchangeHomes = {"US", "DE", "NL",
                                                                       "GB"};
    // Sync/DSP domains are the natural tenants of shared exchange hosts.
    std::vector<DomainId> tenants;
    for (const auto& domain : w_.domains_) {
      const auto role = w_.orgs_[domain.org].role;
      if (role == OrgRole::SyncService || role == OrgRole::Dsp) tenants.push_back(domain.id);
    }
    for (std::size_t i = 0; i < exchange_count && !tenants.empty(); ++i) {
      const auto home = kExchangeHomes[i % kExchangeHomes.size()];
      const auto pool = pops_in_country(home);
      if (pool.empty()) continue;
      const auto dc = pool[static_cast<std::size_t>(rng.next_below(pool.size()))];
      // House the exchange under the busiest sync org for attribution.
      const DomainId seed_domain =
          tenants[static_cast<std::size_t>(rng.next_below(tenants.size()))];
      const OrgId owner = w_.domains_[seed_domain].org;
      const ServerId sid = add_server(rng, owner, dc);
      w_.servers_[sid].shared_exchange = true;
      const std::size_t guest_count = 10 + static_cast<std::size_t>(rng.next_below(31));
      for (std::size_t g = 0; g < guest_count; ++g) {
        const DomainId guest =
            tenants[static_cast<std::size_t>(rng.next_below(tenants.size()))];
        auto& servers = w_.domains_[guest].servers;
        if (std::find(servers.begin(), servers.end(), sid) == servers.end()) {
          servers.push_back(sid);
        }
      }
    }
  }

  void build_publishers(Rng& rng) {
    const auto topics = all_topics();
    std::vector<TopicId> ordinary;
    for (const auto& topic : topics) {
      if (!topic.sensitive) ordinary.push_back(topic.id);
    }
    const auto sensitive = sensitive_topic_ids();

    const std::uint32_t total = config_.publishers;
    const auto sensitive_count = static_cast<std::uint32_t>(
        std::lround(total * config_.sensitive_publisher_fraction));

    // Popularity ranks: sensitive sites are pushed into the bottom 30% of
    // the popularity order so their share of tracking volume lands near
    // the paper's ~3% despite being ~19% of domains. rank_of[i] is the
    // zipf rank of publisher i; sensitive publishers (ids < sensitive_count)
    // draw shuffled tail ranks, everyone else takes the rest in order.
    const auto zipf = util::zipf_masses(total, config_.publisher_zipf);
    const std::uint32_t tail_start = total - total * 3 / 10;
    std::vector<std::uint32_t> tail_ranks;
    for (std::uint32_t r = tail_start; r < total; ++r) tail_ranks.push_back(r);
    rng.shuffle(std::span<std::uint32_t>(tail_ranks));
    std::vector<std::uint32_t> rank_of(total, 0);
    for (std::uint32_t i = 0; i < sensitive_count && i < tail_ranks.size(); ++i) {
      rank_of[i] = tail_ranks[i];
    }
    {
      std::vector<std::uint32_t> rest(tail_ranks.begin() + sensitive_count,
                                      tail_ranks.end());
      for (std::uint32_t r = 0; r < tail_start; ++r) rest.push_back(r);
      std::sort(rest.begin(), rest.end());
      for (std::uint32_t i = sensitive_count; i < total; ++i) {
        rank_of[i] = rest[i - sensitive_count];
      }
    }

    // Relative weights of the sensitive categories (paper Fig. 9):
    // health 38%, gambling 22%, sexual orientation 11%, pregnancy 11%,
    // politics 9%, porn 7%, then small tails.
    const std::array<double, 12> sensitive_weights = {38, 22, 11, 11, 9, 7,
                                                      2.5, 2, 1.5, 1.5, 1.2, 0.8};

    // Entry tags are ad networks / analytics / clean orgs, sampled by
    // popularity.
    std::vector<OrgId> ad_orgs;
    std::vector<double> ad_weights;
    std::vector<OrgId> analytics_orgs;
    std::vector<double> analytics_weights;
    std::vector<OrgId> clean_orgs;
    std::vector<double> clean_weights;
    for (const auto& org : w_.orgs_) {
      switch (org.role) {
        case OrgRole::AdNetwork:
          ad_orgs.push_back(org.id);
          ad_weights.push_back(org.popularity);
          break;
        case OrgRole::Analytics:
          analytics_orgs.push_back(org.id);
          analytics_weights.push_back(org.popularity);
          break;
        case OrgRole::CleanService:
          clean_orgs.push_back(org.id);
          clean_weights.push_back(org.popularity);
          break;
        default: break;
      }
    }

    for (std::uint32_t i = 0; i < total; ++i) {
      Publisher pub;
      pub.id = i;
      const bool is_sensitive = i < sensitive_count;
      pub.popularity = zipf[rank_of[i]];

      // Audience country follows the user mix so extension users find
      // local and global sites alike.
      const std::size_t mix_idx = util::sample_discrete(rng, user_mix_weights());
      pub.country = std::string(kUserMix[mix_idx].country);

      if (is_sensitive) {
        const std::size_t cat = util::sample_discrete(rng, sensitive_weights);
        pub.topics.push_back(sensitive[cat]);
        if (rng.chance(0.5)) {
          pub.topics.push_back(ordinary[static_cast<std::size_t>(
              rng.next_below(ordinary.size()))]);
        }
      } else {
        const std::size_t n_topics = 1 + static_cast<std::size_t>(rng.next_below(3));
        for (std::size_t t = 0; t < n_topics; ++t) {
          pub.topics.push_back(ordinary[static_cast<std::size_t>(
              rng.next_below(ordinary.size()))]);
        }
      }
      pub.domain = make_publisher_domain(
          rng, topic_by_id(pub.topics.front()).name, i, pub.country);

      // Local ad markets are real: a publisher prefers networks whose
      // legal home is its own country.
      std::vector<double> local_ad_weights = ad_weights;
      for (std::size_t a = 0; a < ad_orgs.size(); ++a) {
        if (w_.orgs_[ad_orgs[a]].hq_country == pub.country) local_ad_weights[a] *= 6.0;
      }
      const std::size_t n_ads = 2 + static_cast<std::size_t>(rng.next_below(5));
      for (std::size_t t = 0; t < n_ads; ++t) {
        const OrgId org = ad_orgs[util::sample_discrete(rng, local_ad_weights)];
        pub.embedded_tags.push_back(w_.orgs_[org].domains.front());
      }
      const std::size_t n_analytics = 1 + static_cast<std::size_t>(rng.next_below(2));
      for (std::size_t t = 0; t < n_analytics; ++t) {
        const OrgId org = analytics_orgs[util::sample_discrete(rng, analytics_weights)];
        pub.embedded_tags.push_back(w_.orgs_[org].domains.front());
      }
      const std::size_t n_clean = 1 + static_cast<std::size_t>(rng.next_below(5));
      for (std::size_t t = 0; t < n_clean; ++t) {
        const OrgId org = clean_orgs[util::sample_discrete(rng, clean_weights)];
        pub.embedded_tags.push_back(w_.orgs_[org].domains.front());
      }
      w_.publishers_.push_back(std::move(pub));
    }
  }

  [[nodiscard]] static std::vector<double> user_mix_weights() {
    std::vector<double> weights;
    weights.reserve(kUserMix.size());
    for (const auto& entry : kUserMix) weights.push_back(entry.weight);
    return weights;
  }

  void build_users(Rng& rng) {
    // Largest-remainder apportionment of extension_users over the mix.
    double total_weight = 0.0;
    for (const auto& entry : kUserMix) total_weight += entry.weight;
    std::vector<std::uint32_t> counts(kUserMix.size(), 0);
    std::vector<std::pair<double, std::size_t>> remainders;
    std::uint32_t assigned = 0;
    for (std::size_t i = 0; i < kUserMix.size(); ++i) {
      const double exact = config_.extension_users * kUserMix[i].weight / total_weight;
      counts[i] = static_cast<std::uint32_t>(exact);
      assigned += counts[i];
      remainders.emplace_back(exact - counts[i], i);
    }
    std::sort(remainders.rbegin(), remainders.rend());
    for (std::size_t i = 0; assigned < config_.extension_users && i < remainders.size();
         ++i, ++assigned) {
      ++counts[remainders[i].second];
    }

    const auto topics = all_topics();
    for (std::size_t i = 0; i < kUserMix.size(); ++i) {
      for (std::uint32_t n = 0; n < counts[i]; ++n) {
        ExtensionUser user;
        user.id = static_cast<UserId>(w_.users_.size());
        user.country = std::string(kUserMix[i].country);
        user.activity = std::exp(rng.next_normal(0.0, 0.8));
        user.third_party_resolver = rng.chance(config_.third_party_resolver_share);
        const std::size_t n_interests = 2 + static_cast<std::size_t>(rng.next_below(4));
        for (std::size_t t = 0; t < n_interests; ++t) {
          user.interests.push_back(
              topics[static_cast<std::size_t>(rng.next_below(topics.size()))].id);
        }
        w_.users_.push_back(std::move(user));
      }
    }
  }

  void build_indices() {
    for (const auto& domain : w_.domains_) {
      w_.domain_by_fqdn_.emplace(domain.fqdn, domain.id);
    }
    for (const auto& server : w_.servers_) {
      w_.server_by_ip_.emplace(server.ip, server.id);
    }
  }

  [[nodiscard]] std::vector<DatacenterId> all_pops() const {
    std::vector<DatacenterId> out(w_.datacenters_.size());
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = static_cast<DatacenterId>(i);
    return out;
  }

  [[nodiscard]] std::vector<DatacenterId> colo_pops() const {
    std::vector<DatacenterId> out;
    for (const auto& dc : w_.datacenters_) {
      if (dc.cloud == kNoCloud) out.push_back(dc.id);
    }
    return out;
  }

  World& w_;
  const WorldConfig& config_;
  std::unordered_map<DatacenterId, std::uint64_t> server_cursor_;
  /// PoP placement weight of each datacenter, by id.
  std::vector<double> pop_weights_;
};

}  // namespace

std::string_view to_string(OrgRole role) noexcept {
  switch (role) {
    case OrgRole::AdNetwork: return "ad-network";
    case OrgRole::Dsp: return "dsp";
    case OrgRole::SyncService: return "sync-service";
    case OrgRole::Analytics: return "analytics";
    case OrgRole::CleanService: return "clean-service";
  }
  return "?";
}

const TrackerDomain* World::find_domain(const std::string& fqdn) const {
  const auto it = domain_by_fqdn_.find(fqdn);
  return it == domain_by_fqdn_.end() ? nullptr : &domains_[it->second];
}

const Server* World::find_server(const net::IpAddress& ip) const {
  const auto it = server_by_ip_.find(ip);
  return it == server_by_ip_.end() ? nullptr : &servers_[it->second];
}

std::string World::true_country_of(const net::IpAddress& ip) const {
  const Server* server = find_server(ip);
  if (server == nullptr) return {};
  return datacenters_[server->datacenter].country;
}

std::vector<DomainId> World::tracking_domain_ids() const {
  std::vector<DomainId> out;
  for (const auto& domain : domains_) {
    if (orgs_[domain.org].role != OrgRole::CleanService) out.push_back(domain.id);
  }
  return out;
}

World build_world(const WorldConfig& config) {
  World world;
  world.config_ = config;
  detail::Builder builder(world, world.config_);
  builder.run();
  return world;
}

}  // namespace cbwt::world
