// The built synthetic internet plus its lookup indices, and the builder
// that constructs it deterministically from a WorldConfig.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "net/prefix_trie.h"
#include "world/address_plan.h"
#include "world/config.h"
#include "world/types.h"

namespace cbwt::world {

namespace detail {
class Builder;
}

/// Immutable after construction; downstream stages only read it.
class World {
 public:
  friend class detail::Builder;
  friend World build_world(const WorldConfig& config);

  [[nodiscard]] const WorldConfig& config() const noexcept { return config_; }
  [[nodiscard]] const std::vector<CloudProvider>& clouds() const noexcept { return clouds_; }
  [[nodiscard]] const std::vector<Datacenter>& datacenters() const noexcept {
    return datacenters_;
  }
  [[nodiscard]] const std::vector<Organization>& orgs() const noexcept { return orgs_; }
  [[nodiscard]] const std::vector<TrackerDomain>& domains() const noexcept { return domains_; }
  [[nodiscard]] const std::vector<Server>& servers() const noexcept { return servers_; }
  [[nodiscard]] const std::vector<Publisher>& publishers() const noexcept {
    return publishers_;
  }
  [[nodiscard]] const std::vector<ExtensionUser>& users() const noexcept { return users_; }
  [[nodiscard]] const AddressPlan& addresses() const noexcept { return addresses_; }

  [[nodiscard]] const Datacenter& datacenter(DatacenterId id) const { return datacenters_.at(id); }
  [[nodiscard]] const Organization& org(OrgId id) const { return orgs_.at(id); }
  [[nodiscard]] const TrackerDomain& domain(DomainId id) const { return domains_.at(id); }
  [[nodiscard]] const Server& server(ServerId id) const { return servers_.at(id); }
  [[nodiscard]] const Publisher& publisher(PublisherId id) const { return publishers_.at(id); }

  /// FQDN -> domain id; nullptr when unknown.
  [[nodiscard]] const TrackerDomain* find_domain(const std::string& fqdn) const;

  /// Server lookup by IP; nullptr when the IP is not a server.
  [[nodiscard]] const Server* find_server(const net::IpAddress& ip) const;

  /// Ground-truth country of a server IP (via its datacenter); empty
  /// string when the IP is unknown. This is what a perfect geolocator
  /// would report and what validation harnesses compare against.
  [[nodiscard]] std::string true_country_of(const net::IpAddress& ip) const;

  /// Tracking domains only (everything except CleanService orgs).
  [[nodiscard]] std::vector<DomainId> tracking_domain_ids() const;

 private:
  WorldConfig config_;
  std::vector<CloudProvider> clouds_;
  std::vector<Datacenter> datacenters_;
  std::vector<Organization> orgs_;
  std::vector<TrackerDomain> domains_;
  std::vector<Server> servers_;
  std::vector<Publisher> publishers_;
  std::vector<ExtensionUser> users_;
  AddressPlan addresses_;

  std::unordered_map<std::string, DomainId> domain_by_fqdn_;
  std::unordered_map<net::IpAddress, ServerId> server_by_ip_;
};

/// Deterministically constructs a World from a config (same config ->
/// identical world, bit for bit).
[[nodiscard]] World build_world(const WorldConfig& config);

}  // namespace cbwt::world
