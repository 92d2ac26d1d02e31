// Per-user cookie state across the ad ecosystem: the identifier each
// organization holds for the user, and which pairs of organizations have
// cookie-synced those identifiers. Sync state is what makes behavioural
// bids more valuable, which is why the sync cascades the extension
// observes exist at all.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "util/prng.h"
#include "world/types.h"

namespace cbwt::rtb {

/// One user's view of the tracking ecosystem's identifiers.
class CookieJar {
 public:
  /// The id org holds for this user, if any.
  [[nodiscard]] std::optional<std::uint64_t> id_of(world::OrgId org) const;

  /// Returns the org's id for the user, minting one on first contact.
  std::uint64_t ensure_id(world::OrgId org, util::Rng& rng);

  [[nodiscard]] bool has_id(world::OrgId org) const;

  /// True when the two orgs have exchanged identifiers for this user.
  [[nodiscard]] bool synced(world::OrgId a, world::OrgId b) const;

  /// Records a completed cookie-sync between two orgs.
  void record_sync(world::OrgId a, world::OrgId b);

  [[nodiscard]] std::size_t known_orgs() const noexcept { return ids_.size(); }
  [[nodiscard]] std::size_t sync_edges() const noexcept { return synced_.size(); }

  /// The recorded sync pairs (a < b).
  [[nodiscard]] const std::set<std::pair<world::OrgId, world::OrgId>>& sync_pairs()
      const noexcept {
    return synced_;
  }

 private:
  static std::pair<world::OrgId, world::OrgId> key(world::OrgId a, world::OrgId b) {
    return a < b ? std::pair{a, b} : std::pair{b, a};
  }

  std::map<world::OrgId, std::uint64_t> ids_;
  std::set<std::pair<world::OrgId, world::OrgId>> synced_;
};

}  // namespace cbwt::rtb
