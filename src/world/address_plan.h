// Deterministic IP address allocation for the synthetic internet:
// sequential, non-overlapping prefixes for datacenter server blocks and
// per-country eyeball (end-user access) blocks.
#pragma once

#include <map>
#include <string>

#include "net/ip.h"

namespace cbwt::world {

/// Hands out non-overlapping prefixes. Server space grows upward from
/// 11.0.0.0; eyeball space from 89.0.0.0. (The IPv6 server tail is
/// numbered under 2a01:: by datacenter id in world.cpp, not here.)
/// The split mirrors reality enough for the geolocation emulators to
/// treat the two spaces differently.
class AddressPlan {
 public:
  AddressPlan() = default;

  /// Next free IPv4 server prefix of the given length (<= 24).
  [[nodiscard]] net::IpPrefix allocate_server_v4(unsigned length);

  /// The (memoized) eyeball /12 of a country; allocated on first use.
  [[nodiscard]] net::IpPrefix eyeball_block(const std::string& country);

  /// True when `ip` falls inside any allocated eyeball block.
  [[nodiscard]] bool is_eyeball(const net::IpAddress& ip) const noexcept;

  [[nodiscard]] const std::map<std::string, net::IpPrefix>& eyeball_blocks() const noexcept {
    return eyeballs_;
  }

 private:
  std::uint32_t next_server_v4_ = 0x0B00'0000;  // 11.0.0.0
  std::uint32_t next_eyeball_ = 0x5900'0000;    // 89.0.0.0
  std::map<std::string, net::IpPrefix> eyeballs_;
};

}  // namespace cbwt::world
