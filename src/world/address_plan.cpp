#include "world/address_plan.h"

#include <stdexcept>

namespace cbwt::world {

net::IpPrefix AddressPlan::allocate_server_v4(unsigned length) {
  if (length == 0 || length > 24) throw std::invalid_argument("server v4 length must be 1..24");
  const std::uint32_t block = std::uint32_t{1} << (32U - length);
  // Align the cursor to the block size, then take the block.
  const std::uint32_t aligned = (next_server_v4_ + block - 1) / block * block;
  next_server_v4_ = aligned + block;
  return net::IpPrefix{net::IpAddress::v4(aligned), length};
}

net::IpPrefix AddressPlan::eyeball_block(const std::string& country) {
  const auto it = eyeballs_.find(country);
  if (it != eyeballs_.end()) return it->second;
  constexpr std::uint32_t kBlock = std::uint32_t{1} << 20;  // /12
  const net::IpPrefix prefix{net::IpAddress::v4(next_eyeball_), 12};
  next_eyeball_ += kBlock;
  eyeballs_.emplace(country, prefix);
  return prefix;
}

bool AddressPlan::is_eyeball(const net::IpAddress& ip) const noexcept {
  for (const auto& [country, prefix] : eyeballs_) {
    if (prefix.contains(ip)) return true;
  }
  return false;
}

}  // namespace cbwt::world
