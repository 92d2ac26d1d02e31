#include "pdns/store.h"

#include <algorithm>

#include "util/contract.h"

namespace cbwt::pdns {

void Store::fold(const std::string& fqdn, const std::string& registrable,
                 const net::IpAddress& ip, Day first_seen, Day last_seen,
                 std::uint64_t observations) {
  CBWT_EXPECTS(observations >= 1 && first_seen <= last_seen);
  // Try to extend an existing record for this exact (fqdn, ip) pair.
  if (const auto it = by_fqdn_.find(fqdn); it != by_fqdn_.end()) {
    for (const std::size_t idx : it->second) {
      Record& record = records_[idx];
      if (record.ip == ip) {
        record.first_seen = std::min(record.first_seen, first_seen);
        record.last_seen = std::max(record.last_seen, last_seen);
        record.observations += observations;
        return;
      }
    }
  }
  const std::size_t idx = records_.size();
  records_.push_back(Record{fqdn, registrable, ip, first_seen, last_seen, observations});
  by_fqdn_[fqdn].push_back(idx);
  by_ip_[ip].push_back(idx);
  by_registrable_[registrable].push_back(idx);
}

Store Store::from_records(std::vector<Record> records) {
  Store store;
  store.records_ = std::move(records);
  for (std::size_t idx = 0; idx < store.records_.size(); ++idx) {
    const Record& record = store.records_[idx];
    store.by_fqdn_[record.fqdn].push_back(idx);
    store.by_ip_[record.ip].push_back(idx);
    store.by_registrable_[record.registrable].push_back(idx);
  }
  return store;
}

std::size_t Store::registrable_count(const net::IpAddress& ip) const {
  std::vector<std::string_view> seen;
  if (const auto it = by_ip_.find(ip); it != by_ip_.end()) {
    for (const std::size_t idx : it->second) {
      const std::string& reg = records_[idx].registrable;
      if (std::find(seen.begin(), seen.end(), reg) == seen.end()) seen.push_back(reg);
    }
  }
  return seen.size();
}

std::uint64_t Store::observations_of(const net::IpAddress& ip) const {
  std::uint64_t total = 0;
  if (const auto it = by_ip_.find(ip); it != by_ip_.end()) {
    for (const std::size_t idx : it->second) total += records_[idx].observations;
  }
  return total;
}

std::vector<net::IpAddress> Store::all_ips() const {
  std::vector<net::IpAddress> out;
  out.reserve(by_ip_.size());
  for (const auto& [ip, indices] : by_ip_) out.push_back(ip);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<net::IpAddress> Store::ips_of_registrable(const std::string& registrable) const {
  std::vector<net::IpAddress> out;
  if (const auto it = by_registrable_.find(registrable); it != by_registrable_.end()) {
    for (const std::size_t idx : it->second) out.push_back(records_[idx].ip);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<net::IpAddress> Store::ips_of_registrable_at(const std::string& registrable,
                                                         Day day) const {
  std::vector<net::IpAddress> out;
  if (const auto it = by_registrable_.find(registrable); it != by_registrable_.end()) {
    for (const std::size_t idx : it->second) {
      const Record& record = records_[idx];
      if (record.first_seen <= day && day <= record.last_seen) out.push_back(record.ip);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace cbwt::pdns
