// Passive DNS replication (Weimer-style): observed (fqdn, IP) pairs with
// first-seen / last-seen validity windows, queryable by registrable
// domain (-> IPs) and by IP (-> domains, observations). The paper uses a
// pDNS database to
// (i) complete the tracker IP set beyond what its 350 users observed and
// (ii) bound the time window in which an IP actually served a tracking
// domain, removing dynamic-IP noise (§3.3).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/ip.h"

namespace cbwt::pdns {

/// Study time is measured in days since the start of the collection
/// window (Sep 1, 2017 in the paper).
using Day = std::int32_t;

/// One replicated association between an FQDN and an address.
struct Record {
  std::string fqdn;
  std::string registrable;  ///< the paper's "TLD" granularity
  net::IpAddress ip;
  Day first_seen = 0;
  Day last_seen = 0;
  std::uint64_t observations = 0;
};

/// Append-only pDNS database with IP and registrable-domain indices.
class Store {
 public:
  /// Records `observations` (>= 1) observations of `fqdn` resolving to
  /// `ip`, the earliest on `first_seen` and the latest on `last_seen`.
  /// The (fqdn, ip) record's window widens to cover them and its count
  /// grows by `observations`; an unseen pair appends a new record. So
  /// folding a pair's observations in one call builds the same record
  /// as observing them one by one.
  void fold(const std::string& fqdn, const std::string& registrable,
            const net::IpAddress& ip, Day first_seen, Day last_seen,
            std::uint64_t observations);

  /// Records one observation of `fqdn` resolving to `ip` on `day`.
  void observe(const std::string& fqdn, const std::string& registrable,
               const net::IpAddress& ip, Day day) {
    fold(fqdn, registrable, ip, day, day, 1);
  }

  /// Distinct registrable domains served by `ip` over its lifetime.
  [[nodiscard]] std::size_t registrable_count(const net::IpAddress& ip) const;

  /// Total observations recorded against `ip`.
  [[nodiscard]] std::uint64_t observations_of(const net::IpAddress& ip) const;

  /// Every distinct IP in the database.
  [[nodiscard]] std::vector<net::IpAddress> all_ips() const;

  /// Every distinct IP that served `registrable` at any time.
  [[nodiscard]] std::vector<net::IpAddress> ips_of_registrable(
      const std::string& registrable) const;

  /// Distinct IPs whose (registrable, IP) validity window covers `day` —
  /// the time-bounded variant the NetFlow join uses (§3.3, §7.2).
  [[nodiscard]] std::vector<net::IpAddress> ips_of_registrable_at(
      const std::string& registrable, Day day) const;

  [[nodiscard]] std::size_t record_count() const noexcept { return records_.size(); }

  /// The record table in insertion order — the store's canonical state
  /// (indices are derived). Checkpointing serializes exactly this.
  [[nodiscard]] const std::vector<Record>& records() const noexcept { return records_; }

  /// Rebuilds a store from a record table saved via records(): indices
  /// are reconstructed in insertion order, so the result is
  /// indistinguishable from the store that produced the table.
  [[nodiscard]] static Store from_records(std::vector<Record> records);

 private:
  std::vector<Record> records_;
  std::unordered_map<std::string, std::vector<std::size_t>> by_fqdn_;
  std::unordered_map<net::IpAddress, std::vector<std::size_t>> by_ip_;
  std::unordered_map<std::string, std::vector<std::size_t>> by_registrable_;
};

}  // namespace cbwt::pdns
