// Filter-list engine: parses whole lists (easylist / easyprivacy) and
// matches requests against all of them with exception-rule semantics.
//
// The engine is compile-once / match-many: add_list() lowers every
// parsed Rule into a flat CompiledRule (literals interned contiguously
// in an arena, option bitflags, $domain= lists pre-bucketed to integer
// ids) and builds two reverse indexes over the compiled set —
//
//   * a host-anchor index: ||host^ rules keyed by their host literal.
//     Each key holds its *plan*: its own rules, then the rules of each
//     shorter label suffix that is also a key, in the order a suffix
//     walk of the request host would meet them. plan_host() finds a
//     host's longest keyed suffix and returns that plan, so a caller
//     that sees one host many times pays for the walk once. A rule
//     whose verdict depends only on the host (one literal K or K^, no
//     end anchor, no $domain=) is marked host-decided: when the URL's
//     host is the request host, it matches on its $third-party option
//     alone;
//   * a token index (uBlock-style): every other rule — blocking *and*
//     exception — is keyed by the FNV-1a hash of the rarest alphanumeric
//     token of its literals that is guaranteed to appear as a whole
//     token in any URL the rule can match. At match time the URL is
//     tokenized once into a stack buffer and only the rules bucketed
//     under one of its tokens are evaluated; rules with no boundary-safe
//     token fall back to a (short) always-evaluated list. A 64 Kbit
//     filter of the bucket keys skips the map probes of URL tokens that
//     no bucket can hold. A host plan also carries the host's tokens
//     that pass that filter, so a URL whose host is the request host is
//     tokenized only outside the host.
//
// So a match splits into a host part, worked out once per distinct host
// by plan_host(), and a URL part run per request. (URL identity in the
// classifier is a separate, word-at-a-time hash; FNV-1a here only keys
// the in-memory token index.)
//
// Engine::match is allocation-free and the verdict — including *which*
// rule wins — is bit-identical to ReferenceEngine (reference.h), the
// naive matcher kept as the executable specification; the equivalence is
// pinned by property tests and the fuzz harness.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "filterlist/rule.h"
#include "util/arena.h"
#include "util/transparent_hash.h"

namespace cbwt::filterlist {

/// A named, parsed list.
class FilterList {
 public:
  FilterList(std::string name, const std::vector<std::string>& lines);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<Rule>& rules() const noexcept { return rules_; }
  [[nodiscard]] std::size_t rule_count() const noexcept { return rules_.size(); }
  [[nodiscard]] std::size_t skipped_lines() const noexcept { return skipped_; }

 private:
  std::string name_;
  std::vector<Rule> rules_;
  std::size_t skipped_ = 0;
};

/// Result of matching one request against the engine. `rule` and `list`
/// point into engine-owned storage and stay valid until the next
/// add_list() (or the engine's destruction).
struct MatchResult {
  bool matched = false;         ///< blocked by some rule, no exception won
  const Rule* rule = nullptr;   ///< the blocking rule (when matched)
  std::string_view list;        ///< name of the list the rule came from
};

/// Pure-hostname head of a domain-anchored rule, usable as an anchor
/// index key (a view into the rule's first literal); empty when the rule
/// cannot be host-indexed. Shared by Engine and ReferenceEngine so both
/// sort exactly the same rules into the anchor index. Underscores are
/// host characters here: real easylist carries rules like
/// ||ad_server.example^.
[[nodiscard]] std::string_view anchor_index_key(const Rule& rule) noexcept;

/// Shape of the compiled index; introspection for tests, benches and
/// docs. Every blocking rule lands in exactly one of the first three
/// buckets, every exception in one of the next two.
struct IndexStats {
  std::size_t anchored_rules = 0;         ///< host-keyed ||host^ blocking rules
  std::size_t tokenized_rules = 0;        ///< token-bucketed blocking rules
  std::size_t fallback_rules = 0;         ///< blocking rules always evaluated
  std::size_t tokenized_exceptions = 0;   ///< token-bucketed @@ rules
  std::size_t fallback_exceptions = 0;    ///< @@ rules always evaluated
  std::size_t literal_bytes = 0;          ///< arena bytes of compiled literals
  std::size_t host_decided_rules = 0;     ///< anchored rules decided by the host alone
};

/// The host part of a match, worked out once per request host: the
/// anchored rules the host can hit, in the order the engine tries them,
/// and the host's tokens that may key a token bucket. `candidates` views
/// engine-owned storage, valid until the next add_list() (or the
/// engine's destruction).
struct HostPlan {
  static constexpr std::size_t kHostTokenCap = 4;

  std::span<const std::uint32_t> candidates;  ///< compiled rule ids
  /// Set when the host has at most kHostTokenCap tokens that may key a
  /// bucket; they are then in host_tokens, and match() tokenizes only
  /// the rest of a URL whose host is the request host.
  bool host_tokens_known = false;
  std::uint8_t host_token_count = 0;
  std::array<std::uint64_t, kHostTokenCap> host_tokens{};
};

/// Multi-list matcher. Blocking rules win unless an exception rule from
/// any list also matches (ABP semantics).
class Engine {
 public:
  /// Adds a list; the engine keeps its own copy and recompiles the
  /// whole index (rule storage is stable from then on).
  void add_list(FilterList list);

  /// The anchored candidates of `host`: the rules keyed by each of its
  /// label suffixes, longest suffix first and in bucket order within a
  /// suffix. Performs no heap allocation.
  [[nodiscard]] HostPlan plan_host(std::string_view host) const;

  /// Matches a request; `url` must be lower-case (tracker URLs in this
  /// model always are). Performs no heap allocation. The same as
  /// match(request, plan_host(request.host)), with the plan's host
  /// tokens left to the URL scan.
  [[nodiscard]] MatchResult match(const RequestContext& request) const;

  /// As match(request), with the host part taken from `plan`, which
  /// must be plan_host(request.host). The URL part runs per request: the
  /// check that the URL's host is the request host, the anchored rules
  /// the host does not decide, and the token index (blocking rules and
  /// exceptions) over the URL outside its host.
  [[nodiscard]] MatchResult match(const RequestContext& request,
                                  const HostPlan& plan) const;

  [[nodiscard]] std::size_t total_rules() const noexcept;
  [[nodiscard]] const IndexStats& index_stats() const noexcept { return stats_; }

 private:
  /// Unset third-party constraint ($third-party absent).
  static constexpr std::int8_t kAnyParty = -1;

  /// One rule lowered to flat, cache-friendly form: literal views into
  /// the arena, options as plain fields, $domain= entries as ids into
  /// the engine's domain table.
  struct CompiledRule {
    const Rule* source = nullptr;  ///< original rule (for MatchResult)
    std::string_view list;         ///< engine-owned list name
    std::uint32_t first_part = 0;  ///< span into part_pool_
    std::uint32_t part_count = 0;
    std::uint32_t first_include = 0;  ///< span into domain_pool_
    std::uint32_t include_count = 0;
    std::uint32_t first_exclude = 0;
    std::uint32_t exclude_count = 0;
    /// Position in the reference engine's linear-scan order; ties between
    /// token buckets are broken by it so the winning rule is identical.
    std::uint32_t order = 0;
    AnchorKind anchor = AnchorKind::None;
    bool end_anchor = false;
    /// Anchored with one literal, K or K^ for its key K, no end anchor
    /// and no $domain=: on a URL whose host is the request host it
    /// matches exactly when its $third-party option allows.
    bool host_decided = false;
    std::int8_t third_party = kAnyParty;  ///< kAnyParty / 0 / 1
  };

  struct MatchScratch;  // per-call stack state; defined in engine.cpp

  /// Bits in token_filter_: 64 Kbit, so the filter stays in L1.
  static constexpr std::size_t kTokenFilterBits = std::size_t{1} << 16;

  void compile();
  /// HostPlan::candidates of `host`.
  [[nodiscard]] std::span<const std::uint32_t> anchored_candidates(
      std::string_view host) const;
  /// False when no token bucket can hold `token`, so match() skips the
  /// map probes for it (most URL tokens index no rule).
  [[nodiscard]] bool may_be_indexed(std::uint64_t token) const noexcept {
    const std::uint64_t bit = token & (kTokenFilterBits - 1);
    return ((token_filter_[bit / 64] >> (bit % 64)) & 1U) != 0;
  }
  [[nodiscard]] static bool party_allows(const CompiledRule& rule,
                                         const RequestContext& request) noexcept {
    return rule.third_party == kAnyParty || (rule.third_party != 0) == request.third_party;
  }
  [[nodiscard]] bool evaluate(const CompiledRule& rule, const RequestContext& request,
                              MatchScratch& scratch) const;

  std::vector<FilterList> lists_;

  // ---- compiled image (rebuilt by compile()) ----------------------
  util::Arena arena_;                         ///< literal + domain-name bytes
  std::vector<std::string_view> part_pool_;   ///< all rules' literals, flat
  std::vector<std::uint32_t> domain_pool_;    ///< all rules' $domain= ids, flat
  std::vector<std::string_view> domain_names_;  ///< id -> interned domain
  util::StringMap<std::uint32_t> domain_ids_;   ///< interned domain -> id
  std::vector<CompiledRule> compiled_;
  /// Every anchor key's plan, flat: its own domain-anchored blocking
  /// rules, then those of each shorter keyed suffix.
  std::vector<std::uint32_t> plan_pool_;
  /// Anchor host literal -> its plan, as {first, count} into plan_pool_.
  util::StringMap<std::pair<std::uint32_t, std::uint32_t>> by_anchor_;
  /// Blocking rules / exceptions keyed by their rarest safe token hash.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> token_rules_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> token_exceptions_;
  /// One bit per low-16-bit token hash keying either token index.
  std::array<std::uint64_t, kTokenFilterBits / 64> token_filter_{};
  /// Rules with no boundary-safe token: always evaluated.
  std::vector<std::uint32_t> fallback_rules_;
  std::vector<std::uint32_t> fallback_exceptions_;
  IndexStats stats_;
};

}  // namespace cbwt::filterlist
