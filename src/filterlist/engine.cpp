#include "filterlist/engine.h"

#include <array>
#include <limits>
#include <optional>
#include <span>

#include "util/contract.h"
#include "util/fnv1a.h"

namespace cbwt::filterlist {

namespace {

/// Token alphabet: lower-case alphanumerics. URLs entering match() are
/// lower-case by contract and rule literals are lowered by the parser,
/// so both sides tokenize identically; every other byte (including '^',
/// '%', '_', '-', '.') is a token boundary on both sides.
[[nodiscard]] constexpr bool is_token_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
}

/// Hash of the next token of `text` at/after `pos`; advances `pos` past
/// it. Returns false when the text is exhausted.
bool next_token(std::string_view text, std::size_t& pos, std::uint64_t& hash) noexcept {
  while (pos < text.size() && !is_token_char(text[pos])) ++pos;
  if (pos >= text.size()) return false;
  std::uint64_t h = util::kFnv1aOffset;
  while (pos < text.size() && is_token_char(text[pos])) {
    h ^= static_cast<unsigned char>(text[pos]);
    h *= 0x100000001B3ULL;
    ++pos;
  }
  hash = h;
  return true;
}

/// Offset of the host in `url` when the URL's host is exactly `host`
/// (scheme://host, then '/' or the end); npos otherwise.
std::size_t host_offset(std::string_view url, std::string_view host) noexcept {
  const std::size_t scheme_end = url.find("://");
  if (scheme_end == std::string_view::npos) return std::string_view::npos;
  const std::size_t begin = scheme_end + 3;
  if (url.substr(begin, host.size()) != host) return std::string_view::npos;
  const std::size_t end = begin + host.size();
  return end == url.size() || url[end] == '/' ? begin : std::string_view::npos;
}

/// True when `host` is `domain` or a subdomain of it.
[[nodiscard]] bool host_under(std::string_view host, std::string_view domain) noexcept {
  if (host == domain) return true;
  return host.size() > domain.size() && host.ends_with(domain) &&
         host[host.size() - domain.size() - 1] == '.';
}

// --- pattern matching over compiled literal spans --------------------
// Byte-for-byte ports of the reference matcher in rule.cpp; the
// equivalence suite (test_filterlist_equivalence) pins them together.

/// Attempts to match one literal (which may contain '^' class chars) at
/// position `pos`; returns the end position on success. A single '^' at
/// the end of the literal may also match the end of the URL.
std::optional<std::size_t> match_literal_at(std::string_view url, std::size_t pos,
                                            std::string_view literal) {
  std::size_t cursor = pos;
  for (std::size_t i = 0; i < literal.size(); ++i) {
    const char pattern_char = literal[i];
    if (cursor < url.size()) {
      const char url_char = url[cursor];
      const bool ok =
          pattern_char == '^' ? is_separator_char(url_char) : url_char == pattern_char;
      if (!ok) return std::nullopt;
      ++cursor;
    } else {
      if (pattern_char == '^' && i + 1 == literal.size()) return cursor;
      return std::nullopt;
    }
  }
  return cursor;
}

/// Matches all parts in order starting at `pos`. When `first_exact`, the
/// first part must match exactly at `pos`; otherwise it may float.
std::optional<std::size_t> match_parts_from(std::string_view url, std::size_t pos,
                                            std::span<const std::string_view> parts,
                                            bool first_exact) {
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i == 0 && first_exact) {
      const auto end = match_literal_at(url, pos, parts[0]);
      if (!end) return std::nullopt;
      pos = *end;
      continue;
    }
    bool found = false;
    for (std::size_t p = pos; p <= url.size(); ++p) {
      if (const auto end = match_literal_at(url, p, parts[i])) {
        pos = *end;
        found = true;
        break;
      }
    }
    if (!found) return std::nullopt;
  }
  return pos;
}

// --- compile-time token selection ------------------------------------

struct TokenCandidate {
  std::uint64_t hash = 0;
  std::uint32_t length = 0;
};

/// Collects the boundary-safe tokens of a rule's literals. A token is
/// safe when every URL the rule can match must contain it as a *whole*
/// URL token (maximal alphanumeric run): its left edge is interior to
/// the literal (the preceding literal byte is a token boundary) or sits
/// at an anchored match position (URL start for '|', a host-label
/// boundary for '||'), and its right edge is interior or covered by a
/// trailing end anchor. Tokens touching an open literal edge may be
/// extended by URL bytes ("ads" matching inside "loads"), so they are
/// not usable as index keys.
void collect_safe_tokens(const Rule& rule, std::vector<TokenCandidate>& out) {
  out.clear();
  for (std::size_t j = 0; j < rule.parts.size(); ++j) {
    const std::string_view part = rule.parts[j];
    std::size_t i = 0;
    while (i < part.size()) {
      if (!is_token_char(part[i])) {
        ++i;
        continue;
      }
      std::size_t end = i;
      while (end < part.size() && is_token_char(part[end])) ++end;
      const bool left_safe = i > 0 || (j == 0 && rule.anchor != AnchorKind::None);
      const bool right_safe =
          end < part.size() || (j + 1 == rule.parts.size() && rule.end_anchor);
      if (left_safe && right_safe) {
        out.push_back({util::fnv1a(part.substr(i, end - i)),
                       static_cast<std::uint32_t>(end - i)});
      }
      i = end;
    }
  }
}

}  // namespace

FilterList::FilterList(std::string name, const std::vector<std::string>& lines)
    : name_(std::move(name)) {
  rules_.reserve(lines.size());
  for (const auto& line : lines) {
    if (auto rule = parse_rule(line)) {
      rules_.push_back(std::move(*rule));
    } else {
      ++skipped_;
    }
  }
}

std::string_view anchor_index_key(const Rule& rule) noexcept {
  if (rule.anchor != AnchorKind::DomainName || rule.parts.empty()) return {};
  const std::string_view head = rule.parts.front();
  // The key is the host portion of the first literal: letters, digits,
  // dots, dashes and underscores up to the first separator-ish char.
  std::size_t len = 0;
  while (len < head.size()) {
    const char c = head[len];
    const bool host_char = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                           c == '.' || c == '-' || c == '_';
    if (!host_char) break;
    ++len;
  }
  const std::string_view key = head.substr(0, len);
  // Only index when the host head forms at least a
  // registrable-domain-looking key.
  if (key.size() < 3 || key.find('.') == std::string_view::npos) return {};
  return key;
}

// --- per-match scratch (stack only) ----------------------------------

/// Lazily computed per-request state: the URL's token hashes and the
/// $domain= ids covering the page host. Lives on match()'s stack; no
/// member allocates. Oversized inputs overflow gracefully — tokens
/// beyond the buffer are re-streamed from the URL, page hosts with more
/// labels than the id buffer fall back to direct suffix comparison — so
/// correctness never depends on the caps.
struct Engine::MatchScratch {
  static constexpr std::size_t kTokenCap = 128;
  static constexpr std::size_t kDomainCap = 128;
  static constexpr std::size_t kNpos = std::string_view::npos;

  explicit MatchScratch(const RequestContext& request_in) noexcept
      : request(request_in) {}

  const RequestContext& request;

  std::array<std::uint64_t, kTokenCap> tokens;
  std::size_t token_count = 0;
  std::size_t token_resume = kNpos;  ///< URL offset of the first unbuffered token
  bool tokens_filled = false;
  /// When set, URL bytes [host_begin, host_end) are not scanned: they are
  /// the request host, and `host_tokens` are its tokens that may key a
  /// bucket (the only ones a token visitor acts on).
  bool skip_host = false;
  std::size_t host_begin = 0;
  std::size_t host_end = 0;
  std::span<const std::uint64_t> host_tokens;

  std::array<std::uint32_t, kDomainCap> domain_ids;
  std::size_t domain_count = 0;
  bool domains_overflowed = false;
  bool domains_filled = false;

  /// Buffers the tokens of url[pos, end); `end` must not split a token.
  /// False, with token_resume set, when the buffer fills.
  bool buffer_tokens(std::size_t pos, std::size_t end) noexcept {
    const std::string_view text = request.url.substr(0, end);
    std::uint64_t hash = 0;
    while (next_token(text, pos, hash)) {
      if (token_count == kTokenCap) {
        // Rewind to the start of the token that did not fit.
        std::size_t start = pos;
        while (start > 0 && is_token_char(text[start - 1])) --start;
        token_resume = start;
        return false;
      }
      tokens[token_count++] = hash;
    }
    return true;
  }

  /// Tokenizes the URL once into the stack buffer (overflow streams).
  /// A skipped host is bounded by "://" and by '/' or the end, so no
  /// token crosses its edges. An overflow before its end resumes the
  /// stream before or at the host, which then visits some tokens twice;
  /// a repeat changes neither a minimum nor an "any".
  void fill_tokens() noexcept {
    tokens_filled = true;
    if (!skip_host) {
      buffer_tokens(0, request.url.size());
      return;
    }
    if (!buffer_tokens(0, host_begin)) return;
    for (const std::uint64_t hash : host_tokens) {
      if (token_count == kTokenCap) {
        token_resume = host_begin;
        return;
      }
      tokens[token_count++] = hash;
    }
    buffer_tokens(host_end, request.url.size());
  }

  /// Applies `fn` to every URL token hash; `fn` returning false stops
  /// the walk early. Returns false iff stopped.
  template <typename Fn>
  bool for_each_token(Fn&& fn) noexcept {
    if (!tokens_filled) fill_tokens();
    for (std::size_t i = 0; i < token_count; ++i) {
      if (!fn(tokens[i])) return false;
    }
    if (token_resume != kNpos) {
      std::size_t pos = token_resume;
      std::uint64_t hash = 0;
      while (next_token(request.url, pos, hash)) {
        if (!fn(hash)) return false;
      }
    }
    return true;
  }

  /// Resolves the page host's label suffixes against the engine's
  /// $domain= table: afterwards `domain_ids[0..domain_count)` holds the
  /// ids of every configured domain the page host is under.
  void fill_domains(const util::StringMap<std::uint32_t>& ids) noexcept {
    domains_filled = true;
    if (ids.empty()) return;
    std::string_view host = request.page_host;
    while (!host.empty()) {
      if (const auto it = ids.find(host); it != ids.end()) {
        if (domain_count == kDomainCap) {
          domains_overflowed = true;
          return;
        }
        domain_ids[domain_count++] = it->second;
      }
      const std::size_t dot = host.find('.');
      if (dot == kNpos) break;
      host.remove_prefix(dot + 1);
    }
  }
};

// --- compilation -----------------------------------------------------

void Engine::add_list(FilterList list) {
  lists_.push_back(std::move(list));
  compile();
}

void Engine::compile() {
  arena_.clear();
  part_pool_.clear();
  domain_pool_.clear();
  domain_names_.clear();
  domain_ids_.clear();
  compiled_.clear();
  plan_pool_.clear();
  by_anchor_.clear();
  token_rules_.clear();
  token_exceptions_.clear();
  fallback_rules_.clear();
  fallback_exceptions_.clear();
  stats_ = {};

  // Pass 1: candidate tokens per rule and corpus-wide token frequency;
  // each rule is then indexed under its rarest token, which keeps the
  // buckets probed at match time small (uBlock's heuristic).
  std::vector<std::vector<TokenCandidate>> candidates;
  std::unordered_map<std::uint64_t, std::uint32_t> frequency;
  std::vector<TokenCandidate> scratch;
  for (const auto& stored : lists_) {
    for (const auto& rule : stored.rules()) {
      collect_safe_tokens(rule, scratch);
      for (const auto& candidate : scratch) ++frequency[candidate.hash];
      candidates.push_back(scratch);
    }
  }

  // Pass 2: lower every rule into the arena-backed compiled form and
  // route it to its index bucket.
  const auto intern_domains = [&](const std::vector<std::string>& domains,
                                  std::uint32_t& first, std::uint32_t& count) {
    first = static_cast<std::uint32_t>(domain_pool_.size());
    count = static_cast<std::uint32_t>(domains.size());
    for (const auto& domain : domains) {
      const auto it = domain_ids_.find(std::string_view(domain));
      if (it != domain_ids_.end()) {
        domain_pool_.push_back(it->second);
        continue;
      }
      const auto id = static_cast<std::uint32_t>(domain_names_.size());
      domain_names_.push_back(arena_.intern(domain));
      domain_ids_.emplace(domain, id);
      domain_pool_.push_back(id);
    }
  };

  // Domain-anchored blocking rules keyed by anchor host literal, in
  // scan order; pass 3 lays them out as plans.
  util::StringMap<std::vector<std::uint32_t>> buckets;
  std::size_t traversal = 0;
  std::uint32_t scan_order = 0;
  for (const auto& stored : lists_) {
    const std::string_view list_name = stored.name();
    for (const auto& rule : stored.rules()) {
      // parse_rule() guarantees this; an unanchored, literal-free rule
      // would otherwise match every request from the fallback bucket.
      CBWT_EXPECTS(!rule.parts.empty() || rule.anchor != AnchorKind::None ||
                   rule.end_anchor);
      CompiledRule compiled;
      compiled.source = &rule;
      compiled.list = list_name;
      compiled.first_part = static_cast<std::uint32_t>(part_pool_.size());
      compiled.part_count = static_cast<std::uint32_t>(rule.parts.size());
      for (const auto& part : rule.parts) part_pool_.push_back(arena_.intern(part));
      compiled.anchor = rule.anchor;
      compiled.end_anchor = rule.end_anchor;
      compiled.third_party = !rule.options.third_party.has_value()
                                 ? kAnyParty
                                 : static_cast<std::int8_t>(*rule.options.third_party);
      intern_domains(rule.options.include_domains, compiled.first_include,
                     compiled.include_count);
      intern_domains(rule.options.exclude_domains, compiled.first_exclude,
                     compiled.exclude_count);

      const auto& rule_tokens = candidates[traversal++];
      const TokenCandidate* best = nullptr;
      for (const auto& candidate : rule_tokens) {
        if (best == nullptr) {
          best = &candidate;
          continue;
        }
        const auto freq = frequency[candidate.hash];
        const auto best_freq = frequency[best->hash];
        if (freq < best_freq || (freq == best_freq && candidate.length > best->length)) {
          best = &candidate;
        }
      }

      const std::string_view anchor = anchor_index_key(rule);
      if (!rule.exception && !anchor.empty()) {
        const std::string_view literal = rule.parts.front();
        compiled.host_decided =
            rule.parts.size() == 1 && !rule.end_anchor && compiled.include_count == 0 &&
            compiled.exclude_count == 0 &&
            (literal.size() == anchor.size() ||
             (literal.size() == anchor.size() + 1 && literal.back() == '^'));
        const auto index = static_cast<std::uint32_t>(compiled_.size());
        compiled_.push_back(compiled);
        auto it = buckets.find(anchor);
        if (it == buckets.end()) {
          it = buckets.emplace(std::string(anchor), std::vector<std::uint32_t>{}).first;
        }
        it->second.push_back(index);
        ++stats_.anchored_rules;
        if (compiled.host_decided) ++stats_.host_decided_rules;
        continue;
      }
      if (!rule.exception) compiled.order = scan_order++;
      const auto index = static_cast<std::uint32_t>(compiled_.size());
      compiled_.push_back(compiled);
      if (rule.exception) {
        if (best != nullptr) {
          token_exceptions_[best->hash].push_back(index);
          ++stats_.tokenized_exceptions;
        } else {
          fallback_exceptions_.push_back(index);
          ++stats_.fallback_exceptions;
        }
      } else {
        if (best != nullptr) {
          token_rules_[best->hash].push_back(index);
          ++stats_.tokenized_rules;
        } else {
          fallback_rules_.push_back(index);
          ++stats_.fallback_rules;
        }
      }
    }
  }
  stats_.literal_bytes = arena_.bytes_used();

  // Pass 3: each key's plan is what a suffix walk of a host whose
  // longest keyed suffix is that key meets — its own bucket, then the
  // bucket of every shorter keyed suffix, longest first.
  for (const auto& [key, bucket] : buckets) {
    const auto first = static_cast<std::uint32_t>(plan_pool_.size());
    std::string_view suffix = key;
    while (!suffix.empty()) {
      if (const auto it = buckets.find(suffix); it != buckets.end()) {
        plan_pool_.insert(plan_pool_.end(), it->second.begin(), it->second.end());
      }
      const std::size_t dot = suffix.find('.');
      if (dot == std::string_view::npos) break;
      suffix.remove_prefix(dot + 1);
    }
    by_anchor_.emplace(key, std::pair{first, static_cast<std::uint32_t>(
                                                 plan_pool_.size() - first)});
  }

  token_filter_.fill(0);
  for (const auto* index : {&token_rules_, &token_exceptions_}) {
    for (const auto& bucket : *index) {
      const std::uint64_t bit = bucket.first & (kTokenFilterBits - 1);
      token_filter_[bit / 64] |= std::uint64_t{1} << (bit % 64);
    }
  }
}

// --- matching --------------------------------------------------------

bool Engine::evaluate(const CompiledRule& rule, const RequestContext& request,
                      MatchScratch& scratch) const {
  // Options first: they are one branch / a couple of id probes, and the
  // reference path (options_allow) checks them first as well.
  if (!party_allows(rule, request)) return false;
  if (rule.include_count != 0 || rule.exclude_count != 0) {
    if (!scratch.domains_filled) scratch.fill_domains(domain_ids_);
    const auto page_under = [&](std::uint32_t id) {
      if (scratch.domains_overflowed) {
        return host_under(request.page_host, domain_names_[id]);
      }
      for (std::size_t i = 0; i < scratch.domain_count; ++i) {
        if (scratch.domain_ids[i] == id) return true;
      }
      return false;
    };
    for (std::uint32_t k = 0; k < rule.exclude_count; ++k) {
      if (page_under(domain_pool_[rule.first_exclude + k])) return false;
    }
    if (rule.include_count != 0) {
      bool included = false;
      for (std::uint32_t k = 0; k < rule.include_count && !included; ++k) {
        included = page_under(domain_pool_[rule.first_include + k]);
      }
      if (!included) return false;
    }
  }

  const std::string_view url = request.url;
  const std::span<const std::string_view> parts(part_pool_.data() + rule.first_part,
                                                rule.part_count);
  const auto finish = [&](std::optional<std::size_t> end) {
    if (!end) return false;
    return !rule.end_anchor || *end == url.size();
  };

  if (parts.empty()) {
    // Pure-anchor rules ("||", "|"): match anything (subject to options).
    return true;
  }

  switch (rule.anchor) {
    case AnchorKind::Start:
      return finish(match_parts_from(url, 0, parts, /*first_exact=*/true));
    case AnchorKind::DomainName: {
      // Candidate positions: start of the host, and after each '.' label
      // boundary inside the host.
      const std::size_t scheme_end = url.find("://");
      if (scheme_end == std::string_view::npos) return false;
      const std::size_t host_start = scheme_end + 3;
      std::size_t host_end = url.find('/', host_start);
      if (host_end == std::string_view::npos) host_end = url.size();
      for (std::size_t pos = host_start; pos < host_end;) {
        if (finish(match_parts_from(url, pos, parts, /*first_exact=*/true))) {
          return true;
        }
        const std::size_t dot = url.find('.', pos);
        if (dot == std::string_view::npos || dot >= host_end) break;
        pos = dot + 1;
      }
      return false;
    }
    case AnchorKind::None: {
      for (std::size_t pos = 0; pos <= url.size(); ++pos) {
        if (match_literal_at(url, pos, parts[0])) {
          if (finish(match_parts_from(url, pos, parts, /*first_exact=*/true))) {
            return true;
          }
        }
      }
      return false;
    }
  }
  return false;
}

std::span<const std::uint32_t> Engine::anchored_candidates(std::string_view host) const {
  // Walk host suffixes ("a.b.c.com" probes a.b.c.com, b.c.com, c.com,
  // com) up to the first key; its plan already holds the buckets of the
  // shorter suffixes the reference walk would go on to probe.
  for (std::string_view suffix = host; !suffix.empty();) {
    if (const auto it = by_anchor_.find(suffix); it != by_anchor_.end()) {
      return std::span(plan_pool_).subspan(it->second.first, it->second.second);
    }
    const std::size_t dot = suffix.find('.');
    if (dot == std::string_view::npos) break;
    suffix.remove_prefix(dot + 1);
  }
  return {};
}

HostPlan Engine::plan_host(std::string_view host) const {
  HostPlan plan;
  plan.candidates = anchored_candidates(host);
  // The host's tokens that may key a bucket; most hosts have none.
  plan.host_tokens_known = true;
  std::size_t pos = 0;
  std::uint64_t hash = 0;
  while (next_token(host, pos, hash)) {
    if (!may_be_indexed(hash)) continue;
    if (plan.host_token_count == HostPlan::kHostTokenCap) {
      plan.host_tokens_known = false;
      break;
    }
    plan.host_tokens[plan.host_token_count++] = hash;
  }
  return plan;
}

MatchResult Engine::match(const RequestContext& request) const {
  // A plan for one request: collecting the host's tokens pays only when
  // a plan serves many requests, so this one leaves them to the URL scan.
  HostPlan plan;
  plan.candidates = anchored_candidates(request.host);
  return match(request, plan);
}

MatchResult Engine::match(const RequestContext& request, const HostPlan& plan) const {
  // The host must be a bare host name (no scheme, no path): the anchor
  // index keys on host suffixes and would silently miss otherwise.
  CBWT_EXPECTS(request.host.find('/') == std::string_view::npos);
  MatchScratch scratch(request);
  // The plan's shortcuts hold only when the URL's host is the request
  // host; otherwise every candidate is evaluated and every byte tokenized.
  const std::size_t host_begin = host_offset(request.url, request.host);
  const bool url_host_is_request_host = host_begin != std::string_view::npos;
  if (url_host_is_request_host && plan.host_tokens_known) {
    scratch.skip_host = true;
    scratch.host_begin = host_begin;
    scratch.host_end = host_begin + request.host.size();
    scratch.host_tokens = std::span(plan.host_tokens).first(plan.host_token_count);
  }

  // 1. Anchored rules in plan order; the first hit wins, exactly like
  //    the reference walk. A host-decided rule's literal is a label
  //    suffix of the request host, so on a URL with that host the
  //    literal matches at that suffix and only $third-party is left.
  const CompiledRule* hit = nullptr;
  for (const auto index : plan.candidates) {
    const CompiledRule& rule = compiled_[index];
    const bool matched = rule.host_decided && url_host_is_request_host
                             ? party_allows(rule, request)
                             : evaluate(rule, request, scratch);
    if (matched) {
      hit = &rule;
      break;
    }
  }

  // 2. The reference engine's linear-scan bucket, collapsed to token
  //    probes: only rules bucketed under a token occurring in the URL
  //    (plus the short no-safe-token fallback list) are evaluated. The
  //    lowest scan order among the matches wins, which is exactly the
  //    first hit of the reference scan.
  if (hit == nullptr) {
    std::uint32_t best_order = std::numeric_limits<std::uint32_t>::max();
    for (const auto index : fallback_rules_) {
      const CompiledRule& rule = compiled_[index];
      if (rule.order < best_order && evaluate(rule, request, scratch)) {
        best_order = rule.order;
        hit = &rule;
      }
    }
    scratch.for_each_token([&](std::uint64_t token) {
      if (!may_be_indexed(token)) return true;
      if (const auto it = token_rules_.find(token); it != token_rules_.end()) {
        for (const auto index : it->second) {
          const CompiledRule& rule = compiled_[index];
          if (rule.order < best_order && evaluate(rule, request, scratch)) {
            best_order = rule.order;
            hit = &rule;
          }
        }
      }
      return true;  // keep walking: the *minimum* order must win
    });
  }
  if (hit == nullptr) return {};

  // 3. Exceptions, same token treatment; any match suppresses the hit.
  for (const auto index : fallback_exceptions_) {
    if (evaluate(compiled_[index], request, scratch)) return {};
  }
  const bool no_exception = scratch.for_each_token([&](std::uint64_t token) {
    if (!may_be_indexed(token)) return true;
    if (const auto it = token_exceptions_.find(token); it != token_exceptions_.end()) {
      for (const auto index : it->second) {
        if (evaluate(compiled_[index], request, scratch)) return false;
      }
    }
    return true;
  });
  if (!no_exception) return {};
  return {true, hit->source, hit->list};
}

std::size_t Engine::total_rules() const noexcept {
  std::size_t total = 0;
  for (const auto& list : lists_) total += list.rule_count();
  return total;
}

}  // namespace cbwt::filterlist
