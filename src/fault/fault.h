// Deterministic fault injection for the external-facing services the
// paper's pipeline depends on: DNS lookups, passive-DNS replication
// feeds, the RIPE-IPmap-style probe panels and ISP NetFlow export. The
// real study leaned on all four and simply assumed they worked; this
// layer lets a reproduction ask how loss, timeouts and stale records
// bias the border-crossing numbers — reproducibly.
//
// The discipline mirrors the runtime's shard_rng rule: every fault
// decision is a *stateless* pure function of
//
//   (plan seed, site label, call key, attempt)
//
// hashed through splitmix64 — never a draw from a pipeline Rng and never
// a function of thread interleaving. Consequences, relied on by the
// chaos harness in tests/test_fault.cpp:
//
//   * outcomes under a fixed (seed, plan) are bit-identical at any
//     thread count (decisions don't depend on execution order);
//   * fault sets are *nested* across rates — a call faulted at rate r is
//     still faulted at every rate >= r, because the decision compares
//     one rate-independent uniform against the cumulative rate — which
//     is what makes degradation provably monotone;
//   * a plan with every rate at zero decides None without touching any
//     RNG, so the zero-rate run is byte-identical to a no-plan run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace cbwt::fault {

/// What the injector did to one attempt of one call.
enum class FaultKind : std::uint8_t {
  None,          ///< the attempt succeeds
  Timeout,       ///< no answer within the attempt budget (retryable)
  Error,         ///< immediate failure, e.g. SERVFAIL / probe loss (retryable)
  SlowResponse,  ///< succeeds but late (costs latency)
  StaleData,     ///< succeeds with out-of-date data (caller degrades)
};

[[nodiscard]] std::string_view to_string(FaultKind kind) noexcept;

/// Per-kind probabilities of one injection site, each in [0, 1] with
/// total() <= 1. A single uniform draw is mapped through the cumulative
/// thresholds in declaration order (timeout, error, slow, stale).
struct SiteRates {
  double timeout = 0.0;
  double error = 0.0;
  double slow = 0.0;
  double stale = 0.0;

  [[nodiscard]] double total() const noexcept {
    return timeout + error + slow + stale;
  }
  [[nodiscard]] bool any() const noexcept { return total() > 0.0; }
};

/// Well-known injection sites. Each maps to one external-facing service
/// of the pipeline; per-site counters are named cbwt_fault_<site>_*.
namespace sites {
/// Authoritative DNS resolution (subscriber lookups in NetFlow generation).
inline constexpr std::string_view kDns = "dns";
/// Passive-DNS replication feed (lost or stale-window observations).
inline constexpr std::string_view kPdns = "pdns";
/// Individual probes of one active-geolocation panel (probe loss).
inline constexpr std::string_view kGeoProbe = "geoloc_probe";
/// One whole active measurement (panel scheduling, IPmap-engine call).
inline constexpr std::string_view kGeoMeasure = "geoloc_measure";
/// NetFlow export from router to collector (dropped exports).
inline constexpr std::string_view kNetflowExport = "netflow_export";
}  // namespace sites

/// A site's compiled fault model: the label hash the stateless decision
/// mixes in, plus the rates in force there. Resolve once per stage
/// (fault::StageSite::resolve in fault/retry.h), not per call.
struct Site {
  std::uint64_t hash = 0;
  SiteRates rates;
};

/// The full injection plan of a run: one seed (independent of the world
/// seed, so fault scenarios sweep without rebuilding the world) plus
/// default rates and optional per-site overrides.
struct FaultPlan {
  std::uint64_t seed = 0xFA017ULL;
  SiteRates default_rates;
  std::map<std::string, SiteRates, std::less<>> site_rates;

  /// True when any site can inject anything. Stages do not consult it:
  /// each resolves its own site, which a disabled plan leaves not live
  /// (one branch per call, no metrics registered — the zero-cost-default
  /// contract).
  [[nodiscard]] bool enabled() const noexcept;

  /// Rates in force at `label` (the override, else the defaults).
  [[nodiscard]] const SiteRates& rates_for(std::string_view label) const noexcept;

  /// Compiled site: label hash + rates.
  [[nodiscard]] Site site(std::string_view label) const noexcept;

  /// A plan injecting all four kinds in equal shares totalling `rate`
  /// at every site — the knob the chaos sweeps turn.
  [[nodiscard]] static FaultPlan uniform(std::uint64_t seed, double rate);

  /// Plan from the environment: CBWT_FAULT_RATE (total rate, uniform
  /// across kinds and sites; a finite decimal, unset or <= 0 disables,
  /// above 1 clamps to 1) and CBWT_FAULT_SEED (decimal digits; defaults
  /// to the FaultPlan default seed). Any other value of either throws
  /// std::invalid_argument naming the variable. The CLI/env knob for
  /// chaos-smoke CI runs and fault-rate sweeps.
  [[nodiscard]] static FaultPlan from_env();
};

/// Stable hash of a site label (FNV-1a folded through splitmix64).
[[nodiscard]] std::uint64_t site_hash(std::string_view label) noexcept;

/// The stateless uniform behind every decision: u in [0, 1) as a pure
/// function of (seed, site, key, salt). Exposed for derived quantities
/// that must stay nested/deterministic (backoff jitter, stale lags).
[[nodiscard]] double stateless_uniform(std::uint64_t seed, std::uint64_t site_hash,
                                       std::uint64_t key, std::uint64_t salt) noexcept;

/// Decides the fate of attempt `attempt` of call `key` at `site`.
/// Deterministic, thread-safe, no state anywhere. The decision uniform
/// is independent of the rates, so raising a rate only ever converts
/// None outcomes into faults (nesting; see file comment).
[[nodiscard]] FaultKind decide(std::uint64_t plan_seed, const Site& site,
                               std::uint64_t key, std::uint32_t attempt) noexcept;

}  // namespace cbwt::fault
