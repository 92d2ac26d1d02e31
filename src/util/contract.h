// Runtime contract checks for the parsing and geolocation hot paths.
//
// Three macros, mirroring the C++ contracts vocabulary:
//
//   CBWT_EXPECTS(cond)   precondition  — caller handed us bad state
//   CBWT_ENSURES(cond)   postcondition — we are about to return bad state
//   CBWT_ASSERT(cond)    invariant     — internal state is inconsistent
//
// Each macro captures the failing expression and its std::source_location
// and hands them to the active violation policy:
//
//   ContractPolicy::Abort  (default) print a diagnostic to stderr and
//                          std::abort() — what CI and sanitizer builds
//                          want, because it preserves the crashing stack.
//   ContractPolicy::Throw  raise ContractViolation — what fuzz harnesses
//                          and tests that probe the contracts themselves
//                          want, because the process survives.
//
// Checks are on in every build. Each is a single predicted-true branch,
// cheap enough for hot paths.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace cbwt::util {

enum class ContractKind { Precondition, Postcondition, Assertion };

enum class ContractPolicy { Abort, Throw };

/// Thrown by failed checks under ContractPolicy::Throw.
class ContractViolation : public std::logic_error {
 public:
  ContractViolation(ContractKind kind, std::string what) noexcept
      : std::logic_error(std::move(what)), kind_(kind) {}

  [[nodiscard]] ContractKind kind() const noexcept { return kind_; }

 private:
  ContractKind kind_;
};

/// Process-wide policy switch; defaults to Abort. Not thread-safe to
/// flip while checks are executing — set it once at startup (tests and
/// fuzz drivers do so before exercising any contract).
void set_contract_policy(ContractPolicy policy) noexcept;
[[nodiscard]] ContractPolicy contract_policy() noexcept;

[[nodiscard]] std::string_view to_string(ContractKind kind) noexcept;

/// Dispatches a failed check to the active policy. Returns only by
/// throwing; marked [[noreturn]] so the macros read as control flow.
[[noreturn]] void contract_violated(ContractKind kind, std::string_view expression,
                                    std::source_location where);

}  // namespace cbwt::util

#define CBWT_CONTRACT_CHECK_(kind, cond)                              \
  do {                                                                \
    if (!(cond)) [[unlikely]] {                                       \
      ::cbwt::util::contract_violated(::cbwt::util::ContractKind::kind, #cond, \
                                      ::std::source_location::current());      \
    }                                                                 \
  } while (false)

#define CBWT_EXPECTS(cond) CBWT_CONTRACT_CHECK_(Precondition, cond)
#define CBWT_ENSURES(cond) CBWT_CONTRACT_CHECK_(Postcondition, cond)
#define CBWT_ASSERT(cond) CBWT_CONTRACT_CHECK_(Assertion, cond)

/// Compile-time companion: use for table invariants that can be proven
/// at build time (sorted lookup tables and the like) so they share the
/// contract vocabulary without any runtime cost.
#define CBWT_STATIC_EXPECT(...) static_assert(__VA_ARGS__)
