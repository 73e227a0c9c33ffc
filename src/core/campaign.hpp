#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "core/report.hpp"

namespace vds::core {

/// Outcome classification of one injected fault, in the style of the
/// fault-injection evaluations the paper builds on (Lovric [6]:
/// "...and Their Evaluation by Fault Injection").
enum class InjectionOutcome : std::uint8_t {
  kNoEffect,      ///< run completed, no detection, results correct
                  ///< (fault was absorbed / ineffective)
  kRecovered,     ///< detected and repaired by vote (+ roll-forward)
  kRolledBack,    ///< detected, vote failed, interval re-executed
  kSilent,        ///< run completed with corrupted results (worst case)
  kFailSafe,      ///< engine shut down fail-safe
  kNotCompleted,  ///< run aborted for another reason (budget etc.)
};

[[nodiscard]] std::string_view to_string(InjectionOutcome outcome) noexcept;

/// Classifies one run report into an outcome (the Monte Carlo runtime
/// stores one per cell).
[[nodiscard]] InjectionOutcome classify_outcome(
    const RunReport& report) noexcept;

/// Aggregated campaign statistics.
struct CampaignSummary {
  std::array<std::uint64_t, 6> by_outcome{};  ///< indexed by InjectionOutcome
  std::uint64_t injections = 0;

  [[nodiscard]] std::uint64_t count(InjectionOutcome outcome) const {
    return by_outcome[static_cast<std::size_t>(outcome)];
  }
  /// Fraction of effective faults (everything except kNoEffect /
  /// kNotCompleted) that ended in a safe state (recovered, rolled back
  /// or fail-safe) rather than silent corruption.
  [[nodiscard]] double safety() const;

  /// Folds another (shard) summary into this one. Counts are exact,
  /// so the merge is associative and commutative — shards produced by
  /// parallel workers combine to the same totals in any order.
  void merge(const CampaignSummary& other) noexcept;

  [[nodiscard]] bool operator==(const CampaignSummary&) const = default;
};

}  // namespace vds::core
