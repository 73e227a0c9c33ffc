#include "core/campaign.hpp"

namespace vds::core {

std::string_view to_string(InjectionOutcome outcome) noexcept {
  switch (outcome) {
    case InjectionOutcome::kNoEffect: return "no_effect";
    case InjectionOutcome::kRecovered: return "recovered";
    case InjectionOutcome::kRolledBack: return "rolled_back";
    case InjectionOutcome::kSilent: return "SILENT";
    case InjectionOutcome::kFailSafe: return "fail_safe";
    case InjectionOutcome::kNotCompleted: return "not_completed";
  }
  return "?";
}

double CampaignSummary::safety() const {
  const std::uint64_t effective =
      count(InjectionOutcome::kRecovered) +
      count(InjectionOutcome::kRolledBack) +
      count(InjectionOutcome::kSilent) +
      count(InjectionOutcome::kFailSafe);
  if (effective == 0) return 1.0;
  return 1.0 - static_cast<double>(count(InjectionOutcome::kSilent)) /
                   static_cast<double>(effective);
}

void CampaignSummary::merge(const CampaignSummary& other) noexcept {
  for (std::size_t k = 0; k < by_outcome.size(); ++k) {
    by_outcome[k] += other.by_outcome[k];
  }
  injections += other.injections;
}

InjectionOutcome classify_outcome(const RunReport& report) noexcept {
  if (report.failed_safe) return InjectionOutcome::kFailSafe;
  if (!report.completed) return InjectionOutcome::kNotCompleted;
  if (report.silent_corruption) return InjectionOutcome::kSilent;
  if (report.recoveries_ok > 0) return InjectionOutcome::kRecovered;
  if (report.rollbacks > 0) return InjectionOutcome::kRolledBack;
  return InjectionOutcome::kNoEffect;
}

}  // namespace vds::core
