#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/smt_engine.hpp"
#include "runtime/mc_campaign.hpp"

namespace vds::core {
namespace {

using vds::fault::Fault;
using vds::fault::FaultKind;
using vds::fault::FaultTimeline;
using vds::fault::Victim;

VdsOptions engine_options(RecoveryScheme scheme) {
  VdsOptions options;
  options.t = 1.0;
  options.c = 0.1;
  options.t_cmp = 0.1;
  options.alpha = 0.65;
  options.s = 20;
  options.job_rounds = 60;
  options.scheme = scheme;
  options.permanent_affects_others_prob = 0.0;
  return options;
}

constexpr double kRoundTime = 2.0 * 0.65 + 0.1;

/// The single-fault grid: one replica per (kind, round) cell, every
/// fault at the same fractional offset inside its round.
runtime::McConfig smt_campaign() {
  runtime::McConfig config;
  config.round_time = kRoundTime;
  config.replicas = 1;
  config.jitter_offset = false;
  config.fixed_offset = 0.3;
  return config;
}

struct Grid {
  runtime::McSummary summary;
  std::vector<InjectionOutcome> outcomes;  ///< by canonical cell index
};

/// Runs the grid on the campaign runtime, one fresh SmtVds per cell.
Grid run_grid(const runtime::McConfig& config, const VdsOptions& options) {
  Grid grid;
  grid.outcomes.resize(config.cells());
  grid.summary = runtime::run_mc_campaign(
      config, [&](const runtime::McCell& cell, FaultTimeline& timeline,
                  sim::Rng&) {
        SmtVds vds(options, sim::Rng(5));
        RunReport report = vds.run(timeline);
        grid.outcomes[cell.index] = classify_outcome(report);
        return report;
      });
  return grid;
}

Grid run_kind(FaultKind kind, const VdsOptions& options) {
  runtime::McConfig config = smt_campaign();
  config.kinds = {kind};
  return run_grid(config, options);
}

TEST(Campaign, GridShape) {
  const Grid grid = run_grid(smt_campaign(),
                             engine_options(RecoveryScheme::kRollForwardDet));
  EXPECT_EQ(grid.outcomes.size(), 4u * 5u);  // kinds x rounds
  EXPECT_EQ(grid.summary.outcomes.injections, 20u);
}

TEST(Campaign, TransientsAlwaysHandledSafely) {
  const Grid grid = run_kind(FaultKind::kTransient,
                             engine_options(RecoveryScheme::kRollForwardDet));
  for (std::size_t i = 0; i < grid.outcomes.size(); ++i) {
    EXPECT_EQ(grid.outcomes[i], InjectionOutcome::kRecovered) << "cell " << i;
  }
  // Every transient was detected.
  EXPECT_EQ(grid.summary.detection_latency.count(), grid.outcomes.size());
}

TEST(Campaign, ProcessorCrashesRollBack) {
  const Grid grid = run_kind(FaultKind::kProcessorCrash,
                             engine_options(RecoveryScheme::kRollForwardDet));
  for (std::size_t i = 0; i < grid.outcomes.size(); ++i) {
    EXPECT_EQ(grid.outcomes[i], InjectionOutcome::kRolledBack)
        << "cell " << i;
  }
}

TEST(Campaign, IsolatedPermanentsRecovered) {
  // permanent_affects_others_prob = 0: every permanent is confined to
  // its victim version and voted out.
  const Grid grid = run_kind(FaultKind::kPermanent,
                             engine_options(RecoveryScheme::kRollForwardDet));
  for (std::size_t i = 0; i < grid.outcomes.size(); ++i) {
    EXPECT_EQ(grid.outcomes[i], InjectionOutcome::kRecovered) << "cell " << i;
  }
}

TEST(Campaign, SafetyIsPerfectForDetScheme) {
  const Grid grid = run_grid(smt_campaign(),
                             engine_options(RecoveryScheme::kRollForwardDet));
  EXPECT_DOUBLE_EQ(grid.summary.outcomes.safety(), 1.0);
  EXPECT_EQ(grid.summary.outcomes.count(InjectionOutcome::kSilent), 0u);
}

TEST(Campaign, PervasivePermanentsFailSafe) {
  VdsOptions options = engine_options(RecoveryScheme::kRollForwardDet);
  options.permanent_affects_others_prob = 1.0;
  options.max_consecutive_failures = 3;
  const Grid grid = run_kind(FaultKind::kPermanent, options);
  for (std::size_t i = 0; i < grid.outcomes.size(); ++i) {
    EXPECT_EQ(grid.outcomes[i], InjectionOutcome::kFailSafe) << "cell " << i;
  }
  EXPECT_DOUBLE_EQ(grid.summary.outcomes.safety(), 1.0);
}

TEST(Campaign, PredictRollForwardRunsPredictedFaultFreeVersion) {
  // §4: the predict scheme rolls forward with the version predicted
  // fault-free. With an oracle, an isolated permanent on either
  // version is voted out and the roll-forward never runs the faulty
  // version, so nothing corrupt is committed.
  const VdsOptions options = engine_options(RecoveryScheme::kRollForwardPredict);
  for (const Victim victim : {Victim::kVersion1, Victim::kVersion2}) {
    for (const std::uint64_t round : {1, 4, 8, 12, 16, 20}) {
      for (const std::uint32_t location : {0u, 5u, 10u, 15u}) {
        Fault fault;
        fault.kind = FaultKind::kPermanent;
        fault.victim = victim;
        fault.location = location;
        fault.word = 5;
        fault.bit = 21;
        fault.when = (static_cast<double>(round) - 1.0 + 0.3) * kRoundTime;
        FaultTimeline timeline({fault});
        SmtVds vds(options, sim::Rng(5));
        vds.set_predictor(std::make_unique<vds::fault::OraclePredictor>());
        EXPECT_EQ(classify_outcome(vds.run(timeline)),
                  InjectionOutcome::kRecovered)
            << "victim V" << (victim == Victim::kVersion1 ? 1 : 2)
            << " round " << round << " location " << location;
      }
    }
  }
}

TEST(Campaign, EmptyCampaignSafetyDefined) {
  const CampaignSummary summary;
  EXPECT_DOUBLE_EQ(summary.safety(), 1.0);
}

TEST(Campaign, OutcomeNamesDistinct) {
  EXPECT_EQ(to_string(InjectionOutcome::kSilent), "SILENT");
  EXPECT_EQ(to_string(InjectionOutcome::kRecovered), "recovered");
  EXPECT_NE(to_string(InjectionOutcome::kRolledBack),
            to_string(InjectionOutcome::kFailSafe));
}

}  // namespace
}  // namespace vds::core
