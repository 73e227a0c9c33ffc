// E17 (extension) -- systematic single-fault injection campaign, the
// evaluation methodology of the systematic-diversity work the paper
// builds on (Lovric [6]: "...and Their Evaluation by Fault Injection").
// For every (fault kind x detection round) cell, one engine run is
// classified into {no effect, recovered, rolled back, silent,
// fail-safe}; the matrix is printed per scheme. The grid runs on the
// Monte Carlo runtime with one replica per cell at a fixed fault
// offset, so each cell is a single deterministic injection.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "core/campaign.hpp"
#include "core/smt_engine.hpp"
#include "runtime/mc_campaign.hpp"

using namespace vds;

namespace {

core::VdsOptions engine_options(core::RecoveryScheme scheme,
                                double permanent_spread) {
  core::VdsOptions options;
  options.t = 1.0;
  options.c = 0.1;
  options.t_cmp = 0.1;
  options.alpha = 0.65;
  options.s = 20;
  options.job_rounds = 60;
  options.scheme = scheme;
  options.permanent_affects_others_prob = permanent_spread;
  return options;
}

void run_for(core::RecoveryScheme scheme, double permanent_spread) {
  std::printf("\n  scheme %s, permanent spread %.1f\n",
              core::to_string(scheme).data(), permanent_spread);

  runtime::McConfig config;
  config.round_time = 2.0 * 0.65 + 0.1;
  config.rounds = {1, 4, 8, 12, 16, 20};
  config.replicas = 1;
  config.jitter_offset = false;
  config.fixed_offset = 0.3;

  std::vector<core::InjectionOutcome> outcomes(config.cells());
  const runtime::McRunner runner =
      [scheme, permanent_spread, &outcomes](
          const runtime::McCell& cell, fault::FaultTimeline& timeline,
          sim::Rng&) {
        core::SmtVds vds(engine_options(scheme, permanent_spread),
                         sim::Rng(5));
        vds.set_predictor(std::make_unique<fault::OraclePredictor>());
        core::RunReport report = vds.run(timeline);
        outcomes[cell.index] = core::classify_outcome(report);
        return report;
      };
  const runtime::McSummary summary = runtime::run_mc_campaign(config, runner);

  std::printf("  %-16s", "kind\\round");
  for (const auto round : config.rounds) {
    std::printf(" %11llu", static_cast<unsigned long long>(round));
  }
  std::printf("\n");
  std::size_t index = 0;
  for (const auto kind : config.kinds) {
    std::printf("  %-16s", std::string(fault::to_string(kind)).c_str());
    for (std::size_t r = 0; r < config.rounds.size(); ++r) {
      std::printf(" %11s",
                  std::string(core::to_string(outcomes[index])).c_str());
      ++index;
    }
    std::printf("\n");
  }
  std::printf("  safety (non-silent fraction of effective faults): %.3f\n",
              summary.outcomes.safety());
}

}  // namespace

int main() {
  bench::banner("E17",
                "single-fault injection campaign (Lovric-style [6])");
  run_for(core::RecoveryScheme::kRollForwardDet, 0.0);
  run_for(core::RecoveryScheme::kRollForwardProb, 0.0);
  run_for(core::RecoveryScheme::kRollForwardPredict, 0.0);
  run_for(core::RecoveryScheme::kRollForwardDet, 1.0);
  bench::note("single faults of every kind and arrival round end in a "
              "safe state for the comparing schemes; pervasive "
              "permanents end fail-safe. The predict scheme's lack of "
              "roll-forward comparison does not show up under *single* "
              "faults -- its silent-corruption hazard needs a second "
              "fault inside the recovery window (see E16).");
  return 0;
}
