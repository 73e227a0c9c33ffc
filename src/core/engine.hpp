#pragma once

#include <string_view>

#include "core/report.hpp"
#include "fault/injector.hpp"
#include "sim/trace.hpp"

namespace vds::core {

/// Uniform face of every protocol engine (SMT VDS, conventional VDS,
/// lockstep SRT, physical duplex): run one job against a fault
/// timeline and account for it in a RunReport. The campaign runtime
/// (runtime::run_mc_campaign) and the CLIs sweep engines exclusively
/// through this interface; new engines plug in by implementing it and
/// registering a constructor in scenario::make_engine.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Canonical engine kind name ("smt", "conv", "srt", "duplex") —
  /// stable across releases: it names the engine in CLI flags,
  /// scenario JSON and run-report JSON.
  [[nodiscard]] virtual std::string_view kind() const noexcept = 0;

  /// Executes the job against a fault timeline. `trace` may be null;
  /// engines without protocol-event tracing ignore it.
  virtual RunReport run(vds::fault::FaultTimeline& timeline,
                        vds::sim::Trace* trace = nullptr) = 0;
};

}  // namespace vds::core
