#pragma once
// Shared plumbing of the repository benchmark: options, the result
// record every workload fills, percentiles over raw samples, trace
// scanning, counter snapshots and per-run scratch directories.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "runtime/mc_campaign.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// The seed whose workload digests are pinned in common.cpp.
/// Any other seed is checked against an untimed reference computed
/// through a different code path.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path tmp;  ///< per-run scratch root (removed after)
  std::filesystem::path out;  ///< results/ and traces/ land here
  std::optional<std::uint64_t> expect_digest;  ///< overrides the pin
};

/// One reported number. `samples` is the count a percentile or median
/// was taken over (0 for plain values).
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;
  /// Per-iteration or per-unit values a median was taken over.
  std::vector<double> units;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< why `correct` is false
  std::uint64_t digest = 0;           ///< workload digest, checked
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> layers;
  std::map<std::string, std::string> info;  ///< echoed, not measured

  void fail(std::string why) { failures.push_back(std::move(why)); }
  [[nodiscard]] bool correct() const { return failures.empty(); }
};

double seconds_between(Clock::time_point from, Clock::time_point to);
Clock::time_point deadline_after(double seconds);

/// A percentile of raw samples (nearest rank), with the rank it was
/// taken at and the sample count.
struct Quantile {
  double value = 0.0;
  double q = 0.0;
  std::size_t n = 0;
};

/// The median (nearest rank). Empty input gives n = 0.
Quantile median(std::vector<double> samples);
/// The highest percentile up to p99 that has at least ten samples
/// beyond it. Under 20 samples that rank would fall below the median,
/// so the maximum (q = 1) is reported instead.
Quantile tail(std::vector<double> samples);

/// Records a plain value as metric `name`.
void put(std::map<std::string, Metric>& into, const std::string& name,
         double value, const std::string& unit);

/// Records `q` as metric `name`, failing `result` when the value lies
/// outside [min, max] of `samples` (the percentile self-check).
void put_quantile(Result& result, std::map<std::string, Metric>& into,
                  const std::string& name, const std::string& unit,
                  const Quantile& q, const std::vector<double>& samples);

/// Peak resident set size of this process so far, MiB (VmHWM).
double peak_rss_mb();

std::string hex16(std::uint64_t value);

/// Expected workload digest: the override, the pin at the default
/// seed, or nullopt (caller computes a reference).
std::optional<std::uint64_t> expected_digest(const Options& options);

/// Checks one observed digest against `expected`; a mismatch fails
/// `result` and counts `weight` failed operations.
void check_digest(Result& result, const char* what, std::uint64_t got,
                  std::uint64_t expected, std::uint64_t weight);

/// Resets the metrics registry and the drain flag so nothing from an
/// earlier phase leaks into the next one.
void reset_process_state();

/// Arms counters and tracing (clears earlier events) or disarms both.
void set_traced(bool on);

/// Span durations (microseconds) by span name, collected from the
/// registry's Chrome trace. The trace text streams through a scanner,
/// so no copy of it is held; when `save_to` is non-empty the same
/// bytes are written there as a loadable trace file.
struct TraceSpans {
  std::map<std::string, std::vector<double>> durations_us;
  std::uint64_t dropped = 0;

  void collect(const std::filesystem::path& save_to);
  [[nodiscard]] const std::vector<double>& of(const std::string& name) const;
  [[nodiscard]] double total_s(const std::string& name) const;
};

/// The registry's counters of one determinism class, by name.
std::map<std::string, std::uint64_t> counters(bool deterministic);

/// A fresh directory under `root`, removed with everything in it when
/// the object goes out of scope (on success and on exceptions).
class ScratchDir {
 public:
  explicit ScratchDir(const std::filesystem::path& root);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// Wraps a campaign runner so every engine run records a `core.run`
/// span (only while tracing is armed).
vds::runtime::McRunner timed_runner(vds::runtime::McRunner inner);

/// Median of plain values (0 when empty).
double median_value(std::vector<double> values);

// Workloads. Each runs for `options.seconds` and fills a Result.
Result run_mc_engine_1w(const Options& options);
Result run_mc_journal_2w(const Options& options);
Result run_serve_closed_4c(const Options& options);
Result run_fabric_2w(const Options& options);

/// Micro-probes of the checkpoint and fault layers, shaped like one
/// cell of mc_engine_1w (16-word version states, 1.4-unit rounds).
void run_layer_probes(Result& result);

}  // namespace perfbench
