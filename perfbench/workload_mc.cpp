// mc_engine_1w and mc_journal_2w: campaigns driven through the
// public McExecution API, one call at a time, so every runtime step
// (pool start, construction, enqueue, wait_idle, reduce) is timed
// from here.

#include <filesystem>
#include <memory>
#include <optional>

#include "common.hpp"
#include "runtime/journal.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "scenario/campaign_spec.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace metrics = vds::runtime::metrics;
using vds::runtime::McConfig;
using vds::runtime::McExecution;
using vds::runtime::McRunner;
using vds::runtime::McSummary;
using vds::runtime::ThreadPool;

/// One campaign phase, timed call by call.
struct Phase {
  McSummary summary;
  double setup_s = 0.0;     ///< pool start + McExecution construction
  double dispatch_s = 0.0;  ///< first enqueue to the reduced summary
  double total_s = 0.0;     ///< setup + dispatch
};

Phase run_phase(const McConfig& config, const McRunner& runner) {
  Phase phase;
  const auto start = Clock::now();
  std::optional<ThreadPool> pool;
  {
    const metrics::Span span("runtime.pool_start", "perfbench");
    pool.emplace(config.threads);
  }
  std::unique_ptr<McExecution> exec;
  {
    const metrics::Span span("runtime.construct", "perfbench");
    exec = std::make_unique<McExecution>(config, runner);
  }
  const auto dispatch = Clock::now();
  {
    const metrics::Span span("runtime.enqueue", "perfbench");
    exec->enqueue(*pool);
  }
  {
    const metrics::Span span("runtime.wait_idle", "perfbench");
    pool->wait_idle();
  }
  {
    const metrics::Span span("runtime.reduce", "perfbench");
    phase.summary = exec->reduce(*pool);
  }
  const auto done = Clock::now();
  phase.setup_s = seconds_between(start, dispatch);
  phase.dispatch_s = seconds_between(dispatch, done);
  phase.total_s = seconds_between(start, done);
  return phase;
}

/// Samples shared by both campaign workloads.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> rate;         ///< cells/s, untraced iterations
  std::vector<double> rate_traced;  ///< cells/s, traced iterations
  std::vector<double> latency_ms;   ///< whole campaign, untraced
  std::uint64_t campaigns = 0;
  double campaign_wall_s = 0.0;
};

/// Per-layer figures gathered from the traced iterations.
struct Layers {
  TraceSpans spans;
  std::size_t iterations = 0;
  std::vector<double> pool_start, construct, enqueue, execute, reduce,
      busy, journal_load;
  std::map<std::string, std::uint64_t> det, sched;
  std::string det_text;  ///< deterministic counters of the first iteration
};

/// Folds one traced iteration's trace and counters into `layers`
/// (set_traced cleared both when the iteration began). Deterministic
/// counters must repeat exactly across iterations.
void absorb_trace(Result& result, Layers& layers, const Options& options) {
  TraceSpans spans;
  const fs::path save =
      layers.iterations == 0
          ? options.out / "traces" / (options.workload + ".trace.json")
          : fs::path();
  spans.collect(save);
  const auto det = counters(true);
  set_traced(false);

  layers.pool_start.push_back(spans.total_s("runtime.pool_start"));
  layers.construct.push_back(spans.total_s("runtime.construct"));
  layers.enqueue.push_back(spans.total_s("runtime.enqueue"));
  layers.execute.push_back(spans.total_s("runtime.enqueue") +
                           spans.total_s("runtime.wait_idle"));
  layers.reduce.push_back(spans.total_s("runtime.reduce"));
  layers.busy.push_back(spans.total_s("core.run"));
  layers.journal_load.push_back(spans.total_s("runtime.journal_load"));

  std::string text;
  for (const auto& [name, value] : det) {
    text += name + ' ' + std::to_string(value) + '\n';
  }
  if (layers.iterations == 0) {
    layers.det_text = text;
  } else if (text != layers.det_text) {
    result.fail("deterministic counters differ between iterations");
  }
  layers.det = det;
  layers.sched = counters(false);
  layers.spans.dropped += spans.dropped;
  for (auto& [name, values] : spans.durations_us) {
    auto& into = layers.spans.durations_us[name];
    into.insert(into.end(), values.begin(), values.end());
  }
  ++layers.iterations;
}

std::uint64_t counter_or_zero(const std::map<std::string, std::uint64_t>& c,
                              const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

/// Writes the end-to-end metrics both campaign workloads share.
void report_end_to_end(Result& result, const Samples& samples) {
  put(result.end_to_end, "setup_s", median_value(samples.setup_s), "s");
  result.end_to_end["setup_s"].units = samples.setup_s;
  put(result.end_to_end, "cells_per_s", median_value(samples.rate), "1/s");
  result.end_to_end["cells_per_s"].units = samples.rate;
  put(result.end_to_end, "req_per_s",
      static_cast<double>(samples.campaigns) / samples.campaign_wall_s,
      "1/s");
  put_quantile(result, result.end_to_end, "latency_ms_p50", "ms",
               median(samples.latency_ms), samples.latency_ms);
  put_quantile(result, result.end_to_end, "latency_ms_p99", "ms",
               tail(samples.latency_ms), samples.latency_ms);
  result.end_to_end["latency_ms_p50"].units = samples.latency_ms;
  put(result.end_to_end, "peak_rss_mb", peak_rss_mb(), "MB");
}

/// Writes the runtime/core per-layer metrics both workloads share.
void report_layers(Result& result, const Layers& layers,
                   const Samples& samples, unsigned workers,
                   std::uint64_t cells) {
  auto& l = result.layers;
  const double iterations = static_cast<double>(layers.iterations);
  const auto& runs = layers.spans.of("core.run");
  put(l, "core.runs", static_cast<double>(runs.size()) / iterations, "count");
  const double busy = median_value(layers.busy);
  const double execute = median_value(layers.execute);
  put(l, "core.busy_s", busy, "s");
  put_quantile(result, l, "core.run_us_p50", "us", median(runs), runs);
  put_quantile(result, l, "core.run_us_p99", "us", tail(runs), runs);
  const double busy_frac = busy / (workers * execute);
  put(l, "core.busy_frac", busy_frac, "ratio");
  put(l, "runtime.pool_start_s", median_value(layers.pool_start), "s");
  put(l, "runtime.construct_s", median_value(layers.construct), "s");
  put(l, "runtime.enqueue_s", median_value(layers.enqueue), "s");
  put(l, "runtime.execute_s", execute, "s");
  put(l, "runtime.reduce_s", median_value(layers.reduce), "s");
  put(l, "runtime.overhead_frac", 1.0 - busy_frac, "ratio");
  put(l, "runtime.cells_resumed",
      static_cast<double>(counter_or_zero(layers.det, "mc.cells_resumed")),
      "count");
  put(l, "runtime.cells_retried",
      static_cast<double>(counter_or_zero(layers.det, "mc.cells_retried")),
      "count");
  put(l, "runtime.cells_quarantined",
      static_cast<double>(
          counter_or_zero(layers.det, "mc.cells_quarantined")),
      "count");
  put(l, "runtime.pool_steals",
      static_cast<double>(counter_or_zero(layers.sched, "pool.steals")),
      "count");
  put(l, "runtime.pool_idle_waits",
      static_cast<double>(counter_or_zero(layers.sched, "pool.idle_waits")),
      "count");
  const double per_cell = 1.0 / static_cast<double>(cells);
  put(l, "checkpoint.saves_per_cell",
      static_cast<double>(counter_or_zero(layers.det, "engine.checkpoints")) *
          per_cell,
      "count");
  put(l, "checkpoint.compares_per_cell",
      static_cast<double>(counter_or_zero(layers.det, "engine.comparisons")) *
          per_cell,
      "count");
  put(l, "fault.faults_per_cell",
      static_cast<double>(counter_or_zero(layers.det, "engine.faults_seen")) *
          per_cell,
      "count");
  put(l, "trace.overhead_frac",
      1.0 - median_value(samples.rate_traced) / median_value(samples.rate),
      "ratio");
  result.info["counters_digest"] =
      hex16(vds::runtime::fnv1a(layers.det_text));
  if (layers.spans.dropped != 0) {
    result.fail("trace dropped " + std::to_string(layers.spans.dropped) +
                " events; per-layer figures would be incomplete");
  }
}

/// Iterations run until the deadline; a traced run alternates
/// untraced and traced iterations so trace.overhead_frac compares
/// like with like, and always runs at least one of each.
bool keep_going(const Options& options, Clock::time_point deadline,
                std::size_t done) {
  const std::size_t minimum = options.trace ? 2 : 1;
  return done < minimum || Clock::now() < deadline;
}

}  // namespace

Result run_mc_engine_1w(const Options& options) {
  Result result;
  reset_process_state();
  vds::scenario::Scenario scn;  // smt engine, det scheme
  scn.rounds = 60;
  vds::scenario::CampaignSpec spec;
  spec.replicas = 2000;
  spec.seed = options.seed;
  spec.threads = 1;
  const McConfig config = vds::scenario::to_mc_config(spec, scn);
  const McRunner runner = vds::scenario::make_mc_runner(scn);
  const McRunner traced_runner = timed_runner(runner);
  const std::uint64_t cells = config.cells();
  const auto expected = expected_digest(options);

  Samples samples;
  // Construction is sub-millisecond here, so take extra set-up-only
  // samples for a steady median.
  for (int k = 0; k < 50; ++k) {
    const auto start = Clock::now();
    ThreadPool pool(config.threads);
    const McExecution exec(config, runner);
    samples.setup_s.push_back(seconds_between(start, Clock::now()));
  }

  Layers layers;
  std::vector<std::uint64_t> digests;
  const Clock::time_point deadline = deadline_after(options.seconds);
  for (std::size_t k = 0; keep_going(options, deadline, k); ++k) {
    const bool traced = options.trace && k % 2 == 1;
    set_traced(traced);
    const Phase phase = run_phase(config, traced ? traced_runner : runner);
    if (traced) absorb_trace(result, layers, options);
    const double rate = static_cast<double>(cells) / phase.dispatch_s;
    (traced ? samples.rate_traced : samples.rate).push_back(rate);
    if (!traced) {
      samples.setup_s.push_back(phase.setup_s);
      samples.latency_ms.push_back(phase.total_s * 1e3);
      ++samples.campaigns;
      samples.campaign_wall_s += phase.total_s;
    }
    result.attempted += cells;
    result.failed += phase.summary.cells_quarantined;
    digests.push_back(phase.summary.digest());
  }
  report_end_to_end(result, samples);

  std::uint64_t want = 0;
  if (expected) {
    want = *expected;
  } else {
    // Reference: the one-shot run_mc_campaign path at four workers.
    McConfig reference = config;
    reference.threads = 4;
    want = vds::runtime::run_mc_campaign(reference, runner).digest();
  }
  for (const std::uint64_t digest : digests) {
    check_digest(result, "mc_engine_1w campaign", digest, want, cells);
  }
  result.digest = digests.front();

  if (options.trace) {
    report_layers(result, layers, samples, config.threads, cells);
    run_layer_probes(result);
  }
  return result;
}

Result run_mc_journal_2w(const Options& options) {
  Result result;
  reset_process_state();
  vds::scenario::Scenario scn;
  scn.engine = vds::scenario::EngineKind::kDme;
  scn.rounds = 60;
  vds::scenario::CampaignSpec spec;
  spec.replicas = 25000;
  spec.seed = options.seed;
  // Two workers still contend on journal appends. With four, every core
  // of a 4-vCPU shared host is busy, and the hypervisor then takes up to
  // half of their time, which moves set-up and throughput far more than
  // the code does.
  spec.threads = 2;
  const McConfig base = vds::scenario::to_mc_config(spec, scn);
  const McRunner runner = vds::scenario::make_mc_runner(scn);
  const McRunner traced_runner = timed_runner(runner);
  const std::uint64_t cells = base.cells();
  const auto expected = expected_digest(options);

  Samples samples;
  Layers layers;
  std::vector<double> bytes_per_cell;
  std::vector<std::uint64_t> digests;
  const Clock::time_point deadline = deadline_after(options.seconds);
  for (std::size_t k = 0; keep_going(options, deadline, k); ++k) {
    const bool traced = options.trace && k % 2 == 1;
    const ScratchDir dir(options.tmp);
    const fs::path journal = dir.path() / "campaign.journal";
    const McRunner& use = traced ? traced_runner : runner;
    set_traced(traced);

    // Phase A: the first half of the lattice, then "interrupted".
    McConfig first = base;
    first.journal_path = journal.string();
    first.cell_hi = cells / 2;
    const Phase a = run_phase(first, use);

    // Phase B: resume the full campaign from A's journal. The traced
    // run keeps a copy of A's journal and times Journal::load on it
    // after B, so the probe cannot warm anything B's resume uses.
    McConfig resume = base;
    resume.journal_path = journal.string();
    resume.resume = true;
    const fs::path probe = dir.path() / "probe.journal";
    if (traced) fs::copy_file(journal, probe);
    const Phase b = run_phase(resume, use);
    if (traced) {
      const metrics::Span span("runtime.journal_load", "perfbench");
      const auto load =
          vds::runtime::Journal::load(probe.string(), resume.fingerprint());
      if (load.records.size() != cells / 2 || load.corrupt != 0) {
        result.fail("journal load probe saw " +
                    std::to_string(load.records.size()) + " records, " +
                    std::to_string(load.corrupt) + " corrupt");
      }
    }
    if (traced) {
      absorb_trace(result, layers, options);
      bytes_per_cell.push_back(static_cast<double>(fs::file_size(journal)) /
                               static_cast<double>(cells));
    }

    const std::uint64_t resolved = cells / 2 + cells;
    const double rate =
        static_cast<double>(resolved) / (a.dispatch_s + b.dispatch_s);
    (traced ? samples.rate_traced : samples.rate).push_back(rate);
    if (!traced) {
      samples.setup_s.push_back(a.setup_s + b.setup_s);
      samples.latency_ms.push_back((a.total_s + b.total_s) * 1e3);
      ++samples.campaigns;
      samples.campaign_wall_s += a.total_s + b.total_s;
    }
    result.attempted += resolved;
    result.failed += a.summary.cells_quarantined + b.summary.cells_quarantined;
    if (b.summary.cells_resumed != cells / 2 ||
        b.summary.cells_executed != cells - cells / 2 ||
        b.summary.records_corrupt != 0) {
      result.failed += cells;
      result.fail("resume resolved " +
                  std::to_string(b.summary.cells_resumed) + " resumed + " +
                  std::to_string(b.summary.cells_executed) + " executed");
    }
    digests.push_back(b.summary.digest());
  }
  report_end_to_end(result, samples);

  std::uint64_t want = 0;
  if (expected) {
    want = *expected;
  } else {
    // Reference: one uninterrupted campaign without a journal.
    want = vds::runtime::run_mc_campaign(base, runner).digest();
  }
  for (const std::uint64_t digest : digests) {
    check_digest(result, "mc_journal_2w resumed campaign", digest, want,
                 cells);
  }
  result.digest = digests.front();

  if (options.trace) {
    report_layers(result, layers, samples, base.threads, cells);
    const auto& appends = layers.spans.of("journal.append");
    put_quantile(result, result.layers, "runtime.journal_append_us_p50", "us",
                 median(appends), appends);
    put_quantile(result, result.layers, "runtime.journal_append_us_p99", "us",
                 tail(appends), appends);
    put(result.layers, "runtime.journal_load_s",
        median_value(layers.journal_load), "s");
    put(result.layers, "runtime.journal_bytes_per_cell",
        median_value(bytes_per_cell), "B");
  }
  return result;
}

}  // namespace perfbench
