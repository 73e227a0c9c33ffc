// fabric_2w: one coordinator and two single-threaded workers as
// in-process threads over a Unix socket in a scratch directory,
// running a 200k-cell dme campaign in 1000-cell leases.

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/worker.hpp"
#include "runtime/journal.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "scenario/campaign_spec.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace metrics = vds::runtime::metrics;

constexpr unsigned kWorkers = 2;
constexpr std::uint64_t kLeaseCells = 1000;

/// Reads `"digest": "<hex>"` from the coordinator's summary snapshot.
std::uint64_t snapshot_digest(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string body = text.str();
  const std::size_t at = body.find("\"digest\": \"");
  if (at == std::string::npos) return 0;
  return std::strtoull(body.c_str() + at + 11, nullptr, 16);
}

/// True once a Unix socket bound at `path` is listening. The socket
/// file appears at bind(), before listen(); a worker that dials in
/// between is refused, so readiness is read from /proc/net/unix (flag
/// 0x10000 marks a listening socket).
bool listening(const std::string& path) {
  std::ifstream table("/proc/net/unix");
  if (!table) return fs::exists(path);
  std::string line;
  while (std::getline(table, line)) {
    std::istringstream fields(line);
    std::string num, refs, protocol, flags, type, state, inode, name;
    fields >> num >> refs >> protocol >> flags >> type >> state >> inode >> name;
    if (name == path && flags == "00010000") return true;
  }
  return false;
}

struct FabricRun {
  bool clean = false;
  std::string error;  ///< an exception that ended a fabric thread
  std::uint64_t digest = 0;
  double setup_s = 0.0;     ///< coordinator start until it listens
  double dispatch_s = 0.0;  ///< listening until the reduced summary
  double total_s = 0.0;
  std::uint64_t granted = 0;
  std::uint64_t expired = 0;
};

FabricRun run_fabric(const Options& options,
                     const vds::scenario::Scenario& scn,
                     const vds::scenario::CampaignSpec& spec) {
  FabricRun run;
  const ScratchDir dir(options.tmp);
  vds::fabric::CoordinatorOptions coord;
  coord.scenario = scn;
  coord.campaign = spec;
  coord.socket_path = (dir.path() / "fabric.sock").string();
  coord.workdir = (dir.path() / "work").string();
  coord.lease_cells = kLeaseCells;
  coord.json_out = (dir.path() / "summary.json").string();
  coord.quiet = true;
  if (coord.socket_path.size() > 100) {
    throw std::runtime_error("socket path too long for AF_UNIX: " +
                             coord.socket_path);
  }

  // A thread's exception is kept (index 0: coordinator) and its exit
  // code left at -1, so the run fails instead of terminating.
  std::vector<std::string> errors(1 + kWorkers);
  int coordinator_rc = -1;
  std::atomic<bool> coordinator_done{false};
  // The clock starts on the coordinator's own thread: the tool runs the
  // coordinator on its main thread, so spawning a thread for it here is
  // not part of the fabric's set-up.
  std::atomic<Clock::rep> start_ticks{0};
  std::thread coordinator([&] {
    start_ticks.store(Clock::now().time_since_epoch().count());
    try {
      const metrics::Span span("fabric.coordinator", "perfbench");
      coordinator_rc = vds::fabric::run_coordinator(coord);
    } catch (const std::exception& error) {
      errors[0] = error.what();
    }
    coordinator_done.store(true);
  });
  // stat() is cheap; /proc/net/unix is read only once the socket file
  // exists, which is just before the coordinator listens.
  const auto spawned = Clock::now();
  std::error_code ignored;
  while (!coordinator_done.load() &&
         seconds_between(spawned, Clock::now()) < 30.0 &&
         !(fs::exists(coord.socket_path, ignored) &&
           listening(coord.socket_path))) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  const auto ready = Clock::now();
  const Clock::time_point start{Clock::duration{start_ticks.load()}};
  std::vector<int> worker_rc(kWorkers, -1);
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      try {
        const metrics::Span span("fabric.worker", "perfbench");
        vds::fabric::WorkerOptions opt;
        opt.socket_path = coord.socket_path;
        opt.name = "perfbench-w" + std::to_string(w);
        opt.threads = 1;
        opt.quiet = true;
        worker_rc[w] = vds::fabric::run_worker(opt);
      } catch (const std::exception& error) {
        errors[1 + w] = error.what();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  bool workers_ok = true;
  for (const int rc : worker_rc) workers_ok = workers_ok && rc == 0;
  // With every worker gone the coordinator would wait forever; a
  // drain request makes it return (non-zero) instead.
  if (!workers_ok) vds::runtime::request_drain();
  coordinator.join();
  vds::runtime::clear_drain_request();
  const auto done = Clock::now();

  run.setup_s = seconds_between(start, ready);
  run.dispatch_s = seconds_between(ready, done);
  run.total_s = seconds_between(start, done);
  run.clean = coordinator_rc == 0 && workers_ok;
  for (const std::string& error : errors) {
    if (!error.empty()) run.error = error;
  }
  run.digest = snapshot_digest(coord.json_out);
  const auto log = vds::runtime::Journal::inspect(
      (fs::path(coord.workdir) / "assignment.journal").string());
  for (const auto& event : log.leases) {
    if (event.lease_event == vds::runtime::LeaseEvent::kGranted) ++run.granted;
    if (event.lease_event == vds::runtime::LeaseEvent::kExpired) ++run.expired;
  }
  return run;
}

/// The same campaign through one McExecution in this process, with as
/// many pool threads as the fabric has workers.
std::pair<std::uint64_t, double> single_process(
    const vds::scenario::Scenario& scn,
    const vds::scenario::CampaignSpec& spec) {
  vds::runtime::McConfig config = vds::scenario::to_mc_config(spec, scn);
  config.threads = kWorkers;
  const auto start = Clock::now();
  vds::runtime::ThreadPool pool(config.threads);
  vds::runtime::McExecution exec(config, vds::scenario::make_mc_runner(scn));
  exec.enqueue(pool);
  pool.wait_idle();
  const std::uint64_t digest = exec.reduce(pool).digest();
  const double rate = static_cast<double>(config.cells()) /
                      seconds_between(start, Clock::now());
  return {digest, rate};
}

}  // namespace

Result run_fabric_2w(const Options& options) {
  Result result;
  reset_process_state();
  vds::scenario::Scenario scn;
  scn.engine = vds::scenario::EngineKind::kDme;
  scn.rounds = 60;
  vds::scenario::CampaignSpec spec;
  // x 4 kinds x 5 rounds = 200k cells in 200 leases. The coordinator
  // notices completion on 100 ms poll ticks, so a run's wall time moves
  // in steps of a tick; at 200k cells (about 1.4 s) a step is ~7%.
  spec.replicas = 10000;
  spec.seed = options.seed;
  // The coordinator's final resume uses as many threads as the fabric
  // has workers, so the whole run keeps two cores busy.
  spec.threads = kWorkers;
  const std::uint64_t cells = vds::scenario::to_mc_config(spec, scn).cells();
  const auto expected = expected_digest(options);

  std::vector<double> setup_s, rate, rate_traced, latency_ms;
  double wall = 0.0;
  std::uint64_t runs = 0;
  std::vector<std::uint64_t> digests;
  FabricRun last_traced;
  bool saved_trace = false;
  const Clock::time_point deadline = deadline_after(options.seconds);
  const std::size_t minimum = options.trace ? 2 : 1;
  for (std::size_t k = 0; k < minimum || Clock::now() < deadline; ++k) {
    const bool traced = options.trace && k % 2 == 1;
    reset_process_state();
    set_traced(traced);
    const FabricRun run = run_fabric(options, scn, spec);
    if (traced) {
      TraceSpans spans;
      spans.collect(saved_trace ? fs::path()
                                : options.out / "traces" /
                                      (options.workload + ".trace.json"));
      saved_trace = true;
      set_traced(false);
      if (spans.dropped != 0) result.fail("trace dropped events");
      last_traced = run;
    }
    const double r = static_cast<double>(cells) / run.dispatch_s;
    (traced ? rate_traced : rate).push_back(r);
    if (!traced) {
      setup_s.push_back(run.setup_s);
      latency_ms.push_back(run.total_s * 1e3);
      wall += run.total_s;
      ++runs;
    }
    result.attempted += cells;
    if (!run.clean) {
      result.failed += cells;
      result.fail("coordinator or a worker exited non-zero " + run.error);
    }
    digests.push_back(run.digest);
  }
  const double rss = peak_rss_mb();

  std::uint64_t want = 0;
  std::vector<double> single_rates;
  if (expected) want = *expected;
  if (!expected || options.trace) {
    // Reference: a single-process McExecution of the same campaign.
    // The traced run times three of them for fabric.overhead_frac.
    for (int k = 0; k < (options.trace ? 3 : 1); ++k) {
      const auto [digest, single_rate] = single_process(scn, spec);
      if (!expected) want = digest;
      if (digest != want) result.fail("single-process reference disagrees");
      single_rates.push_back(single_rate);
    }
  }
  for (const std::uint64_t digest : digests) {
    check_digest(result, "fabric_2w merged campaign", digest, want, cells);
  }
  result.digest = digests.front();

  auto& e = result.end_to_end;
  put(e, "setup_s", median_value(setup_s), "s");
  e["setup_s"].units = setup_s;
  put(e, "cells_per_s", median_value(rate), "1/s");
  e["cells_per_s"].units = rate;
  put(e, "req_per_s", static_cast<double>(runs) / wall, "1/s");
  put_quantile(result, e, "latency_ms_p50", "ms", median(latency_ms),
               latency_ms);
  put_quantile(result, e, "latency_ms_p99", "ms", tail(latency_ms),
               latency_ms);
  e["latency_ms_p50"].units = latency_ms;
  put(e, "peak_rss_mb", rss, "MB");

  if (options.trace) {
    auto& l = result.layers;
    put(l, "fabric.leases_granted", static_cast<double>(last_traced.granted),
        "count");
    put(l, "fabric.leases_reassigned",
        static_cast<double>(last_traced.expired), "count");
    put(l, "fabric.overhead_frac",
        1.0 - median_value(rate) / median_value(single_rates), "ratio");
    put(l, "trace.overhead_frac",
        1.0 - median_value(rate_traced) / median_value(rate), "ratio");
  }
  return result;
}

}  // namespace perfbench
