// serve_closed_4c: an in-process serve::Server driven by four
// closed-loop clients. Each client submits its next request line only
// after the response to the previous one arrived, so latency is
// submit-to-response-line on the client's clock.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "runtime/journal.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "scenario/campaign_spec.hpp"
#include "scenario/report_json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/rng.hpp"

namespace perfbench {

namespace {

namespace metrics = vds::runtime::metrics;

constexpr unsigned kClients = 4;
/// Distinct request bodies; clients draw from them with repetition.
constexpr std::size_t kBodies = 256;
/// Requests per client folded into the workload digest.
constexpr std::size_t kDigestPrefix = 8;

enum class BodyKind { kCampaign, kRun, kAdaptive };

struct Body {
  BodyKind kind = BodyKind::kCampaign;
  std::string json;  ///< everything after the id
};

/// The request mix: 6 in 8 bodies are E22-shaped campaigns (smt/det,
/// 20 replicas, rounds [1,5,10]), 1 in 8 a single run, 1 in 8 an
/// adaptive campaign. The shares are exact so that the workload seed
/// moves only the seeds inside the bodies, not how heavy the mix is.
std::vector<Body> make_bodies(std::uint64_t seed) {
  vds::sim::Rng rng = vds::sim::Rng(seed).substream(0);
  std::vector<Body> bodies(kBodies);
  for (std::size_t i = 0; i < kBodies; ++i) {
    Body& body = bodies[i];
    const std::size_t kind = i % 8;
    const std::string s = std::to_string(rng.uniform_index(1u << 30) + 1);
    if (kind < 6) {
      body.kind = BodyKind::kCampaign;
      body.json = R"(", "type": "campaign", "scenario": {"schema": )"
                  R"("vds.scenario.v1", "scheme": "det"}, "campaign": )"
                  R"({"replicas": 20, "rounds": [1, 5, 10], "seed": )" +
                  s + "}}";
    } else if (kind == 6) {
      body.kind = BodyKind::kRun;
      body.json = R"(", "type": "run", "scenario": {"schema": )"
                  R"("vds.scenario.v1", "scheme": "det", "rounds": 2000, )"
                  R"("seed": )" +
                  s + "}}";
    } else {
      body.kind = BodyKind::kAdaptive;
      body.json = R"(", "type": "campaign", "scenario": {"schema": )"
                  R"("vds.scenario.v1", "scheme": "det"}, "campaign": )"
                  R"({"replicas": 64, "rounds": [1, 5, 10], "seed": )" +
                  s +
                  R"(, "target_ci": 0.1, "min_replicas": 8, "batch": 8}})";
    }
  }
  return bodies;
}

std::string request_line(const Body& body, const std::string& id) {
  return R"({"schema": "vds.serve_request.v1", "id": ")" + id + body.json;
}

/// The response body (everything after `"body":`), which excludes the
/// id and the queue/service times and so is a pure function of the
/// request body.
std::string_view response_body(const std::string& line) {
  const std::size_t at = line.find("\"body\":");
  if (at == std::string::npos) return {};
  return std::string_view(line).substr(at);
}

std::uint64_t cells_in(std::string_view body, BodyKind kind) {
  if (kind == BodyKind::kRun) return 1;
  const std::size_t at = body.find("\"cells_executed\":");
  if (at == std::string_view::npos) return 0;
  return std::strtoull(std::string(body.substr(at + 17, 24)).c_str(),
                       nullptr, 10);
}

/// One client's reply slot: write_line is called from the server's
/// dispatcher (or inline from submit for rejections).
class ClientSink : public vds::serve::ResponseSink {
 public:
  void write_line(const std::string& line) override {
    const auto now = Clock::now();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      line_ = line;
      at_ = now;
    }
    cv_.notify_one();
  }

  std::pair<std::string, Clock::time_point> wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return line_.has_value(); });
    std::pair<std::string, Clock::time_point> out{std::move(*line_), at_};
    line_.reset();
    return out;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::optional<std::string> line_;  // guarded by mutex_
  Clock::time_point at_{};           // guarded by mutex_
};

struct Reply {
  std::size_t body = 0;
  std::uint64_t hash = 0;
  std::uint64_t cells = 0;
  bool error = false;
  std::string text;  ///< kept for error replies only
  Clock::time_point done{};
  double latency_ms = 0.0;
};

struct Client {
  vds::sim::Rng rng;
  std::shared_ptr<ClientSink> sink = std::make_shared<ClientSink>();
  std::vector<Reply> replies;
  std::size_t sent = 0;
  std::string error;  ///< an exception that stopped this client
};

/// Requests completed in one sampling unit of an untraced window.
struct Unit {
  double width_s = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t cells = 0;
  std::vector<double> latency_ms;
};

/// Host-side stalls come in bursts, so untraced windows are cut into
/// sampling units of about this length and every end-to-end figure is
/// the median over units.
constexpr double kUnitSeconds = 2.0;

/// Runs all clients until `until`; returns the window's wall time.
double run_window(vds::serve::Server& server, std::vector<Client>& clients,
                  const std::vector<Body>& bodies, Clock::time_point until,
                  unsigned window) {
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      Client& client = clients[c];
      try {
        while (Clock::now() < until) {
          const std::size_t index = client.rng.uniform_index(bodies.size());
          std::string id = "c";
          id += std::to_string(c);
          id += "-w";
          id += std::to_string(window);
          id += '-';
          id += std::to_string(client.sent++);
          const std::string line = request_line(bodies[index], id);
          {
            // Parse probe: what submit() is about to do, timed alone.
            const metrics::Span span("serve.parse", "perfbench");
            (void)vds::serve::parse_request(line);
          }
          const auto sent = Clock::now();
          {
            const metrics::Span span("serve.submit", "perfbench");
            server.submit(line, client.sink);
          }
          auto [reply_line, at] = client.sink->wait();
          Reply reply;
          reply.body = index;
          reply.done = at;
          reply.latency_ms =
              std::chrono::duration<double, std::milli>(at - sent).count();
          const std::string_view body = response_body(reply_line);
          reply.error = body.empty() ||
                        reply_line.find("\"status\": \"ok\"") ==
                            std::string::npos;
          if (reply.error) {
            reply.text = reply_line;
          } else {
            reply.hash = vds::runtime::fnv1a(body);
            reply.cells = cells_in(body, bodies[index].kind);
          }
          client.replies.push_back(std::move(reply));
        }
      } catch (const std::exception& error) {
        client.error = error.what();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return seconds_between(start, Clock::now());
}

/// The response body a one-shot run of `body` produces, formatted by
/// the same protocol writer the server uses (timed as serve.format).
std::uint64_t reference_hash(const Body& body) {
  const std::string line = request_line(body, "ref");
  const vds::serve::ServeRequest request = vds::serve::parse_request(line);
  std::string reply;
  if (request.type == vds::serve::RequestType::kRun) {
    const auto outcome = vds::scenario::run_scenario_once(request.scenario);
    const metrics::Span span("serve.format", "perfbench");
    reply = vds::serve::format_run_response(request.id, request.scenario,
                                            outcome.faults_scheduled,
                                            outcome.report, 0.0, 0.0);
  } else {
    vds::runtime::McConfig config =
        vds::scenario::to_mc_config(request.campaign, request.scenario);
    config.threads = 4;
    const vds::runtime::McSummary summary = vds::runtime::run_mc_campaign(
        config, vds::scenario::make_mc_runner(request.scenario));
    const metrics::Span span("serve.format", "perfbench");
    reply = vds::serve::format_campaign_response(request.id, config, summary,
                                                 0.0, 0.0);
  }
  return vds::runtime::fnv1a(response_body(reply));
}

}  // namespace

Result run_serve_closed_4c(const Options& options) {
  Result result;
  reset_process_state();
  const std::vector<Body> bodies = make_bodies(options.seed);

  vds::serve::ServerOptions server_options;
  // Two pool workers, not one per core: every request of a batch waits
  // on the batch's single barrier, so a stall of any pool thread delays
  // all of them, and on a shared host each busy core is one more whose
  // time can be taken. Two workers halve that exposure and leave cores
  // for the clients and the dispatcher.
  server_options.threads =
      std::min(2u, vds::runtime::ThreadPool::hardware_threads());
  server_options.queue_limit = 4 * kClients;  // admission never refuses

  std::vector<double> setup_s;
  // Construction is sub-millisecond, so take extra set-up-only samples
  // for a steady median.
  for (int k = 0; k < 50; ++k) {
    const auto start = Clock::now();
    const vds::serve::Server server(server_options);
    setup_s.push_back(seconds_between(start, Clock::now()));
  }
  const auto start = Clock::now();
  vds::serve::Server server(server_options);
  setup_s.push_back(seconds_between(start, Clock::now()));

  std::vector<Client> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    Client client;
    client.rng = vds::sim::Rng(options.seed).substream(c + 1);
    clients.push_back(std::move(client));
  }

  // An untraced run is one window; a traced run alternates untraced
  // and traced one-second windows so trace.overhead_frac compares
  // like with like.
  std::vector<Unit> units;
  std::vector<double> rate, rate_traced;
  double wall_traced = 0.0;
  TraceSpans spans;
  std::map<std::string, std::uint64_t> sched;
  const Clock::time_point deadline = deadline_after(options.seconds);
  const unsigned min_windows = options.trace ? 2 : 1;
  for (unsigned window = 0;
       window < min_windows || (options.trace && Clock::now() < deadline);
       ++window) {
    const bool traced = options.trace && window % 2 == 1;
    const auto opened = Clock::now();
    const auto until =
        options.trace ? std::min(deadline, opened + std::chrono::seconds(1))
                      : deadline;
    std::vector<std::size_t> before;
    for (const Client& client : clients) before.push_back(client.replies.size());
    set_traced(traced);
    const double wall = run_window(server, clients, bodies, until, window);
    std::uint64_t requests = 0;
    for (unsigned c = 0; c < kClients; ++c) {
      requests += clients[c].replies.size() - before[c];
    }
    if (traced) {
      TraceSpans window_spans;
      window_spans.collect(
          wall_traced == 0.0
              ? options.out / "traces" / (options.workload + ".trace.json")
              : std::filesystem::path());
      sched = counters(false);
      set_traced(false);
      spans.dropped += window_spans.dropped;
      for (auto& [name, values] : window_spans.durations_us) {
        auto& into = spans.durations_us[name];
        into.insert(into.end(), values.begin(), values.end());
      }
      wall_traced += wall;
      rate_traced.push_back(static_cast<double>(requests) / wall);
      continue;
    }
    rate.push_back(static_cast<double>(requests) / wall);
    // Bucket by completion time; replies after `until` (in flight
    // when the window closed) fall outside every unit.
    const double planned = std::max(seconds_between(opened, until), 1e-3);
    const std::size_t count = std::max<long>(1, std::lround(planned / kUnitSeconds));
    const double width = planned / static_cast<double>(count);
    const std::size_t first = units.size();
    units.resize(first + count, Unit{width, 0, 0, {}});
    for (unsigned c = 0; c < kClients; ++c) {
      const Client& client = clients[c];
      for (std::size_t i = before[c]; i < client.replies.size(); ++i) {
        const Reply& reply = client.replies[i];
        const double at = seconds_between(opened, reply.done);
        const auto slot = static_cast<std::size_t>(at / width);
        if (at < 0.0 || slot >= count) continue;
        Unit& unit = units[first + slot];
        ++unit.requests;
        unit.cells += reply.cells;
        unit.latency_ms.push_back(reply.latency_ms);
      }
    }
  }
  const double rss = peak_rss_mb();
  server.finish();

  // Correctness: every reply ok, repeats of one body byte-identical,
  // and the digest over each client's first replies pinned (default
  // seed) or equal to one-shot references of every distinct body.
  std::map<std::size_t, std::uint64_t> seen;
  std::uint64_t served = 0, rejected = 0;
  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (const Client& client : clients) {
    if (!client.error.empty()) result.fail("client stopped: " + client.error);
    if (client.replies.size() < kDigestPrefix) {
      result.fail("a client completed fewer than " +
                  std::to_string(kDigestPrefix) + " requests");
    }
    for (std::size_t i = 0; i < client.replies.size(); ++i) {
      const Reply& reply = client.replies[i];
      ++served;
      if (reply.error) {
        ++rejected;
        ++result.failed;
        if (rejected <= 3) result.fail("error reply: " + reply.text);
        continue;
      }
      const auto [it, fresh] = seen.emplace(reply.body, reply.hash);
      if (!fresh && it->second != reply.hash) {
        ++result.failed;
        result.fail("body " + std::to_string(reply.body) +
                    " answered differently on a repeat");
      }
      if (i < kDigestPrefix) digest = vds::runtime::fnv1a(&reply.hash, 8, digest);
    }
  }
  result.attempted = served;
  result.digest = digest;
  const auto expected = expected_digest(options);
  if (expected) {
    check_digest(result, "serve_closed_4c first replies", digest, *expected,
                 kClients * kDigestPrefix);
  }
  if (!expected || options.trace) {
    // The traced run always builds the references: their formatting
    // is the serve.format probe.
    set_traced(options.trace);
    for (const auto& [index, hash] : seen) {
      if (reference_hash(bodies[index]) != hash) {
        ++result.failed;
        result.fail("body " + std::to_string(index) +
                    " differs from its one-shot reference");
      }
    }
    if (options.trace) {
      TraceSpans reference_spans;
      reference_spans.collect({});
      set_traced(false);
      spans.durations_us["serve.format"] = reference_spans.of("serve.format");
      spans.dropped += reference_spans.dropped;
    }
  }
  result.info["repeat_share"] = std::to_string(
      1.0 - static_cast<double>(seen.size()) / static_cast<double>(served));

  auto& e = result.end_to_end;
  put(e, "setup_s", median_value(setup_s), "s");
  e["setup_s"].units = setup_s;
  std::vector<double> unit_rate, unit_cells, unit_p50, unit_tail, all_ms;
  std::vector<double> p50_q, tail_q;
  for (const Unit& unit : units) {
    unit_rate.push_back(static_cast<double>(unit.requests) / unit.width_s);
    unit_cells.push_back(static_cast<double>(unit.cells) / unit.width_s);
    const Quantile mid = median(unit.latency_ms);
    const Quantile high = tail(unit.latency_ms);
    unit_p50.push_back(mid.value);
    unit_tail.push_back(high.value);
    p50_q.push_back(mid.q);
    tail_q.push_back(high.q);
    all_ms.insert(all_ms.end(), unit.latency_ms.begin(), unit.latency_ms.end());
  }
  put(e, "cells_per_s", median_value(unit_cells), "1/s");
  put(e, "req_per_s", median_value(unit_rate), "1/s");
  // Median over units of each unit's percentile; the rank printed is
  // the median unit's, the sample count the total.
  put_quantile(result, e, "latency_ms_p50", "ms",
               Quantile{median_value(unit_p50), median_value(p50_q),
                        all_ms.size()},
               all_ms);
  put_quantile(result, e, "latency_ms_p99", "ms",
               Quantile{median_value(unit_tail), median_value(tail_q),
                        all_ms.size()},
               all_ms);
  e["cells_per_s"].units = unit_cells;
  e["req_per_s"].units = unit_rate;
  e["latency_ms_p50"].units = unit_p50;
  e["latency_ms_p99"].units = unit_tail;
  for (const char* name : {"cells_per_s", "req_per_s", "latency_ms_p50",
                           "latency_ms_p99"}) {
    std::string& note = e[name].note;
    if (!note.empty()) note += ' ';
    note += "median of ";
    note += std::to_string(units.size());
    note += " units";
  }
  put(e, "peak_rss_mb", rss, "MB");

  if (options.trace) {
    auto& l = result.layers;
    // The server builds its own runners, so engine runs are read from
    // the engine's own "engine.run" span rather than a wrapper.
    const auto& runs = spans.of("engine.run");
    const double busy = spans.total_s("engine.run");
    put(l, "core.runs", static_cast<double>(runs.size()), "count");
    put(l, "core.busy_s", busy, "s");
    put_quantile(result, l, "core.run_us_p50", "us", median(runs), runs);
    put_quantile(result, l, "core.run_us_p99", "us", tail(runs), runs);
    const double busy_frac = busy / (server_options.threads * wall_traced);
    put(l, "core.busy_frac", busy_frac, "ratio");
    put(l, "runtime.overhead_frac", 1.0 - busy_frac, "ratio");
    put(l, "runtime.pool_steals", static_cast<double>(sched["pool.steals"]),
        "count");
    put(l, "runtime.pool_idle_waits",
        static_cast<double>(sched["pool.idle_waits"]), "count");
    const auto& parse = spans.of("serve.parse");
    const auto& submit = spans.of("serve.submit");
    const auto& format = spans.of("serve.format");
    put_quantile(result, l, "serve.parse_us_p50", "us", median(parse), parse);
    put_quantile(result, l, "serve.submit_us_p99", "us", tail(submit), submit);
    put_quantile(result, l, "serve.format_us_p50", "us", median(format),
                 format);
    put(l, "serve.rejected", static_cast<double>(rejected), "count");
    put(l, "serve.cells_per_s", median_value(unit_cells), "1/s");
    put(l, "serve.repeat_share",
        1.0 - static_cast<double>(seen.size()) / static_cast<double>(served),
        "ratio");
    put(l, "trace.overhead_frac",
        1.0 - median_value(rate_traced) / median_value(rate), "ratio");
    if (spans.dropped != 0) {
      result.fail("trace dropped " + std::to_string(spans.dropped) +
                  " events; per-layer figures would be incomplete");
    }
  }
  return result;
}

}  // namespace perfbench
