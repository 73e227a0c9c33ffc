#include "scenario/cli.hpp"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "runtime/journal.hpp"
#include "runtime/metrics.hpp"
#include "scenario/campaign_spec.hpp"
#include "scenario/engine_factory.hpp"

namespace vds::scenario {

void bad_value(std::string_view flag, std::string_view text,
               std::string_view wanted) {
  throw CliError(std::string(flag) + ": expected " + std::string(wanted) +
                 ", got '" + std::string(text) + "'");
}

double parse_double(std::string_view flag, std::string_view text) {
  const std::string token(text);
  if (token.empty()) bad_value(flag, text, "a number");
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) {
    bad_value(flag, text, "a number");
  }
  if (!std::isfinite(parsed)) {
    bad_value(flag, text, "a finite number");
  }
  return parsed;
}

std::uint64_t parse_u64(std::string_view flag, std::string_view text) {
  const std::string token(text);
  // strtoull silently accepts "-1" by wrapping around; reject signs.
  if (token.empty() || token[0] == '-' || token[0] == '+') {
    bad_value(flag, text, "a non-negative integer");
  }
  errno = 0;
  char* end = nullptr;
  const std::uint64_t parsed = std::strtoull(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size()) {
    bad_value(flag, text, "a non-negative integer");
  }
  if (errno == ERANGE) {
    bad_value(flag, text, "an integer in u64 range");
  }
  return parsed;
}

int parse_int(std::string_view flag, std::string_view text) {
  const std::string token(text);
  if (token.empty()) bad_value(flag, text, "an integer");
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size()) {
    bad_value(flag, text, "an integer");
  }
  if (errno == ERANGE || parsed < INT_MIN || parsed > INT_MAX) {
    bad_value(flag, text, "an integer in int range");
  }
  return static_cast<int>(parsed);
}

unsigned parse_unsigned(std::string_view flag, std::string_view text) {
  const std::uint64_t parsed = parse_u64(flag, text);
  if (parsed > UINT_MAX) {
    bad_value(flag, text, "an integer in unsigned range");
  }
  return static_cast<unsigned>(parsed);
}

std::string_view ArgCursor::value(std::string_view flag) {
  if (done()) {
    throw CliError("missing value for " + std::string(flag));
  }
  return next();
}

bool apply_scenario_flag(Scenario& scenario, std::string_view arg,
                         ArgCursor& args) {
  if (arg == "--scenario") {
    const std::string path(args.value(arg));
    try {
      scenario = Scenario::from_json(read_file(path));
    } catch (const std::exception& error) {
      throw CliError(path + ": " + error.what());
    }
    return true;
  }
  if (arg == "--engine") {
    const std::string_view name = args.value(arg);
    try {
      scenario.engine = parse_engine_kind(name);
    } catch (const std::invalid_argument&) {
      bad_value(arg, name, engine_kind_list());
    }
    return true;
  }
  if (arg == "--scheme") {
    const std::string_view name = args.value(arg);
    const auto parsed = core::parse_recovery_scheme(name);
    if (!parsed) {
      bad_value(arg, name, "rollback, retry, det, prob or predict");
    }
    scenario.scheme = *parsed;
    return true;
  }
  if (arg == "--predictor") {
    const std::string_view name = args.value(arg);
    // Reject here, not in validate(): the diagnostic must name the
    // flag and value like every other strict-parse error.
    if (!known_predictor(name)) {
      bad_value(arg, name, "a registered predictor name");
    }
    scenario.predictor = std::string(name);
    return true;
  }
  if (arg == "--adaptive") {
    scenario.adaptive = true;
    return true;
  }
  if (arg == "--alpha") {
    scenario.alpha = args.value_double(arg);
    return true;
  }
  if (arg == "--beta") {
    scenario.beta = args.value_double(arg);
    return true;
  }
  if (arg == "--s") {
    scenario.s = args.value_int(arg);
    return true;
  }
  if (arg == "--rounds") {
    scenario.rounds = args.value_u64(arg);
    return true;
  }
  if (arg == "--hw-threads") {
    scenario.threads = args.value_int(arg);
    return true;
  }
  if (arg == "--seed") {
    scenario.seed = args.value_u64(arg);
    return true;
  }
  if (arg == "--rate") {
    scenario.rate = args.value_double(arg);
    return true;
  }
  if (arg == "--crash-weight") {
    scenario.crash_weight = args.value_double(arg);
    return true;
  }
  if (arg == "--permanent-weight") {
    scenario.permanent_weight = args.value_double(arg);
    return true;
  }
  if (arg == "--bias") {
    scenario.bias = args.value_double(arg);
    return true;
  }
  if (arg == "--locations") {
    const std::string_view text = args.value(arg);
    const std::uint64_t wide = parse_u64(arg, text);
    if (wide > 0xFFFFFFFFull) {
      bad_value(arg, text, "an integer in u32 range");
    }
    scenario.locations = static_cast<std::uint32_t>(wide);
    return true;
  }
  if (arg == "--skew") {
    scenario.skew = args.value_double(arg);
    return true;
  }
  if (arg == "--replay-window") {
    scenario.replay_window = args.value_int(arg);
    return true;
  }
  if (arg == "--replay-overhead") {
    scenario.replay_record_overhead = args.value_double(arg);
    return true;
  }
  if (arg == "--decorrelation") {
    scenario.dme_decorrelation = args.value_double(arg);
    return true;
  }
  if (arg == "--common-mode") {
    scenario.dme_common_mode = args.value_double(arg);
    return true;
  }
  return false;
}

std::string_view scenario_usage() noexcept {
  return R"(scenario (shared across vds_cli / vds_mc / vds_sweep):
  --scenario FILE                load a vds.scenario.v1 JSON file
                                 (later flags override its fields)
  --engine smt|conv|srt|duplex|replay|dme
                                 protocol engine            [smt]
  --scheme rollback|retry|det|prob|predict   recovery scheme [det]
  --predictor random|oracle|static1|static2|last|two_bit|history|tournament|perceptron|crash
                                 faulty-version predictor   [random]
  --adaptive                     adaptive det/prob selection
  --alpha X                      SMT slowdown factor        [0.65]
  --beta X                       c = t_cmp = beta * t       [0.1]
  --s N                          checkpoint interval        [20]
  --rounds N                     job length in rounds       [10000]
  --hw-threads 2|3|5             SMT hardware threads       [2]
  --seed N                       RNG seed                   [1]
  --rate X                       Poisson fault rate         [0.01]
  --crash-weight X               crash fault fraction       [0]
  --permanent-weight X           permanent fault fraction   [0]
  --bias X                       P(fault hits version 1)    [0.5]
  --locations N                  abstract fault locations   [16]
  --skew X                       location uniformity (0,1]  [1.0]
  --replay-window N              replay: rounds per compare [4]
  --replay-overhead X            replay: record slowdown    [0.05]
  --decorrelation X              dme: structural diversity d [0.5]
  --common-mode X                dme: common-mode fraction at
                                 d = 0                      [0.3]
)";
}

bool apply_observability_flag(Observability& obs, std::string_view arg,
                              ArgCursor& args) {
  if (arg == "--metrics") {
    obs.metrics_path = std::string(args.value(arg));
    return true;
  }
  if (arg == "--trace") {
    obs.trace_path = std::string(args.value(arg));
    return true;
  }
  return false;
}

std::string_view observability_usage() noexcept {
  return R"(observability (shared across vds_cli / vds_mc / vds_sweep):
  --metrics FILE                 write a vds.metrics.v1 snapshot
                                 ("-" = stdout); the "counters"
                                 section is bitwise-stable across
                                 --threads, timings are wall-clock
  --trace FILE                   write Chrome trace-event spans
                                 (load in chrome://tracing / Perfetto)
)";
}

void Observability::arm() const {
  auto& registry = vds::runtime::metrics::registry();
  if (wanted()) registry.set_enabled(true);
  if (!trace_path.empty()) registry.set_tracing(true);
}

namespace {

template <typename WriteFn>
void write_to(const std::string& path, const char* what, WriteFn&& fn) {
  if (path == "-") {
    fn(std::cout);
    return;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw CliError(std::string("cannot write ") + what + " '" + path + "'");
  }
  fn(out);
  out.flush();
  if (!out) {
    throw CliError(std::string(what) + " '" + path + "': write failed");
  }
}

}  // namespace

void Observability::write() const {
  auto& registry = vds::runtime::metrics::registry();
  if (!metrics_path.empty()) {
    write_to(metrics_path, "metrics snapshot", [&](std::ostream& os) {
      registry.write_snapshot(os);
    });
  }
  if (!trace_path.empty()) {
    write_to(trace_path, "trace",
             [&](std::ostream& os) { registry.write_trace(os); });
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw CliError("cannot read '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

namespace {

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

}  // namespace

bool apply_campaign_flag(CampaignSpec& spec, std::string_view arg,
                         ArgCursor& args) {
  if (arg == "--replicas") {
    spec.replicas = args.value_u64(arg);
  } else if (arg == "--grid") {
    spec.grid.clear();
    for (const std::string& part : split_csv(std::string(args.value(arg)))) {
      const std::uint64_t round = parse_u64(arg, part);
      if (round == 0) bad_value(arg, part, "a positive round number");
      spec.grid.push_back(round);
    }
  } else if (arg == "--kinds") {
    spec.kinds.clear();
    for (const std::string& part : split_csv(std::string(args.value(arg)))) {
      try {
        spec.kinds.push_back(parse_fault_kind(part));
      } catch (const std::invalid_argument&) {
        bad_value(arg, part,
                  "transient, crash, permanent or processor_crash");
      }
    }
  } else if (arg == "--fixed-offset") {
    spec.jitter = false;
    spec.fixed_offset = args.value_double(arg);
  } else if (arg == "--threads") {
    spec.threads = args.value_unsigned(arg);
  } else if (arg == "--seed") {
    spec.seed = args.value_u64(arg);
  } else if (arg == "--journal") {
    spec.journal = std::string(args.value(arg));
  } else if (arg == "--journal-format") {
    const std::string_view text = args.value(arg);
    if (text == "v2") {
      spec.journal_format = vds::runtime::JournalFormat::kV2Text;
    } else if (text == "v3") {
      spec.journal_format = vds::runtime::JournalFormat::kV3Binary;
    } else {
      bad_value(arg, text, "v2 or v3");
    }
  } else if (arg == "--resume") {
    spec.resume = true;
  } else if (arg == "--cell-range") {
    const std::string text(args.value(arg));
    const std::size_t colon = text.find(':');
    if (colon == std::string::npos) {
      bad_value(arg, text, "LO:HI (a half-open cell range)");
    }
    spec.cell_lo = parse_u64(arg, text.substr(0, colon));
    spec.cell_hi = parse_u64(arg, text.substr(colon + 1));
    if (spec.cell_lo >= spec.cell_hi) {
      bad_value(arg, text, "LO < HI");
    }
  } else if (arg == "--cell-timeout") {
    const std::string_view text = args.value(arg);
    spec.cell_timeout = parse_double(arg, text);
    if (spec.cell_timeout < 0.0) {
      bad_value(arg, text, "a number >= 0");
    }
  } else if (arg == "--max-retries") {
    spec.max_retries = args.value_unsigned(arg);
  } else if (arg == "--target-ci") {
    const std::string_view text = args.value(arg);
    spec.target_ci = parse_double(arg, text);
    if (spec.target_ci <= 0.0) {
      bad_value(arg, text, "a relative half-width > 0");
    }
  } else if (arg == "--min-replicas") {
    const std::string_view text = args.value(arg);
    spec.min_replicas = parse_u64(arg, text);
    if (spec.min_replicas == 0) {
      bad_value(arg, text, "a replica count >= 1");
    }
  } else if (arg == "--max-replicas") {
    const std::string_view text = args.value(arg);
    spec.max_replicas = parse_u64(arg, text);
    if (spec.max_replicas == 0) {
      bad_value(arg, text, "a replica count >= 1");
    }
  } else if (arg == "--batch") {
    const std::string_view text = args.value(arg);
    spec.batch = parse_u64(arg, text);
    if (spec.batch == 0) {
      bad_value(arg, text, "a wave size >= 1");
    }
  } else if (arg == "--chaos") {
    spec.chaos = std::string(args.value(arg));
  } else {
    return false;
  }
  return true;
}

std::string_view campaign_usage() noexcept {
  return R"(campaign grid:
  --replicas N                   Monte Carlo replicas per grid cell [100]
  --grid r1,r2,...               detection rounds to inject at [1,5,10,15,20]
  --kinds k1,k2,...              transient,crash,permanent,processor_crash
                                 (comma-separated)            [all four]
  --fixed-offset X               disable fault-position jitter, use
                                 fractional offset X within the round

execution:
  --threads N                    worker threads (0 = hardware) [0]
  --seed N                       campaign RNG seed            [1]
  --journal PATH                 append-only progress journal
                                 (CRC32C per record; v1/v2 text and
                                 v3 binary journals all resume fine)
  --journal-format FORMAT        encoding when a *new* journal is
                                 created: v3 (binary, default) or v2
                                 (text); resuming an existing journal
                                 keeps the file's own format
  --resume                       skip cells already in the journal;
                                 corrupt/torn records are counted and
                                 their cells re-executed
  --cell-range LO:HI             dispatch only cells in [LO, HI) —
                                 shard a campaign across processes,
                                 then 'vds_journal merge' the shard
                                 journals and --resume the result

adaptive sampling:
  --target-ci X                  stop each (kind, round) stratum once
                                 the relative 95% Student-t CI
                                 half-width of its tracked statistics
                                 reaches X           [0 = fixed grid]
  --min-replicas N               never stop a stratum earlier    [8]
  --max-replicas N               per-stratum replica cap (replaces
                                 --replicas as the maximum; requires
                                 --target-ci)
  --batch N                      replicas per dispatch wave      [32]

robustness:
  --cell-timeout SECONDS         per-cell watchdog; a hung cell is
                                 retried, then quarantined [0 = off]
  --max-retries N                retries before quarantine    [2]
  --chaos SPEC                   arm deterministic harness fault points,
                                 SPEC = site=prob[:limit],...  (sites:
                                 cell.hang cell.fail journal.corrupt
                                 journal.torn pool.delay); also read
                                 from $VDS_CHAOS
)";
}

}  // namespace vds::scenario
