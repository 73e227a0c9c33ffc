// vds_perfbench: runs one benchmark workload in this process, prints
// a human-readable report and writes the machine-readable record
// (schema vds.perfbench.v1) that perfbench/run.py turns into the
// benchmark's result line. Exit status: 0 when every output checked
// out, 1 when a check failed, 2 on bad usage, 3 on a runtime error.
//
//   vds_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --tmp DIR --out DIR --record FILE
//                 [--revision TEXT] [--expect-digest HEX]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include <unistd.h>

#include "common.hpp"
#include "runtime/json_writer.hpp"
#include "runtime/metrics.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

struct Host {
  unsigned nproc = std::thread::hardware_concurrency();
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string compiler = __VERSION__;
  std::string cxx_flags = PERFBENCH_CXX_FLAGS;
  std::string revision = "unknown";
  bool vds_metrics = VDS_METRICS_ENABLED != 0;
  bool sanitized = false;
  bool optimized = false;

  Host() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    sanitized = true;
#endif
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    optimized = true;
#endif
    if (cxx_flags.find("-fsanitize") != std::string::npos) sanitized = true;
  }

  /// Numbers from sanitizer or unoptimised builds must never be
  /// compared with Release ones.
  [[nodiscard]] bool comparable() const { return optimized && !sanitized; }
};

/// CPU time the hypervisor gave to other guests so far, all CPUs, in
/// seconds (the "steal" column of /proc/stat; 0 where absent). Shared
/// hosts slow every workload while it grows, so each run records it.
double steal_seconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  unsigned long long field[8] = {};
  stat >> cpu;
  for (unsigned long long& value : field) stat >> value;
  if (!stat || cpu != "cpu") return 0.0;
  return static_cast<double>(field[7]) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

void write_metrics(vds::runtime::JsonWriter& json, const char* key,
                   const std::map<std::string, Metric>& metrics) {
  json.key(key).begin_object();
  for (const auto& [name, metric] : metrics) {
    json.key(name).begin_object();
    json.field("value", metric.value);
    json.field("unit", metric.unit);
    json.field("samples", static_cast<std::uint64_t>(metric.samples));
    json.field("note", metric.note);
    json.key("units").begin_array();
    for (const double value : metric.units) json.value(value);
    json.end_array();
    json.end_object();
  }
  json.end_object();
}

void write_record(const std::string& path, const Options& options,
                  const Host& host, const Result& result, double steal_s) {
  std::ofstream out(path);
  vds::runtime::JsonWriter json(out);
  json.begin_object();
  json.field("schema", "vds.perfbench.v1");
  json.field("workload", options.workload);
  json.field("seed", options.seed);
  json.field("seconds", options.seconds);
  json.field("trace", options.trace);
  json.field("correct", result.correct());
  json.field("attempted", result.attempted);
  json.field("failed", result.failed);
  json.field("error_rate", result.attempted == 0
                               ? 1.0
                               : static_cast<double>(result.failed) /
                                     static_cast<double>(result.attempted));
  json.field("digest", perfbench::hex16(result.digest));
  json.key("failures").begin_array();
  for (const std::string& why : result.failures) json.value(why);
  json.end_array();
  json.key("host").begin_object();
  json.field("nproc", static_cast<std::uint64_t>(host.nproc));
  json.field("build_type", host.build_type);
  json.field("compiler", host.compiler);
  json.field("revision", host.revision);
  json.field("vds_metrics", host.vds_metrics);
  json.field("comparable", host.comparable());
  json.field("steal_s", steal_s);
  json.end_object();
  json.key("info").begin_object();
  for (const auto& [key, value] : result.info) json.field(key, value);
  json.end_object();
  write_metrics(json, "end_to_end", result.end_to_end);
  write_metrics(json, "layers", result.layers);
  json.end_object();
  if (!out) throw std::runtime_error("cannot write record " + path);
}

void print_report(const Options& options, const Host& host,
                  const Result& result, double steal_s) {
  std::printf("perfbench: workload %s, seed %llu, %.0f s, trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("host: nproc %u, %s build, gcc %s, revision %s, "
              "VDS_METRICS %s%s\n",
              host.nproc, host.build_type.c_str(), host.compiler.c_str(),
              host.revision.c_str(), host.vds_metrics ? "ON" : "OFF",
              host.comparable()
                  ? ""
                  : " -- SANITIZER/DEBUG BUILD, NOT COMPARABLE WITH RELEASE");
  std::printf("host: %.2f CPU-s stolen by the hypervisor during the run\n",
              steal_s);
  const auto print = [](const char* title,
                        const std::map<std::string, Metric>& metrics) {
    if (metrics.empty()) return;
    std::printf("%s:\n", title);
    for (const auto& [name, metric] : metrics) {
      std::printf("  %-34s %14.6g %-6s %s\n", name.c_str(), metric.value,
                  metric.unit.c_str(), metric.note.c_str());
    }
  };
  print("end-to-end", result.end_to_end);
  print("per-layer", result.layers);
  for (const auto& [key, value] : result.info) {
    std::printf("%s: %s\n", key.c_str(), value.c_str());
  }
  std::printf("digest: %s\n", perfbench::hex16(result.digest).c_str());
  std::printf("error_rate: %llu / %llu\n",
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  for (const std::string& why : result.failures) {
    std::printf("FAILED: %s\n", why.c_str());
  }
  std::fflush(stdout);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "vds_perfbench: %s\n", why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  static const std::map<std::string, std::function<Result(const Options&)>>
      workloads = {
          {"mc_engine_1w", perfbench::run_mc_engine_1w},
          {"mc_journal_2w", perfbench::run_mc_journal_2w},
          {"serve_closed_4c", perfbench::run_serve_closed_4c},
          {"fabric_2w", perfbench::run_fabric_2w},
      };
  Options options;
  Host host;
  std::string record;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--tmp") {
      options.tmp = value;
    } else if (arg == "--out") {
      options.out = value;
    } else if (arg == "--record") {
      record = value;
    } else if (arg == "--revision") {
      host.revision = value;
    } else if (arg == "--expect-digest") {
      options.expect_digest = std::strtoull(value.c_str(), &end, 16);
      if (*end != '\0' || value.empty()) usage("--expect-digest takes hex");
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  const auto workload = workloads.find(options.workload);
  if (workload == workloads.end()) usage("unknown or missing --workload");
  if (options.tmp.empty() || options.out.empty() || record.empty()) {
    usage("--tmp, --out and --record are required");
  }

  try {
    const double steal_before = steal_seconds();
    const Result result = workload->second(options);
    const double steal_s = steal_seconds() - steal_before;
    print_report(options, host, result, steal_s);
    write_record(record, options, host, result, steal_s);
    return result.correct() ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "vds_perfbench: %s\n", error.what());
    return 3;
  }
}
