#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <streambuf>

#include "runtime/metrics.hpp"

namespace perfbench {

namespace metrics = vds::runtime::metrics;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

namespace {

Quantile at_rank(std::vector<double> samples, double q) {
  Quantile out;
  out.n = samples.size();
  out.q = q;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  out.value = samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
  return out;
}

}  // namespace

Quantile median(std::vector<double> samples) {
  return at_rank(std::move(samples), 0.5);
}

Quantile tail(std::vector<double> samples) {
  const auto n = static_cast<double>(samples.size());
  // Nearest rank ceil(q n) leaves n - ceil(q n) samples above it.
  const double q = std::min(0.99, (n - 10.0) / n);
  return at_rank(std::move(samples), q >= 0.5 ? q : 1.0);
}

void put(std::map<std::string, Metric>& into, const std::string& name,
         double value, const std::string& unit) {
  Metric metric;
  metric.value = value;
  metric.unit = unit;
  into[name] = metric;
}

void put_quantile(Result& result, std::map<std::string, Metric>& into,
                  const std::string& name, const std::string& unit,
                  const Quantile& q, const std::vector<double>& samples) {
  Metric metric;
  metric.value = q.value;
  metric.unit = unit;
  metric.samples = q.n;
  char note[64];
  std::snprintf(note, sizeof note, "q=%.4f n=%zu", q.q, q.n);
  metric.note = note;
  into[name] = metric;
  if (samples.empty()) return;
  const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  if (q.value < *lo || q.value > *hi) {
    result.fail(name + ": percentile outside [min, max] of its samples");
  }
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string hex16(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

namespace {

std::uint64_t pinned_digest(const std::string& workload) {
  // Digests of each workload at kDefaultSeed on the parent commit of
  // the benchmark. Campaign digests are bitwise properties of the
  // code (thread-count and schedule independent); a change that
  // moves one changes results, not just speed.
  static const std::map<std::string, std::uint64_t> pins = {
      {"mc_engine_1w", 0x5ade896602d4c3e8ull},
      {"mc_journal_2w", 0xf534e8040cc7392aull},
      {"serve_closed_4c", 0x2ebcfa66468b31dfull},
      {"fabric_2w", 0xda4761772869ae42ull},
  };
  return pins.at(workload);
}

}  // namespace

std::optional<std::uint64_t> expected_digest(const Options& options) {
  if (options.expect_digest) return options.expect_digest;
  if (options.seed == kDefaultSeed) return pinned_digest(options.workload);
  return std::nullopt;
}

void check_digest(Result& result, const char* what, std::uint64_t got,
                  std::uint64_t expected, std::uint64_t weight) {
  if (got == expected) return;
  result.failed += weight;
  result.fail(std::string(what) + ": digest " + hex16(got) + " != expected " +
              hex16(expected));
}

void reset_process_state() {
  metrics::registry().set_tracing(false);
  metrics::registry().set_enabled(false);
  metrics::registry().reset();
  vds::runtime::clear_drain_request();
}

void set_traced(bool on) {
  auto& reg = metrics::registry();
  if (on) reg.reset();
  reg.set_enabled(on);
  reg.set_tracing(on);
}

namespace {

/// Line scanner over the registry's pretty-printed trace: every event
/// is a top-level array element opened by a "  {" line, with its
/// `"name": ...` line before its `"dur": ...` line. Every event is
/// scanned; the file copy keeps at most kSavedPerName events of each
/// name (the earliest, as the trace is sorted by start time), so a
/// half-million-cell trace stays loadable in a trace viewer.
class TraceScanner : public std::streambuf {
 public:
  static constexpr std::size_t kSavedPerName = 20000;

  TraceScanner(TraceSpans& spans, std::FILE* tee) : spans_(spans), tee_(tee) {}

 protected:
  int_type overflow(int_type c) override {
    if (c == traits_type::eof()) return traits_type::not_eof(c);
    const char ch = traits_type::to_char_type(c);
    xsputn(&ch, 1);
    return c;
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) {
      if (s[i] == '\n') {
        line(line_);
        line_.clear();
      } else {
        line_.push_back(s[i]);
      }
    }
    return n;
  }

 private:
  void line(const std::string& text) {
    if (text == "  {") {
      event_ = "  {\n";
      return;
    }
    if (text == "  }" || text == "  },") {
      if (saved_[name_]++ < kSavedPerName) {
        save(kept_ == 0 ? "[\n" : ",\n");
        save(event_ + "  }");
        ++kept_;
      }
      return;
    }
    if (text == "[]" || text == "]") {
      save(kept_ == 0 ? "[]\n" : "\n]\n");
      return;
    }
    event_ += text;
    event_ += '\n';
    const std::size_t at = text.find_first_not_of(' ');
    if (at == std::string::npos) return;
    const std::string_view field(text.data() + at, text.size() - at);
    if (field.rfind("\"name\": \"", 0) == 0) {
      const std::size_t end = field.find('"', 9);
      name_.assign(field.substr(9, end - 9));
    } else if (field.rfind("\"dur\": ", 0) == 0) {
      spans_.durations_us[name_].push_back(
          std::strtod(std::string(field.substr(7)).c_str(), nullptr));
    } else if (field.rfind("\"dropped\": ", 0) == 0) {
      spans_.dropped += std::strtoull(
          std::string(field.substr(11)).c_str(), nullptr, 10);
    }
  }

  void save(const std::string& text) {
    if (tee_ != nullptr &&
        std::fwrite(text.data(), 1, text.size(), tee_) != text.size()) {
      throw std::runtime_error("trace file write failed");
    }
  }

  TraceSpans& spans_;
  std::FILE* tee_;
  std::string line_;
  std::string event_;
  std::string name_;
  std::map<std::string, std::size_t> saved_;
  std::size_t kept_ = 0;
};

}  // namespace

void TraceSpans::collect(const std::filesystem::path& save_to) {
  std::FILE* tee = nullptr;
  if (!save_to.empty()) {
    std::filesystem::create_directories(save_to.parent_path());
    tee = std::fopen(save_to.c_str(), "wb");
    if (tee == nullptr) {
      throw std::runtime_error("cannot write trace " + save_to.string());
    }
  }
  TraceScanner scanner(*this, tee);
  std::ostream os(&scanner);
  try {
    metrics::registry().write_trace(os);
  } catch (...) {
    if (tee != nullptr) std::fclose(tee);
    throw;
  }
  if (tee != nullptr && std::fclose(tee) != 0) {
    throw std::runtime_error("trace file close failed");
  }
}

const std::vector<double>& TraceSpans::of(const std::string& name) const {
  static const std::vector<double> none;
  const auto it = durations_us.find(name);
  return it == durations_us.end() ? none : it->second;
}

double TraceSpans::total_s(const std::string& name) const {
  double sum = 0.0;
  for (const double us : of(name)) sum += us;
  return sum * 1e-6;
}

std::map<std::string, std::uint64_t> counters(bool deterministic) {
  std::ostringstream os;
  metrics::registry().write_counters(
      os, deterministic ? metrics::Determinism::kDeterministic
                        : metrics::Determinism::kScheduling);
  std::map<std::string, std::uint64_t> out;
  std::istringstream in(os.str());
  std::string name;
  std::uint64_t value = 0;
  while (in >> name >> value) out[name] = value;
  return out;
}

ScratchDir::ScratchDir(const std::filesystem::path& root) {
  std::filesystem::create_directories(root);
  std::string pattern = (root / "d-XXXXXX").string();
  if (::mkdtemp(pattern.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed under " + root.string());
  }
  path_ = pattern;
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

vds::runtime::McRunner timed_runner(vds::runtime::McRunner inner) {
  return [inner = std::move(inner)](const vds::runtime::McCell& cell,
                                    vds::fault::FaultTimeline& timeline,
                                    vds::sim::Rng& rng) {
    const metrics::Span span("core.run", "perfbench", cell.index);
    return inner(cell, timeline, rng);
  };
}

double median_value(std::vector<double> values) {
  return median(std::move(values)).value;
}

}  // namespace perfbench
