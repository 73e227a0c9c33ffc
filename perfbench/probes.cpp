// Micro-probes of the checkpoint and fault layers. Each calls one
// public function in a tight loop on inputs shaped like a cell of
// mc_engine_1w (16-word states, one fault per timeline, 1.4-unit
// round windows over a 60-round job) and reports the median of five
// timed batches as nanoseconds per call.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "checkpoint/state.hpp"
#include "checkpoint/store.hpp"
#include "common.hpp"
#include "fault/detector.hpp"
#include "fault/injector.hpp"

namespace perfbench {

namespace {

using vds::checkpoint::VersionState;

// Keeps results observable so the calls are not optimised away.
volatile std::uint64_t g_sink = 0;

template <typename Body>
double ns_per_call(std::uint64_t calls, Body&& body) {
  std::vector<double> batches;
  for (int batch = 0; batch < 5; ++batch) {
    std::uint64_t acc = 0;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < calls; ++i) acc += body(i);
    const double s = seconds_between(start, Clock::now());
    g_sink = g_sink + acc;
    batches.push_back(s * 1e9 / static_cast<double>(calls));
  }
  return median_value(batches);
}

void put_ns(Result& result, const std::string& name, double ns) {
  Metric metric;
  metric.value = ns;
  metric.unit = "ns";
  metric.samples = 5;
  metric.note = "median of 5 batches";
  result.layers[name] = metric;
}

}  // namespace

void run_layer_probes(Result& result) {
  constexpr std::size_t kWords = 16;  // VdsOptions::state_words default
  constexpr double kRound = 1.4;      // 2 * alpha + beta at the defaults
  constexpr std::uint64_t kCalls = 200000;

  VersionState a(1, kWords);
  VersionState b = a;
  VersionState c = a;
  c.flip_bit(3, 17);

  put_ns(result, "checkpoint.advance_round_ns",
         ns_per_call(kCalls, [&](std::uint64_t i) {
           a.advance_round(i);
           return a.word(i % kWords);
         }));
  b = a;
  put_ns(result, "checkpoint.equals_ns",
         ns_per_call(kCalls, [&](std::uint64_t) {
           return static_cast<std::uint64_t>(a.equals(b));
         }));
  put_ns(result, "checkpoint.digest_ns",
         ns_per_call(kCalls, [&](std::uint64_t) { return a.digest(); }));
  vds::checkpoint::CheckpointStore store({}, /*keep_last=*/2);
  put_ns(result, "checkpoint.save_ns",
         ns_per_call(kCalls, [&](std::uint64_t i) {
           return static_cast<std::uint64_t>(
               store.save(i, a, static_cast<double>(i) * kRound));
         }));

  put_ns(result, "fault.compare_states_ns",
         ns_per_call(kCalls, [&](std::uint64_t) {
           return static_cast<std::uint64_t>(
               vds::fault::compare_states(a, b));
         }));
  put_ns(result, "fault.majority_vote_ns",
         ns_per_call(kCalls, [&](std::uint64_t) {
           return static_cast<std::uint64_t>(
               vds::fault::majority_vote(a, b, c));
         }));

  // One fault in round 10 of a 60-round job, drained window by window.
  constexpr std::uint64_t kRounds = 60;
  vds::fault::Fault fault;
  fault.when = 9.3 * kRound;
  vds::fault::FaultTimeline timeline({fault});
  put_ns(result, "fault.drain_window_ns",
         ns_per_call(kCalls, [&](std::uint64_t i) {
           const std::uint64_t round = i % kRounds;
           if (round == 0) timeline.rewind();
           const double from = static_cast<double>(round) * kRound;
           return static_cast<std::uint64_t>(
               timeline.drain_window(from, from + kRound).size());
         }));
}

}  // namespace perfbench
