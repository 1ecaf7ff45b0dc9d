// Traced repetitions: the harness's Turquois, Bracha and ABBA repetitions
// rebuilt from their public constructors, with timing wrappers inserted at
// the public layer boundaries (runtime::Runtime, net::DatagramPort,
// net::BroadcastService, the simulator's run_until and the auditor hooks).
//
// A traced repetition must reproduce harness::run_once's simulated output
// for the same (config, repetition) exactly, or it would measure a different
// program; callers compare fingerprint() of both results.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hpp"

namespace perfbench {

/// Host time and call count of one layer. Self time excludes the time of
/// spans nested inside this layer's spans.
struct Layer {
  double incl_s = 0.0;
  double self_s = 0.0;
  std::uint64_t calls = 0;
};

/// A stack of open host-time spans (steady_clock).
class Spans {
 public:
  template <typename F>
  void time(Layer& layer, F&& fn) {
    const auto start = std::chrono::steady_clock::now();
    child_s_.push_back(0.0);
    fn();
    const double d = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    const double child = child_s_.back();
    child_s_.pop_back();
    layer.incl_s += d;
    layer.self_s += d - child;
    ++layer.calls;
    if (!child_s_.empty()) child_s_.back() += d;
  }

 private:
  std::vector<double> child_s_;
};

/// Per-layer host time of one traced repetition. `harness` is the root
/// span around the whole repetition; every other layer nests inside it, so
/// the self times of all layers sum to harness.incl_s.
struct LayerTimes {
  Layer harness;    // the traced repetition: build, drive loop, collect
  Layer sim;        // Simulator::run_until
  Layer recv;       // Turquois DatagramPort delivery handlers
  Layer recv_exec;  // Turquois Runtime::execute completions (the receive path)
  Layer exec;       // Bracha/ABBA Runtime::execute completions
  Layer timer;      // Runtime::schedule callbacks
  Layer broadcast;  // BroadcastService::broadcast into the medium
  Layer audit;      // auditor hooks and finish
  Layer record;     // copying sent payloads for the codec replay

  [[nodiscard]] double self_sum_s() const {
    return harness.self_s + sim.self_s + recv.self_s + recv_exec.self_s +
           exec.self_s + timer.self_s + broadcast.self_s + audit.self_s +
           record.self_s;
  }
};

struct TracedRep {
  turq::harness::RunResult result;
  LayerTimes layers;
  double charged_sim_s = 0.0;    // simulated CPU through charge + execute
  std::uint64_t sim_events = 0;  // events the simulator dispatched
  /// Host time to decode and authenticate the repetition's unique sent
  /// payloads through a fresh ExchangePool (Turquois only).
  double codec_crypto_s = 0.0;
  // Turquois Process::stats() summed over all processes (max for the
  // pending high-water mark) and the repetition's ExchangePool counters.
  std::uint64_t accepted = 0;
  std::uint64_t authenticated = 0;
  std::uint64_t auth_failures = 0;
  std::uint64_t pending_hwm = 0;
  std::uint64_t coin_flips = 0;
  std::uint64_t phase_jumps = 0;
  std::uint64_t pool_acquires = 0;
  std::uint64_t pool_shared_hits = 0;
};

/// Runs repetition `rep` of `cfg` (Turquois, Bracha or ABBA; single-hop,
/// failure-free or Byzantine plan) under the timing wrappers, reusing the
/// hoisted `setup` exactly as run_once(cfg, rep, &setup) does.
TracedRep run_traced(const turq::harness::ScenarioConfig& cfg,
                     std::uint64_t rep,
                     const turq::harness::ScenarioSetup& setup);

/// Canonical text of a repetition's simulated output: decisions, latencies,
/// medium and TCP counters, σ, audit and service counters. Two runs of the
/// same (config, repetition) must produce identical strings.
std::string fingerprint(const turq::harness::RunResult& r);

}  // namespace perfbench
