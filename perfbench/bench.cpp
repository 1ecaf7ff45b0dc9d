// The repository benchmark: three workloads driven through the public
// harness entry points (harness::make_scenario_setup, harness::run_once,
// service::run_service_once), timed from outside on one thread.
//
//   perfbench --workload large-n|paper-byz-n16|service --seed S
//             --seconds T --trace 0|1 [--tiny]
//
// --trace 0 measures the end-to-end metrics untraced. --trace 1 runs every
// repetition twice, untraced and traced (traced.hpp), checks that both give
// the same simulated output, and reports the per-layer split. Any wrong
// output — an audit violation, broken agreement or validity, or a traced
// run that differs from the untraced one — exits non-zero before a number
// is printed. perfbench/NOTES.md explains the workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "faultplan/plan.hpp"
#include "harness/experiment.hpp"
#include "heap.hpp"
#include "service/service.hpp"
#include "trace/sink.hpp"
#include "traced.hpp"
#include "turquois/key_infra.hpp"

namespace {

using namespace turq;
using harness::Protocol;
using harness::RunResult;
using harness::ScenarioConfig;
using Clock = std::chrono::steady_clock;
using perfbench::Layer;
using perfbench::LayerTimes;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double sim_seconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
};

/// One configuration a workload runs. A closed-loop cycle runs `per_cycle`
/// repetitions of each leg in turn; the first `quota` repetitions of a leg
/// feed its simulated metrics, so those are exact for a given seed whatever
/// the host speed.
struct Leg {
  std::string name;
  ScenarioConfig cfg;
  std::uint32_t per_cycle = 1;
  std::uint32_t quota = 1;
  std::shared_ptr<const harness::ScenarioSetup> setup{};
  std::uint64_t next_rep = 0;
  // Simulated output of the quota repetitions.
  SampleStats latency_ms{};
  std::uint64_t quota_ok = 0;      // decided reps / committed requests
  double quota_decide_s = 0.0;     // simulated seconds until they completed
  // Host side of every timed repetition.
  std::vector<double> wall_ms{};
  std::vector<double> ms_per_sim_s{};  // host ms per simulated second run
  std::vector<double> heap_mb{};       // peak heap growth during the rep

  [[nodiscard]] bool is_service() const { return cfg.service.enabled; }
};

ScenarioConfig base_config(const Options& o) {
  ScenarioConfig c;
  c.seed = o.seed;
  c.repetitions = 1;
  c.jobs = 1;
  c.intra_jobs = 1;
  c.exchange_pool = true;
  c.distribution = harness::ProposalDist::kDivergent;
  return c;
}

/// The three workloads; NOTES.md records why each was chosen.
std::vector<Leg> make_legs(const Options& o) {
  std::vector<Leg> legs;
  if (o.workload == "large-n") {
    ScenarioConfig c = base_config(o);
    c.n = o.tiny ? 16 : 128;
    // Unanimous: with divergent proposals the n=128 decision latency is
    // bimodal (runs with and without coin-flip rounds), and which mode a
    // seed's few repetitions land in dominates every figure.
    c.distribution = harness::ProposalDist::kUnanimous;
    c.medium.broadcast_rate_bps = 11e6;
    c.tick_interval = 40 * kMillisecond;
    legs.push_back({.name = "turquois", .cfg = c, .quota = o.tiny ? 1u : 16u});
  } else if (o.workload == "paper-byz-n16") {
    ScenarioConfig c = base_config(o);
    c.n = 16;
    c.plan = faultplan::canned_plan(faultplan::Role::kByzantine, "Byzantine");
    // One Bracha repetition costs about ten Turquois or ABBA ones. Two of
    // each per Bracha repetition keep every protocol's share of host time
    // above a tenth, and let 80 Bracha repetitions fit in 30 s.
    const std::uint32_t quota = o.tiny ? 1u : 80u;
    for (const auto& [name, protocol, per_cycle] :
         {std::tuple{"turquois", Protocol::kTurquois, 2u},
          std::tuple{"abba", Protocol::kAbba, 2u},
          std::tuple{"bracha", Protocol::kBracha, 1u}}) {
      c.protocol = protocol;
      legs.push_back({.name = name,
                      .cfg = c,
                      .per_cycle = o.tiny ? 1u : per_cycle,
                      .quota = quota});
    }
  } else if (o.workload == "service") {
    ScenarioConfig c = base_config(o);
    c.n = 16;
    c.medium.broadcast_rate_bps = 11e6;
    c.service.enabled = true;
    c.service.pipeline_depth = 8;
    c.service.batch = 8;
    c.service.arrival = service::Arrival::kPoisson;
    c.service.mux_window = 2 * kMillisecond;
    c.service.total_requests = o.tiny ? 32 : 512;
    // Below capacity: feeds the commit latency.
    c.service.offered_load = 150.0;
    legs.push_back({.name = "load150", .cfg = c, .quota = o.tiny ? 1u : 4u});
    // Saturating: feeds the capacity.
    c.service.offered_load = 2000.0;
    legs.push_back({.name = "load2000", .cfg = c, .quota = o.tiny ? 1u : 4u});
  } else {
    throw std::invalid_argument("unknown workload '" + o.workload +
                                "' (large-n, paper-byz-n16, service)");
  }
  for (const Leg& leg : legs) {
    auto reason = harness::validate(leg.cfg);
    if (!reason && leg.is_service()) reason = service::validate_service(leg.cfg);
    if (reason) throw std::invalid_argument("invalid leg: " + *reason);
  }
  return legs;
}

/// The correctness gate: a wrong repetition ends the benchmark.
void gate(const Leg& leg, std::uint64_t rep, const RunResult& r) {
  std::string why;
  if (!r.agreement_held) why = "agreement violated";
  if (!r.validity_held) why = "validity violated";
  if (r.audit.has_value() && !r.audit->passed()) {
    why = "audit violation: " + r.audit->describe();
  }
  if (!why.empty()) {
    std::fprintf(stderr, "perfbench: %s rep %llu: %s\n", leg.name.c_str(),
                 static_cast<unsigned long long>(rep), why.c_str());
    std::exit(3);
  }
}

RunResult run_untraced(const Leg& leg, std::uint64_t rep) {
  return leg.is_service() ? service::run_service_once(leg.cfg, rep)
                          : harness::run_once(leg.cfg, rep, leg.setup.get());
}

/// The saturating service leg measures capacity; the sub-capacity one
/// measures commit latency.
bool saturating(const Leg& leg) {
  return leg.is_service() && leg.cfg.service.offered_load > 1000.0;
}

/// Simulated seconds the repetition ran: until its slowest correct process
/// decided (the deadline when one missed it), or until a service
/// repetition wound down. Host time per repetition grows with it.
double rep_sim_s(const Leg& leg, const RunResult& r) {
  if (r.service.has_value()) return sim_seconds(r.service->finished_at);
  if (!r.all_correct_decided || r.latencies_ms.empty()) {
    return sim_seconds(leg.cfg.run_timeout);
  }
  return *std::max_element(r.latencies_ms.begin(), r.latencies_ms.end()) /
         1000.0;
}

/// Simulated seconds until the repetition's operations completed: until k
/// correct processes decided (k-consensus; the deadline when fewer did), or
/// until a service repetition wound down.
double rep_decide_s(const Leg& leg, const RunResult& r) {
  if (r.service.has_value()) return sim_seconds(r.service->finished_at);
  const std::size_t k = leg.cfg.k();
  if (r.latencies_ms.size() < k) return sim_seconds(leg.cfg.run_timeout);
  std::vector<double> sorted = r.latencies_ms;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(k - 1),
                   sorted.end());
  return sorted[k - 1] / 1000.0;
}

/// Successful operations of a repetition: a k-decided repetition, or a
/// service repetition's committed requests.
std::uint64_t ops_ok(const RunResult& r) {
  if (r.service.has_value()) return r.service->committed;
  return r.k_decided ? 1 : 0;
}

std::uint64_t ops_attempted(const RunResult& r) {
  if (r.service.has_value()) return r.service->arrivals;
  return 1;
}

/// Records the simulated output of a leg's quota repetitions. The
/// saturating service leg's latencies are those of an overloaded queue and
/// stay out of the latency metrics.
void note_sim(Leg& leg, std::uint64_t rep, const RunResult& r) {
  if (rep >= leg.quota) return;
  if (!saturating(leg)) leg.latency_ms.add_all(r.latencies_ms);
  leg.quota_ok += ops_ok(r);
  leg.quota_decide_s += rep_decide_s(leg, r);
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// Mean of the middle 80% of `xs`: robust to a preempted repetition, and
/// steadier than the median when a leg's repetitions fall into two modes
/// (with and without coin-flip rounds).
double trimmed_mean(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t cut = xs.size() / 10;
  double sum = 0.0;
  for (std::size_t i = cut; i < xs.size() - cut; ++i) sum += xs[i];
  return sum / static_cast<double>(xs.size() - 2 * cut);
}

/// Median host seconds of `fn` over `times` calls.
template <typename F>
double median_time(int times, F&& fn) {
  std::vector<double> ts;
  for (int i = 0; i < times; ++i) {
    const auto t0 = Clock::now();
    fn();
    ts.push_back(since(t0));
  }
  return median(ts);
}

/// One printed metric; `gated` ones also go into the result object.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
  bool gated = true;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::string note = "") {
    metrics_.push_back({std::move(name), value, std::move(unit),
                        std::move(note), true});
  }
  void info(std::string name, double value, std::string unit,
            std::string note = "") {
    metrics_.push_back({std::move(name), value, std::move(unit),
                        std::move(note), false});
  }

  /// Human-readable lines, then the result object as the last line.
  void print(std::uint64_t attempted, std::uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("  %-30s %16.6f %-6s %s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.gated ? "" : "[info] ", m.note.c_str());
    }
    std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    const char* sep = "";
    for (const Metric& m : metrics_) {
      if (!m.gated) continue;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                  m.name.c_str(), m.value, m.unit.c_str());
      sep = ", ";
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

/// "n=<samples>", flagging a percentile with fewer than ten samples beyond.
std::string samples_note(std::size_t n, double p) {
  const auto beyond =
      static_cast<std::size_t>(static_cast<double>(n) * (1.0 - p));
  std::string s = "n=" + std::to_string(n);
  if (beyond < 10) s += ", only " + std::to_string(beyond) + " beyond";
  return s;
}

/// Makes every leg's setup at least 9 times and for at least one second, so
/// a short setup still gets enough samples, and returns the median (just
/// once when `once`). Then runs one untimed repetition per leg so heap
/// growth and lazy initialisation are not charged to the first timed
/// repetition.
double setup_and_warm(std::vector<Leg>& legs, bool once) {
  std::vector<double> ts;
  const auto start = Clock::now();
  do {
    const auto t0 = Clock::now();
    for (Leg& leg : legs) leg.setup = harness::make_scenario_setup(leg.cfg);
    ts.push_back(since(t0));
  } while (!once && (ts.size() < 9 || since(start) < 1.0));
  for (const Leg& leg : legs) gate(leg, 0, run_untraced(leg, 0));
  return median(ts);
}

/// Runs the legs' repetitions in closed-loop cycles until `seconds` have
/// passed and every leg has met its quota; `step` runs one repetition.
/// Returns the elapsed host seconds.
template <typename Step>
double closed_loop(std::vector<Leg>& legs, double seconds, Step&& step) {
  const auto t0 = Clock::now();
  for (;;) {
    for (Leg& leg : legs) {
      for (std::uint32_t i = 0; i < leg.per_cycle; ++i) {
        step(leg, leg.next_rep++);
      }
    }
    bool quotas = true;
    for (const Leg& leg : legs) quotas = quotas && leg.next_rep >= leg.quota;
    if (quotas && since(t0) >= seconds) return since(t0);
  }
}

/// A statistic per leg, combined over a workload's legs by geometric mean
/// so each protocol (or service load) weighs the same.
template <typename F>
double per_leg(const std::vector<Leg>& legs, F&& stat) {
  std::vector<double> xs;
  for (const Leg& leg : legs) {
    const double x = stat(leg);
    if (x > 0.0) xs.push_back(x);
  }
  return geomean(xs);
}

/// Host-side counters of one end-to-end run.
struct EndToEnd {
  double setup_s = 0.0;
  double elapsed_s = 0.0;
  std::uint64_t reps = 0;
  std::uint64_t attempted = 0, failed = 0, ok = 0;
};

double pct(const std::vector<double>& xs, double p) {
  SampleStats s;
  s.add_all(xs);
  return xs.empty() ? 0.0 : s.percentile(p);
}

double latency_pct(const Leg& l, double p) {
  return l.latency_ms.count() > 0 ? l.latency_ms.percentile(p) : 0.0;
}

/// Smallest per-leg sample count, for the sample notes.
template <typename F>
std::size_t min_samples(const std::vector<Leg>& legs, F&& count) {
  std::size_t n = 0;
  for (const Leg& leg : legs) {
    const std::size_t c = count(leg);
    if (c > 0) n = n == 0 ? c : std::min(n, c);
  }
  return n;
}

int run_end_to_end(const Options& o) {
  std::vector<Leg> legs = make_legs(o);
  EndToEnd e;
  e.setup_s = setup_and_warm(legs, o.tiny);
  e.elapsed_s = closed_loop(legs, o.seconds, [&](Leg& leg, std::uint64_t rep) {
    const std::size_t heap_before = perfbench::heap_live_bytes();
    perfbench::heap_reset_peak();
    const auto t0 = Clock::now();
    const RunResult r = run_untraced(leg, rep);
    const double wall_ms = since(t0) * 1000.0;
    leg.wall_ms.push_back(wall_ms);
    leg.ms_per_sim_s.push_back(wall_ms / rep_sim_s(leg, r));
    leg.heap_mb.push_back(
        static_cast<double>(perfbench::heap_peak_bytes() - heap_before) /
        (1024.0 * 1024.0));
    gate(leg, rep, r);
    note_sim(leg, rep, r);
    ++e.reps;
    e.attempted += ops_attempted(r);
    e.ok += ops_ok(r);
    e.failed += ops_attempted(r) - ops_ok(r);
  });

  const std::size_t timed =
      min_samples(legs, [](const Leg& l) { return l.wall_ms.size(); });
  const std::size_t lat_samples =
      min_samples(legs, [](const Leg& l) { return l.latency_ms.count(); });
  Report rep;
  rep.add("setup_s", e.setup_s, "s", "median of repeated make_scenario_setup");
  rep.add("host_ms_per_sim_s",
          per_leg(legs,
                  [](const Leg& l) { return trimmed_mean(l.ms_per_sim_s); }),
          "ms/s", "10%-trimmed mean per rep, n=" + std::to_string(timed));
  rep.add("peak_heap_mb",
          per_leg(legs, [](const Leg& l) { return trimmed_mean(l.heap_mb); }),
          "MB", "10%-trimmed mean per rep");
  rep.add("ops_per_sim_s", per_leg(legs, [](const Leg& l) {
            // The sub-capacity service leg's rate is its offered load.
            if (l.is_service() && !saturating(l)) return 0.0;
            return static_cast<double>(l.quota_ok) / l.quota_decide_s;
          }), "1/s", "simulated");
  rep.add("latency_ms.p50",
          per_leg(legs, [](const Leg& l) { return latency_pct(l, 0.5); }),
          "ms", "simulated, " + samples_note(lat_samples, 0.5));
  rep.add("latency_ms.p90",
          per_leg(legs, [](const Leg& l) { return latency_pct(l, 0.9); }),
          "ms", "simulated, " + samples_note(lat_samples, 0.9));

  // Printed for reading, not gated: raw per-repetition host figures vary
  // with each seed's repetition lengths (see NOTES.md).
  rep.info("reps_per_s", static_cast<double>(e.reps) / e.elapsed_s, "1/s",
           "closed loop, n=" + std::to_string(e.reps));
  rep.info("rep_wall_ms.p50",
           per_leg(legs, [](const Leg& l) { return pct(l.wall_ms, 0.5); }),
           "ms", samples_note(timed, 0.5));
  rep.info("rep_wall_ms.p90",
           per_leg(legs, [](const Leg& l) { return pct(l.wall_ms, 0.9); }),
           "ms", samples_note(timed, 0.9));
  rep.info("peak_rss_mb", [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
  }(), "MB", "whole process");
  rep.info("failed_share",
           e.attempted > 0 ? static_cast<double>(e.failed) /
                                 static_cast<double>(e.attempted)
                           : 0.0,
           "ratio",
           std::to_string(e.failed) + " of " + std::to_string(e.attempted));
  rep.info("ops_per_s", static_cast<double>(e.ok) / e.elapsed_s, "1/s",
           "decided reps or committed requests per host second");
  for (const Leg& l : legs) {
    const std::string base =
        l.is_service() ? std::string("commit_ms") : l.name + ".decision_ms";
    if (l.latency_ms.count() == 0) continue;
    for (const double p : {0.5, 0.99}) {
      rep.info(base + (p == 0.5 ? ".p50" : ".p99"), latency_pct(l, p), "ms",
               "simulated, " + samples_note(l.latency_ms.count(), p));
    }
  }
  std::printf("workload %s seed %llu: %llu repetitions in %.3f s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              static_cast<unsigned long long>(e.reps), e.elapsed_s);
  rep.print(e.attempted, e.failed);
  return 0;
}

// ------------------------------------------------------------ traced run --

/// Keeps the counters of the repetition the program's own tracer flushes.
class CounterSink final : public trace::Sink {
 public:
  void on_event(const trace::TraceEvent& event) override { (void)event; }
  void on_metrics(const trace::MetricsRegistry& metrics) override {
    for (const auto& [name, counter] : metrics.counters()) {
      counters_[name] += counter.value();
    }
  }
  [[nodiscard]] std::uint64_t get(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
};

/// Per-layer totals over the traced repetitions.
struct LayerTotals {
  std::uint64_t reps = 0;            // traced repetitions
  std::uint64_t turquois_reps = 0;   // of which rebuilt Turquois ones
  LayerTimes layers;
  double charged_sim_s = 0.0;
  double node_sim_s = 0.0;  // n x simulated run length, scenario reps
  std::uint64_t sim_events = 0;
  double codec_crypto_s = 0.0;
  std::uint64_t accepted = 0, authenticated = 0, auth_failures = 0;
  std::uint64_t pending_hwm = 0, coin_flips = 0, phase_jumps = 0;
  std::uint64_t pool_acquires = 0, pool_hits = 0;
  double traced_wall_s = 0.0, untraced_wall_s = 0.0;
  std::uint64_t decisions = 0, app_messages = 0, bytes_on_air = 0;
  std::uint64_t frames = 0, frames_collided = 0, mac_retries = 0;
  double airtime_ms = 0.0;
  std::uint64_t tcp_segments = 0, tcp_rexmit = 0, tcp_rto = 0;
  std::uint64_t mux_frames = 0, mux_payloads = 0, mux_late = 0, mux_super = 0;
  std::uint64_t svc_instances = 0, svc_committed = 0;
  double svc_sim_s = 0.0, svc_low_arrivals = 0.0, svc_low_sim_s = 0.0;
  std::uint64_t attempted = 0, failed = 0;

  void add(const Layer& from, Layer& to) {
    to.incl_s += from.incl_s;
    to.self_s += from.self_s;
    to.calls += from.calls;
  }
  void add(const LayerTimes& t) {
    add(t.harness, layers.harness);
    add(t.sim, layers.sim);
    add(t.recv, layers.recv);
    add(t.recv_exec, layers.recv_exec);
    add(t.exec, layers.exec);
    add(t.timer, layers.timer);
    add(t.broadcast, layers.broadcast);
    add(t.audit, layers.audit);
    add(t.record, layers.record);
  }
  void add_result(const RunResult& r) {
    const net::MediumStats& m = r.medium;
    app_messages += r.app_messages;
    bytes_on_air += m.bytes_on_air;
    frames += m.broadcast_frames + m.unicast_frames;
    frames_collided += m.frames_collided;
    mac_retries += m.mac_retries;
    airtime_ms += static_cast<double>(m.airtime) / kMillisecond;
    tcp_segments += r.tcp.segments_sent;
    tcp_rexmit += r.tcp.segments_retransmitted;
    tcp_rto += r.tcp.rto_fires;
    attempted += ops_attempted(r);
    failed += ops_attempted(r) - ops_ok(r);
  }
};

/// Aborts the run when a traced repetition differs from the untraced one.
void check_same(const Leg& leg, std::uint64_t rep, const RunResult& untraced,
                const RunResult& traced) {
  const std::string a = perfbench::fingerprint(untraced);
  const std::string b = perfbench::fingerprint(traced);
  if (a != b) {
    std::fprintf(stderr,
                 "perfbench: %s rep %llu: traced run differs from run_once\n"
                 "  run_once: %s\n  traced:   %s\n",
                 leg.name.c_str(), static_cast<unsigned long long>(rep),
                 a.c_str(), b.c_str());
    std::exit(4);
  }
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int run_traced(const Options& o) {
  std::vector<Leg> legs = make_legs(o);
  // Per-layer figures need no fixed set of repetitions: no quota.
  for (Leg& leg : legs) leg.quota = 0;
  setup_and_warm(legs, /*once=*/true);
  LayerTotals tot;

  // Key generation, replayed outside the traced repetitions: the hoisted
  // KeyInfrastructure::setup of each Turquois leg, or one setup_batch pass
  // of the service (a repetition makes `key_batches` of them).
  double keygen_s = 0.0;
  std::string keygen_note = "KeyInfrastructure::setup";
  for (const Leg& leg : legs) {
    turquois::Config tcfg = turquois::Config::for_group(leg.cfg.n);
    Rng rng = Rng::stream(leg.cfg.seed, "perfbench-keys", 0);
    if (leg.is_service()) {
      tcfg.phases_per_epoch = leg.cfg.service.phases_per_instance;
      keygen_note = "one KeyInfrastructure::setup_batch pass";
      keygen_s = median_time(o.tiny ? 1 : 3, [&] {
        (void)turquois::KeyInfrastructure::setup_batch(
            tcfg, rng, leg.cfg.service.effective_key_batch());
      });
      break;
    }
    if (leg.cfg.protocol == Protocol::kTurquois) {
      keygen_s += median_time(o.tiny ? 1 : 3, [&] {
        (void)turquois::KeyInfrastructure::setup(tcfg, rng);
      });
    }
  }

  closed_loop(legs, o.seconds, [&](Leg& leg, std::uint64_t rep) {
    auto t0 = Clock::now();
    const RunResult untraced = run_untraced(leg, rep);
    tot.untraced_wall_s += since(t0);
    gate(leg, rep, untraced);
    tot.add_result(untraced);
    ++tot.reps;
    if (leg.is_service()) {
      // No wrapper reaches inside a service repetition: trace it with the
      // program's own tracer and keep its counters.
      CounterSink sink;
      ScenarioConfig cfg = leg.cfg;
      cfg.trace_sink = &sink;
      t0 = Clock::now();
      const RunResult traced = service::run_service_once(cfg, rep);
      const double wall_s = since(t0);
      tot.traced_wall_s += wall_s;
      // No wrapper covers any of it: it is all harness self time.
      tot.layers.harness.incl_s += wall_s;
      tot.layers.harness.self_s += wall_s;
      check_same(leg, rep, untraced, traced);
      tot.pool_acquires += sink.get("exchange_pool.acquires");
      tot.pool_hits += sink.get("exchange_pool.hits");
      const service::RepSummary& s = *untraced.service;
      tot.decisions += s.instances_decided;
      tot.mux_frames += s.mux_frames;
      tot.mux_payloads += s.mux_payloads;
      tot.mux_late += s.mux_late_drops;
      tot.mux_super += s.mux_superseded;
      tot.svc_instances += s.instances_decided;
      tot.svc_committed += s.committed;
      tot.svc_sim_s += sim_seconds(s.finished_at);
      if (!saturating(leg)) {
        tot.svc_low_arrivals += static_cast<double>(s.arrivals);
        tot.svc_low_sim_s += sim_seconds(s.finished_at);
      }
      return;
    }
    const perfbench::TracedRep t =
        perfbench::run_traced(leg.cfg, rep, *leg.setup);
    check_same(leg, rep, untraced, t.result);
    const double sum = t.layers.self_sum_s();
    if (std::fabs(sum - t.layers.harness.incl_s) >
        1e-6 * std::max(1.0, t.layers.harness.incl_s)) {
      std::fprintf(stderr, "perfbench: layer self times sum to %.9f s, "
                           "traced repetition took %.9f s\n",
                   sum, t.layers.harness.incl_s);
      std::exit(5);
    }
    tot.traced_wall_s += t.layers.harness.incl_s;
    tot.add(t.layers);
    tot.charged_sim_s += t.charged_sim_s;
    tot.node_sim_s += leg.cfg.n * rep_sim_s(leg, untraced);
    tot.sim_events += t.sim_events;
    if (untraced.k_decided) ++tot.decisions;
    if (leg.cfg.protocol == Protocol::kTurquois) {
      ++tot.turquois_reps;
      tot.codec_crypto_s += t.codec_crypto_s;
      tot.accepted += t.accepted;
      tot.authenticated += t.authenticated;
      tot.auth_failures += t.auth_failures;
      tot.pending_hwm = std::max(tot.pending_hwm, t.pending_hwm);
      tot.coin_flips += t.coin_flips;
      tot.phase_jumps += t.phase_jumps;
      tot.pool_acquires += t.pool_acquires;
      tot.pool_hits += t.pool_shared_hits;
    }
  });

  const double reps = static_cast<double>(tot.reps);
  const double treps = static_cast<double>(tot.turquois_reps);
  const LayerTimes& L = tot.layers;
  const auto per_rep = [&](double x) { return ratio(x, reps); };
  const auto per_trep = [&](double x) { return ratio(x, treps); };
  // Host time is reported as a share of the traced host time, which every
  // workload has; the seconds per repetition follow as [info] lines.
  const auto share = [&](double s) { return ratio(s, tot.traced_wall_s); };
  const double recv_s = L.recv.incl_s + L.recv_exec.incl_s;
  const double turquois_self_s = L.recv.self_s + L.recv_exec.self_s;
  const double callback_s = L.timer.incl_s + L.exec.incl_s;
  const double runtime_self_s = L.timer.self_s + L.exec.self_s;
  Report rep;
  // turquois: the Turquois process's receive path.
  rep.add("turquois.recv_calls", per_trep(L.recv.calls), "count", "per rep");
  rep.add("turquois.recv_share", share(recv_s), "ratio", "inclusive");
  rep.add("turquois.codec_crypto_share", share(tot.codec_crypto_s), "ratio",
          "fresh-pool replay");
  rep.add("turquois.self_share", share(turquois_self_s), "ratio");
  rep.add("turquois.validate_share",
          share(turquois_self_s - tot.codec_crypto_s), "ratio",
          "self minus codec_crypto");
  rep.add("turquois.accept_ratio",
          ratio(static_cast<double>(tot.accepted),
                static_cast<double>(tot.authenticated)),
          "ratio");
  rep.add("turquois.pending_hwm", static_cast<double>(tot.pending_hwm),
          "count", "max");
  rep.add("turquois.coin_flips", per_trep(tot.coin_flips), "count", "per rep");
  rep.add("turquois.phase_jumps", per_trep(tot.phase_jumps), "count",
          "per rep");
  rep.add("turquois.auth_failures", per_trep(tot.auth_failures), "count",
          "per rep");
  rep.add("turquois.pool_hit_ratio",
          ratio(static_cast<double>(tot.pool_hits),
                static_cast<double>(tot.pool_acquires)),
          "ratio");
  // runtime: callbacks protocols hand their runtime (Turquois execute
  // completions are counted in its receive path).
  rep.add("runtime.callback_calls", per_rep(L.timer.calls + L.exec.calls),
          "count", "per rep");
  rep.add("runtime.callback_share", share(callback_s), "ratio", "inclusive");
  rep.add("runtime.self_share", share(runtime_self_s), "ratio");
  rep.add("runtime.cpu_utilization",
          ratio(tot.charged_sim_s, tot.node_sim_s), "ratio",
          "simulated CPU charged / (n x simulated run)");
  // sim: the event loop minus the callbacks wrapped above.
  rep.add("sim.events", per_rep(tot.sim_events), "count", "per rep");
  rep.add("sim.self_share", share(L.sim.self_s), "ratio");
  // net
  rep.add("net.broadcast_calls", per_rep(L.broadcast.calls), "count",
          "per rep");
  rep.add("net.broadcast_share", share(L.broadcast.incl_s), "ratio");
  rep.add("net.collision_share",
          ratio(static_cast<double>(tot.frames_collided),
                static_cast<double>(tot.frames)),
          "ratio");
  rep.add("net.airtime_sim_ms", per_rep(tot.airtime_ms), "ms",
          "simulated, per rep");
  rep.add("net.mac_retries", per_rep(tot.mac_retries), "count", "per rep");
  rep.add("net.tcp.segments", per_rep(tot.tcp_segments), "count", "per rep");
  rep.add("net.tcp.retransmit_share",
          ratio(static_cast<double>(tot.tcp_rexmit),
                static_cast<double>(tot.tcp_segments)),
          "ratio");
  rep.add("net.tcp.rto_fires", per_rep(tot.tcp_rto), "count", "per rep");
  rep.add("net.mux.payloads_per_frame",
          ratio(static_cast<double>(tot.mux_payloads),
                static_cast<double>(tot.mux_frames)),
          "ratio");
  rep.add("net.mux.late_drops", per_rep(tot.mux_late), "count", "per rep");
  rep.add("net.mux.superseded", per_rep(tot.mux_super), "count", "per rep");
  rep.add("crypto.keygen_s", keygen_s, "s", keygen_note);
  rep.add("audit.share", share(L.audit.incl_s), "ratio");
  // service
  rep.add("service.instances_per_sim_s",
          ratio(static_cast<double>(tot.svc_instances), tot.svc_sim_s), "1/s",
          "simulated");
  rep.add("service.reqs_per_instance",
          ratio(static_cast<double>(tot.svc_committed),
                static_cast<double>(tot.svc_instances)),
          "count");
  rep.add("service.achieved_load",
          ratio(tot.svc_low_arrivals, tot.svc_low_sim_s), "1/s",
          "simulated, the offered-load-150 leg");
  // consensus cost
  rep.add("msgs_per_decision",
          ratio(static_cast<double>(tot.app_messages),
                static_cast<double>(tot.decisions)),
          "count");
  rep.add("bytes_per_decision",
          ratio(static_cast<double>(tot.bytes_on_air),
                static_cast<double>(tot.decisions)),
          "bytes");
  rep.add("failed_share",
          ratio(static_cast<double>(tot.failed),
                static_cast<double>(tot.attempted)),
          "ratio");
  // tracing and the harness remainder
  rep.add("trace.overhead_share",
          ratio(tot.traced_wall_s - tot.untraced_wall_s, tot.untraced_wall_s),
          "ratio");
  rep.add("trace.wall_s", per_rep(tot.traced_wall_s), "s",
          "per rep, traced");
  rep.add("trace.record_share", share(L.record.self_s), "ratio");
  rep.add("harness.self_share", share(L.harness.self_s), "ratio",
          "what no wrapper covers");
  // The same host times in seconds per repetition, for reading.
  rep.info("turquois.recv_s", per_trep(recv_s), "s", "per Turquois rep");
  rep.info("turquois.codec_crypto_s", per_trep(tot.codec_crypto_s), "s",
           "per Turquois rep");
  rep.info("turquois.validate_s",
           per_trep(turquois_self_s - tot.codec_crypto_s), "s",
           "per Turquois rep");
  rep.info("runtime.callback_s", per_rep(callback_s), "s", "per rep");
  rep.info("sim.self_s", per_rep(L.sim.self_s), "s", "per rep");
  rep.info("sim.ns_per_event",
           ratio(L.sim.self_s * 1e9, static_cast<double>(tot.sim_events)),
           "ns");
  rep.info("net.broadcast_s", per_rep(L.broadcast.incl_s), "s", "per rep");
  rep.info("audit.s", per_rep(L.audit.incl_s), "s", "per rep");
  rep.info("harness.self_s", per_rep(L.harness.self_s), "s", "per rep");
  rep.info("runtime.charged_sim_ms",
           ratio(tot.charged_sim_s * 1000.0,
                 static_cast<double>(tot.decisions)),
           "ms", "simulated, per decision");
  std::printf("workload %s seed %llu: %llu traced repetitions\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              static_cast<unsigned long long>(tot.reps));
  rep.print(tot.attempted, tot.failed);
  return 0;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    return o.trace ? run_traced(o) : run_end_to_end(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
