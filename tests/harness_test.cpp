// Tests for the experiment harness: every protocol under every canned
// fault plan must complete with safety intact, and the table machinery must
// format results faithfully.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "faultplan/spec.hpp"
#include "harness/experiment.hpp"
#include "harness/table.hpp"
#include "spatial/topology.hpp"
#include "trace/sink.hpp"

namespace turq::harness {
namespace {

faultplan::FaultPlan canned(faultplan::Role role) {
  switch (role) {
    case faultplan::Role::kFailStop:
      return faultplan::canned_plan(role, "fail-stop");
    case faultplan::Role::kByzantine:
      return faultplan::canned_plan(role, "Byzantine");
    default:
      return faultplan::canned_plan(role, "failure-free");
  }
}

ScenarioConfig quick(Protocol p, std::uint32_t n, ProposalDist dist,
                     faultplan::Role role) {
  ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.n = n;
  cfg.distribution = dist;
  cfg.plan = canned(role);
  cfg.repetitions = 3;
  cfg.seed = 4207;
  return cfg;
}

class HarnessGrid
    : public ::testing::TestWithParam<std::tuple<Protocol, faultplan::Role>> {
};

TEST_P(HarnessGrid, CompletesWithSafety) {
  const auto [protocol, load] = GetParam();
  const ScenarioResult r = run_scenario(
      quick(protocol, 4, ProposalDist::kDivergent, load));
  EXPECT_EQ(r.safety_violations, 0u);
  EXPECT_EQ(r.failed_runs, 0u);
  EXPECT_FALSE(r.latency_ms.empty());
  EXPECT_GT(r.mean(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsAllLoads, HarnessGrid,
    ::testing::Combine(::testing::Values(Protocol::kTurquois, Protocol::kAbba,
                                         Protocol::kBracha),
                       ::testing::Values(faultplan::Role::kNone,
                                         faultplan::Role::kFailStop,
                                         faultplan::Role::kByzantine)));

TEST(Harness, UnanimousValidityEnforced) {
  // Under the unanimous load every correct process proposes 1; deciding 0
  // would be recorded as a validity violation. It must never happen.
  for (const Protocol p :
       {Protocol::kTurquois, Protocol::kAbba, Protocol::kBracha}) {
    const ScenarioResult r = run_scenario(
        quick(p, 4, ProposalDist::kUnanimous, faultplan::Role::kByzantine));
    EXPECT_EQ(r.safety_violations, 0u) << to_string(p);
  }
}

TEST(Harness, LatencySamplesOnePerCorrectProcess) {
  ScenarioConfig cfg = quick(Protocol::kTurquois, 7, ProposalDist::kUnanimous,
                             faultplan::Role::kNone);
  const RunResult r = run_once(cfg, 0);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_EQ(r.latencies_ms.size(), 7u);
  for (const double l : r.latencies_ms) EXPECT_GT(l, 0.0);
}

TEST(Harness, FailStopExcludesCrashedFromSamples) {
  ScenarioConfig cfg = quick(Protocol::kTurquois, 7, ProposalDist::kUnanimous,
                             faultplan::Role::kFailStop);
  const RunResult r = run_once(cfg, 0);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_EQ(r.latencies_ms.size(), 5u);  // n - f = 7 - 2
  EXPECT_TRUE(r.k_decided);
}

TEST(Harness, RunsAreReproducible) {
  const ScenarioConfig cfg = quick(Protocol::kTurquois, 4,
                                   ProposalDist::kDivergent,
                                   faultplan::Role::kNone);
  const RunResult a = run_once(cfg, 1);
  const RunResult b = run_once(cfg, 1);
  EXPECT_EQ(a.latencies_ms, b.latencies_ms);
  EXPECT_EQ(a.decision, b.decision);
  // A different repetition index gives a different world.
  const RunResult c = run_once(cfg, 2);
  EXPECT_NE(a.latencies_ms, c.latencies_ms);
}

TEST(Harness, TurquoisFasterThanBaselines) {
  // The paper's headline, at miniature scale.
  const double turquois =
      run_scenario(quick(Protocol::kTurquois, 7, ProposalDist::kUnanimous,
                         faultplan::Role::kNone))
          .mean();
  const double abba =
      run_scenario(quick(Protocol::kAbba, 7, ProposalDist::kUnanimous,
                         faultplan::Role::kNone))
          .mean();
  const double bracha =
      run_scenario(quick(Protocol::kBracha, 7, ProposalDist::kUnanimous,
                         faultplan::Role::kNone))
          .mean();
  EXPECT_LT(turquois, abba);
  EXPECT_LT(abba, bracha);
}

TEST(Harness, ByzantineLoadSlowsTurquoisDown) {
  const double clean =
      run_scenario(quick(Protocol::kTurquois, 7, ProposalDist::kDivergent,
                         faultplan::Role::kNone))
          .mean();
  const double attacked =
      run_scenario(quick(Protocol::kTurquois, 7, ProposalDist::kDivergent,
                         faultplan::Role::kByzantine))
          .mean();
  EXPECT_GT(attacked, clean * 0.8);  // must not be *faster* than clean
}

TEST(ProtocolTable, FlagRoundTripsForEveryProtocol) {
  for (const Protocol p : {Protocol::kTurquois, Protocol::kBracha,
                           Protocol::kAbba, Protocol::kCrain,
                           Protocol::kAbsMac}) {
    EXPECT_EQ(parse_protocol(protocol_flag(p)), p) << to_string(p);
  }
  EXPECT_EQ(protocol_flags("|"), "turquois|bracha|abba|crain|absmac");
}

TEST(ProtocolTable, UnknownOrEmptyNameIsRejected) {
  EXPECT_EQ(parse_protocol(""), std::nullopt);
  EXPECT_EQ(parse_protocol("paxos"), std::nullopt);
  EXPECT_EQ(parse_protocol("Turquois"), std::nullopt);  // the report name
  EXPECT_EQ(parse_protocol("bracha "), std::nullopt);
}

TEST(Table, FormatCell) {
  ScenarioResult r;
  r.latency_ms.add(10.0);
  r.latency_ms.add(14.0);
  // sd = sqrt(8), se = 2, t(1) = 12.706 -> half-width 25.41.
  EXPECT_EQ(format_cell(r), "12.00 ± 25.41");

  ScenarioResult empty;
  empty.failed_runs = 3;
  EXPECT_EQ(format_cell(empty), "n/a (3 failed)");

  r.safety_violations = 1;
  EXPECT_NE(format_cell(r).find("SAFETY"), std::string::npos);
}

TEST(Table, RunAndRenderSmallGrid) {
  TableSpec spec;
  spec.title = "test table";
  spec.plan = canned(faultplan::Role::kNone);
  spec.group_sizes = {4};
  spec.protocols = {Protocol::kTurquois};
  spec.distributions = {ProposalDist::kUnanimous, ProposalDist::kDivergent};

  ScenarioConfig base;
  base.repetitions = 2;
  base.seed = 99;
  const auto results = run_table(spec, base);
  ASSERT_EQ(results.size(), 2u);

  const std::string rendered = render_table(spec, results);
  EXPECT_NE(rendered.find("test table"), std::string::npos);
  EXPECT_NE(rendered.find("n = 4"), std::string::npos);
  EXPECT_NE(rendered.find("Turquois unanimous"), std::string::npos);
  EXPECT_NE(rendered.find("Turquois divergent"), std::string::npos);
}

// ------------------------------------------------------- protocol golden --

/// Keeps the sorted counters of each flushed repetition and its event
/// totals; the events themselves are pinned by the trace_inspect golden.
class CounterSink final : public trace::Sink {
 public:
  explicit CounterSink(std::ostream& out) : out_(out) {}
  void on_event(const trace::TraceEvent& event) override { (void)event; }
  void on_metrics(const trace::MetricsRegistry& metrics) override {
    for (const auto& [name, counter] : metrics.counters()) {
      out_ << "counter " << name << "=" << counter.value() << "\n";
    }
  }
  void on_end(std::uint64_t emitted, std::uint64_t dropped) override {
    out_ << "trace emitted=" << emitted << " dropped=" << dropped << "\n";
  }

 private:
  std::ostream& out_;
};

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Every RunResult field of one repetition, one labelled line per group.
void describe_run(std::ostream& out, const RunResult& r) {
  out << "decided all=" << r.all_correct_decided << " k=" << r.k_decided
      << " agreement=" << r.agreement_held << " validity=" << r.validity_held
      << " decision="
      << (r.decision.has_value() ? turq::to_string(*r.decision) : "none")
      << "\n";
  out << "latencies_ms";
  for (const double l : r.latencies_ms) out << " " << exact(l);
  out << "\n";
  const net::MediumStats& m = r.medium;
  out << "medium broadcast_frames=" << m.broadcast_frames
      << " unicast_frames=" << m.unicast_frames
      << " mac_retries=" << m.mac_retries << " collisions=" << m.collisions
      << " frames_collided=" << m.frames_collided
      << " unicast_drops=" << m.unicast_drops
      << " deliveries=" << m.deliveries << " omissions=" << m.omissions
      << " unreachable=" << m.unreachable
      << " hidden_terminal=" << m.hidden_terminal
      << " bytes_on_air=" << m.bytes_on_air << " airtime=" << m.airtime
      << "\n";
  out << "app_messages=" << r.app_messages << "\n";
  out << "tcp messages_sent=" << r.tcp.messages_sent
      << " segments_sent=" << r.tcp.segments_sent
      << " segments_retransmitted=" << r.tcp.segments_retransmitted
      << " rto_fires=" << r.tcp.rto_fires
      << " fast_retransmits=" << r.tcp.fast_retransmits
      << " auth_failures=" << r.tcp.auth_failures << "\n";
  if (r.sigma.has_value()) {
    const faultplan::SigmaSummary& s = *r.sigma;
    out << "sigma bound=" << s.bound << " rounds=" << s.rounds
        << " violating_rounds=" << s.violating_rounds
        << " omissions=" << s.omissions
        << " max_round_omissions=" << s.max_round_omissions << "\n";
  } else {
    out << "sigma none\n";
  }
  if (r.audit.has_value()) {
    out << "audit checked=" << r.audit->checked
        << " passed=" << r.audit->passed() << "\n"
        << r.audit->describe();
  } else {
    out << "audit none\n";
  }
  if (r.spatial.has_value()) {
    const spatial::SpatialStats& s = *r.spatial;
    out << "spatial samples=" << s.samples
        << " partition_events=" << s.partition_events
        << " partitioned_samples=" << s.partitioned_samples
        << " path_hops_sum=" << s.path_hops_sum
        << " path_pairs=" << s.path_pairs
        << " cs_domains_sum=" << s.cs_domains_sum
        << " relay_origin_frames=" << s.relay_origin_frames
        << " relay_forwards=" << s.relay_forwards
        << " relay_suppressed=" << s.relay_suppressed
        << " relay_duplicates=" << s.relay_duplicates
        << " relay_deliveries=" << s.relay_deliveries << "\n";
  } else {
    out << "spatial none\n";
  }
  out << "service " << (r.service.has_value() ? "present" : "none") << "\n";
}

/// Two traced repetitions of every protocol under every canned plan at
/// n=7, plus the relay branch and the decided-coin attack. Repetition 0
/// derives its keys from its own stream, repetition 1 reuses the hoisted
/// scenario setup, so both run_once paths are pinned.
std::string protocols_report() {
  struct Run {
    Protocol protocol;
    const char* plan;
    TurquoisAttack attack = TurquoisAttack::kValueInversion;
    const char* topology = nullptr;
  };
  std::vector<Run> runs;
  for (const Protocol p : {Protocol::kTurquois, Protocol::kBracha,
                           Protocol::kAbba, Protocol::kCrain,
                           Protocol::kAbsMac}) {
    for (const char* plan : {"none", "failstop", "byzantine"}) {
      runs.push_back({p, plan});
    }
  }
  runs.push_back({Protocol::kTurquois, "none",
                  TurquoisAttack::kValueInversion, "grid(r=150)"});
  runs.push_back({Protocol::kAbsMac, "none", TurquoisAttack::kValueInversion,
                  "grid(r=150)"});
  runs.push_back({Protocol::kTurquois, "byzantine",
                  TurquoisAttack::kDecidedCoinForge});

  std::ostringstream out;
  CounterSink sink(out);
  for (const Run& run : runs) {
    ScenarioConfig cfg;
    cfg.protocol = run.protocol;
    cfg.n = 7;
    cfg.distribution = ProposalDist::kDivergent;
    cfg.plan = faultplan::plan_from_name(run.plan, nullptr).value();
    cfg.attack = run.attack;
    cfg.seed = 11;
    cfg.repetitions = 2;
    if (run.topology != nullptr) {
      EXPECT_TRUE(spatial::parse_topology(run.topology, &cfg.spatial, nullptr));
    }
    cfg.trace_sink = &sink;
    const auto setup = make_scenario_setup(cfg);
    for (std::uint64_t rep = 0; rep < cfg.repetitions; ++rep) {
      out << "== " << to_string(cfg.protocol) << " plan=" << run.plan
          << " attack=" << to_string(cfg.attack)
          << " topology=" << (run.topology != nullptr ? run.topology : "single")
          << " rep=" << rep << "\n";
      const RunResult r =
          rep == 0 ? run_once(cfg, rep) : run_once(cfg, rep, setup.get());
      describe_run(out, r);
    }
  }
  return out.str();
}

// Regenerate (only for an intended behaviour change) by running
// `tests/harness_test --gtest_filter=HarnessGolden.*` with
// UPDATE_PROTOCOLS_GOLDEN=1 set.
TEST(HarnessGolden, AllProtocolsRunOnce) {
#if !TURQ_TRACE_ENABLED
  GTEST_SKIP() << "built with TURQ_TRACE_DISABLED";
#endif
  const std::string report = protocols_report();
  if (std::getenv("UPDATE_PROTOCOLS_GOLDEN") != nullptr) {
    std::ofstream out(PROTOCOLS_GOLDEN_FILE, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << PROTOCOLS_GOLDEN_FILE;
    out << report;
    GTEST_SKIP() << "golden file updated";
  }
  std::ifstream golden_in(PROTOCOLS_GOLDEN_FILE, std::ios::binary);
  ASSERT_TRUE(golden_in) << "missing golden file " << PROTOCOLS_GOLDEN_FILE;
  std::ostringstream golden;
  golden << golden_in.rdbuf();
  EXPECT_EQ(report, golden.str());
}

}  // namespace
}  // namespace turq::harness
