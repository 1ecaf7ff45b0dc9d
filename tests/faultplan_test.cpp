// Tests for the fault-plan subsystem: σ-bound arithmetic against
// hand-computed values, the per-round accountant, the spec grammar, plan
// validation (directly and through the ScenarioBuilder), the per-clause
// Rng stream pinning that fixes the injector aliasing bug, equivalence of
// the registry's named plans with explicitly-built canned plans, and
// bit-identity of plan-driven scenarios across scheduler job counts —
// including a golden campaign-cell report.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "faultplan/plan.hpp"
#include "faultplan/spec.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "harness/scheduler.hpp"
#include "net/fault_injector.hpp"
#include "trace/sink.hpp"

namespace turq::faultplan {
namespace {

using harness::Protocol;
using harness::ProposalDist;
using harness::ScenarioBuilder;
using harness::ScenarioConfig;
using harness::ScenarioResult;

// ------------------------------------------------------------- σ bound ---

TEST(SigmaBound, MatchesHandComputedValues) {
  // σ = ceil((n-t)/2)·(n-k-t) + k - 2 (paper §5).
  BuildContext ctx;
  ctx.n = 4, ctx.k = 3, ctx.t = 0;
  EXPECT_EQ(sigma_bound_of(ctx), 2 * 1 + 1);  // = 3
  ctx.n = 7, ctx.k = 5, ctx.t = 2;
  EXPECT_EQ(sigma_bound_of(ctx), 3 * 0 + 3);  // = 3
  ctx.n = 10, ctx.k = 7, ctx.t = 1;
  EXPECT_EQ(sigma_bound_of(ctx), 5 * 2 + 5);  // = 15
  ctx.n = 16, ctx.k = 11, ctx.t = 0;
  EXPECT_EQ(sigma_bound_of(ctx), 8 * 5 + 9);  // = 49
}

TEST(SigmaAccountant, HandComputedRoundBudgets) {
  SigmaAccountant acc(/*bound=*/2, /*round_duration=*/10 * kMillisecond);
  acc.record_omission(5 * kMillisecond);   // round 0: 1 omission
  acc.record_omission(12 * kMillisecond);  // round 1: 3 omissions
  acc.record_omission(13 * kMillisecond);
  acc.record_omission(14 * kMillisecond);
  acc.observe(25 * kMillisecond);          // round 2: queried, no omission

  const SigmaSummary s = acc.summary();
  EXPECT_EQ(s.bound, 2);
  EXPECT_EQ(s.rounds, 3u);
  EXPECT_EQ(s.omissions, 4u);
  EXPECT_EQ(s.max_round_omissions, 3u);
  EXPECT_EQ(s.violating_rounds, 1u);  // only round 1 exceeds the budget
  EXPECT_FALSE(s.liveness_eligible());
}

TEST(SigmaAccountant, AllRoundsWithinBudgetIsEligible) {
  SigmaAccountant acc(3, 10 * kMillisecond);
  for (int i = 0; i < 3; ++i) acc.record_omission(i * 10 * kMillisecond);
  const SigmaSummary s = acc.summary();
  EXPECT_EQ(s.rounds, 3u);
  EXPECT_EQ(s.violating_rounds, 0u);
  EXPECT_TRUE(s.liveness_eligible());
}

// ---------------------------------------------------------- spec parser ---

TEST(SpecParser, ParsesScopedWindowedClause) {
  std::string error;
  const auto plan = parse_spec("iid(p=0.2,dst=0+1)@0-2000", &error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_EQ(plan->clauses.size(), 1u);
  const Clause& c = plan->clauses[0];
  EXPECT_EQ(c.kind, ClauseKind::kIid);
  EXPECT_DOUBLE_EQ(c.p, 0.2);
  EXPECT_EQ(c.dst_scope, (std::vector<ProcessId>{0, 1}));
  ASSERT_EQ(c.windows.size(), 1u);
  EXPECT_EQ(c.windows[0].start, 0);
  EXPECT_EQ(c.windows[0].end, 2000 * kMillisecond);
  EXPECT_FALSE(plan->wants_sigma());
}

TEST(SpecParser, SigmaClauseTogglesTrackingWithoutInjecting) {
  const auto plan = parse_spec("sigma(round_ms=20);adaptive(frac=0.5)", nullptr);
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->track_sigma);
  EXPECT_EQ(plan->sigma_round, 20 * kMillisecond);
  ASSERT_EQ(plan->clauses.size(), 1u);  // sigma is accounting, not a clause
  EXPECT_EQ(plan->clauses[0].kind, ClauseKind::kAdaptive);
  EXPECT_DOUBLE_EQ(plan->clauses[0].sigma_fraction, 0.5);
}

TEST(SpecParser, ChurnClauseWithRecovery) {
  const auto plan = parse_spec("crash(count=1,at=50,recover=450)", nullptr);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->clauses.size(), 1u);
  const Clause& c = plan->clauses[0];
  EXPECT_EQ(c.crash_count, 1u);
  EXPECT_EQ(c.crash_at, 50 * kMillisecond);
  ASSERT_TRUE(c.recover_at.has_value());
  EXPECT_EQ(*c.recover_at, 450 * kMillisecond);
}

TEST(SpecParser, ReportsGrammarErrors) {
  std::string error;
  EXPECT_FALSE(parse_spec("bogus", &error).has_value());
  EXPECT_NE(error.find("unknown clause kind"), std::string::npos);

  EXPECT_FALSE(parse_spec("iid(p=0.1", &error).has_value());
  EXPECT_NE(error.find("')'"), std::string::npos);

  EXPECT_FALSE(parse_spec("iid(q=0.1)", &error).has_value());
  EXPECT_NE(error.find("'q'"), std::string::npos);

  EXPECT_FALSE(parse_spec("jam@250", &error).has_value());
  EXPECT_NE(error.find("window"), std::string::npos);

  EXPECT_FALSE(parse_spec("", &error).has_value());
}

TEST(SpecParser, NamedRegistryResolvesAndFallsThrough) {
  const auto named = plan_from_name("adaptive-half", nullptr);
  ASSERT_TRUE(named.has_value());
  EXPECT_EQ(named->name, "adaptive-half");
  EXPECT_TRUE(named->wants_sigma());

  const auto legacy = plan_from_name("failstop", nullptr);
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->role, Role::kFailStop);
  EXPECT_EQ(legacy->name, "fail-stop");  // the legacy table label

  const auto spec = plan_from_name("ambient;jam@10-20", nullptr);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->clauses.size(), 2u);

  EXPECT_FALSE(named_plans().empty());
}

TEST(SpecParser, RolePseudoClausesSetThePlanRole) {
  const auto byz = parse_spec("byzantine;ambient", nullptr);
  ASSERT_TRUE(byz.has_value());
  EXPECT_EQ(byz->role, Role::kByzantine);
  ASSERT_EQ(byz->clauses.size(), 1u);
  EXPECT_EQ(byz->clauses[0].kind, ClauseKind::kAmbient);

  // A role alone is a valid spec (empty clauses are skipped).
  const auto bare = parse_spec("failstop;", nullptr);
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->role, Role::kFailStop);
  EXPECT_TRUE(bare->clauses.empty());

  // Role pseudo-clauses take no arguments or windows.
  std::string error;
  EXPECT_FALSE(parse_spec("byzantine(frac=1)", &error).has_value());
  EXPECT_FALSE(parse_spec("failstop@0-10", &error).has_value());
}

TEST(SpecRoundTrip, ToSpecReparsesToTheSamePlan) {
  // to_spec must serialise every plan the grammar can express such that
  // re-parsing reproduces role, clauses and σ settings. Fixed point:
  // to_spec(parse(to_spec(p))) == to_spec(p).
  const char* specs[] = {
      "ambient",
      "byzantine;ambient",
      "failstop;ambient",
      "iid(p=0.2,dst=0+1)@0-2000",
      "sigma(round_ms=20);adaptive(frac=0.5)",
      "crash(count=1,at=50,recover=450)",
      "burst(good_ms=80,bad_ms=20,p_good=0.01,p_bad=0.6,src=2)@10-99,200-inf",
      "byzantine;",
  };
  for (const char* s : specs) {
    std::string error;
    const auto plan = parse_spec(s, &error);
    ASSERT_TRUE(plan.has_value()) << s << ": " << error;
    const std::string emitted = to_spec(*plan);
    const auto reparsed = parse_spec(emitted, &error);
    ASSERT_TRUE(reparsed.has_value())
        << s << " -> '" << emitted << "': " << error;
    EXPECT_EQ(reparsed->role, plan->role) << s;
    EXPECT_EQ(reparsed->track_sigma, plan->track_sigma) << s;
    EXPECT_EQ(reparsed->sigma_round, plan->sigma_round) << s;
    ASSERT_EQ(reparsed->clauses.size(), plan->clauses.size()) << s;
    // Clause has no operator== (it holds burst Params); the serialised
    // form is the comparison: a fixed point after one round trip.
    EXPECT_EQ(to_spec(*reparsed), emitted) << s;
  }

  // Canned plans round-trip too (their name is a label, not a spec).
  for (const char* name : {"failstop", "byzantine", "adaptive", "churn"}) {
    const auto plan = plan_from_name(name, nullptr);
    ASSERT_TRUE(plan.has_value()) << name;
    const std::string emitted = to_spec(*plan);
    const auto reparsed = parse_spec(emitted, nullptr);
    ASSERT_TRUE(reparsed.has_value()) << name << " -> '" << emitted << "'";
    EXPECT_EQ(reparsed->role, plan->role) << name;
    EXPECT_EQ(to_spec(*reparsed), emitted) << name;
  }
}

// ----------------------------------------------------------- validation ---

TEST(PlanValidation, RejectsOutOfRangeClauses) {
  FaultPlan plan;
  plan.clauses.push_back(Clause{.kind = ClauseKind::kIid, .p = 1.5});
  ASSERT_TRUE(plan.validate(4).has_value());

  plan.clauses[0] = Clause{.kind = ClauseKind::kCrash,
                           .processes = {7}};  // id outside n = 4
  ASSERT_TRUE(plan.validate(4).has_value());
  EXPECT_EQ(plan.validate(8), std::nullopt);

  plan.clauses[0] = Clause{.kind = ClauseKind::kAdaptive,
                           .sigma_fraction = -0.5};
  EXPECT_TRUE(plan.validate(4).has_value());

  plan.clauses[0] = Clause{.kind = ClauseKind::kIid,
                           .windows = {{.start = 20, .end = 20}},
                           .p = 0.1};
  EXPECT_TRUE(plan.validate(4).has_value());

  plan.clauses[0] = Clause{.kind = ClauseKind::kCrash,
                           .crash_count = 1,
                           .crash_at = 100,
                           .recover_at = 50};
  EXPECT_TRUE(plan.validate(4).has_value());
}

TEST(ScenarioBuilderTest, BuildValidatesPlanFields) {
  FaultPlan bad;
  bad.clauses.push_back(Clause{.kind = ClauseKind::kIid, .p = 2.0});
  EXPECT_THROW((void)ScenarioBuilder{}.plan(bad).build(),
               std::invalid_argument);

  const ScenarioConfig ok = ScenarioBuilder{}
                                .protocol(Protocol::kTurquois)
                                .group_size(7)
                                .plan(*plan_from_name("adaptive", nullptr))
                                .repetitions(3)
                                .build();
  EXPECT_EQ(ok.n, 7u);
  ASSERT_TRUE(ok.plan.has_value());
  EXPECT_EQ(ok.fault_label(), "adaptive");

  // plan() replaces any previously-set plan wholesale.
  const ScenarioConfig swapped =
      ScenarioBuilder{ok}
          .plan(canned_plan(Role::kByzantine, "Byzantine"))
          .build();
  ASSERT_TRUE(swapped.plan.has_value());
  EXPECT_EQ(swapped.fault_label(), "Byzantine");

  // An unset plan resolves to the canned failure-free plan.
  EXPECT_EQ(ScenarioConfig{}.fault_label(), "failure-free");
}

// ------------------------------------------------------- stream pinning ---

TEST(StreamPinning, ClausesDrawDedicatedIndexedStreams) {
  // Two iid clauses must behave exactly like a hand-built composite whose
  // injectors hold the ("loss", 0) and ("loss", 1) streams — no aliasing,
  // and the first clause is bit-compatible with the legacy single-loss
  // path.
  FaultPlan plan;
  plan.clauses.push_back(Clause{.kind = ClauseKind::kIid, .p = 0.3});
  plan.clauses.push_back(Clause{.kind = ClauseKind::kIid, .p = 0.2});
  BuildContext ctx;
  ctx.root = Rng(123);
  BuiltPlan built = build(plan, ctx);
  ASSERT_NE(built.injector, nullptr);
  EXPECT_EQ(built.sigma, nullptr);  // nothing asked for σ accounting

  net::CompositeFaults manual;
  manual.add(std::make_unique<net::IidLoss>(0.3, Rng(123).derive("loss", 0)));
  manual.add(std::make_unique<net::IidLoss>(0.2, Rng(123).derive("loss", 1)));

  for (int q = 0; q < 2000; ++q) {
    const auto src = static_cast<ProcessId>(q % 4);
    const auto dst = static_cast<ProcessId>((q + 1) % 4);
    const SimTime now = q * kMillisecond;
    EXPECT_EQ(built.injector->drop(src, dst, now, 100),
              manual.drop(src, dst, now, 100))
        << "query " << q;
  }
}

TEST(StreamPinning, CannedPlanReproducesLegacyAmbientStreams) {
  // The canned plans' single kAmbient clause must consume exactly the
  // legacy ("loss", 0) + ("burst", 0) streams the old setup_medium drew.
  BuildContext ctx;
  ctx.root = Rng(77);
  ctx.ambient_loss_rate = 0.05;
  ctx.ambient_bursts = true;
  BuiltPlan built = build(canned_plan(Role::kNone, "failure-free"), ctx);

  net::CompositeFaults manual;
  manual.add(std::make_unique<net::IidLoss>(0.05, Rng(77).derive("loss", 0)));
  manual.add(std::make_unique<net::GilbertElliott>(
      ctx.ambient_burst_params, Rng(77).derive("burst", 0)));

  for (int q = 0; q < 2000; ++q) {
    const auto src = static_cast<ProcessId>(q % 7);
    const SimTime now = q * (kMillisecond / 4);
    EXPECT_EQ(built.injector->drop(src, 0, now, 64),
              manual.drop(src, 0, now, 64))
        << "query " << q;
  }
}

// ----------------------------------------------- alias / plan equivalence --

std::string strip_environment(const std::string& json) {
  std::string out;
  std::istringstream in(json);
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"environment\"") == std::string::npos) out += line + "\n";
  }
  return out;
}

std::string report_json(const ScenarioConfig& cfg, const std::string& name) {
  harness::BenchReport report;
  report.name = name;
  report.seed = cfg.seed;
  report.jobs = 1;
  report.wall_seconds = 0.0;
  report.cells.push_back(harness::make_cell(harness::run_scenario(cfg)));
  return harness::to_json(report);
}

TEST(CannedAlias, RegistryNamesMatchExplicitCannedPlansByteForByte) {
  // The registry's legacy names must resolve to exactly the canned plans
  // the retired FaultLoad alias used to build — same labels, same Rng
  // streams, same report bytes.
  struct Case {
    const char* registry_name;
    Role role;
    const char* label;
  };
  for (const Case& c : {Case{"none", Role::kNone, "failure-free"},
                        Case{"failstop", Role::kFailStop, "fail-stop"},
                        Case{"byzantine", Role::kByzantine, "Byzantine"}}) {
    ScenarioConfig named;
    named.n = 4;
    named.repetitions = 4;
    named.seed = 0x5EED;
    named.plan = *plan_from_name(c.registry_name, nullptr);

    ScenarioConfig canned = named;
    canned.plan = canned_plan(c.role, c.label);

    EXPECT_EQ(report_json(named, "alias"), report_json(canned, "alias"))
        << "registry name " << c.registry_name;
    EXPECT_EQ(named.fault_label(), c.label);
  }
}

// ------------------------------------------------ parallel determinism ----

ScenarioConfig plan_scenario(const std::string& plan_name,
                             std::uint32_t jobs) {
  return ScenarioBuilder{}
      .protocol(Protocol::kTurquois)
      .group_size(4)
      .distribution(ProposalDist::kDivergent)
      .plan(*plan_from_name(plan_name, nullptr))
      .seed(0xFAD)
      .repetitions(6)
      .jobs(jobs)
      .build();
}

class PlanDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(PlanDeterminism, StatsJsonAndTraceIdenticalAcrossJobCounts) {
  const std::string plan_name = GetParam();
  const ScenarioResult seq = harness::run_scenario(plan_scenario(plan_name, 1));
  const ScenarioResult par = harness::run_scenario(plan_scenario(plan_name, 8));

  EXPECT_EQ(seq.latency_ms.samples(), par.latency_ms.samples());
  EXPECT_EQ(seq.failed_runs, par.failed_runs);
  EXPECT_EQ(seq.medium_total.omissions, par.medium_total.omissions);
  ASSERT_EQ(seq.sigma.has_value(), par.sigma.has_value());
  if (seq.sigma.has_value()) {
    EXPECT_EQ(seq.sigma->rounds, par.sigma->rounds);
    EXPECT_EQ(seq.sigma->violating_rounds, par.sigma->violating_rounds);
    EXPECT_EQ(seq.sigma->omissions, par.sigma->omissions);
    EXPECT_EQ(seq.sigma->eligible_reps, par.sigma->eligible_reps);
  }

  EXPECT_EQ(strip_environment(report_json(plan_scenario(plan_name, 1), "d")),
            strip_environment(report_json(plan_scenario(plan_name, 8), "d")));

#if TURQ_TRACE_ENABLED
  const auto trace_for = [&](std::uint32_t jobs) {
    std::ostringstream out;
    trace::JsonlSink sink(out);
    ScenarioConfig cfg = plan_scenario(plan_name, jobs);
    cfg.trace_sink = &sink;
    (void)harness::run_scenario(cfg);
    return out.str();
  };
  const std::string trace_seq = trace_for(1);
  EXPECT_FALSE(trace_seq.empty());
  EXPECT_EQ(trace_seq, trace_for(4));
#endif
}

INSTANTIATE_TEST_SUITE_P(
    Plans, PlanDeterminism,
    ::testing::Values("sigma;burst(good_ms=40,bad_ms=10,p_good=0.02,p_bad=0.8)",
                      "jamming", "churn", "adaptive"));

// ------------------------------------------------------------ end-to-end --

TEST(AdaptivePlan, RunExportsSigmaAccounting) {
  const ScenarioConfig cfg = plan_scenario("adaptive", 1);
  const ScenarioResult r = harness::run_scenario(cfg);
  ASSERT_TRUE(r.sigma.has_value());
  EXPECT_EQ(r.sigma->bound, 3);  // n=4, k=3, t=0: ceil(4/2)*1 + 1
  EXPECT_EQ(r.sigma->tracked_reps, cfg.repetitions);
  EXPECT_GT(r.sigma->omissions, 0u);
  // The adversary never exceeds its budget, so every round is within σ and
  // every repetition stays liveness-eligible.
  EXPECT_EQ(r.sigma->violating_rounds, 0u);
  EXPECT_EQ(r.sigma->eligible_reps, r.sigma->tracked_reps);
  EXPECT_TRUE(r.sigma->liveness_eligible());
  EXPECT_LE(r.sigma->max_round_omissions,
            static_cast<std::uint64_t>(r.sigma->bound));
}

TEST(AdaptivePlan, OverBudgetFractionViolatesEveryActiveRound) {
  ScenarioConfig cfg = ScenarioBuilder{plan_scenario("sigma-violating", 1)}
                           .timeout(2 * kSecond)
                           .build();
  const ScenarioResult r = harness::run_scenario(cfg);
  ASSERT_TRUE(r.sigma.has_value());
  EXPECT_GT(r.sigma->violating_rounds, 0u);
  EXPECT_EQ(r.sigma->eligible_reps, 0u);
  EXPECT_FALSE(r.sigma->liveness_eligible());
  EXPECT_GT(r.sigma->max_round_omissions,
            static_cast<std::uint64_t>(r.sigma->bound));
  // Nothing can decide while every round is starved past σ.
  EXPECT_EQ(r.failed_runs, cfg.repetitions);
}

TEST(CannedPlans, FailureFreeRunExportsNoSigma) {
  ScenarioConfig cfg;
  cfg.n = 4;
  cfg.repetitions = 2;
  const ScenarioResult r = harness::run_scenario(cfg);
  EXPECT_FALSE(r.sigma.has_value());  // canned loads keep legacy bytes
}

// ------------------------------------------------------- golden campaign --

// Regenerate after an intentional format change with:
//   UPDATE_CAMPAIGN_GOLDEN=1 ./tests/faultplan_test
//       --gtest_filter=Campaign.GoldenCellReport
// (one shell command, split here for width).
TEST(Campaign, GoldenCellReport) {
  // Mirrors one cell of `turquois_campaign --quick --sizes 4 --plan
  // adaptive --seed 7`: any byte drift in the per-cell report (outside the
  // environment line) is a regression of the campaign determinism
  // contract.
  const ScenarioConfig cfg = ScenarioBuilder{}
                                 .protocol(Protocol::kTurquois)
                                 .group_size(4)
                                 .plan(*plan_from_name("adaptive", nullptr))
                                 .seed(7)
                                 .repetitions(2)
                                 .timeout(30 * kSecond)
                                 .build();
  const std::string json =
      strip_environment(report_json(cfg, "campaign_Turquois_adaptive_n4"));

  if (std::getenv("UPDATE_CAMPAIGN_GOLDEN") != nullptr) {
    std::ofstream out(CAMPAIGN_GOLDEN_FILE, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " CAMPAIGN_GOLDEN_FILE;
    out << json;
    GTEST_SKIP() << "golden file updated";
  }

  std::ifstream golden(CAMPAIGN_GOLDEN_FILE);
  ASSERT_TRUE(golden.is_open()) << "missing golden file " CAMPAIGN_GOLDEN_FILE;
  std::stringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(json, expected.str());
}

}  // namespace
}  // namespace turq::faultplan
