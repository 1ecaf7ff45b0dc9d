// Declarative, time-phased fault campaigns.
//
// A FaultPlan is a *value* describing every fault a scenario injects: the
// role taken by the f designated-faulty processes (none / fail-stop /
// Byzantine), plus a list of omission clauses the medium consults per
// (frame, receiver). Clauses compose the injectors of net/fault_injector.hpp
// with three combinators:
//
//   * time windows  — a clause is active only inside its [start, end)
//     windows, which sequences fault phases along simulated time;
//   * link scope    — a clause applies only to frames from `src_scope`
//     and/or to `dst_scope`, which confines faults to link subsets;
//   * any-of        — the clause list itself: a frame is omitted when any
//     active clause drops it (CompositeFaults semantics).
//
// Because a plan is plain data it can live on ScenarioConfig, be compared,
// printed, parsed from a spec string (spec.hpp) and rebuilt per repetition:
// build() instantiates a fresh injector tree from a repetition's root Rng,
// deriving a dedicated Rng stream per stochastic clause (tag "loss" for iid
// clauses, "burst" for Gilbert-Elliott, indexed per kind) so two clauses
// never alias random streams and the canned plans reproduce the legacy
// harness streams bit for bit.
//
// σ accounting: the paper (§4-5) guarantees progress in communication
// rounds whose omission-fault count stays at or under
// σ = ceil((n-t)/2)·(n-k-t) + k - 2. When a plan tracks σ, build() wraps
// the injector tree in a meter that tallies injected omissions per round
// (a fixed window of the Turquois tick interval by default) and reports,
// per repetition, how many rounds violated the bound — labeling every run
// liveness-eligible or σ-violating per the paper's predicate.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/fault_injector.hpp"
#include "turquois/config.hpp"

namespace turq::faultplan {

/// Behaviour of the f designated-faulty processes (the last f ids, matching
/// the paper's evaluation): absent, crashed before start, or running the
/// §7.2 Byzantine strategy.
enum class Role : std::uint8_t { kNone, kFailStop, kByzantine };

[[nodiscard]] std::string to_string(Role role);

/// Half-open activation window [start, end) in simulated time.
struct Window {
  SimTime start = 0;
  SimTime end = std::numeric_limits<SimTime>::max();

  bool operator==(const Window&) const = default;

  [[nodiscard]] bool contains(SimTime now) const {
    return now >= start && now < end;
  }
};

enum class ClauseKind : std::uint8_t {
  /// Expands to the scenario's ambient loss model (ScenarioConfig loss_rate
  /// iid clause + Gilbert-Elliott bursts) — what the legacy canned loads
  /// always injected. Keeping it as a clause lets custom plans opt in or
  /// out of the ambient channel explicitly.
  kAmbient = 0,
  kIid,      // iid loss with probability `p`
  kBurst,    // Gilbert-Elliott burst loss
  kJam,      // total loss inside the clause windows
  kCrash,    // silence a process set, optionally with recovery (churn)
  kAdaptive, // adaptive omission adversary spending a per-round σ budget
  kSigma,    // no injection; turns on σ accounting (plan.track_sigma)
};

[[nodiscard]] const char* to_string(ClauseKind kind);

/// One fault source. Only the fields of the clause's kind are meaningful;
/// windows and link scopes apply to every kind (for kJam the windows *are*
/// the jammed intervals).
struct Clause {
  ClauseKind kind = ClauseKind::kIid;

  /// Activation windows; empty = always active.
  std::vector<Window> windows{};
  /// Only frames sent by these processes are affected; empty = any sender.
  std::vector<ProcessId> src_scope{};
  /// Only receptions at these processes are affected; empty = any receiver.
  std::vector<ProcessId> dst_scope{};

  // kIid
  double p = 0.0;
  // kBurst
  net::GilbertElliott::Params burst{};
  // kCrash: explicit ids and/or the last `crash_count` processes.
  std::vector<ProcessId> processes{};
  std::uint32_t crash_count = 0;
  SimTime crash_at = 0;
  /// When set the silenced processes come back at this time (crash-recover
  /// churn); unset = silenced forever.
  std::optional<SimTime> recover_at{};
  // kAdaptive: the adversary drops up to floor(fraction · σ) frame
  // receptions per communication round. Values above 1 deliberately exceed
  // the paper's bound (σ-violating campaigns).
  double sigma_fraction = 1.0;

  bool operator==(const Clause&) const = default;
};

/// The declarative fault campaign carried by ScenarioConfig.
struct FaultPlan {
  /// Label used in tables, reports and file names. The canned plans reuse
  /// the legacy FaultLoad labels ("failure-free", "fail-stop", "Byzantine")
  /// so their report cells stay byte-identical.
  std::string name = "failure-free";
  Role role = Role::kNone;
  std::vector<Clause> clauses;

  /// Track per-round omissions against the paper's σ bound. Implied by any
  /// kAdaptive or kSigma clause.
  bool track_sigma = false;
  /// σ accounting round length; 0 = the scenario's tick interval.
  SimDuration sigma_round = 0;

  bool operator==(const FaultPlan&) const = default;

  /// True when build() will attach a σ meter.
  [[nodiscard]] bool wants_sigma() const;

  /// A copy of this plan with σ tracking forced on. The harness applies
  /// this to every spatial scenario: reachability-induced omissions (the
  /// medium's `unreachable` pairs) are fed into the σ accountant alongside
  /// injected ones, so a transient partition exceeds the per-round budget
  /// and the auditor correctly treats the stalled run as liveness-
  /// ineligible instead of flagging a violation.
  [[nodiscard]] FaultPlan with_sigma() const {
    FaultPlan copy = *this;
    copy.track_sigma = true;
    return copy;
  }

  /// Human-readable reason the plan cannot run in a group of size n, or
  /// std::nullopt when it is well-formed. harness::validate() forwards this.
  [[nodiscard]] std::optional<std::string> validate(std::uint32_t n) const;
};

/// The legacy canned loads as plans: the designated-faulty role plus a
/// single kAmbient clause — byte-identical labels and Rng streams to the
/// retired ScenarioConfig::fault_load alias.
[[nodiscard]] FaultPlan canned_plan(Role role, std::string name);

// ---------------------------------------------------------------- sigma ---

/// Per-repetition outcome of σ accounting.
struct SigmaSummary {
  std::int64_t bound = 0;              // σ for this (n, k, t)
  std::uint64_t rounds = 0;            // rounds the medium was queried in
  std::uint64_t violating_rounds = 0;  // rounds with omissions > bound
  std::uint64_t omissions = 0;         // injected omissions, all rounds
  std::uint64_t max_round_omissions = 0;

  bool operator==(const SigmaSummary&) const = default;

  /// The paper's conditional-liveness predicate: every round stayed within
  /// the σ budget, so the decision rounds were all progress-eligible.
  [[nodiscard]] bool liveness_eligible() const {
    return violating_rounds == 0;
  }
};

/// Tallies injected omissions per fixed-length communication round against
/// the σ bound. Rounds are `now / round_duration`; the horizon advances on
/// every query so trailing omission-free rounds count as observed.
class SigmaAccountant {
 public:
  SigmaAccountant(std::int64_t bound, SimDuration round_duration);

  /// Notes that the medium consulted the injector at `now`.
  void observe(SimTime now);
  /// Records one injected (frame, receiver) omission at `now`.
  void record_omission(SimTime now);

  [[nodiscard]] std::uint64_t round_of(SimTime now) const;
  [[nodiscard]] std::int64_t bound() const { return bound_; }
  /// Omission tally per round index (trailing zero rounds included).
  [[nodiscard]] const std::vector<std::uint64_t>& per_round() const {
    return per_round_;
  }
  [[nodiscard]] SigmaSummary summary() const;

 private:
  std::int64_t bound_ = 0;
  SimDuration round_ = kMillisecond;
  std::vector<std::uint64_t> per_round_;
};

// ---------------------------------------------------------------- build ---

/// Scenario facts a plan needs to become a concrete injector tree.
struct BuildContext {
  std::uint32_t n = 4;
  std::uint32_t f = 1;  // tolerated faults, floor((n-1)/3)
  std::uint32_t k = 3;  // decision quorum, n - f
  /// Actually-faulty process count t (0 when the plan's role is kNone);
  /// enters the σ bound.
  std::uint32_t t = 0;

  // kAmbient expansion (the ScenarioConfig ambient channel).
  double ambient_loss_rate = 0.0;
  bool ambient_bursts = false;
  net::GilbertElliott::Params ambient_burst_params;

  /// Round length for σ accounting and the adaptive adversary when the plan
  /// does not fix one (ScenarioConfig::tick_interval).
  SimDuration round_duration = 10 * kMillisecond;

  /// Repetition root; only derive()d from, never consumed, so building a
  /// plan is stream-neutral for the rest of the repetition.
  Rng root;
};

/// A plan instantiated for one repetition.
struct BuiltPlan {
  /// Root injector for Medium::set_fault_injector; never null (an empty
  /// plan builds an empty composite that drops nothing).
  std::unique_ptr<net::FaultInjector> injector;
  /// σ meter, or nullptr when the plan does not track σ. Owned by
  /// `injector`; valid exactly as long as it.
  SigmaAccountant* sigma = nullptr;
};

/// Instantiates the plan's injector tree. Per-clause randomness comes from
/// ctx.root.derive(tag, index) with a dedicated (tag, index) per stochastic
/// clause, so identically-seeded builds are bit-identical and clauses never
/// share a stream.
[[nodiscard]] BuiltPlan build(const FaultPlan& plan, const BuildContext& ctx);

/// The σ bound the plan's accounting uses for this context:
/// turquois::sigma_bound(n, k, t), floored at 0.
[[nodiscard]] std::int64_t sigma_bound_of(const BuildContext& ctx);

}  // namespace turq::faultplan
