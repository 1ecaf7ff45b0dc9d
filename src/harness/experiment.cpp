#include "harness/experiment.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "adversary/strategies.hpp"
#include "baselines/abba/abba.hpp"
#include "baselines/absmac/absmac.hpp"
#include "baselines/bracha/bracha.hpp"
#include "baselines/crain/crain.hpp"
#include "common/assert.hpp"
#include "common/logging.hpp"
#include "harness/scheduler.hpp"
#include "net/broadcast_endpoint.hpp"
#include "runtime/sim_runtime.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "sim/task_pool.hpp"
#include "trace/trace.hpp"
#include "turquois/exchange_pool.hpp"
#include "turquois/process.hpp"

namespace turq::harness {

std::string to_string(ProposalDist d) {
  return d == ProposalDist::kUnanimous ? "unanimous" : "divergent";
}

std::string to_string(TurquoisAttack a) {
  switch (a) {
    case TurquoisAttack::kValueInversion: return "value-inversion";
    case TurquoisAttack::kDecidedCoinForge: return "decided-coin";
  }
  return "?";
}

faultplan::FaultPlan ScenarioConfig::effective_plan() const {
  return plan.has_value()
             ? *plan
             : faultplan::canned_plan(faultplan::Role::kNone, "failure-free");
}

std::string ScenarioConfig::fault_label() const {
  return effective_plan().name;
}

ScenarioConfig ScenarioBuilder::build() const {
  if (const auto reason = validate(cfg_)) {
    throw std::invalid_argument("invalid scenario: " + *reason);
  }
  return cfg_;
}

namespace {

/// Proposal value for process `id` under the given distribution: the paper's
/// unanimous load proposes 1 everywhere; the divergent load has odd ids
/// propose 1 and even ids propose 0.
Value proposal_for(ProposalDist dist, ProcessId id) {
  if (dist == ProposalDist::kUnanimous) return Value::kOne;
  return (id % 2 == 1) ? Value::kOne : Value::kZero;
}

/// Shared per-repetition context: the deployment and bookkeeping needed to
/// run until all correct processes decide.
struct Deployment {
  sim::Simulator sim;
  std::uint64_t rep_index = 0;
  std::unique_ptr<net::Medium> medium;
  std::unique_ptr<spatial::Topology> topology;  // set iff spatial.active()
  std::unique_ptr<spatial::RelayFabric> relay;  // broadcast multi-hop only
  faultplan::BuiltPlan faults;  // injector tree + optional σ meter
  std::vector<std::unique_ptr<sim::VirtualCpu>> cpus;
  std::vector<std::unique_ptr<runtime::SimRuntime>> runtimes;
  std::vector<ProcessId> correct;   // processes expected to decide
  std::vector<ProcessId> faulty;    // crashed or Byzantine
  std::vector<SimTime> start_at;
  std::vector<std::optional<SimTime>> decide_at;
  // Consensus auditor (nullptr when ScenarioConfig::audit is off), fed by
  // the correct processes' hooks.
  std::unique_ptr<audit::ConsensusAuditor> auditor;

  [[nodiscard]] bool is_faulty(ProcessId id) const {
    return std::find(faulty.begin(), faulty.end(), id) != faulty.end();
  }
};

void split_roles(const ScenarioConfig& cfg, const faultplan::FaultPlan& plan,
                 Deployment& d) {
  // The last f processes take the faulty role, keeping the odd/even
  // proposal pattern of the survivors intact.
  const std::uint32_t f = cfg.f();
  for (ProcessId id = 0; id < cfg.n; ++id) {
    if (plan.role != faultplan::Role::kNone && id >= cfg.n - f) {
      d.faulty.push_back(id);
    } else {
      d.correct.push_back(id);
    }
  }
}

void setup_medium(const ScenarioConfig& cfg, const faultplan::FaultPlan& plan,
                  Deployment& d, Rng& root) {
  d.medium = std::make_unique<net::Medium>(d.sim, cfg.medium,
                                           root.derive("medium", 0));
  faultplan::BuildContext ctx;
  ctx.n = cfg.n;
  ctx.f = cfg.f();
  ctx.k = cfg.k();
  ctx.t = plan.role == faultplan::Role::kNone ? 0 : cfg.f();
  ctx.ambient_loss_rate = cfg.loss_rate;
  ctx.ambient_bursts = cfg.bursty_loss;
  ctx.ambient_burst_params = cfg.burst_params;
  // σ accounting (and the adaptive adversary's budget window) is per
  // *communication round* — the span in which every process broadcasts once
  // (§5). One tick only fits a handful of frames on the serialized 802.11b
  // channel, so at larger n a full exchange spans several ticks; granting a
  // fresh σ budget every tick would hand the adversary a multiple of the
  // paper's per-round budget and let it starve liveness while the
  // accountant still reports the run σ-eligible (turquois_fuzz found
  // exactly that at n=16: permanent livelock labelled liveness-eligible).
  // 2 ms conservatively covers one justification-carrying broadcast frame.
  // An explicit sigma(round_ms=...) clause still overrides this default.
  constexpr SimDuration kFrameSlot = 2 * kMillisecond;
  const SimDuration exchange =
      static_cast<SimDuration>(cfg.n) * kFrameSlot;
  const SimDuration ticks_per_round =
      (exchange + cfg.tick_interval - 1) / cfg.tick_interval;
  ctx.round_duration =
      cfg.tick_interval * std::max<SimDuration>(SimDuration{1}, ticks_per_round);
  ctx.root = root;  // derive()d from only; stream-neutral for the rest
  // Spatial scenarios force σ tracking: reachability-induced omissions
  // must count against the per-round budget so a transient partition makes
  // the run liveness-ineligible instead of an auditor violation.
  d.faults = cfg.spatial.active()
                 ? faultplan::build(plan.with_sigma(), ctx)
                 : faultplan::build(plan, ctx);
  d.medium->set_fault_injector(d.faults.injector.get());
  if (cfg.spatial.active()) {
    d.topology = std::make_unique<spatial::Topology>(
        cfg.spatial, cfg.n, root.derive("spatial", 0));
    d.medium->set_spatial(d.topology.get());
    if (d.faults.sigma != nullptr) {
      d.medium->set_unreachable_hook(
          [s = d.faults.sigma](SimTime at) { s->record_omission(at); });
    }
  }
}

/// Drives the simulation in 1 ms slices until every correct process has
/// decided (checked at each slice boundary) or the deadline passes, then
/// scores the run: decisions, channel, σ and spatial counters, the
/// auditor's verdict and the repetition's trace counters. Reads the
/// processes directly, once per correct process per slice.
template <class Row>
RunResult collect(const ScenarioConfig& cfg, Deployment& d, const Row& row,
                  const std::vector<std::unique_ptr<typename Row::Process>>&
                      procs) {
  RunResult result;
  const SimTime deadline = cfg.run_timeout;
  while (d.sim.now() < deadline) {
    bool all = true;
    for (const ProcessId id : d.correct) {
      if (procs[id]->decided()) {
        if (!d.decide_at[id].has_value()) d.decide_at[id] = d.sim.now();
      } else {
        all = false;
      }
    }
    if (all) break;
    const SimTime slice = std::min<SimTime>(deadline, d.sim.now() + kMillisecond);
    if (d.sim.run_until(slice) == 0 && d.sim.idle()) break;
  }

  std::optional<Value> agreed;
  result.all_correct_decided = true;
  for (const ProcessId id : d.correct) {
    const typename Row::Process& p = *procs[id];
    result.app_messages += Row::sent(p);
    if (!p.decided()) {
      result.all_correct_decided = false;
      continue;
    }
    const Value v = p.decision();
    if (agreed.has_value() && *agreed != v) result.agreement_held = false;
    agreed = v;
    // decide_at may not have been sampled if decision landed in the last
    // slice; fall back to now.
    const SimTime at = d.decide_at[id].value_or(d.sim.now());
    result.latencies_ms.push_back(to_milliseconds(at - d.start_at[id]));
  }
  result.k_decided = result.latencies_ms.size() >= cfg.k();
  result.decision = agreed;
  // Validity: under the unanimous load every correct process proposed 1.
  result.validity_held = cfg.distribution != ProposalDist::kUnanimous ||
                         agreed.value_or(Value::kOne) == Value::kOne;

  // Everything below is read at the instant polling stopped.
  result.medium = d.medium->stats();
  if (d.faults.sigma != nullptr) result.sigma = d.faults.sigma->summary();
  if (d.topology != nullptr) {
    // Sample connectivity up to the end of the run so a quiet tail (e.g.
    // everyone decided, no frames moving) still contributes samples.
    d.topology->advance(d.sim.now());
    spatial::SpatialStats sp = d.topology->stats();
    if (d.relay != nullptr) {
      const spatial::RelayFabric::Stats rs = d.relay->stats();
      sp.relay_origin_frames = rs.origin_frames;
      sp.relay_forwards = rs.forwards;
      sp.relay_suppressed = rs.suppressed;
      sp.relay_duplicates = rs.duplicates;
      sp.relay_deliveries = rs.deliveries;
    }
    result.spatial = sp;
  }

  if (d.auditor != nullptr) {
    row.check_final_state(*d.auditor, d, procs);
    result.audit = d.auditor->finish(result.sigma, result.all_correct_decided);
  }

#if TURQ_TRACE_ENABLED
  if (trace::Tracer* t = trace::current()) {
    auto& m = t->metrics();
    m.merge(d.medium->metrics());
    if (d.topology != nullptr) m.merge(d.topology->metrics());
    if (d.relay != nullptr) m.merge(d.relay->metrics());
    m.counter("app.messages").add(result.app_messages);
    if (result.sigma.has_value()) {
      const faultplan::SigmaSummary& s = *result.sigma;
      m.counter("sigma.tracked_reps").add(1);
      m.counter("sigma.bound").add(s.bound);
      m.counter("sigma.rounds").add(static_cast<std::int64_t>(s.rounds));
      m.counter("sigma.violating_rounds")
          .add(static_cast<std::int64_t>(s.violating_rounds));
      m.counter("sigma.omissions").add(static_cast<std::int64_t>(s.omissions));
      m.counter("sigma.eligible_reps").add(s.liveness_eligible() ? 1 : 0);
    }
    if (result.audit.has_value()) {
      m.counter("audit.checked_reps").add(1);
      m.counter("audit.violations")
          .add(static_cast<std::int64_t>(result.audit->violations.size()));
      m.counter("audit.violating_reps").add(result.audit->passed() ? 0 : 1);
      for (const audit::Violation& v : result.audit->violations) {
        m.counter(std::string("audit.") + audit::to_string(v.property)).add(1);
      }
    }
    t->emit(trace::TraceEvent{
        .at = d.sim.now(), .category = trace::Category::kHarness,
        .kind = trace::Kind::kRepEnd,
        .value = static_cast<std::int64_t>(d.rep_index)});
  }
#endif
  return result;
}

// ---------------------------------------------------------- protocol rows --
//
// A row is what differs between protocols: its transport (the base it
// derives from), its per-repetition state (config, keys, dealer), how the
// Byzantine role maps onto a strategy or mutator, its process constructor,
// what make_scenario_setup may hoist, and its extras. deploy<Row> below
// owns everything else. Rows are built in place and never move: processes
// keep references into them.
struct RowBase {
  RowBase() = default;
  RowBase(const RowBase&) = delete;
  RowBase& operator=(const RowBase&) = delete;

  /// Checks over the final process states, before the auditor closes its
  /// report (none by default).
  template <class Procs>
  void check_final_state(audit::ConsensusAuditor&, const Deployment&,
                         const Procs&) const {}
  /// Protocol-level sends, for RunResult::app_messages.
  template <class Process>
  static std::uint64_t sent(const Process& p) {
    return p.stats().messages_sent;
  }
};

/// Broadcast transport (Turquois, AbsMac): one BroadcastEndpoint per
/// process, on the medium or, when the topology is spatial and the relay is
/// on, on the gossip relay so every datagram still reaches the whole group.
/// The protocol code is identical either way.
struct BusRow : RowBase {
  net::BroadcastService* bus;
  std::vector<std::unique_ptr<net::BroadcastEndpoint>> ports;

  BusRow(const ScenarioConfig& cfg, Deployment& d, Rng& root)
      : bus(d.medium.get()) {
    if (cfg.spatial.active() && cfg.relay_enabled) {
      d.relay = std::make_unique<spatial::RelayFabric>(
          d.sim, *d.medium, cfg.relay, cfg.n, root.derive("relay", 0));
      bus = d.relay.get();
    }
  }

  net::BroadcastEndpoint& open(const ScenarioConfig&, Deployment& d,
                               ProcessId id) {
    ports.push_back(std::make_unique<net::BroadcastEndpoint>(d.sim, *bus, id));
    return *ports.back();
  }
  void disconnect(const Deployment&) {}  // broadcast keeps no connections
  void finish(RunResult&) const {}
};

/// Pairwise HMAC keys (the pre-established security associations).
std::vector<std::vector<Bytes>> make_sa_keys(std::uint32_t n, Rng& root) {
  Rng key_rng = root.derive("sa-keys", 0);
  std::vector<std::vector<Bytes>> keys(n, std::vector<Bytes>(n));
  for (ProcessId a = 0; a < n; ++a) {
    for (ProcessId b = a; b < n; ++b) {
      Bytes key(32);
      for (auto& byte : key) byte = static_cast<std::uint8_t>(key_rng.next());
      keys[a][b] = key;
      keys[b][a] = std::move(key);
    }
  }
  return keys;
}

/// Point-to-point transport (Bracha, ABBA, Crain): one TcpHost per process
/// on the medium. On a spatial topology the hosts keep direct unicast; out
/// of range their segments are simply lost (counted `unreachable`).
/// `authenticate` HMACs every segment with the SA keys (`sa_keys` is set
/// iff it is on); `sum_totals` adds the hosts' Stats to RunResult::tcp.
struct TcpRow : RowBase {
  net::TcpConfig config;
  bool totals;
  std::vector<std::vector<Bytes>> local_keys;
  const std::vector<std::vector<Bytes>>* sa_keys = nullptr;
  std::vector<std::unique_ptr<net::TcpHost>> hosts;

  TcpRow(const ScenarioConfig& cfg, Rng& root, const ScenarioSetup* setup,
         bool authenticate, bool sum_totals)
      : config(cfg.tcp), totals(sum_totals) {
    config.authenticate = authenticate;
    if (!authenticate) return;
    // make_sa_keys only consumes a derived stream, so reusing the hoisted
    // keys is stream-neutral for the rest of the repetition.
    if (setup == nullptr || setup->sa_keys.empty()) {
      local_keys = make_sa_keys(cfg.n, root);
    }
    sa_keys = local_keys.empty() ? &setup->sa_keys : &local_keys;
  }

  static void hoist(const ScenarioConfig& cfg, Rng& root, ScenarioSetup& s) {
    s.sa_keys = make_sa_keys(cfg.n, root);
  }

  net::TcpHost& open(const ScenarioConfig& cfg, Deployment& d, ProcessId id) {
    hosts.push_back(std::make_unique<net::TcpHost>(
        d.sim, *d.medium, id, config, d.cpus[id].get(), &cfg.costs));
    if (sa_keys != nullptr) {
      for (ProcessId peer = 0; peer < cfg.n; ++peer) {
        hosts.back()->set_peer_key(peer, (*sa_keys)[id][peer]);
      }
    }
    return *hosts.back();
  }

  /// Fail-stop: crashed-before-start processes never came up, so surviving
  /// hosts have no connection to them (no frames wasted on dead peers).
  void disconnect(const Deployment& d) {
    for (const auto& host : hosts) {
      for (const ProcessId dead : d.faulty) host->disconnect_peer(dead);
    }
  }

  void finish(RunResult& result) const {
    if (totals) {
      for (const auto& host : hosts) {
        const net::TcpHost::Stats s = host->stats();
        result.tcp.messages_sent += s.messages_sent;
        result.tcp.segments_sent += s.segments_sent;
        result.tcp.segments_retransmitted += s.segments_retransmitted;
        result.tcp.rto_fires += s.rto_fires;
        result.tcp.fast_retransmits += s.fast_retransmits;
      }
    }
#if TURQ_TRACE_ENABLED
    if (trace::Tracer* t = trace::current()) {
      for (const auto& host : hosts) t->metrics().merge(host->metrics());
    }
#endif
  }
};

/// The per-repetition coin dealer of ABBA and Crain. Never hoisted: the
/// dealer's shares combine into the common-coin values, so hoisting them
/// would change every coin flip (unlike the Turquois/Bracha key material,
/// which never steers control flow).
template <class Dealer, class Config>
Dealer deal(const Config& config, const Rng& root) {
  Rng dealer_rng = root.derive("dealer", 0);
  return Dealer::setup(config, dealer_rng);
}

/// Turquois: hoistable one-time keys, the shared exchange pool, a Byzantine
/// outgoing-message mutator, and the quorum-sanity scan plus pool trace
/// counters as extras.
struct TurquoisRow : BusRow {
  using Process = turquois::Process;
  using Hooks = turquois::ProcessHooks;

  turquois::Config tcfg;
  std::optional<turquois::KeyInfrastructure> local_keys;
  const turquois::KeyInfrastructure* keys = nullptr;
  // One prepared-exchange cache shared by all receivers, optionally
  // pre-filled by lookahead workers. The cache is declared *before* the
  // worker pool: destruction runs in reverse, so the pool drains and joins
  // (completing any in-flight fill) while the cache entries it writes are
  // still alive.
  std::unique_ptr<turquois::ExchangePool> exchange_pool;
  std::unique_ptr<sim::TaskPool> intra_pool;

  TurquoisRow(const ScenarioConfig& cfg, Deployment& d, Rng& root,
              const ScenarioSetup* setup)
      : BusRow(cfg, d, root), tcfg(turquois::Config::for_group(cfg.n)) {
    tcfg.tick_interval = cfg.tick_interval;
    tcfg.tick_jitter = cfg.tick_jitter;
    // KeyInfrastructure::setup only derive()s from root (never consumes
    // it), so reusing the hoisted keys leaves every other stream untouched.
    if (setup == nullptr || !setup->turquois_keys.has_value()) {
      local_keys = turquois::KeyInfrastructure::setup(tcfg, root);
    }
    keys = local_keys.has_value() ? &*local_keys : &*setup->turquois_keys;
    if (sim::TaskPool::resolve(cfg.intra_jobs) > 1) {
      intra_pool = std::make_unique<sim::TaskPool>(
          sim::TaskPool::resolve(cfg.intra_jobs));
    }
    if (cfg.exchange_pool) {
      exchange_pool = std::make_unique<turquois::ExchangePool>(
          *keys, tcfg, intra_pool.get());
    }
  }

  static void hoist(const ScenarioConfig& cfg, Rng& root, ScenarioSetup& s) {
    s.turquois_keys = turquois::KeyInfrastructure::setup(
        turquois::Config::for_group(cfg.n), root);
  }

  std::unique_ptr<Process> make(const ScenarioConfig& cfg, runtime::Runtime& rt,
                                net::BroadcastEndpoint& port, ProcessId id,
                                Rng rng, Hooks hooks, bool byzantine) const {
    hooks.exchange_pool = exchange_pool.get();
    if (byzantine) {
      hooks.mutate_outgoing =
          cfg.attack == TurquoisAttack::kDecidedCoinForge
              ? adversary::turquois_decided_coin_forge()
              : adversary::turquois_value_inversion();
    }
    return std::make_unique<Process>(rt, port, tcfg, *keys, id, rng,
                                     cfg.costs, std::move(hooks));
  }

  static std::uint64_t sent(const Process& p) { return p.stats().broadcasts; }
  /// Quorum sanity, Turquois-flavoured: every correct decision must be
  /// backed by a quorum of messages carrying (some DECIDE phase, value) in
  /// the decider's final view. This holds for both decision paths — an own
  /// quorum transition counts its own view, and an adopted kDecided message
  /// passed status_valid only once the receiver's view held the decide
  /// quorum (validation.cpp) — and views never shrink.
  void check_final_state(audit::ConsensusAuditor& auditor, const Deployment& d,
                         const std::vector<std::unique_ptr<Process>>& procs)
      const {
    for (const ProcessId id : d.correct) {
      const Process& p = *procs[id];
      if (!p.decided()) continue;
      const Value v = p.decision();
      const turquois::Message* highest = p.view().highest_phase_message();
      const turquois::Phase top = highest != nullptr ? highest->phase : 0;
      bool evidence = false;
      for (turquois::Phase dph = 3; dph <= top && !evidence; dph += 3) {
        evidence = tcfg.exceeds_quorum(p.view().count_phase_value(dph, v));
      }
      if (!evidence) {
        auditor.note_violation(
            audit::Property::kQuorumSanity, id,
            "decided " + turq::to_string(v) +
                " without a decide-phase quorum for it in the final view");
      }
    }
  }

  void finish(RunResult&) const {
#if TURQ_TRACE_ENABLED
    trace::Tracer* t = trace::current();
    if (exchange_pool == nullptr || t == nullptr) return;
    // Acquire-side counters only: they are measured on the simulator
    // thread in delivery order and are bit-identical at any --intra-jobs.
    // Fill attribution (inline vs worker, claim races) is execution-
    // timing-dependent and deliberately stays out of the trace contract
    // (see ExchangePool::Stats).
    const turquois::ExchangePool::Stats& ps = exchange_pool->stats();
    auto& m = t->metrics();
    m.counter("exchange_pool.acquires")
        .add(static_cast<std::int64_t>(ps.acquires));
    m.counter("exchange_pool.hits")
        .add(static_cast<std::int64_t>(ps.shared_hits));
    m.counter("exchange_pool.misses")
        .add(static_cast<std::int64_t>(ps.misses()));
#endif
  }
};

/// Bracha: TcpHosts authenticated with the SA keys (the IPSec AH
/// analogue); Byzantine processes invert values.
struct BrachaRow : TcpRow {
  using Process = bracha::Process;
  using Hooks = bracha::ProcessHooks;

  bracha::Config bcfg;

  BrachaRow(const ScenarioConfig& cfg, Deployment&, Rng& root,
            const ScenarioSetup* setup)
      : TcpRow(cfg, root, setup, /*authenticate=*/true, /*sum_totals=*/true),
        bcfg(bracha::Config::for_group(cfg.n)) {}

  std::unique_ptr<Process> make(const ScenarioConfig& cfg, runtime::Runtime& rt,
                                net::TcpHost& host, ProcessId id, Rng rng,
                                Hooks hooks, bool byzantine) const {
    return std::make_unique<Process>(
        rt, host, bcfg, id, rng, cfg.costs,
        byzantine ? bracha::Strategy::kValueInversion
                  : bracha::Strategy::kHonest,
        std::move(hooks));
  }
};

/// ABBA: plain TCP (ABBA authenticates its own messages) and a
/// per-repetition dealer; Byzantine processes send invalid crypto.
/// RunResult::tcp stays all-zero for ABBA: it never summed its host totals,
/// and perfbench's traced rebuild compares that against run_once.
struct AbbaRow : TcpRow {
  using Process = abba::Process;
  using Hooks = abba::ProcessHooks;

  abba::Config acfg;
  abba::Dealer dealer;

  AbbaRow(const ScenarioConfig& cfg, Deployment&, Rng& root,
          const ScenarioSetup* setup)
      : TcpRow(cfg, root, setup, /*authenticate=*/false,
               /*sum_totals=*/false),
        acfg(abba::Config::for_group(cfg.n)),
        dealer(deal<abba::Dealer>(acfg, root)) {}

  std::unique_ptr<Process> make(const ScenarioConfig& cfg, runtime::Runtime& rt,
                                net::TcpHost& host, ProcessId id, Rng rng,
                                Hooks hooks, bool byzantine) const {
    return std::make_unique<Process>(
        rt, host, acfg, dealer, id, rng, cfg.costs,
        byzantine ? abba::Strategy::kInvalidCrypto : abba::Strategy::kHonest,
        std::move(hooks));
  }
};

/// Crain: authenticated channels (SA keys, no signatures) and a
/// per-repetition dealer; Byzantine processes invert values.
struct CrainRow : TcpRow {
  using Process = crain::Process;
  using Hooks = crain::ProcessHooks;

  crain::Config ccfg;
  crain::Dealer dealer;

  CrainRow(const ScenarioConfig& cfg, Deployment&, Rng& root,
           const ScenarioSetup* setup)
      : TcpRow(cfg, root, setup, /*authenticate=*/true, /*sum_totals=*/true),
        ccfg(crain::Config::for_group(cfg.n)),
        dealer(deal<crain::Dealer>(ccfg, root)) {}

  std::unique_ptr<Process> make(const ScenarioConfig& cfg, runtime::Runtime& rt,
                                net::TcpHost& host, ProcessId id, Rng rng,
                                Hooks hooks, bool byzantine) const {
    return std::make_unique<Process>(
        rt, host, ccfg, dealer, id, rng, cfg.costs,
        byzantine ? crain::Strategy::kValueInversion
                  : crain::Strategy::kHonest,
        std::move(hooks));
  }
};

/// AbsMac: the Turquois broadcast bus under an abstract MAC; Byzantine
/// processes invert values.
struct AbsMacRow : BusRow {
  using Process = absmac::Process;
  using Hooks = absmac::ProcessHooks;

  absmac::Config mcfg;

  AbsMacRow(const ScenarioConfig& cfg, Deployment& d, Rng& root,
            const ScenarioSetup*)
      : BusRow(cfg, d, root), mcfg(absmac::Config::for_group(cfg.n)) {
    mcfg.tick_interval = cfg.tick_interval;
  }

  std::unique_ptr<Process> make(const ScenarioConfig&, runtime::Runtime& rt,
                                net::BroadcastEndpoint& port, ProcessId id,
                                Rng rng, Hooks hooks, bool byzantine) const {
    return std::make_unique<Process>(
        rt, port, mcfg, id, rng,
        byzantine ? absmac::Strategy::kValueInversion
                  : absmac::Strategy::kHonest,
        std::move(hooks));
  }
};

// ------------------------------------------------------ the one repetition --

/// The hooks every process gets: each decision records its time, and a
/// correct process (`auditor` set; faulty ones are not observed) also
/// reports its decisions and its phase (Turquois) or round (baselines)
/// entries to the auditor.
template <class Hooks>
Hooks observe(Deployment& d, ProcessId id, audit::ConsensusAuditor* auditor) {
  Hooks hooks;
  hooks.on_decide = [&d, id, auditor](Value v, auto phase, SimTime at) {
    d.decide_at[id] = at;
    if (auditor != nullptr) auditor->on_decide(id, v, phase, at);
  };
  if (auditor != nullptr) {
    const auto on_phase = [id, auditor](auto phase, SimTime at) {
      auditor->on_phase(id, phase, at);
    };
    if constexpr (requires(Hooks& h) { h.on_phase; }) {
      hooks.on_phase = on_phase;
    } else {
      hooks.on_round = on_phase;
    }
  }
  return hooks;
}

/// One repetition of any protocol. The orders below fix the simulator's
/// event tie-breaks and so every golden: processes are built in id order,
/// each as CPU, runtime, transport port, process; start offsets are drawn
/// in id order from the "start" stream, and fail-stop processes crash
/// without taking a draw.
template <class Row>
RunResult deploy(const ScenarioConfig& cfg, const faultplan::FaultPlan& plan,
                 Rng root, std::uint64_t rep_index,
                 const ScenarioSetup* setup) {
  Deployment d;
  d.rep_index = rep_index;
  split_roles(cfg, plan, d);
  setup_medium(cfg, plan, d, root);
  if (cfg.audit) {
    d.auditor = std::make_unique<audit::ConsensusAuditor>(audit::AuditConfig{
        .n = cfg.n, .f = cfg.f(), .k = cfg.k(),
        .phase_bound = cfg.audit_phase_bound});
  }

  Row row(cfg, d, root, setup);
  std::vector<std::unique_ptr<typename Row::Process>> procs;
  d.start_at.resize(cfg.n, 0);
  d.decide_at.resize(cfg.n);

  for (ProcessId id = 0; id < cfg.n; ++id) {
    d.cpus.push_back(std::make_unique<sim::VirtualCpu>(d.sim));
    d.runtimes.push_back(
        std::make_unique<runtime::SimRuntime>(d.sim, *d.cpus.back()));
    auto& port = row.open(cfg, d, id);
    const bool faulty = d.is_faulty(id);
    procs.push_back(row.make(
        cfg, *d.runtimes.back(), port, id, root.derive("proc", id),
        observe<typename Row::Hooks>(d, id, faulty ? nullptr : d.auditor.get()),
        faulty && plan.role == faultplan::Role::kByzantine));
  }

  const bool fail_stop = plan.role == faultplan::Role::kFailStop;
  if (fail_stop) row.disconnect(d);
  Rng start_rng = root.derive("start", 0);
  for (ProcessId id = 0; id < cfg.n; ++id) {
    const bool faulty = d.is_faulty(id);
    if (faulty && fail_stop) {
      procs[id]->crash();
      continue;
    }
    const auto offset = static_cast<SimDuration>(start_rng.uniform(
        static_cast<std::uint64_t>(cfg.start_spread) + 1));
    d.start_at[id] = offset;
    const Value v = proposal_for(cfg.distribution, id);
    if (!faulty && d.auditor != nullptr) d.auditor->on_propose(id, v, offset);
    d.sim.schedule_at(offset, [p = procs[id].get(), v] { p->propose(v); });
  }

  RunResult result = collect(cfg, d, row, procs);
  row.finish(result);
  return result;
}

/// The protocol table: one row per protocol, in Protocol order.
struct ProtocolEntry {
  Protocol protocol;
  const char* flag;  // command-line spelling
  const char* name;  // report spelling
  RunResult (*run)(const ScenarioConfig&, const faultplan::FaultPlan&, Rng,
                   std::uint64_t, const ScenarioSetup*);
  /// Fills what make_scenario_setup hoists, or nullptr when nothing can be
  /// hoisted (ABBA's dealer must stay per repetition; AbsMac has no keys).
  void (*hoist)(const ScenarioConfig&, Rng&, ScenarioSetup&);
};

constexpr ProtocolEntry kProtocols[] = {
    {Protocol::kTurquois, "turquois", "Turquois", &deploy<TurquoisRow>,
     &TurquoisRow::hoist},
    {Protocol::kBracha, "bracha", "Bracha", &deploy<BrachaRow>, &TcpRow::hoist},
    {Protocol::kAbba, "abba", "ABBA", &deploy<AbbaRow>, nullptr},
    {Protocol::kCrain, "crain", "Crain", &deploy<CrainRow>, &TcpRow::hoist},
    {Protocol::kAbsMac, "absmac", "AbsMac", &deploy<AbsMacRow>, nullptr},
};

const ProtocolEntry& entry(Protocol p) {
  const auto i = static_cast<std::size_t>(p);
  TURQ_ASSERT(i < std::size(kProtocols) && kProtocols[i].protocol == p);
  return kProtocols[i];
}

}  // namespace

std::string to_string(Protocol p) { return entry(p).name; }

const char* protocol_flag(Protocol p) { return entry(p).flag; }

std::optional<Protocol> parse_protocol(std::string_view flag) {
  for (const ProtocolEntry& e : kProtocols) {
    if (flag == e.flag) return e.protocol;
  }
  return std::nullopt;
}

std::string protocol_flags(std::string_view separator) {
  std::string out;
  for (const ProtocolEntry& e : kProtocols) {
    if (!out.empty()) out += separator;
    out += e.flag;
  }
  return out;
}

std::optional<std::string> validate(const ScenarioConfig& cfg) {
  if (cfg.repetitions == 0) {
    return "repetitions must be >= 1 (a scenario with 0 repetitions has "
           "no samples to pool)";
  }
  if (cfg.n < 4) {
    return "group size n must be >= 4 (n = " + std::to_string(cfg.n) +
           " gives f = 0, which degenerates the Byzantine quorums)";
  }
  if (cfg.n > 128) {
    return "group size n must be <= 128 (n = " + std::to_string(cfg.n) +
           "; the Turquois hot path tracks senders in 128-bit bitsets)";
  }
  if (cfg.loss_rate < 0.0 || cfg.loss_rate > 1.0) {
    return "loss_rate must be a probability in [0, 1]";
  }
  if (cfg.plan.has_value()) {
    if (const auto reason = cfg.plan->validate(cfg.n)) {
      return "fault plan: " + *reason;
    }
  }
  if (cfg.spatial.topology_set()) {
    const spatial::SpatialConfig& sp = cfg.spatial;
    if (!(sp.radius_m > 0.0)) {
      return "spatial: radius must be > 0 (use radius=inf for single-hop)";
    }
    if (!(sp.area_m > 0.0)) return "spatial: area side must be > 0";
    if (sp.cs_factor < 1.0) {
      return "spatial: carrier-sense factor must be >= 1 (sensing range "
             "cannot be shorter than delivery range)";
    }
    if (sp.fading_sigma_db < 0.0) {
      return "spatial: fading sigma must be >= 0 dB";
    }
    if (sp.mobility == spatial::Mobility::kWaypoint) {
      if (!(sp.speed_min_mps > 0.0) || sp.speed_max_mps < sp.speed_min_mps) {
        return "spatial: waypoint speeds need 0 < vmin <= vmax";
      }
    }
    if (sp.sample_interval == 0) {
      return "spatial: connectivity sample interval must be > 0";
    }
    if (cfg.relay_enabled) {
      if (cfg.relay.counter_threshold == 0) {
        return "relay: counter threshold must be >= 1";
      }
      if (cfg.relay.assess_max < cfg.relay.assess_min) {
        return "relay: assessment window needs assess_min <= assess_max";
      }
      if (cfg.relay.max_hops == 0) return "relay: max hops must be >= 1";
    }
  }
  return std::nullopt;
}

std::shared_ptr<const ScenarioSetup> make_scenario_setup(
    const ScenarioConfig& cfg) {
  auto setup = std::make_shared<ScenarioSetup>();
  // Derived from the repetition-0 stream: repetition 0 under the hoisted
  // path is byte-for-byte the deployment the unhoisted path builds.
  Rng root = Rng::stream(cfg.seed, "rep", 0);
  if (const auto hoist = entry(cfg.protocol).hoist) hoist(cfg, root, *setup);
  return setup;
}

RunResult run_once(const ScenarioConfig& cfg, std::uint64_t rep_index) {
  return run_once(cfg, rep_index, nullptr);
}

RunResult run_once(const ScenarioConfig& cfg, std::uint64_t rep_index,
                   const ScenarioSetup* setup) {
  Rng rep = Rng::stream(cfg.seed, "rep", rep_index);
  const faultplan::FaultPlan plan = cfg.effective_plan();

#if TURQ_TRACE_ENABLED
  // Each repetition gets a fresh tracer so the ring holds one run and the
  // sink receives one begin/end-marked block per repetition.
  std::optional<trace::Tracer> tracer;
  std::optional<trace::TraceScope> scope;
  if (cfg.trace_sink != nullptr) {
    trace::TracerOptions topt;
    topt.sim_events = cfg.trace_sim_events;
    tracer.emplace(topt);
    scope.emplace(&*tracer);
    tracer->emit(trace::TraceEvent{
        .at = 0, .category = trace::Category::kHarness,
        .kind = trace::Kind::kRepBegin,
        .value = static_cast<std::int64_t>(rep_index)});
  }
#endif

  RunResult result = entry(cfg.protocol).run(cfg, plan, rep, rep_index, setup);

#if TURQ_TRACE_ENABLED
  if (tracer.has_value()) tracer->flush(*cfg.trace_sink);
#endif
  return result;
}

ScenarioResult run_scenario(const ScenarioConfig& cfg) {
  if (const auto reason = validate(cfg)) {
    throw std::invalid_argument("invalid scenario: " + *reason);
  }

  ScenarioResult result;
  result.config = cfg;
  // The scheduler returns repetitions ordered by index whatever cfg.jobs
  // is, so this merge — and everything derived from it — is deterministic.
  for (const RepResult& rep : run_repetitions(cfg)) {
    if (rep.crashed) {
      TURQ_WARN("repetition %llu crashed: %s",
                static_cast<unsigned long long>(rep.rep_index),
                rep.error.c_str());
      ++result.failed_runs;
      continue;
    }
    const RunResult& run = rep.run;
    if (!run.agreement_held || !run.validity_held) ++result.safety_violations;
    if (run.sigma.has_value()) {
      // Merged before the decided check: timed-out sigma-violating runs must
      // still count against liveness eligibility.
      if (!result.sigma.has_value()) result.sigma.emplace();
      SigmaAggregate& agg = *result.sigma;
      const faultplan::SigmaSummary& s = *run.sigma;
      agg.bound = s.bound;
      agg.rounds += s.rounds;
      agg.violating_rounds += s.violating_rounds;
      agg.omissions += s.omissions;
      agg.max_round_omissions =
          std::max(agg.max_round_omissions, s.max_round_omissions);
      ++agg.tracked_reps;
      if (s.liveness_eligible()) ++agg.eligible_reps;
    }
    if (run.audit.has_value()) {
      // Also ahead of the decided check: a violating timed-out repetition is
      // exactly what the auditor exists to report.
      if (!result.audit.has_value()) result.audit.emplace();
      result.audit->merge(*run.audit);
    }
    if (!run.all_correct_decided) {
      ++result.failed_runs;
      continue;
    }
    result.latency_ms.add_all(run.latencies_ms);
    result.app_messages += run.app_messages;
    result.medium_total += run.medium;
    if (run.spatial.has_value()) {
      if (!result.spatial_total.has_value()) result.spatial_total.emplace();
      spatial::SpatialStats& agg = *result.spatial_total;
      const spatial::SpatialStats& s = *run.spatial;
      agg.samples += s.samples;
      agg.partition_events += s.partition_events;
      agg.partitioned_samples += s.partitioned_samples;
      agg.path_hops_sum += s.path_hops_sum;
      agg.path_pairs += s.path_pairs;
      agg.cs_domains_sum += s.cs_domains_sum;
      agg.relay_origin_frames += s.relay_origin_frames;
      agg.relay_forwards += s.relay_forwards;
      agg.relay_suppressed += s.relay_suppressed;
      agg.relay_duplicates += s.relay_duplicates;
      agg.relay_deliveries += s.relay_deliveries;
    }
  }
  return result;
}

}  // namespace turq::harness
