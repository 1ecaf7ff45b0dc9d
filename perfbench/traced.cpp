#include "traced.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <unordered_set>

#include "adversary/strategies.hpp"
#include "audit/audit.hpp"
#include "baselines/abba/abba.hpp"
#include "baselines/bracha/bracha.hpp"
#include "faultplan/plan.hpp"
#include "net/broadcast_endpoint.hpp"
#include "net/medium.hpp"
#include "net/reliable_channel.hpp"
#include "runtime/sim_runtime.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "turquois/exchange_pool.hpp"
#include "turquois/process.hpp"

namespace perfbench {

using namespace turq;
using harness::Protocol;
using harness::ProposalDist;
using harness::RunResult;
using harness::ScenarioConfig;

namespace {

/// Times the callbacks a protocol hands its runtime and sums the simulated
/// CPU it charges. Every verb forwards unchanged, so event order, timer
/// ids and RNG streams are those of the wrapped SimRuntime.
class TimedRuntime final : public runtime::Runtime {
 public:
  TimedRuntime(runtime::Runtime& inner, Spans& spans, Layer& timer,
               Layer& exec, double& charged_sim_s)
      : inner_(inner),
        spans_(spans),
        timer_(timer),
        exec_(exec),
        charged_sim_s_(charged_sim_s) {}

  [[nodiscard]] SimTime now() const override { return inner_.now(); }

  runtime::TimerId schedule(SimDuration delay, Callback fn) override {
    return inner_.schedule(delay, [this, fn = std::move(fn)]() mutable {
      spans_.time(timer_, fn);
    });
  }

  void cancel(runtime::TimerId id) override { inner_.cancel(id); }

  void charge(SimDuration duration) override {
    charged_sim_s_ += to_seconds(duration);
    inner_.charge(duration);
  }

  void execute(SimDuration duration, Callback done) override {
    charged_sim_s_ += to_seconds(duration);
    inner_.execute(duration, [this, done = std::move(done)]() mutable {
      spans_.time(exec_, done);
    });
  }

  [[nodiscard]] Rng derive_rng(std::string_view tag,
                               std::uint64_t index) const override {
    return inner_.derive_rng(tag, index);
  }

 private:
  static double to_seconds(SimDuration d) {
    return static_cast<double>(d) / static_cast<double>(kSecond);
  }

  runtime::Runtime& inner_;
  Spans& spans_;
  Layer& timer_;
  Layer& exec_;
  double& charged_sim_s_;
};

/// Times a Turquois process's datagram deliveries and keeps one copy of
/// every distinct payload it sends, for the codec + crypto replay.
class TimedPort final : public net::DatagramPort {
 public:
  TimedPort(net::DatagramPort& inner, Spans& spans, LayerTimes& layers,
            std::unordered_set<std::string>& sent)
      : inner_(inner), spans_(spans), layers_(layers), sent_(sent) {}

  void set_handler(net::DatagramHandler handler) override {
    inner_.set_handler(
        [this, handler = std::move(handler)](ProcessId src, BytesView p) {
          spans_.time(layers_.recv, [&] { handler(src, p); });
        });
  }

  void send(Bytes payload) override {
    spans_.time(layers_.record, [&] {
      sent_.emplace(payload.begin(), payload.end());
    });
    inner_.send(std::move(payload));
  }

  void close() override { inner_.close(); }

 private:
  net::DatagramPort& inner_;
  Spans& spans_;
  LayerTimes& layers_;
  std::unordered_set<std::string>& sent_;
};

/// Times every broadcast handed to the medium.
class TimedBus final : public net::BroadcastService {
 public:
  TimedBus(net::BroadcastService& inner, Spans& spans, Layer& layer)
      : inner_(inner), spans_(spans), layer_(layer) {}

  void attach(ProcessId id, ReceiveHandler handler) override {
    inner_.attach(id, std::move(handler));
  }
  void detach(ProcessId id) override { inner_.detach(id); }
  void broadcast(ProcessId src, FramePayload payload,
                 bool replace_queued) override {
    spans_.time(layer_, [&] {
      inner_.broadcast(src, std::move(payload), replace_queued);
    });
  }

 private:
  net::BroadcastService& inner_;
  Spans& spans_;
  Layer& layer_;
};

Value proposal_for(ProposalDist dist, ProcessId id) {
  if (dist == ProposalDist::kUnanimous) return Value::kOne;
  return (id % 2 == 1) ? Value::kOne : Value::kZero;
}

/// One traced repetition's deployment: the same objects, streams and
/// construction order as the harness's per-protocol builders.
class Deployment {
 public:
  Deployment(const ScenarioConfig& cfg, std::uint64_t rep, TracedRep& out)
      : cfg_(cfg),
        plan_(cfg.effective_plan()),
        root_(Rng::stream(cfg.seed, "rep", rep)),
        out_(out) {
    if (cfg.spatial.active()) {
      throw std::invalid_argument("traced run: spatial scenarios unsupported");
    }
    if (plan_.role == faultplan::Role::kFailStop) {
      throw std::invalid_argument("traced run: fail-stop plans unsupported");
    }
    for (ProcessId id = 0; id < cfg.n; ++id) {
      const bool faulty = plan_.role != faultplan::Role::kNone &&
                          id >= cfg.n - cfg.f();
      is_correct_.push_back(!faulty);
    }
    medium_ = std::make_unique<net::Medium>(sim_, cfg.medium,
                                            root_.derive("medium", 0));
    faultplan::BuildContext ctx;
    ctx.n = cfg.n;
    ctx.f = cfg.f();
    ctx.k = cfg.k();
    ctx.t = plan_.role == faultplan::Role::kNone ? 0 : cfg.f();
    ctx.ambient_loss_rate = cfg.loss_rate;
    ctx.ambient_bursts = cfg.bursty_loss;
    ctx.ambient_burst_params = cfg.burst_params;
    // The harness's σ round: enough ticks to fit one 2 ms frame slot per
    // process.
    constexpr SimDuration kFrameSlot = 2 * kMillisecond;
    const SimDuration exchange = static_cast<SimDuration>(cfg.n) * kFrameSlot;
    const SimDuration ticks_per_round =
        (exchange + cfg.tick_interval - 1) / cfg.tick_interval;
    ctx.round_duration = cfg.tick_interval *
                         std::max<SimDuration>(SimDuration{1}, ticks_per_round);
    ctx.root = root_;
    faults_ = faultplan::build(plan_, ctx);
    medium_->set_fault_injector(faults_.injector.get());
    if (cfg.audit) {
      audit::AuditConfig acfg;
      acfg.n = cfg.n;
      acfg.f = cfg.f();
      acfg.k = cfg.k();
      acfg.phase_bound = cfg.audit_phase_bound;
      auditor_ = std::make_unique<audit::ConsensusAuditor>(acfg);
    }
    start_at_.assign(cfg.n, 0);
    decide_at_.resize(cfg.n);
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  void run_turquois(const harness::ScenarioSetup& setup);
  void run_bracha(const harness::ScenarioSetup& setup);
  void run_abba();

 private:
  sim::VirtualCpu& add_cpu() {
    cpus_.push_back(std::make_unique<sim::VirtualCpu>(sim_));
    return *cpus_.back();
  }

  /// The runtime of the most recently added CPU, wrapped; `exec` receives
  /// its execute completions.
  runtime::Runtime& add_runtime(Layer& exec) {
    sim_runtimes_.push_back(
        std::make_unique<runtime::SimRuntime>(sim_, *cpus_.back()));
    runtimes_.push_back(std::make_unique<TimedRuntime>(
        *sim_runtimes_.back(), spans_, out_.layers.timer, exec,
        out_.charged_sim_s));
    return *runtimes_.back();
  }

  /// The auditor of a correct process, nullptr for a faulty one.
  audit::ConsensusAuditor* auditor_for(ProcessId id) {
    return is_correct_[id] ? auditor_.get() : nullptr;
  }

  void audit(const std::function<void()>& fn) {
    spans_.time(out_.layers.audit, fn);
  }

  /// Schedules every process's propose() after the start-signal spread.
  template <typename P>
  void start(const std::vector<std::unique_ptr<P>>& procs) {
    Rng start_rng = root_.derive("start", 0);
    for (ProcessId id = 0; id < cfg_.n; ++id) {
      const auto offset = static_cast<SimDuration>(start_rng.uniform(
          static_cast<std::uint64_t>(cfg_.start_spread) + 1));
      start_at_[id] = offset;
      const Value v = proposal_for(cfg_.distribution, id);
      if (is_correct_[id] && auditor_ != nullptr) {
        audit([&] { auditor_->on_propose(id, v, offset); });
      }
      sim_.schedule_at(offset, [p = procs[id].get(), v] { p->propose(v); });
    }
  }

  /// The harness's collect(): drive in 1 ms slices until every correct
  /// process decided or the deadline, then assemble the RunResult.
  template <typename P>
  RunResult collect(const std::vector<std::unique_ptr<P>>& procs,
                    const std::function<std::uint64_t(const P&)>& sent,
                    const std::function<void()>& audit_finalize);

  const ScenarioConfig& cfg_;
  const faultplan::FaultPlan plan_;
  Rng root_;
  TracedRep& out_;
  Spans spans_;
  std::vector<bool> is_correct_;

  sim::Simulator sim_;
  std::unique_ptr<net::Medium> medium_;
  faultplan::BuiltPlan faults_;
  std::unique_ptr<audit::ConsensusAuditor> auditor_;
  std::vector<std::unique_ptr<sim::VirtualCpu>> cpus_;
  std::vector<std::unique_ptr<runtime::SimRuntime>> sim_runtimes_;
  std::vector<std::unique_ptr<TimedRuntime>> runtimes_;
  std::vector<SimTime> start_at_;
  std::vector<std::optional<SimTime>> decide_at_;
};

template <typename P>
RunResult Deployment::collect(
    const std::vector<std::unique_ptr<P>>& procs,
    const std::function<std::uint64_t(const P&)>& sent,
    const std::function<void()>& audit_finalize) {
  RunResult result;
  const SimTime deadline = cfg_.run_timeout;
  while (sim_.now() < deadline) {
    bool all = true;
    for (ProcessId id = 0; id < cfg_.n; ++id) {
      if (!is_correct_[id]) continue;
      if (procs[id]->decided()) {
        if (!decide_at_[id].has_value()) decide_at_[id] = sim_.now();
      } else {
        all = false;
      }
    }
    if (all) break;
    const SimTime slice =
        std::min<SimTime>(deadline, sim_.now() + kMillisecond);
    std::size_t ran = 0;
    spans_.time(out_.layers.sim, [&] { ran = sim_.run_until(slice); });
    if (ran == 0 && sim_.idle()) break;
  }

  std::optional<Value> agreed;
  std::size_t decided_count = 0;
  result.all_correct_decided = true;
  for (ProcessId id = 0; id < cfg_.n; ++id) {
    if (!is_correct_[id]) continue;
    if (!procs[id]->decided()) {
      result.all_correct_decided = false;
      continue;
    }
    ++decided_count;
    const Value v = procs[id]->decision();
    if (agreed.has_value() && *agreed != v) result.agreement_held = false;
    agreed = v;
    const SimTime at = decide_at_[id].value_or(sim_.now());
    result.latencies_ms.push_back(to_milliseconds(at - start_at_[id]));
  }
  result.k_decided = decided_count >= cfg_.k();
  result.decision = agreed;
  if (cfg_.distribution == ProposalDist::kUnanimous && agreed.has_value() &&
      *agreed != Value::kOne) {
    result.validity_held = false;
  }
  result.medium = medium_->stats();
  for (ProcessId id = 0; id < cfg_.n; ++id) {
    if (is_correct_[id]) result.app_messages += sent(*procs[id]);
  }
  if (faults_.sigma != nullptr) result.sigma = faults_.sigma->summary();
  if (auditor_ != nullptr) {
    audit([&] {
      if (audit_finalize) audit_finalize();
      result.audit =
          auditor_->finish(result.sigma, result.all_correct_decided);
    });
  }
  out_.sim_events = sim_.events_executed();
  return result;
}

void Deployment::run_turquois(const harness::ScenarioSetup& setup) {
  if (!setup.turquois_keys.has_value()) {
    throw std::invalid_argument("traced run: setup lacks Turquois keys");
  }
  const turquois::KeyInfrastructure& keys = *setup.turquois_keys;
  turquois::Config tcfg = turquois::Config::for_group(cfg_.n);
  tcfg.tick_interval = cfg_.tick_interval;
  tcfg.tick_jitter = cfg_.tick_jitter;
  std::unique_ptr<turquois::ExchangePool> pool;
  if (cfg_.exchange_pool) {
    pool = std::make_unique<turquois::ExchangePool>(keys, tcfg, nullptr);
  }
  std::unordered_set<std::string> sent;
  TimedBus bus(*medium_, spans_, out_.layers.broadcast);
  std::vector<std::unique_ptr<net::BroadcastEndpoint>> endpoints;
  std::vector<std::unique_ptr<TimedPort>> ports;
  std::vector<std::unique_ptr<turquois::Process>> procs;

  spans_.time(out_.layers.harness, [&] {
    for (ProcessId id = 0; id < cfg_.n; ++id) {
      add_cpu();
      runtime::Runtime& rt = add_runtime(out_.layers.recv_exec);
      endpoints.push_back(
          std::make_unique<net::BroadcastEndpoint>(sim_, bus, id));
      ports.push_back(std::make_unique<TimedPort>(*endpoints.back(), spans_,
                                                  out_.layers, sent));
      audit::ConsensusAuditor* auditor = auditor_for(id);
      turquois::ProcessHooks hooks;
      hooks.exchange_pool = pool.get();
      hooks.on_decide = [this, id, auditor](Value v, turquois::Phase phase,
                                            SimTime at) {
        decide_at_[id] = at;
        if (auditor != nullptr) {
          audit([&] { auditor->on_decide(id, v, phase, at); });
        }
      };
      if (auditor != nullptr) {
        hooks.on_phase = [this, id, auditor](turquois::Phase phase,
                                             SimTime at) {
          audit([&] { auditor->on_phase(id, phase, at); });
        };
      }
      if (!is_correct_[id]) {
        hooks.mutate_outgoing =
            cfg_.attack == harness::TurquoisAttack::kDecidedCoinForge
                ? adversary::turquois_decided_coin_forge()
                : adversary::turquois_value_inversion();
      }
      procs.push_back(std::make_unique<turquois::Process>(
          rt, *ports.back(), tcfg, keys, id, root_.derive("proc", id),
          cfg_.costs, std::move(hooks)));
    }
    start(procs);
    // The harness's Turquois quorum-sanity scan over the final views.
    const auto finalize = [&] {
      for (ProcessId id = 0; id < cfg_.n; ++id) {
        const turquois::Process& p = *procs[id];
        if (!is_correct_[id] || !p.decided()) continue;
        const Value v = p.decision();
        const turquois::Message* highest = p.view().highest_phase_message();
        bool evidence = false;
        if (highest != nullptr) {
          for (turquois::Phase dph = 3; dph <= highest->phase; dph += 3) {
            if (tcfg.exceeds_quorum(p.view().count_phase_value(dph, v))) {
              evidence = true;
              break;
            }
          }
        }
        if (!evidence) {
          auditor_->note_violation(
              audit::Property::kQuorumSanity, id,
              "decided " + turq::to_string(v) +
                  " without a decide-phase quorum for it in the final view");
        }
      }
    };
    out_.result = collect<turquois::Process>(
        procs,
        [](const turquois::Process& p) { return p.stats().broadcasts; },
        finalize);
  });

  for (const auto& p : procs) {
    const turquois::Process::Stats& s = p->stats();
    out_.accepted += s.accepted;
    out_.authenticated += s.messages_authenticated;
    out_.auth_failures += s.auth_failures;
    out_.pending_hwm = std::max(out_.pending_hwm, s.still_pending);
    out_.coin_flips += s.coin_flips;
    out_.phase_jumps += s.phase_jumps;
  }
  if (pool != nullptr) {
    out_.pool_acquires = pool->stats().acquires;
    out_.pool_shared_hits = pool->stats().shared_hits;
  }

  // Codec + crypto: decode and authenticate each distinct payload once
  // through a fresh pool, as the first receiver of each broadcast does.
  turquois::ExchangePool replay(keys, tcfg, nullptr);
  const auto t0 = std::chrono::steady_clock::now();
  for (const std::string& payload : sent) {
    (void)replay.acquire(BytesView(
        reinterpret_cast<const std::uint8_t*>(payload.data()), payload.size()));
  }
  out_.codec_crypto_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
}

void Deployment::run_bracha(const harness::ScenarioSetup& setup) {
  if (setup.sa_keys.empty()) {
    throw std::invalid_argument("traced run: setup lacks Bracha SA keys");
  }
  const bracha::Config bcfg = bracha::Config::for_group(cfg_.n);
  net::TcpConfig tcp = cfg_.tcp;
  tcp.authenticate = true;
  std::vector<std::unique_ptr<net::TcpHost>> hosts;
  std::vector<std::unique_ptr<bracha::Process>> procs;

  spans_.time(out_.layers.harness, [&] {
    for (ProcessId id = 0; id < cfg_.n; ++id) {
      sim::VirtualCpu& cpu = add_cpu();
      hosts.push_back(std::make_unique<net::TcpHost>(
          sim_, *medium_, id, tcp, &cpu, &cfg_.costs));
      for (ProcessId peer = 0; peer < cfg_.n; ++peer) {
        hosts.back()->set_peer_key(peer, setup.sa_keys[id][peer]);
      }
      const auto strategy =
          (!is_correct_[id] && plan_.role == faultplan::Role::kByzantine)
              ? bracha::Strategy::kValueInversion
              : bracha::Strategy::kHonest;
      audit::ConsensusAuditor* auditor = auditor_for(id);
      bracha::ProcessHooks hooks;
      hooks.on_decide = [this, id, auditor](Value v, std::uint32_t round,
                                            SimTime at) {
        decide_at_[id] = at;
        if (auditor != nullptr) {
          audit([&] { auditor->on_decide(id, v, round, at); });
        }
      };
      if (auditor != nullptr) {
        hooks.on_round = [this, id, auditor](std::uint32_t round, SimTime at) {
          audit([&] { auditor->on_phase(id, round, at); });
        };
      }
      runtime::Runtime& rt = add_runtime(out_.layers.exec);
      procs.push_back(std::make_unique<bracha::Process>(
          rt, *hosts.back(), bcfg, id,
          root_.derive("proc", id), cfg_.costs, strategy, std::move(hooks)));
    }
    start(procs);
    out_.result = collect<bracha::Process>(
        procs,
        [](const bracha::Process& p) { return p.stats().messages_sent; }, {});
    for (const auto& host : hosts) {
      const net::TcpHost::Stats s = host->stats();
      out_.result.tcp.messages_sent += s.messages_sent;
      out_.result.tcp.segments_sent += s.segments_sent;
      out_.result.tcp.segments_retransmitted += s.segments_retransmitted;
      out_.result.tcp.rto_fires += s.rto_fires;
      out_.result.tcp.fast_retransmits += s.fast_retransmits;
    }
  });
}

void Deployment::run_abba() {
  const abba::Config acfg = abba::Config::for_group(cfg_.n);
  Rng dealer_rng = root_.derive("dealer", 0);
  net::TcpConfig tcp = cfg_.tcp;
  tcp.authenticate = false;
  std::vector<std::unique_ptr<net::TcpHost>> hosts;
  std::vector<std::unique_ptr<abba::Process>> procs;

  spans_.time(out_.layers.harness, [&] {
    const abba::Dealer dealer = abba::Dealer::setup(acfg, dealer_rng);
    for (ProcessId id = 0; id < cfg_.n; ++id) {
      sim::VirtualCpu& cpu = add_cpu();
      hosts.push_back(std::make_unique<net::TcpHost>(
          sim_, *medium_, id, tcp, &cpu, &cfg_.costs));
      const auto strategy =
          (!is_correct_[id] && plan_.role == faultplan::Role::kByzantine)
              ? abba::Strategy::kInvalidCrypto
              : abba::Strategy::kHonest;
      audit::ConsensusAuditor* auditor = auditor_for(id);
      abba::ProcessHooks hooks;
      hooks.on_decide = [this, id, auditor](Value v, std::uint32_t round,
                                            SimTime at) {
        decide_at_[id] = at;
        if (auditor != nullptr) {
          audit([&] { auditor->on_decide(id, v, round, at); });
        }
      };
      if (auditor != nullptr) {
        hooks.on_round = [this, id, auditor](std::uint32_t round, SimTime at) {
          audit([&] { auditor->on_phase(id, round, at); });
        };
      }
      runtime::Runtime& rt = add_runtime(out_.layers.exec);
      procs.push_back(std::make_unique<abba::Process>(
          rt, *hosts.back(), acfg, dealer, id,
          root_.derive("proc", id), cfg_.costs, strategy, std::move(hooks)));
    }
    start(procs);
    out_.result = collect<abba::Process>(
        procs,
        [](const abba::Process& p) { return p.stats().messages_sent; }, {});
  });
}

void append(std::string& out, const char* key, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s=%" PRIu64 " ", key, v);
  out += buf;
}

}  // namespace

TracedRep run_traced(const ScenarioConfig& cfg, std::uint64_t rep,
                     const harness::ScenarioSetup& setup) {
  TracedRep out;
  Deployment d(cfg, rep, out);
  switch (cfg.protocol) {
    case Protocol::kTurquois: d.run_turquois(setup); break;
    case Protocol::kBracha: d.run_bracha(setup); break;
    case Protocol::kAbba: d.run_abba(); break;
    default:
      throw std::invalid_argument("traced run: unsupported protocol " +
                                  harness::to_string(cfg.protocol));
  }
  return out;
}

std::string fingerprint(const RunResult& r) {
  std::string s;
  append(s, "all", r.all_correct_decided);
  append(s, "k", r.k_decided);
  append(s, "agreement", r.agreement_held);
  append(s, "validity", r.validity_held);
  append(s, "decision",
         r.decision.has_value() ? static_cast<std::uint64_t>(*r.decision) + 1
                                : 0);
  for (const double ms : r.latencies_ms) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g ", ms);
    s += buf;
  }
  const net::MediumStats& m = r.medium;
  append(s, "bcast", m.broadcast_frames);
  append(s, "ucast", m.unicast_frames);
  append(s, "retries", m.mac_retries);
  append(s, "collisions", m.collisions);
  append(s, "collided", m.frames_collided);
  append(s, "udrops", m.unicast_drops);
  append(s, "deliveries", m.deliveries);
  append(s, "omissions", m.omissions);
  append(s, "unreachable", m.unreachable);
  append(s, "hidden", m.hidden_terminal);
  append(s, "bytes", m.bytes_on_air);
  append(s, "airtime", static_cast<std::uint64_t>(m.airtime));
  append(s, "app", r.app_messages);
  append(s, "tcp.msgs", r.tcp.messages_sent);
  append(s, "tcp.segs", r.tcp.segments_sent);
  append(s, "tcp.rexmit", r.tcp.segments_retransmitted);
  append(s, "tcp.rto", r.tcp.rto_fires);
  append(s, "tcp.fast", r.tcp.fast_retransmits);
  if (r.sigma.has_value()) {
    append(s, "sigma.rounds", r.sigma->rounds);
    append(s, "sigma.violating", r.sigma->violating_rounds);
    append(s, "sigma.omissions", r.sigma->omissions);
    append(s, "sigma.max", r.sigma->max_round_omissions);
  }
  if (r.audit.has_value()) {
    append(s, "audit.checked", r.audit->checked);
    s += "audit=[" + r.audit->describe() + "] ";
  }
  if (r.service.has_value()) {
    const service::RepSummary& v = *r.service;
    append(s, "svc.arrivals", v.arrivals);
    append(s, "svc.committed", v.committed);
    append(s, "svc.rejected", v.rejected);
    append(s, "svc.launched", v.instances_launched);
    append(s, "svc.decided", v.instances_decided);
    append(s, "svc.failed", v.instances_failed);
    append(s, "svc.key_batches", v.key_batches);
    append(s, "svc.audited", v.audit_checked_instances);
    append(s, "svc.violating", v.audit_violating_instances);
    append(s, "svc.finished", static_cast<std::uint64_t>(v.finished_at));
    append(s, "mux.frames", v.mux_frames);
    append(s, "mux.payloads", v.mux_payloads);
    append(s, "mux.splits", v.mux_splits);
    append(s, "mux.late", v.mux_late_drops);
    append(s, "mux.superseded", v.mux_superseded);
  }
  return s;
}

}  // namespace perfbench
