// Emergency scenario: a rescue team's ad hoc network must agree whether to
// switch to a backup radio channel while the current one is being jammed.
//
// This is the class of deployment the paper motivates: no infrastructure,
// unreliable radio, and the cost of a split decision (half the team on each
// channel) is catastrophic. The run starts under a jamming window — safety
// must hold while nothing can be delivered — and completes once the
// interference clears (the fairness assumption).
//
//   $ ./build/examples/emergency_channel_switch
#include <cstdio>
#include <memory>
#include <vector>

#include "crypto/cost_model.hpp"
#include "net/broadcast_endpoint.hpp"
#include "net/fault_injector.hpp"
#include "net/medium.hpp"
#include "runtime/sim_runtime.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "turquois/config.hpp"
#include "turquois/key_infra.hpp"
#include "turquois/process.hpp"

using namespace turq;

int main() {
  constexpr std::uint32_t kTeamSize = 10;
  sim::Simulator sim;
  Rng root(1713);

  net::Medium medium(sim, net::MediumConfig{}, root.derive("medium", 0));

  // The jammer owns the channel for the first 400 ms, then an intermittent
  // second burst; all frames inside the windows are lost at every receiver.
  net::CompositeFaults faults;
  faults.add(std::make_unique<net::JammingWindows>(
      std::vector<std::pair<SimTime, SimTime>>{
          {0, 400 * kMillisecond},
          {500 * kMillisecond, 580 * kMillisecond}}));
  faults.add(std::make_unique<net::IidLoss>(0.05, root.derive("loss", 0)));
  medium.set_fault_injector(&faults);

  const auto cfg = turquois::Config::for_group(kTeamSize);
  const auto keys = turquois::KeyInfrastructure::setup(cfg, root);
  crypto::CostModel costs;

  std::vector<std::unique_ptr<sim::VirtualCpu>> cpus;
  std::vector<std::unique_ptr<runtime::SimRuntime>> runtimes;
  std::vector<std::unique_ptr<net::BroadcastEndpoint>> endpoints;
  std::vector<std::unique_ptr<turquois::Process>> team;
  for (ProcessId id = 0; id < kTeamSize; ++id) {
    cpus.push_back(std::make_unique<sim::VirtualCpu>(sim));
    runtimes.push_back(std::make_unique<runtime::SimRuntime>(sim, *cpus.back()));
    endpoints.push_back(std::make_unique<net::BroadcastEndpoint>(sim, medium, id));
    turquois::ProcessHooks hooks;
    hooks.on_decide = [id](Value v, turquois::Phase, SimTime at) {
      std::printf("  t=%7.1f ms  member %u commits to %s\n",
                  to_milliseconds(at), id,
                  v == Value::kOne ? "SWITCH to backup channel"
                                   : "STAY on current channel");
    };
    team.push_back(std::make_unique<turquois::Process>(
        *runtimes.back(), *endpoints.back(), cfg, keys, id,
        root.derive("member", id), costs, std::move(hooks)));
  }

  // Members with working spectrum analyzers (7 of 10) vote to switch; the
  // rest vote to stay.
  std::printf("jamming active 0-400 ms and 500-580 ms; proposals cast...\n");
  for (ProcessId id = 0; id < kTeamSize; ++id) {
    team[id]->propose(id < 7 ? Value::kOne : Value::kZero);
  }

  sim.run_until(200 * kMillisecond);
  std::size_t decided_mid = 0;
  for (const auto& m : team) decided_mid += m->decided() ? 1 : 0;
  std::printf("t=200 ms (mid-jam): %zu members decided (safety: nobody can "
              "commit without quorum evidence)\n", decided_mid);

  while (sim.now() < 30 * kSecond) {
    bool all = true;
    for (const auto& m : team) all = all && m->decided();
    if (all) break;
    sim.run_until(sim.now() + 5 * kMillisecond);
  }

  std::size_t switchers = 0;
  for (const auto& m : team) {
    if (m->decided() && m->decision() == Value::kOne) ++switchers;
  }
  std::printf("final: %zu/%u members agreed on the same action — %s\n",
              switchers == 0 ? kTeamSize : switchers, kTeamSize,
              switchers > 0 ? "switch" : "stay");
  return 0;
}
