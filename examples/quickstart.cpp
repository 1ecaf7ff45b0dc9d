// Quickstart: four nodes on a simulated 802.11b channel agree on a bit.
//
//   $ ./build/examples/quickstart
//
// Walks through the whole public API surface: simulator, medium, broadcast
// endpoints, key infrastructure, and Turquois processes.
#include <cstdio>
#include <memory>
#include <vector>

#include "crypto/cost_model.hpp"
#include "net/broadcast_endpoint.hpp"
#include "net/medium.hpp"
#include "runtime/sim_runtime.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "turquois/config.hpp"
#include "turquois/key_infra.hpp"
#include "turquois/process.hpp"

using namespace turq;

int main() {
  // 1. A deterministic discrete-event world seeded for reproducibility.
  sim::Simulator sim;
  Rng root(/*seed=*/2010);

  // 2. The shared wireless channel (802.11b-like: CSMA/CA, collisions,
  //    broadcast without MAC acknowledgements).
  net::Medium medium(sim, net::MediumConfig{}, root.derive("medium", 0));

  // 3. Protocol parameters: n = 4 processes, tolerating f = 1 Byzantine,
  //    k = 3 of them must decide.
  const auto cfg = turquois::Config::for_group(4);
  std::printf("n=%u f=%u k=%u quorum=%zu\n", cfg.n, cfg.f, cfg.k,
              cfg.quorum_size());

  // 4. Trusted setup: per-process one-time key chains (SK/VK arrays) and
  //    RSA-signed verification keys, distributed before the run (§6.1).
  const auto keys = turquois::KeyInfrastructure::setup(cfg, root);

  // 5. One process per node, each with its own virtual CPU (driven through
  //    a simulated runtime) and UDP-style broadcast endpoint.
  crypto::CostModel costs;
  std::vector<std::unique_ptr<sim::VirtualCpu>> cpus;
  std::vector<std::unique_ptr<runtime::SimRuntime>> runtimes;
  std::vector<std::unique_ptr<net::BroadcastEndpoint>> endpoints;
  std::vector<std::unique_ptr<turquois::Process>> processes;
  for (ProcessId id = 0; id < cfg.n; ++id) {
    cpus.push_back(std::make_unique<sim::VirtualCpu>(sim));
    runtimes.push_back(std::make_unique<runtime::SimRuntime>(sim, *cpus.back()));
    endpoints.push_back(std::make_unique<net::BroadcastEndpoint>(sim, medium, id));
    turquois::ProcessHooks hooks;
    hooks.on_decide = [id](Value v, turquois::Phase phase, SimTime at) {
      std::printf("p%u decided %s at phase %u, t = %.2f ms\n", id,
                  to_string(v).c_str(), phase, to_milliseconds(at));
    };
    processes.push_back(std::make_unique<turquois::Process>(
        *runtimes.back(), *endpoints.back(), cfg, keys, id,
        root.derive("process", id), costs, std::move(hooks)));
  }

  // 6. Divergent proposals: odd ids propose 1, even ids propose 0.
  for (ProcessId id = 0; id < cfg.n; ++id) {
    processes[id]->propose(id % 2 == 1 ? Value::kOne : Value::kZero);
  }

  // 7. Run until everyone decides (bounded by 10 simulated seconds).
  while (sim.now() < 10 * kSecond) {
    bool all = true;
    for (const auto& p : processes) all = all && p->decided();
    if (all) break;
    sim.run_until(sim.now() + kMillisecond);
  }

  std::printf("medium: %llu broadcast frames, %llu collisions, %.2f ms airtime\n",
              static_cast<unsigned long long>(medium.stats().broadcast_frames),
              static_cast<unsigned long long>(medium.stats().collisions),
              to_milliseconds(medium.stats().airtime));
  return 0;
}
