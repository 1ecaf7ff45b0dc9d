// Tests for the multi-instance consensus service stack: the per-node frame
// multiplexer, the batched trusted setup, the instance-tagged multi-valued
// path, and the service driver itself.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "crypto/cost_model.hpp"
#include "crypto/onetime_sig.hpp"
#include "net/frame_mux.hpp"
#include "net/medium.hpp"
#include "service/service.hpp"
#include "sim/simulator.hpp"
#include "turquois/config.hpp"
#include "turquois/key_infra.hpp"
#include "turquois/multivalued.hpp"

namespace turq {
namespace {

Bytes make_payload(std::size_t len, std::uint8_t tag) {
  Bytes b(len);
  for (std::size_t i = 0; i < len; ++i) {
    b[i] = static_cast<std::uint8_t>(tag + i * 3);
  }
  return b;
}

// ---------------------------------------------------------------- FrameMux --

TEST(FrameMux, PacksStagedInstancesIntoOneFrame) {
  sim::Simulator sim;
  net::Medium medium(sim, net::MediumConfig{}, Rng(1));
  net::FrameMux tx(sim, medium, 0);
  net::FrameMux rx(sim, medium, 1);

  std::vector<std::pair<std::uint32_t, Bytes>> got;
  for (std::uint32_t inst : {3u, 7u, 11u}) {
    rx.port(inst).set_handler([&got, inst](ProcessId src, BytesView p) {
      EXPECT_EQ(src, 0u);
      got.emplace_back(inst, Bytes(p.begin(), p.end()));
    });
  }
  tx.port(3).send(make_payload(40, 1));
  tx.port(7).send(make_payload(50, 2));
  tx.port(11).send(make_payload(60, 3));
  sim.run();

  // One coalescing window, one frame, three sub-payloads.
  EXPECT_EQ(tx.stats().frames_sent, 1u);
  EXPECT_EQ(tx.stats().payloads_sent, 3u);
  EXPECT_EQ(tx.stats().frame_splits, 0u);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].first, 3u);
  EXPECT_EQ(got[0].second, make_payload(40, 1));
  EXPECT_EQ(got[1].first, 7u);
  EXPECT_EQ(got[1].second, make_payload(50, 2));
  EXPECT_EQ(got[2].first, 11u);
  EXPECT_EQ(got[2].second, make_payload(60, 3));
  EXPECT_EQ(rx.stats().payloads_routed, 3u);
  EXPECT_EQ(rx.stats().late_drops, 0u);
}

TEST(FrameMux, StagingIsLatestWinsWithinTheWindow) {
  sim::Simulator sim;
  net::Medium medium(sim, net::MediumConfig{}, Rng(1));
  net::FrameMux tx(sim, medium, 0);
  net::FrameMux rx(sim, medium, 1);

  std::vector<Bytes> got;
  rx.port(5).set_handler([&got](ProcessId, BytesView p) {
    got.emplace_back(p.begin(), p.end());
  });
  tx.port(5).send(make_payload(30, 9));   // superseded before the flush
  tx.port(5).send(make_payload(30, 77));  // the payload that airs
  sim.run();

  EXPECT_EQ(tx.stats().superseded, 1u);
  EXPECT_EQ(tx.stats().frames_sent, 1u);
  EXPECT_EQ(tx.stats().payloads_sent, 1u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], make_payload(30, 77));
}

TEST(FrameMux, RoutesUnknownInstancesToLateDrops) {
  sim::Simulator sim;
  net::Medium medium(sim, net::MediumConfig{}, Rng(1));
  net::FrameMux tx(sim, medium, 0);
  net::FrameMux rx(sim, medium, 1);

  int got = 0;
  rx.port(1).set_handler([&got](ProcessId, BytesView) { ++got; });
  rx.retire(1);                       // receiver finished this instance
  tx.port(1).send(make_payload(20, 4));
  tx.port(2).send(make_payload(20, 5));  // rx never opened instance 2
  sim.run();

  EXPECT_EQ(got, 0);
  EXPECT_EQ(rx.stats().late_drops, 2u);
  EXPECT_EQ(rx.stats().payloads_routed, 0u);
}

TEST(FrameMux, SplitsOversizedFlushesAcrossFrames) {
  sim::Simulator sim;
  net::Medium medium(sim, net::MediumConfig{}, Rng(1));
  net::FrameMux tx(sim, medium, 0);
  net::FrameMux rx(sim, medium, 1);

  // Four 800-byte payloads exceed the ~2276-byte mux budget: the flush
  // must split but every payload still arrives, in staging order.
  std::vector<std::uint32_t> got;
  for (std::uint32_t inst : {0u, 1u, 2u, 3u}) {
    rx.port(inst).set_handler(
        [&got, inst](ProcessId, BytesView p) {
          EXPECT_EQ(p.size(), 800u);
          got.push_back(inst);
        });
    tx.port(inst).send(make_payload(800, static_cast<std::uint8_t>(inst)));
  }
  sim.run();

  EXPECT_GE(tx.stats().frames_sent, 2u);
  EXPECT_EQ(tx.stats().frame_splits, tx.stats().frames_sent - 1);
  EXPECT_EQ(tx.stats().payloads_sent, 4u);
  EXPECT_EQ(got, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

// -------------------------------------------------------------- setup_batch --

TEST(KeyInfraBatch, BatchedSetupKeysVerifyAndStayDisjoint) {
  turquois::Config cfg = turquois::Config::for_group(4);
  cfg.phases_per_epoch = 12;
  Rng rng(42);
  const auto batch = turquois::KeyInfrastructure::setup_batch(cfg, rng, 3);
  ASSERT_EQ(batch.size(), 3u);

  for (const auto& infra : batch) {
    ASSERT_EQ(infra.n(), 4u);
    for (ProcessId id = 0; id < 4; ++id) {
      // The RSA-signed VK array of every process checks out...
      EXPECT_TRUE(crypto::verify_key_array(infra.signed_array(id),
                                           infra.rsa_public(id)));
      // ...and a revealed secret authenticates its (phase, value) slot.
      const crypto::SecretKey& sk =
          infra.chain(id).secret_key(2, Value::kOne);
      EXPECT_TRUE(
          crypto::ots_verify(infra.verification_keys(id), 2, Value::kOne, sk));
    }
  }

  // One RSA pair per process across the whole batch (amortized trapdoor
  // key), but DISJOINT one-time secrets per instance: instance 0's
  // revealed SK must never authenticate the same slot of instance 1.
  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_EQ(batch[0].rsa_public(id).n, batch[1].rsa_public(id).n);
    const crypto::SecretKey& sk0 =
        batch[0].chain(id).secret_key(2, Value::kOne);
    const crypto::SecretKey& sk1 =
        batch[1].chain(id).secret_key(2, Value::kOne);
    EXPECT_NE(sk0, sk1);
    EXPECT_FALSE(
        crypto::ots_verify(batch[1].verification_keys(id), 2, Value::kOne,
                           sk0));
  }
}

TEST(KeyInfraBatch, BatchedSetupIsDeterministicInTheSeed) {
  turquois::Config cfg = turquois::Config::for_group(4);
  cfg.phases_per_epoch = 9;
  Rng a(7);
  Rng b(7);
  const auto x = turquois::KeyInfrastructure::setup_batch(cfg, a, 2);
  const auto y = turquois::KeyInfrastructure::setup_batch(cfg, b, 2);
  for (std::size_t inst = 0; inst < 2; ++inst) {
    for (ProcessId id = 0; id < 4; ++id) {
      EXPECT_EQ(x[inst].chain(id).secret_key(3, Value::kZero),
                y[inst].chain(id).secret_key(3, Value::kZero));
      EXPECT_EQ(x[inst].verification_keys(id).serialize(),
                y[inst].verification_keys(id).serialize());
    }
  }
}

// -------------------------------------------- multi-valued, instance-tagged --

TEST(MultiValuedMux, UnanimousCandidatesDecideThroughInstanceTaggedPath) {
  // The sequential bit rounds ride the same FrameMux fabric the service
  // layer multiplexes — one mux per node, round index as instance tag.
  sim::Simulator sim;
  net::Medium medium(sim, net::MediumConfig{}, Rng(3));
  crypto::CostModel costs;
  turquois::Config cfg = turquois::Config::for_group(4);
  turquois::MultiValuedConsensus mvc(sim, medium, cfg, 3, Rng(11), costs);
  mvc.set_instance_mux(true);
  const auto result = mvc.run({6, 6, 6, 6});
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.value, 6u);
  EXPECT_EQ(result.rounds, 3u);
}

// ------------------------------------------------------------------ service --

harness::ScenarioConfig small_service_config() {
  harness::ScenarioConfig cfg;
  cfg.n = 4;
  cfg.seed = 99;
  cfg.repetitions = 2;
  cfg.service.enabled = true;
  cfg.service.pipeline_depth = 4;
  cfg.service.batch = 4;
  cfg.service.offered_load = 4000.0;
  cfg.service.total_requests = 32;
  return cfg;
}

TEST(Service, CommitLatencyIsStrictlyPositiveEvenForSameTickCommits) {
  // Half-open tick semantics: a request admitted and committed in the same
  // simulator instant is charged one quantum, never a literal zero — the
  // pre-fix stamping (commit - arrival) produced 0.0 here.
  EXPECT_GT(service::commit_latency_ms(5 * kMillisecond, 5 * kMillisecond),
            0.0);
  EXPECT_DOUBLE_EQ(
      service::commit_latency_ms(2 * kMillisecond, 5 * kMillisecond), 3.0);
  // Half-open charging only kicks in at the degenerate boundary; any real
  // gap is reported exactly.
  EXPECT_DOUBLE_EQ(service::commit_latency_ms(0, 1), 1e-6);
}

TEST(Service, MinimumObservedLatencyIsPositive) {
  const harness::ScenarioConfig cfg = small_service_config();
  const service::ServiceScenarioResult r = service::run_service(cfg);
  ASSERT_GT(r.latency_ms.count(), 0u);
  EXPECT_GT(r.latency_ms.percentile(0.0), 0.0);  // min sample
}

TEST(Service, CommitsEveryRequestAndAuditsEveryInstance) {
  const harness::ScenarioConfig cfg = small_service_config();
  const service::ServiceScenarioResult r = service::run_service(cfg);

  EXPECT_EQ(r.failed_runs, 0u);
  EXPECT_EQ(r.safety_violations, 0u);
  EXPECT_EQ(r.totals.arrivals, 64u);  // 2 reps x 32 requests
  EXPECT_EQ(r.totals.committed, 64u);
  EXPECT_EQ(r.totals.rejected, 0u);
  EXPECT_EQ(r.totals.instances_failed, 0u);
  EXPECT_GE(r.totals.instances_launched, 2u);
  EXPECT_EQ(r.totals.instances_decided, r.totals.instances_launched);
  // One latency sample per committed request.
  EXPECT_EQ(r.latency_ms.count(), 64u);
  EXPECT_GT(r.latency_ms.mean(), 0.0);
  // Every constituent instance was audited, none violating.
  ASSERT_TRUE(r.audit.has_value());
  EXPECT_EQ(r.audit->checked_reps, r.totals.instances_decided);
  EXPECT_EQ(r.audit->violating_reps, 0u);
  EXPECT_TRUE(r.audit->passed());
  // The mux actually multiplexed: fewer frames than instance payloads.
  EXPECT_GT(r.totals.mux_frames, 0u);
  EXPECT_GE(r.totals.mux_payloads, r.totals.mux_frames);
  EXPECT_GT(r.committed_per_sim_sec(), 0.0);
  EXPECT_GT(r.instances_per_sim_sec(), 0.0);
}

TEST(Service, BurstyArrivalsCommitEverything) {
  harness::ScenarioConfig cfg = small_service_config();
  cfg.repetitions = 1;
  cfg.service.arrival = service::Arrival::kBursty;
  const service::ServiceScenarioResult r = service::run_service(cfg);
  EXPECT_EQ(r.failed_runs, 0u);
  EXPECT_EQ(r.totals.committed, 32u);
  ASSERT_TRUE(r.audit.has_value());
  EXPECT_TRUE(r.audit->passed());
}

TEST(Service, TinyQueueCapacityBackpressuresExcessLoad) {
  harness::ScenarioConfig cfg = small_service_config();
  cfg.repetitions = 1;
  cfg.service.pipeline_depth = 1;
  cfg.service.batch = 1;
  cfg.service.queue_capacity = 2;
  cfg.service.offered_load = 50000.0;  // far above one slot's service rate
  const service::ServiceScenarioResult r = service::run_service(cfg);
  EXPECT_GT(r.totals.rejected, 0u);
  EXPECT_EQ(r.totals.committed + r.totals.rejected, r.totals.arrivals);
  EXPECT_EQ(r.latency_ms.count(), r.totals.committed);
}

TEST(Service, PooledResultsAreBitIdenticalAcrossJobCounts) {
  harness::ScenarioConfig cfg = small_service_config();
  cfg.repetitions = 4;
  cfg.jobs = 1;
  const service::ServiceScenarioResult seq = service::run_service(cfg);
  cfg.jobs = 4;
  const service::ServiceScenarioResult par = service::run_service(cfg);

  EXPECT_EQ(seq.latency_ms.count(), par.latency_ms.count());
  EXPECT_EQ(seq.latency_ms.mean(), par.latency_ms.mean());
  EXPECT_EQ(seq.latency_ms.percentile(0.99), par.latency_ms.percentile(0.99));
  EXPECT_EQ(seq.totals.committed, par.totals.committed);
  EXPECT_EQ(seq.totals.instances_decided, par.totals.instances_decided);
  EXPECT_EQ(seq.totals.finished_at, par.totals.finished_at);
  EXPECT_EQ(seq.totals.mux_frames, par.totals.mux_frames);
  EXPECT_EQ(seq.app_messages, par.app_messages);
  EXPECT_EQ(seq.medium_total.deliveries, par.medium_total.deliveries);
  ASSERT_TRUE(seq.audit.has_value() && par.audit.has_value());
  EXPECT_EQ(*seq.audit, *par.audit);
}

TEST(Service, ValidateRejectsDegenerateConfigs) {
  harness::ScenarioConfig cfg = small_service_config();
  cfg.service.enabled = false;
  EXPECT_TRUE(service::validate_service(cfg).has_value());

  cfg = small_service_config();
  cfg.service.pipeline_depth = 0;
  EXPECT_TRUE(service::validate_service(cfg).has_value());

  cfg = small_service_config();
  cfg.service.phases_per_instance = 10;  // not a multiple of 3
  EXPECT_TRUE(service::validate_service(cfg).has_value());

  cfg = small_service_config();
  cfg.plan =
      faultplan::canned_plan(faultplan::Role::kByzantine, "Byzantine");
  EXPECT_TRUE(service::validate_service(cfg).has_value());

  cfg = small_service_config();
  cfg.service.arrival = service::Arrival::kBursty;
  cfg.service.burst_fraction = 1.5;
  EXPECT_TRUE(service::validate_service(cfg).has_value());

  EXPECT_FALSE(service::validate_service(small_service_config()).has_value());
  EXPECT_THROW(
      {
        harness::ScenarioConfig bad = small_service_config();
        bad.service.batch = 0;
        (void)service::run_service(bad);
      },
      std::invalid_argument);
}

}  // namespace
}  // namespace turq
