// Property-based tests: randomized inputs against structural invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "common/sender_set.hpp"
#include "common/serialize.hpp"
#include "net/medium.hpp"
#include "sim/simulator.hpp"
#include "turquois/config.hpp"
#include "turquois/message.hpp"
#include "turquois/view.hpp"

namespace turq {
namespace {

// ------------------------------------------------------------- view fuzz

class ViewFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ViewFuzz, CountsAlwaysConsistent) {
  Rng rng(GetParam());
  turquois::View view;
  std::map<std::pair<ProcessId, turquois::Phase>, Value> reference;

  for (int i = 0; i < 2000; ++i) {
    turquois::Message m;
    m.sender = static_cast<ProcessId>(rng.uniform(16));
    m.phase = static_cast<turquois::Phase>(1 + rng.uniform(30));
    m.value = static_cast<Value>(rng.uniform(3));
    m.status = rng.coin() ? Status::kDecided : Status::kUndecided;
    const bool inserted = view.insert(m);
    const bool fresh = reference.emplace(std::pair{m.sender, m.phase}, m.value)
                           .second;
    EXPECT_EQ(inserted, fresh);
  }

  // Reference recount must match every View query.
  EXPECT_EQ(view.size(), reference.size());
  for (turquois::Phase phase = 1; phase <= 31; ++phase) {
    std::size_t total = 0;
    std::size_t per_value[3] = {};
    for (const auto& [key, v] : reference) {
      if (key.second != phase) continue;
      ++total;
      ++per_value[static_cast<std::size_t>(v)];
    }
    EXPECT_EQ(view.count_phase(phase), total) << "phase " << phase;
    for (int v = 0; v < 3; ++v) {
      EXPECT_EQ(view.count_phase_value(phase, static_cast<Value>(v)),
                per_value[v]);
    }
  }

  // highest_phase_message matches the reference maximum.
  turquois::Phase max_phase = 0;
  for (const auto& [key, v] : reference) {
    max_phase = std::max(max_phase, key.second);
  }
  if (max_phase > 0) {
    ASSERT_NE(view.highest_phase_message(), nullptr);
    EXPECT_EQ(view.highest_phase_message()->phase, max_phase);
  }
}

TEST_P(ViewFuzz, WideSendersExtremePhasesAndDecidedMixes) {
  // Stresses the paths the n<=16 fuzz above never reaches: sender ids
  // straddling the two words of the SenderSet behind count_phase_at_least,
  // phases at the max_phase end of the range, and kDecided/from_coin
  // header mixes (which must not affect any count).
  Rng rng(GetParam());
  turquois::View view;
  std::map<std::pair<ProcessId, turquois::Phase>, Value> reference;
  constexpr turquois::Phase kMaxPhase = 100000;

  for (int i = 0; i < 2000; ++i) {
    turquois::Message m;
    m.sender = static_cast<ProcessId>(rng.uniform(128));  // 0..127
    // Half the inserts cluster at the top of the phase range.
    m.phase = rng.coin()
                  ? static_cast<turquois::Phase>(1 + rng.uniform(8))
                  : static_cast<turquois::Phase>(kMaxPhase - rng.uniform(8));
    m.value = static_cast<Value>(rng.uniform(3));
    m.status = rng.coin() ? Status::kDecided : Status::kUndecided;
    m.from_coin = rng.coin();
    const bool inserted = view.insert(m);
    const bool fresh =
        reference.emplace(std::pair{m.sender, m.phase}, m.value).second;
    EXPECT_EQ(inserted, fresh);
  }

  EXPECT_EQ(view.size(), reference.size());
  for (const turquois::Phase phase :
       {turquois::Phase{1}, turquois::Phase{8}, kMaxPhase - 7, kMaxPhase}) {
    std::size_t total = 0;
    std::size_t per_value[3] = {};
    for (const auto& [key, v] : reference) {
      if (key.second != phase) continue;
      ++total;
      ++per_value[static_cast<std::size_t>(v)];
    }
    EXPECT_EQ(view.count_phase(phase), total) << "phase " << phase;
    for (int v = 0; v < 3; ++v) {
      EXPECT_EQ(view.count_phase_value(phase, static_cast<Value>(v)),
                per_value[v]);
    }
  }

  // count_phase_at_least must agree with a reference distinct-sender scan
  // across both bitset words (ids < 64 and ids >= 64).
  for (const turquois::Phase cutoff :
       {turquois::Phase{1}, turquois::Phase{5}, kMaxPhase - 7, kMaxPhase}) {
    std::set<ProcessId> senders;
    for (const auto& [key, v] : reference) {
      if (key.second >= cutoff) senders.insert(key.first);
    }
    EXPECT_EQ(view.count_phase_at_least(cutoff), senders.size())
        << "cutoff " << cutoff;
  }
}

TEST_P(ViewFuzz, HighestPointerSurvivesCopyMoveClearInterleavings) {
  // highest_phase_message() is derived from the view's own phase books;
  // copies, moves and clears must keep it coherent. Hammer interleavings of
  // insert / copy-construct / copy-assign / move / clear and compare the
  // cursor against a reference recomputation after every step.
  Rng rng(GetParam());
  turquois::View view;
  std::map<std::pair<ProcessId, turquois::Phase>, Value> reference;

  const auto check = [](const turquois::View& v,
                        const std::map<std::pair<ProcessId, turquois::Phase>,
                                       Value>& ref) {
    turquois::Phase max_phase = 0;
    ProcessId min_sender = 0;
    for (const auto& [key, value] : ref) {
      if (key.second > max_phase) {
        max_phase = key.second;
        min_sender = key.first;
      } else if (key.second == max_phase && key.first < min_sender) {
        min_sender = key.first;
      }
    }
    if (max_phase == 0) {
      EXPECT_EQ(v.highest_phase_message(), nullptr);
      return;
    }
    ASSERT_NE(v.highest_phase_message(), nullptr);
    EXPECT_EQ(v.highest_phase_message()->phase, max_phase);
    EXPECT_EQ(v.highest_phase_message()->sender, min_sender);
  };

  for (int step = 0; step < 600; ++step) {
    switch (rng.uniform(10)) {
      case 0: {  // copy-construct, then mutate the source: the copy's
                 // cursor must not chase the source's nodes.
        turquois::View copy(view);
        auto ref_copy = reference;
        turquois::Message m;
        m.sender = static_cast<ProcessId>(rng.uniform(70));
        m.phase = static_cast<turquois::Phase>(1 + rng.uniform(40));
        m.value = Value::kOne;
        view.insert(m);
        reference.emplace(std::pair{m.sender, m.phase}, m.value);
        check(copy, ref_copy);
        view = copy;  // copy-assign back (drops the extra insert)
        reference = std::move(ref_copy);
        break;
      }
      case 1: {  // move through a temporary
        turquois::View moved(std::move(view));
        view = std::move(moved);
        break;
      }
      case 2: {  // self-assignment must be a no-op
        turquois::View& self = view;
        view = self;
        break;
      }
      case 3: {
        if (rng.uniform(4) == 0) {  // occasional full reset
          view.clear();
          reference.clear();
        }
        break;
      }
      default: {  // plain insert (most common op)
        turquois::Message m;
        m.sender = static_cast<ProcessId>(rng.uniform(70));
        m.phase = static_cast<turquois::Phase>(1 + rng.uniform(40));
        m.value = static_cast<Value>(rng.uniform(3));
        m.status = rng.coin() ? Status::kDecided : Status::kUndecided;
        view.insert(m);
        reference.emplace(std::pair{m.sender, m.phase}, m.value);
        break;
      }
    }
    check(view, reference);
  }
}

TEST_P(ViewFuzz, MessageWalksMatchReferenceInAscendingSenderOrder) {
  // Books keep messages in arrival order; messages_at and
  // messages_at_with_value must still return them in ascending sender
  // order, which the justification picks (and so the goldens) depend on.
  // Phases 1-3 receive every id 0..127 in a shuffled order, phases 4-6 a
  // random subset; the limits include one reached mid-book.
  Rng rng(GetParam());
  turquois::View view;
  std::map<turquois::Phase, std::map<ProcessId, turquois::Message>> reference;
  for (turquois::Phase phase = 1; phase <= 6; ++phase) {
    std::vector<ProcessId> ids(SenderSet::kCapacity);
    for (ProcessId id = 0; id < ids.size(); ++id) ids[id] = id;
    for (std::size_t i = ids.size() - 1; i > 0; --i) {
      std::swap(ids[i], ids[rng.uniform(i + 1)]);
    }
    for (const ProcessId id : ids) {
      if (phase > 3 && rng.coin()) continue;
      crypto::SecretKey key{};
      for (auto& byte : key) byte = static_cast<std::uint8_t>(rng.next());
      const turquois::Message m{.sender = id,
                                .phase = phase,
                                .value = static_cast<Value>(rng.uniform(3)),
                                .status = Status::kUndecided,
                                .from_coin = rng.coin(),
                                .auth_sk = key};
      ASSERT_TRUE(view.insert(m));
      reference[phase].emplace(id, m);
    }
  }

  for (const auto& [phase, book] : reference) {
    const auto all = view.messages_at(phase);
    ASSERT_EQ(all.size(), book.size()) << "phase " << phase;
    std::size_t i = 0;
    for (const auto& [sender, m] : book) EXPECT_EQ(*all[i++], m);

    for (int raw = 0; raw < 3; ++raw) {
      const Value v = static_cast<Value>(raw);
      std::vector<turquois::Message> matching;
      for (const auto& [sender, m] : book) {
        if (m.value == v) matching.push_back(m);
      }
      for (const std::size_t limit :
           {std::size_t{1}, matching.size() / 2, matching.size(),
            matching.size() + 5}) {
        const auto got = view.messages_at_with_value(phase, v, limit);
        const std::size_t want = std::min(limit, matching.size());
        ASSERT_EQ(got.size(), want) << "phase " << phase << " limit " << limit;
        for (std::size_t j = 0; j < want; ++j) EXPECT_EQ(*got[j], matching[j]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViewFuzz,
                         ::testing::Range<std::uint64_t>(0, 6));

// ------------------------------------------------------------ codec fuzz

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, RandomBytesNeverCrashAndNeverFalselyDecode) {
  Rng rng(GetParam());
  for (int i = 0; i < 5000; ++i) {
    Bytes junk(rng.uniform(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    // Must not crash; a successful decode must re-encode consistently.
    const auto d = turquois::Datagram::decode(junk);
    if (d.has_value()) {
      const auto round2 = turquois::Datagram::decode(d->encode());
      ASSERT_TRUE(round2.has_value());
      EXPECT_EQ(round2->main, d->main);
    }
  }
}

TEST_P(CodecFuzz, TruncationsOfValidDatagramsFailCleanly) {
  Rng rng(GetParam());
  turquois::Datagram d;
  d.main = turquois::Message{.sender = 3,
                             .phase = 7,
                             .value = Value::kOne,
                             .status = Status::kUndecided,
                             .from_coin = false,
                             .auth_sk = {}};
  crypto::SecretKey key{};
  key.fill(0x42);
  d.main.auth_sk = key;
  for (int j = 0; j < 3; ++j) {
    d.justification.push_back(d.main);
    d.justification.back().sender = static_cast<ProcessId>(j);
  }
  const Bytes enc = d.encode();
  for (std::size_t cut = 0; cut < enc.size(); ++cut) {
    const Bytes prefix(enc.begin(), enc.begin() + static_cast<long>(cut));
    const auto decoded = turquois::Datagram::decode(prefix);
    // Any prefix that decodes must decode to a self-consistent datagram;
    // most must fail. Never crash.
    if (decoded.has_value()) {
      EXPECT_LE(decoded->justification.size(), d.justification.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz,
                         ::testing::Range<std::uint64_t>(10, 14));

// ------------------------------------------------------ medium invariants

class MediumConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MediumConservation, DeliveriesPlusOmissionsMatchExpectations) {
  // For every broadcast frame that survives the MAC, each of the other n-1
  // attached receivers either gets it or is counted as an omission.
  Rng seed_rng(GetParam());
  sim::Simulator sim;
  net::Medium medium(sim, net::MediumConfig{}, Rng(GetParam()));
  constexpr std::uint32_t kNodes = 6;
  std::uint64_t received = 0;
  for (ProcessId id = 0; id < kNodes; ++id) {
    medium.attach(id, [&received](ProcessId, BytesView, bool) { ++received; });
  }
  net::IidLoss loss(0.3, Rng(GetParam() + 1));
  medium.set_fault_injector(&loss);

  // Staggered broadcasts (no collisions: one sender at a time).
  for (int i = 0; i < 50; ++i) {
    sim.schedule(i * 10 * kMillisecond, [&medium, i] {
      medium.send_broadcast(static_cast<ProcessId>(i % kNodes), Bytes(20, 1));
    });
  }
  sim.run();

  const auto& s = medium.stats();
  EXPECT_EQ(s.collisions, 0u);
  EXPECT_EQ(s.broadcast_frames, 50u);
  EXPECT_EQ(s.deliveries + s.omissions, 50u * (kNodes - 1));
  EXPECT_EQ(received, s.deliveries);
  // 30% loss: omissions in a sane band around 75 of 250.
  EXPECT_GT(s.omissions, 30u);
  EXPECT_LT(s.omissions, 130u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MediumConservation,
                         ::testing::Range<std::uint64_t>(20, 26));

// --------------------------------------------------- sigma bound structure

TEST(SigmaBound, MonotoneInKAndT) {
  using turquois::sigma_bound;
  // More required deciders -> tighter tolerance to omissions (k term) but
  // the dominant (n-k) product shrinks; at fixed t the bound decreases in k.
  for (std::uint32_t n = 4; n <= 16; ++n) {
    const std::uint32_t f = (n - 1) / 3;
    for (std::uint32_t k = (n + f) / 2 + 1; k + 1 <= n - f; ++k) {
      EXPECT_GE(sigma_bound(n, k, 0), sigma_bound(n, k + 1, 0) - 1)
          << "n=" << n << " k=" << k;
    }
    // Actually-faulty processes reduce the tolerable omissions.
    const std::uint32_t k = n - f;
    for (std::uint32_t t = 0; t < f; ++t) {
      EXPECT_GE(sigma_bound(n, k, t), sigma_bound(n, k, t + 1))
          << "n=" << n << " t=" << t;
    }
  }
}

TEST(SigmaBound, PaperExampleValues) {
  // Spot values derivable by hand from σ = ceil((n-t)/2)(n-k-t) + k - 2.
  EXPECT_EQ(turquois::sigma_bound(4, 3, 0), 3);
  EXPECT_EQ(turquois::sigma_bound(7, 5, 0), 11);
  EXPECT_EQ(turquois::sigma_bound(10, 7, 0), 20);
  EXPECT_EQ(turquois::sigma_bound(16, 11, 0), 49);
}

}  // namespace
}  // namespace turq
