// The set V_i of valid messages accumulated by a process, with the
// counting queries the algorithm and the semantic validator need.
//
// V keeps at most one message per (sender, phase): a correct process's
// state within a phase is constant, so a second, different message from the
// same sender at the same phase is Byzantine equivocation and is ignored.
// This also keeps all quorum counts bounded by n, which the intersection
// arguments behind the (n+f)/2 thresholds rely on.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/sender_set.hpp"
#include "common/types.hpp"
#include "turquois/message.hpp"

namespace turq::turquois {

/// Senders are process ids below SenderSet::kCapacity (Config::validate
/// caps n at 128, and Process::ingest drops senders >= n before insert).
///
/// Pointer validity: a `const Message*` or `const Message&` obtained from
/// the view stays valid until the next insert() or clear() on it.
class View {
 public:
  /// Inserts a validated message. Returns false on duplicate (sender, phase).
  bool insert(const Message& m);

  /// Drops every message.
  void clear();

  /// True if a message from `sender` at `phase` is already present.
  [[nodiscard]] bool has(ProcessId sender, Phase phase) const;

  /// Number of messages with exactly this phase.
  [[nodiscard]] std::size_t count_phase(Phase phase) const;

  /// Number of messages with this phase carrying value v.
  [[nodiscard]] std::size_t count_phase_value(Phase phase, Value v) const;

  /// Number of distinct senders with any message at phase >= `phase`.
  [[nodiscard]] std::size_t count_phase_at_least(Phase phase) const;

  /// The majority binary value among messages at `phase`; ties break to
  /// kOne. The paper (§5, CONVERGE rule) only requires *some* deterministic
  /// choice among the binary values when neither holds a strict majority —
  /// the quorum-intersection safety argument never depends on which value a
  /// tied CONVERGE picks, because a tie implies no (n+f)/2 majority existed.
  /// kOne is kept (rather than, say, lowest-value or sender-seeded rules)
  /// because it is the repo's historical behaviour and changing it would
  /// shift every benchmark byte; the rule is pinned by ViewMajorityTieRule
  /// in tests/validation_test.cpp.
  [[nodiscard]] Value majority_value(Phase phase) const;

  /// A binary value v with count(phase, v) satisfying `pred`, if any.
  template <typename Pred>
  [[nodiscard]] std::optional<Value> binary_value_where(Phase phase,
                                                        Pred pred) const {
    for (const Value v : {Value::kZero, Value::kOne}) {
      if (pred(count_phase_value(phase, v))) return v;
    }
    return std::nullopt;
  }

  /// The message with the highest phase (ties -> lowest sender), if any.
  [[nodiscard]] const Message* highest_phase_message() const;

  /// Calls `fn(const Message&)` on each message at `phase` in ascending
  /// sender order, until `fn` returns false. Justification picks walk the
  /// book in place this way; their order, and so every golden byte,
  /// depends on it.
  template <typename Fn>
  void for_each_at(Phase phase, Fn&& fn) const {
    const auto it = phases_.find(phase);
    if (it == phases_.end()) return;
    const PhaseBook& book = it->second;
    for (std::uint32_t s = book.senders.next(0); s < SenderSet::kCapacity;
         s = book.senders.next(s + 1)) {
      if (!fn(book.messages[book.slot[s]])) return;
    }
  }

  /// All messages at `phase`, in ascending sender order.
  [[nodiscard]] std::vector<const Message*> messages_at(Phase phase) const;

  /// Up to `limit` messages at `phase` carrying value v, in ascending
  /// sender order.
  [[nodiscard]] std::vector<const Message*> messages_at_with_value(
      Phase phase, Value v, std::size_t limit) const;

  [[nodiscard]] std::size_t size() const { return total_; }

 private:
  /// One phase's messages. Every book in `phases_` holds at least one.
  struct PhaseBook {
    std::vector<Message> messages;  // arrival order
    /// sender -> index into `messages`, meaningful where `senders` has it.
    std::array<std::uint8_t, SenderSet::kCapacity> slot{};
    SenderSet senders;
    std::array<std::size_t, 3> value_count{};
  };

  std::map<Phase, PhaseBook> phases_;
  std::size_t total_ = 0;
};

}  // namespace turq::turquois
