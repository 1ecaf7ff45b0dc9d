#include "turquois/view.hpp"

#include "common/assert.hpp"

namespace turq::turquois {

static_assert(SenderSet::kCapacity <= 256, "PhaseBook::slot holds a byte");

void View::clear() {
  phases_.clear();
  total_ = 0;
}

bool View::insert(const Message& m) {
  TURQ_ASSERT_MSG(m.sender < SenderSet::kCapacity, "view senders are < 128");
  PhaseBook& book = phases_[m.phase];
  if (book.senders.contains(m.sender)) return false;
  book.senders.insert(m.sender);
  book.slot[m.sender] = static_cast<std::uint8_t>(book.messages.size());
  book.messages.push_back(m);
  ++book.value_count[static_cast<std::size_t>(m.value)];
  ++total_;
  return true;
}

bool View::has(ProcessId sender, Phase phase) const {
  const auto it = phases_.find(phase);
  return it != phases_.end() && it->second.senders.contains(sender);
}

std::size_t View::count_phase(Phase phase) const {
  const auto it = phases_.find(phase);
  return it == phases_.end() ? 0 : it->second.messages.size();
}

std::size_t View::count_phase_value(Phase phase, Value v) const {
  const auto it = phases_.find(phase);
  return it == phases_.end()
             ? 0
             : it->second.value_count[static_cast<std::size_t>(v)];
}

std::size_t View::count_phase_at_least(Phase phase) const {
  SenderSet seen;
  for (auto it = phases_.lower_bound(phase); it != phases_.end(); ++it) {
    seen |= it->second.senders;
  }
  return seen.count();
}

Value View::majority_value(Phase phase) const {
  const std::size_t zeros = count_phase_value(phase, Value::kZero);
  const std::size_t ones = count_phase_value(phase, Value::kOne);
  return zeros > ones ? Value::kZero : Value::kOne;
}

const Message* View::highest_phase_message() const {
  // The last book has the highest phase and is never empty.
  if (phases_.empty()) return nullptr;
  const PhaseBook& book = phases_.rbegin()->second;
  return &book.messages[book.slot[book.senders.next(0)]];
}

std::vector<const Message*> View::messages_at(Phase phase) const {
  std::vector<const Message*> out;
  for_each_at(phase, [&](const Message& m) {
    out.push_back(&m);
    return true;
  });
  return out;
}

std::vector<const Message*> View::messages_at_with_value(
    Phase phase, Value v, std::size_t limit) const {
  std::vector<const Message*> out;
  if (limit == 0) return out;
  for_each_at(phase, [&](const Message& m) {
    if (m.value == v) out.push_back(&m);
    return out.size() < limit;
  });
  return out;
}

}  // namespace turq::turquois
