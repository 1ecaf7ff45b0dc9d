// Turquois wire messages ⟨i, φ, v, status⟩ and their codec.
//
// Beyond the tuple in Algorithm 1, a message carries:
//   * from_coin — whether v was obtained from a coin flip (needed by the
//     validation rule for CONVERGE-phase proposal values, §6.2);
//   * auth_sk — the revealed one-time secret key SK[φ][v] (§6.1);
//   * justification — optional appended messages for explicit semantic
//     validation (§6.2). Justification messages never nest.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/serialize.hpp"
#include "common/types.hpp"
#include "crypto/onetime_sig.hpp"

namespace turq::turquois {

using crypto::Phase;

/// The one-time secret a message reveals: SK[phase][value], exactly
/// crypto::kSecretKeyLen bytes, or absent (a Byzantine main message outside
/// the signing domain goes out unsigned). Held inline so that a Message is
/// trivially copyable and copying one never allocates.
class RevealedKey {
 public:
  RevealedKey() = default;
  // Implicit: a chain's secret converts to the key a message reveals.
  RevealedKey(const crypto::SecretKey& sk) : bytes_(sk), present_(true) {}

  /// The revealed bytes; empty when absent.
  [[nodiscard]] BytesView view() const {
    return present_ ? BytesView(bytes_) : BytesView();
  }

  bool operator==(const RevealedKey&) const = default;

 private:
  crypto::SecretKey bytes_{};  // all zero while absent
  bool present_ = false;
};

struct Message {
  ProcessId sender = kInvalidProcess;
  Phase phase = 1;
  Value value = Value::kZero;
  Status status = Status::kUndecided;
  bool from_coin = false;
  RevealedKey auth_sk;  // revealed SK[phase][value]

  /// Serializes the core fields (no justification) — the unit attached as
  /// justification inside other messages.
  void encode_core(Writer& w) const;

  /// Exact number of bytes encode_core() appends.
  [[nodiscard]] std::size_t encoded_core_size() const {
    return 4 + 4 + 1 + 1 + 1 + 4 + auth_sk.view().size();
  }
  /// Parses one core message. The key is length-prefixed on the wire; any
  /// length other than 0 (absent) or crypto::kSecretKeyLen is rejected, so
  /// an over-long key is never truncated into an authentic one.
  static std::optional<Message> decode_core(Reader& r);

  /// Identity for deduplication in V: one message per (sender, phase).
  [[nodiscard]] std::uint64_t dedup_key() const {
    return (static_cast<std::uint64_t>(sender) << 32) | phase;
  }

  bool operator==(const Message&) const = default;
};

/// A full datagram: the main message plus its justification set.
struct Datagram {
  Message main;
  std::vector<Message> justification;

  [[nodiscard]] Bytes encode() const;
  static std::optional<Datagram> decode(BytesView bytes);
};

}  // namespace turq::turquois
