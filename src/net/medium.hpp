// Shared-channel 802.11b-style wireless medium.
//
// Models the aspects of the paper's testbed that drive its results:
//   * one shared channel — every frame occupies airtime all nodes contend for;
//   * CSMA/CA: DIFS sensing + slotted random backoff; equal backoff draws
//     collide, corrupting every overlapping frame;
//   * broadcast frames carry no MAC ACK and are never retransmitted — one
//     collision or omission loses the frame at up to n−1 receivers;
//   * unicast frames get a MAC-level ACK and up to `retry_limit` retries
//     with exponential contention-window growth (what makes TCP viable);
//   * broadcast is sent at the basic rate (2 Mb/s), unicast data at 11 Mb/s,
//     matching 802.11b multicast behaviour.
//
// Omission faults beyond collisions (interference, fading, jamming) are
// injected per (frame, receiver) through a FaultInjector.
//
// With a SpatialModel installed (src/spatial) the channel becomes
// multi-hop: contention is resolved per carrier-sense domain (mutually
// hidden contenders transmit concurrently), delivery is gated on
// per-(frame, receiver) reachability, and overlapping transmissions
// corrupt a frame only at receivers inside range of two or more of them —
// the hidden-terminal collision. Without a model none of this code runs
// and the single-hop path is byte-identical to the pre-spatial medium.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/broadcast_service.hpp"
#include "net/fault_injector.hpp"
#include "net/spatial_model.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace turq::net {

struct MediumConfig {
  // 802.11b sends broadcast/multicast at a basic rate (2 Mb/s here, the
  // common configuration and the value that calibrates Turquois's absolute
  // latencies to the paper's testbed); unicast data goes at the full 11 Mb/s.
  // See bench/ablation_medium for the sensitivity of the results to this.
  double broadcast_rate_bps = 2e6;
  double unicast_rate_bps = 11e6;    // data rate for unicast
  double control_rate_bps = 2e6;     // ACK frames
  SimDuration preamble = 192 * kMicrosecond;  // long PLCP preamble + header
  SimDuration slot_time = 20 * kMicrosecond;
  SimDuration sifs = 10 * kMicrosecond;
  SimDuration difs = 50 * kMicrosecond;
  std::uint32_t cw_min = 31;
  std::uint32_t cw_max = 1023;
  std::uint32_t retry_limit = 7;
  std::size_t mac_overhead_bytes = 34;  // MAC header + FCS
  std::size_t ack_bytes = 14;
  std::size_t max_frame_bytes = 2304;   // MSDU limit
};

/// Medium-level activity counters, used by the evaluation harness and the
/// broadcast-vs-unicast ablation. This is a snapshot view assembled from
/// the medium's MetricsRegistry — the registry is the single counting path.
///
/// Receiver-side counters are per-(frame, receiver) PAIRS, not per frame:
/// one broadcast reaching 6 of 9 receivers scores 6 deliveries. The three
/// loss counters partition the missed pairs by cause so σ accounting stays
/// faithful to the paper's per-round omission bound:
///   * `omissions`   — pairs lost to the injected FaultInjector chain
///     (ambient loss, bursts, jamming, targeted/adaptive omission);
///   * `unreachable` — pairs where the SpatialModel placed the receiver
///     out of radio range (reachability-induced omissions; fed to the σ
///     accountant through the unreachable hook, never mixed into
///     `omissions`);
///   * `hidden_terminal` — pairs corrupted because the receiver was inside
///     range of two or more overlapping transmissions whose senders could
///     not carrier-sense each other.
/// `unreachable` and `hidden_terminal` stay 0 without a SpatialModel.
struct MediumStats {
  std::uint64_t broadcast_frames = 0;   // frames put on the air
  std::uint64_t unicast_frames = 0;     // incl. MAC retries
  std::uint64_t mac_retries = 0;
  std::uint64_t collisions = 0;         // overlap events (>= 2 tx at once)
  std::uint64_t frames_collided = 0;    // frames lost to collisions
  std::uint64_t unicast_drops = 0;      // frames dropped after retry limit
  std::uint64_t deliveries = 0;         // successful (frame, receiver) pairs
  std::uint64_t omissions = 0;          // injected (frame, receiver) losses
  std::uint64_t unreachable = 0;        // out-of-range (frame, receiver) pairs
  std::uint64_t hidden_terminal = 0;    // hidden-terminal (frame, rcv) losses
  std::uint64_t bytes_on_air = 0;
  SimDuration airtime = 0;

  /// Field-wise sum, for pooling repetitions.
  MediumStats& operator+=(const MediumStats& o) {
    broadcast_frames += o.broadcast_frames;
    unicast_frames += o.unicast_frames;
    mac_retries += o.mac_retries;
    collisions += o.collisions;
    frames_collided += o.frames_collided;
    unicast_drops += o.unicast_drops;
    deliveries += o.deliveries;
    omissions += o.omissions;
    unreachable += o.unreachable;
    hidden_terminal += o.hidden_terminal;
    bytes_on_air += o.bytes_on_air;
    airtime += o.airtime;
    return *this;
  }
};

class Medium final : public BroadcastService {
 public:
  /// See BroadcastService for the delivery-view and shared-payload
  /// contracts; the aliases predate the interface and stay for callers.
  using ReceiveHandler = BroadcastService::ReceiveHandler;
  using FramePayload = BroadcastService::FramePayload;

  /// Called when a unicast send completes: true = MAC-acknowledged,
  /// false = dropped after the retry limit.
  using SendResult = std::function<void(bool acked)>;

  /// Called once per (frame, receiver) pair lost to spatial unreachability
  /// — the harness routes these into the σ accountant so partition-induced
  /// omissions count against the paper's bound.
  using UnreachableHook = std::function<void(SimTime at)>;

  Medium(sim::Simulator& simulator, MediumConfig config, Rng rng);

  /// Registers a node. A node must be attached to send or receive.
  void attach(ProcessId id, ReceiveHandler handler) override;

  /// Deregisters a node (crash): it stops receiving; queued frames die.
  void detach(ProcessId id) override;

  /// Replaces the fault injector (not owned; must outlive the medium).
  void set_fault_injector(FaultInjector* injector) { faults_ = injector; }

  /// Installs the reachability/carrier-sense oracle (not owned; must
  /// outlive the medium). nullptr (the default) is the single-hop medium.
  void set_spatial(SpatialModel* model) { spatial_ = model; }

  /// Observer for reachability-induced losses (see UnreachableHook).
  void set_unreachable_hook(UnreachableHook hook) {
    unreachable_hook_ = std::move(hook);
  }

  /// Queues a broadcast frame. No ACK, no retry; delivery at each receiver
  /// is subject to collisions and injected omissions. When `replace_queued`
  /// is set (the default), any broadcast frames of this sender still waiting
  /// in its MAC queue (not yet on the air) are superseded — a protocol
  /// state datagram is stale the moment a newer one exists, and this is
  /// what keeps queues bounded when the channel saturates.
  void send_broadcast(ProcessId src, Bytes payload, bool replace_queued = true);
  /// As above, with a payload the caller already shares (e.g. a loopback
  /// copy of the same datagram): no further payload allocation happens.
  void send_broadcast(ProcessId src, FramePayload payload,
                      bool replace_queued = true);
  /// BroadcastService spelling of the shared-payload overload.
  void broadcast(ProcessId src, FramePayload payload,
                 bool replace_queued) override {
    send_broadcast(src, std::move(payload), replace_queued);
  }

  /// Queues a unicast frame with MAC ACK/retry semantics.
  void send_unicast(ProcessId src, ProcessId dst, Bytes payload,
                    SendResult on_result = {});

  /// Snapshot of the medium counters (thin view over metrics()).
  [[nodiscard]] MediumStats stats() const;
  /// The live counter/histogram registry (includes backoff-slot and frame
  /// airtime histograms that have no MediumStats field).
  [[nodiscard]] const trace::MetricsRegistry& metrics() const {
    return metrics_;
  }
  [[nodiscard]] const MediumConfig& config() const { return config_; }

  /// Airtime of a frame carrying `payload_bytes` at `rate_bps`.
  [[nodiscard]] SimDuration frame_airtime(std::size_t payload_bytes,
                                          double rate_bps) const;

 private:
  static constexpr ProcessId kBroadcastDst = kInvalidProcess;

  struct Frame {
    ProcessId src = kInvalidProcess;
    ProcessId dst = kBroadcastDst;
    FramePayload payload;
    std::uint32_t retries = 0;
    std::uint32_t cw = 0;
    SendResult on_result;
    std::uint64_t trace_id = 0;  // per-medium frame id for event correlation

    [[nodiscard]] bool is_broadcast() const { return dst == kBroadcastDst; }
    [[nodiscard]] std::size_t size() const { return payload->size(); }
  };

  /// Counters resolved once against metrics_ (stable map-node addresses).
  struct HotCounters {
    trace::Counter* broadcast_frames = nullptr;
    trace::Counter* unicast_frames = nullptr;
    trace::Counter* mac_retries = nullptr;
    trace::Counter* collisions = nullptr;
    trace::Counter* frames_collided = nullptr;
    trace::Counter* unicast_drops = nullptr;
    trace::Counter* deliveries = nullptr;
    trace::Counter* omissions = nullptr;
    trace::Counter* unreachable = nullptr;
    trace::Counter* hidden_terminal = nullptr;
    trace::Counter* bytes_on_air = nullptr;
    trace::Counter* airtime_ns = nullptr;
    trace::Histogram* backoff_slots = nullptr;
    trace::Histogram* frame_airtime_us = nullptr;
  };

  /// Per-node state, held in a flat vector indexed by ProcessId (ids are
  /// dense 0..n-1). The handler is refcounted so delivery events scheduled
  /// before a detach still fire against the original callable, exactly as
  /// the previous by-value handler copies behaved.
  struct NodeState {
    std::shared_ptr<const ReceiveHandler> handler;
    std::deque<Frame> queue;
    bool attached = false;
    bool contending = false;
    bool transmitting = false;  // queue.front() is on the air
  };

  /// The node's state, or nullptr when `id` was never or is no longer
  /// attached (the flat-vector analogue of map.find() == end()).
  [[nodiscard]] NodeState* node_of(ProcessId id) {
    if (id >= nodes_.size() || !nodes_[id].attached) return nullptr;
    return &nodes_[id];
  }

  void enqueue(Frame frame);
  void add_contender(ProcessId id);
  void maybe_schedule_resolution();
  void resolve_contention();
  void finish_single(ProcessId winner);
  void finish_collision(std::vector<ProcessId> winners);
  void finish_overlap(const std::vector<ProcessId>& winners);
  void complete_frame(ProcessId node, bool popped_ok);
  void retry_or_drop(ProcessId node);
  void deliver(const Frame& frame);
  void note_unreachable(const Frame& frame, ProcessId receiver);
  [[nodiscard]] SimDuration airtime_of(const Frame& frame) const;
  [[nodiscard]] SimDuration ack_airtime() const;

  sim::Simulator& sim_;
  MediumConfig config_;
  Rng rng_;
  NoFaults no_faults_;
  FaultInjector* faults_ = &no_faults_;
  SpatialModel* spatial_ = nullptr;
  UnreachableHook unreachable_hook_;
  std::vector<NodeState> nodes_;
  std::vector<ProcessId> contenders_;
  bool resolution_pending_ = false;
  SimTime busy_until_ = 0;
  std::uint64_t next_trace_id_ = 0;
  trace::MetricsRegistry metrics_;
  HotCounters ctr_;
};

}  // namespace turq::net
