// Frame-level reliability: sequence numbers, acks, retransmit, dedup.
//
// When the fabric can drop, corrupt, or delay, every control and data message
// of the eager/rendezvous protocols becomes a *frame* on a ReliableChannel:
//
//   sender                               receiver
//   submit(frame) ──seq n, attempt a──►  on_wire: dedup, ack, deliver
//        ▲                                   │
//        └───────────── ack(n) ──────────────┘
//
// Unacked frames are retransmitted after a per-frame timeout with exponential
// backoff; after `max_retries` retransmissions the channel gives up and fails
// the frame with kErrRetryExhausted. The receiver suppresses duplicates (a
// frame is delivered at most once, re-acking copies) and discards corrupted
// frames without acking — the checksum-failure model — so corruption turns
// into loss and is healed by the same retransmit path.
//
// The channel is transport-agnostic: wire I/O, timers, upward delivery and
// give-up handling are injected, so unit tests drive it with a scripted lossy
// wire and the SimEngine drives it with the fault-injecting fabric.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>

#include "src/mpi/errors.hpp"
#include "src/mpi/match.hpp"
#include "src/support/units.hpp"

namespace adapt::obs {
class Recorder;  // src/obs/trace.hpp; hooks fire only when installed
}

namespace adapt::mpi {

struct ReliabilityConfig {
  TimeNs ack_timeout = microseconds(100);  ///< base retransmit timeout
  TimeNs per_byte = 2;   ///< timeout grows with frame size (ns per wire byte)
  double backoff = 2.0;  ///< timeout multiplier per attempt
  int max_retries = 8;   ///< retransmissions before giving up
};

/// Recovery-protocol payload, meaningful only for the kFailNotice / kRevoke /
/// kAgree frame kinds (see runtime::RecoveryService). Kept inline in the
/// Frame: the recovery kinds are control frames (wire_bytes = 0), so the
/// extra bytes never touch the data path and are copied only when recovery
/// frames actually flow.
struct RecoveryInfo {
  Rank about = -1;               ///< kFailNotice: the rank declared failed
  std::uint64_t fingerprint = 0; ///< kRevoke/kAgree: communicator identity
  std::uint32_t seq = 0;         ///< kAgree: per-comm agreement instance
  std::uint8_t phase = 0;        ///< kAgree: 0 = contribution, 1 = result
  std::uint64_t flags = 0;       ///< kAgree: contribution / decided flags
  std::uint64_t view = 0;        ///< kAgree: sender's failed-rank bitmask
};

/// One protocol message. kEager carries a full envelope; kRts carries the
/// envelope metadata only (no payload, no grant — the receiving transport
/// synthesises the grant); kCts/kBulk reference their rendezvous by the RTS
/// frame's sequence number; kAbort broadcasts an operation failure. The
/// recovery kinds (ULFM-style layer, PR 7) are alpha-only control frames:
/// kPing is a heartbeat probe whose retry exhaustion *is* the failure
/// detector, kFailNotice gossips a detected failure, kRevoke floods a
/// communicator revocation, and kAgree carries the fault-tolerant agreement
/// protocol (contributions up to the coordinator, decided results back).
struct Frame {
  enum class Kind {
    kEager, kRts, kCts, kBulk, kAbort, kPing, kFailNotice, kRevoke, kAgree
  };
  Kind kind = Kind::kEager;
  Envelope env;
  std::uint64_t rdvz = 0;
  ErrCode code = ErrCode::kOk;
  Bytes wire_bytes = 0;  ///< bytes the fabric charges for this frame
  MemSpace src_space = MemSpace::kHost;
  MemSpace dst_space = MemSpace::kHost;
  RecoveryInfo rec;      ///< recovery kinds only; defaulted otherwise
};

/// What actually crosses the fabric: a data frame or an ack, stamped with the
/// (seq, attempt) identity the fault injector keys its decisions on.
struct WireFrame {
  Rank src = -1;
  Rank dst = -1;
  bool is_ack = false;
  std::uint64_t seq = 0;
  int attempt = 0;
  bool corrupted = false;  ///< set by the fabric en route
  Frame frame;             ///< meaningless for acks
};

class ReliableChannel {
 public:
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t delivered = 0;        ///< frames handed upward (post-dedup)
    std::uint64_t acked = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t duplicates = 0;       ///< received again after delivery
    std::uint64_t stale_acks = 0;       ///< acks for frames no longer pending
    std::uint64_t corrupt_discards = 0;
    std::uint64_t give_ups = 0;
  };

  /// Puts a wire frame on the fabric toward w.dst.
  using SendWire = std::function<void(const WireFrame&)>;
  /// Schedules `fn` after a virtual-time delay.
  using Timer = std::function<void(TimeNs, std::function<void()>)>;
  /// Hands a deduplicated, uncorrupted frame up to the transport.
  using Deliver = std::function<void(Rank src, const Frame&)>;
  /// Reports a frame whose retry budget is exhausted.
  using GiveUp = std::function<void(Rank peer, const Frame&, ErrCode)>;

  ReliableChannel(Rank self, ReliabilityConfig config, SendWire send_wire,
                  Timer timer, Deliver deliver, GiveUp give_up)
      : self_(self), config_(config), send_wire_(std::move(send_wire)),
        timer_(std::move(timer)), deliver_(std::move(deliver)),
        give_up_(std::move(give_up)) {}

  /// Reliably sends `frame` to `peer`; returns its sequence number.
  /// `on_acked` fires when the peer acknowledges it, `on_failed` when the
  /// retry budget is exhausted (exactly one of the two, unless shutdown()).
  std::uint64_t submit(Rank peer, Frame frame,
                       std::function<void()> on_acked = nullptr,
                       std::function<void(ErrCode)> on_failed = nullptr);

  /// Receiver entry point for everything addressed to this rank.
  void on_wire(const WireFrame& wire);

  /// Stops retransmitting and drops all pending frames without callbacks
  /// (the rank is being torn down; nothing is waiting on these any more).
  void shutdown();

  bool down() const { return down_; }
  int outstanding() const;
  const Stats& stats() const { return stats_; }

  /// Installs (or clears) the trace/metrics recorder: protocol instants
  /// (retransmits, give-ups, corrupt discards, duplicates) + counters.
  void set_recorder(obs::Recorder* rec) { rec_ = rec; }

 private:
  struct Outstanding {
    Frame frame;
    int attempt = 0;           ///< transmissions so far, minus one
    std::uint64_t timer_gen = 0;
    std::function<void()> on_acked;
    std::function<void(ErrCode)> on_failed;
  };

  /// Per-peer state. Sender side: next sequence number + unacked frames.
  /// Receiver side: delivered floor + sparse set above it (all seq <= floor
  /// have been delivered), giving O(1) dedup with bounded memory.
  struct PeerState {
    std::uint64_t next_seq = 1;
    std::map<std::uint64_t, Outstanding> unacked;
    std::uint64_t delivered_floor = 0;
    std::set<std::uint64_t> delivered_above;
  };

  void transmit(Rank peer, std::uint64_t seq);
  TimeNs timeout_for(const Outstanding& entry) const;

  Rank self_;
  ReliabilityConfig config_;
  SendWire send_wire_;
  Timer timer_;
  Deliver deliver_;
  GiveUp give_up_;
  std::map<Rank, PeerState> peers_;
  std::uint64_t timer_gen_counter_ = 0;
  bool down_ = false;
  Stats stats_;
  obs::Recorder* rec_ = nullptr;
};

}  // namespace adapt::mpi
