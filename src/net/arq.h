// ARQ (automatic repeat request) for unicast control traffic.
//
// The simulator drops, reorders, and partitions; the Mykil control plane
// (join/rejoin handshakes, leave requests, key-recovery exchanges) assumes
// its unicasts eventually arrive. This layer closes the gap with a classic
// stop-and-wait-per-message scheme:
//
//   - every outgoing control message is wrapped in an ArqFrame carrying a
//     per-endpoint incarnation and a per-destination sequence number,
//   - the receiver acknowledges every data frame (acks are never
//     retransmitted or acknowledged themselves),
//   - unacked frames are retransmitted with exponential backoff plus
//     uniform jitter, up to `max_retries` retransmissions,
//   - after the final retry the frame is dropped and the give-up handler
//     runs, so callers can escalate to the protocol's existing failure
//     detection (silence clocks, watchdogs) instead of retrying forever,
//   - the receiver deduplicates by (sender, incarnation, sequence), so a
//     retransmitted join/leave/state-request is delivered exactly once and
//     protocol handlers stay idempotent without their own replay maps.
//
// Delivery is at-most-once and UNORDERED: frames are handed up as they
// arrive, never held back for sequence order. The Mykil handlers already
// tolerate reordering (nonce-keyed sessions, version-guarded keys), and a
// holdback queue would turn one lost packet into head-of-line blocking for
// every later control message.
//
// The endpoint is owned by a Node and driven from its callbacks: route
// incoming messages through on_message(), timer tokens through on_timer()
// (ARQ tokens have the top bit set, so they never collide with protocol
// timers), and call on_recover() from Node::on_recover so retransmission
// timers swallowed during a crash window are re-armed. Every Mykil entity
// (RS, AC, member) sends all of its control unicasts through one.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "common/bytes.h"
#include "crypto/prng.h"
#include "net/network.h"

namespace mykil::net {

struct ArqConfig {
  /// First retransmission timeout. Must comfortably exceed one round trip
  /// (2 x base latency + jitter + serialization).
  SimDuration rto_initial = msec(50);
  /// Timeout multiplier per retry (exponential backoff).
  double rto_backoff = 2.0;
  /// Backoff ceiling.
  SimDuration rto_max = sec(2);
  /// Uniform jitter in [0, retry_jitter) added to every (re)arm, so
  /// synchronized losses do not produce synchronized retry storms.
  SimDuration retry_jitter = msec(10);
  /// Retransmissions after the initial send before giving up.
  unsigned max_retries = 6;
  /// Out-of-order sequence numbers remembered per peer for dedup.
  std::size_t dedup_window = 1024;
};

/// First payload byte of ARQ traffic. Protocol envelopes start with a
/// MsgType byte (1..63), so the tags can never be confused with them.
inline constexpr std::uint8_t kArqDataTag = 0xA0;
inline constexpr std::uint8_t kArqAckTag = 0xA1;

/// ARQ retransmission timers use this bit; protocol timer tokens must not.
inline constexpr std::uint64_t kArqTimerBit = 1ull << 63;

/// Traffic label for acknowledgements (data frames keep the label of the
/// message they carry, so per-class accounting still works).
inline constexpr const char* kArqAckLabel = "arq-ack";

struct ArqFrame {
  std::uint8_t tag = kArqDataTag;
  std::uint64_t incarnation = 0;
  std::uint64_t seq = 0;
  Bytes inner;  ///< wrapped payload; empty for acks

  [[nodiscard]] Bytes serialize() const;
  /// Throws WireError on truncation, trailing bytes, or an unknown tag.
  static ArqFrame parse(ByteView raw);
};

/// Cheap pre-check: does this payload look like an ARQ frame?
[[nodiscard]] bool is_arq_frame(ByteView payload);

struct ArqStats {
  std::uint64_t data_sent = 0;     ///< first transmissions
  std::uint64_t retransmits = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t dups_dropped = 0;  ///< duplicate data frames suppressed
  std::uint64_t delivered = 0;     ///< fresh frames handed to the owner
  std::uint64_t give_ups = 0;
};

class ArqEndpoint {
 public:
  /// What on_message decided about an incoming message.
  enum class Rx {
    kPassThrough,  ///< not ARQ traffic: handle the original message
    kConsumed,     ///< ack or duplicate: nothing further to do
    kDeliver,      ///< fresh data frame: handle `unwrapped` instead
  };
  using GiveUpFn = std::function<void(NodeId to, const std::string& label)>;

  /// Bind to a network/node (call once, any time after Network::attach).
  void bind(Network& net, NodeId self, ArqConfig config, std::uint64_t seed);
  [[nodiscard]] bool bound() const { return net_ != nullptr; }

  /// Runs after a frame exhausts its retries (already forgotten by then).
  void set_give_up_handler(GiveUpFn fn) { give_up_ = std::move(fn); }

  /// Send `payload` reliably to `to`.
  void send(NodeId to, Label label, Bytes payload);

  /// Classify an incoming message. On kDeliver, `unwrapped` is the same
  /// message with the ARQ header stripped from its payload.
  Rx on_message(const Message& msg, Message& unwrapped);

  /// Returns true when the token was an ARQ timer (handled either way).
  bool on_timer(std::uint64_t token);

  /// Re-arm retransmission timers for in-flight frames. Call from
  /// Node::on_recover: timers that came due during the down window were
  /// suppressed by the simulator, not deferred.
  void on_recover();

  /// Drop all send/receive state and adopt a fresh incarnation (a restart
  /// that loses volatile state, as opposed to the simulator's crash-stop
  /// which preserves it).
  void reset();

  [[nodiscard]] const ArqStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t in_flight() const { return flights_.size(); }

 private:
  struct Flight {
    NodeId to = kNoNode;
    std::uint64_t seq = 0;
    Label label;
    /// Serialized ArqFrame, retransmitted verbatim. A Payload so every
    /// retransmission re-sends the same refcounted buffer instead of
    /// re-copying the frame bytes.
    Payload frame;
    unsigned retries = 0;
    SimDuration rto = 0;
    Network::TimerId timer = 0;
    /// Causal context captured at send(). Retransmissions fire from timer
    /// callbacks, where the ambient context is empty — re-applying the
    /// stored context keeps every retry on the operation's flow.
    TraceContext trace;
  };
  struct PeerRx {
    std::uint64_t incarnation = 0;
    std::uint64_t cum = 0;  ///< every seq <= cum has been seen
    std::set<std::uint64_t> ahead;  ///< seen seqs > cum
  };

  void arm_timer(std::uint64_t token, Flight& f);
  void transmit(const Flight& f);
  void send_ack(NodeId to, std::uint64_t incarnation, std::uint64_t seq);
  void count(const char* name);

  Network* net_ = nullptr;
  NodeId self_ = kNoNode;
  ArqConfig config_;
  crypto::Prng prng_{0};
  std::uint64_t incarnation_ = 0;

  std::map<NodeId, std::uint64_t> next_seq_;
  std::map<std::uint64_t, Flight> flights_;  ///< by timer token
  std::map<std::pair<NodeId, std::uint64_t>, std::uint64_t> flight_index_;
  std::uint64_t next_flight_ = 0;
  std::map<NodeId, PeerRx> rx_;
  GiveUpFn give_up_;
  ArqStats stats_;
};

}  // namespace mykil::net
