// Structured protocol tracing for the simulator and the Mykil core.
//
// The Tracer collects typed, virtually-timestamped protocol events (joins,
// rejoins, rekey emissions, batch flushes, evictions, failovers, message
// send/deliver/drop, ...) into bounded ring buffers and exports them in
// Chrome trace-event JSON, so a run opens directly in Perfetto
// (ui.perfetto.dev) or chrome://tracing.
//
// Span events (kJoin, kRejoin, kRejoinVerify, kTakeoverHeal) are emitted
// as async begin/end pairs keyed by a correlation id, so per-operation
// latencies fall out of the trace for free; span_end() also returns the
// elapsed virtual time so call sites can feed a MetricsRegistry histogram
// without bookkeeping.
//
// Flow events (kFlow) stitch one causal operation across nodes: the
// originator emits flow_start with the operation's trace id, the network
// emits a flow_step at every delivery of a message carrying that id, and
// the completion site emits flow_end. Chrome/Perfetto bind the "s"/"t"/"f"
// phases by (cat, name, id) and draw arrows across the per-node tracks —
// a rejoin or a takeover reads as one end-to-end exchange (DESIGN.md 13).
//
// Shard safety (workers > 1): events land in one of kStripes independent
// rings (stripe = tid & mask, so a node's events stay in order within its
// stripe), each with its own mutex — shard workers tracing different nodes
// almost never contend. The open-span table is small and span events are
// rare, so it keeps a single mutex. Export gathers every stripe and sorts
// canonically by (ts, tid, kind, phase, id, args), which makes the output
// bytes identical for every worker interleaving.
//
// Ring overflow is NOT silent: each stripe counts overwritten events and
// the export surfaces the total in otherData.trace_events_dropped.
//
// Cost model: every hook in the simulator is guarded by a null check on a
// raw Tracer pointer — a disabled tracer costs one predictable branch per
// event and touches no memory, so figure benchmarks are unaffected.
// Timestamps are virtual (net::SimTime, microseconds), never wall-clock,
// which keeps traces byte-identical across runs with the same seed.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/label.h"
#include "net/sim_time.h"

namespace mykil::obs {

enum class EventKind : std::uint8_t {
  // span kinds (async begin/end pairs, id = client id)
  kJoin = 0,
  kRejoin,
  // instant protocol events
  kRekeyEmit,      ///< a0 = payload bytes, a1 = area member count
  kBatchFlush,     ///< a0 = leaves collapsed into one rekey
  kEviction,       ///< a0 = evicted client id
  kMemberLeave,    ///< a0 = departing client id
  kHeartbeatMiss,  ///< a0 = silent primary's AC id (backup watchdog)
  kTakeover,       ///< a0 = AC id whose backup promoted itself
  kParentSwitch,   ///< a0 = our AC id, a1 = new parent AC id
  // instant network events
  kCrash,      ///< a0 = node id
  kRecover,    ///< a0 = node id
  kPartition,  ///< a0 = node id, a1 = partition id
  kHeal,       ///< all partitions merged back
  kSend,       ///< a0 = wire bytes; label = traffic class
  kDeliver,    ///< a0 = wire bytes; label = traffic class
  kDrop,       ///< a0 = wire bytes; label = traffic class
  // instant reliability events (ARQ + rekey gap recovery, DESIGN.md 9)
  kRetransmit,   ///< a0 = destination node, a1 = attempt; label = class
  kArqGiveUp,    ///< a0 = destination node; label = traffic class
  kKeyRecovery,  ///< a0 = client id, a1 = held epoch; label = trigger
  kDemote,       ///< a0 = AC id (a stale primary stepping down)
  // causal-tracing kinds (DESIGN.md 13)
  kRejoinVerify,  ///< span: AC-side ticket verify, id = client id
  kTakeoverHeal,  ///< span: failure detect -> first rekey, id = AC id
  kFlow,          ///< flow arrows: id = trace id; a0 = wire bytes at a step
};

/// Stable display name used in the exported trace ("join", "rekey-emit"...).
[[nodiscard]] const char* event_name(EventKind kind);

struct TraceEvent {
  EventKind kind = EventKind::kJoin;
  enum class Phase : std::uint8_t {
    kInstant,
    kBegin,
    kEnd,
    kFlowStart,
    kFlowStep,
    kFlowEnd,
  } phase = Phase::kInstant;
  std::uint32_t tid = 0;  ///< node id of the entity the event happened at
  net::SimTime ts = 0;
  std::uint64_t id = 0;  ///< span/flow correlation id (non-instant phases)
  std::uint64_t a0 = 0, a1 = 0;
  net::Label label;  ///< traffic class for send/deliver/drop/flow, else empty
};

class Tracer {
 public:
  /// Independent ring stripes; events are striped by tid so shard workers
  /// tracing different nodes do not contend on one mutex.
  static constexpr std::size_t kStripes = 8;

  /// `capacity` bounds memory: once full, the oldest events of the
  /// overflowing stripe are overwritten (dropped() reports how many were
  /// lost; the Chrome export surfaces it as trace_events_dropped).
  explicit Tracer(std::size_t capacity = 1 << 16);

  void instant(EventKind kind, std::uint32_t tid, net::SimTime ts,
               std::uint64_t a0 = 0, std::uint64_t a1 = 0,
               net::Label label = {});
  void span_begin(EventKind kind, std::uint64_t span_id, std::uint32_t tid,
                  net::SimTime ts);
  /// Returns the elapsed virtual time if a matching span_begin is open,
  /// std::nullopt for an unmatched end (which is still recorded).
  std::optional<net::SimDuration> span_end(EventKind kind,
                                           std::uint64_t span_id,
                                           std::uint32_t tid, net::SimTime ts);

  /// Causal flow arrows (Chrome phases "s"/"t"/"f"), bound by
  /// (cat, name, id): `flow_id` is the operation's trace id.
  void flow_start(EventKind kind, std::uint64_t flow_id, std::uint32_t tid,
                  net::SimTime ts, net::Label label = {});
  void flow_step(EventKind kind, std::uint64_t flow_id, std::uint32_t tid,
                 net::SimTime ts, std::uint64_t bytes = 0,
                 net::Label label = {});
  void flow_end(EventKind kind, std::uint64_t flow_id, std::uint32_t tid,
                net::SimTime ts, net::Label label = {});

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Events lost to ring overflow (surfaced in the export header).
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::size_t open_spans() const {
    std::lock_guard<std::mutex> lock(span_mu_);
    return open_.size();
  }
  void clear();

  /// Visit buffered events in canonical (ts, tid, kind, phase, id, args)
  /// order — identical for every worker interleaving. Gathers a snapshot
  /// first, so `f` may call back into this tracer.
  template <typename F>
  void for_each(F&& f) const {
    std::vector<TraceEvent> events = snapshot();
    for (const TraceEvent& ev : events) f(ev);
  }

  /// Chrome trace-event JSON: {"traceEvents":[...], "otherData":{...}}
  /// with one event object per line. otherData carries the schema tag,
  /// event/capacity totals, trace_events_dropped, and open span count.
  [[nodiscard]] std::string to_chrome_trace() const;
  /// Write to_chrome_trace() to `path`; returns false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Stripe {
    mutable std::mutex mu;
    std::vector<TraceEvent> ring;
    std::size_t head = 0;  ///< next write slot once the ring is full
    std::uint64_t dropped = 0;
  };

  void push(TraceEvent ev);
  /// Locked gather of every stripe, canonically sorted.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;
  [[nodiscard]] static std::uint64_t span_key(EventKind kind,
                                              std::uint64_t span_id) {
    return (static_cast<std::uint64_t>(kind) << 56) ^ span_id;
  }

  std::size_t capacity_;         ///< total, split evenly across stripes
  std::size_t stripe_capacity_;  ///< capacity_ / kStripes, >= 1
  Stripe stripes_[kStripes];

  // Span pairing table: spans are protocol-rare, one small mutex suffices.
  mutable std::mutex span_mu_;
  std::unordered_map<std::uint64_t, net::SimTime> open_;  ///< key -> begin ts
};

}  // namespace mykil::obs
