#include "net/arq.h"

#include <algorithm>

#include "common/error.h"
#include "common/wire.h"

namespace mykil::net {

Bytes ArqFrame::serialize() const {
  WireWriter w;
  w.reserve(1 + 8 + 8 + 4 + inner.size());
  w.u8(tag);
  w.u64(incarnation);
  w.u64(seq);
  w.bytes(inner);
  return w.take();
}

ArqFrame ArqFrame::parse(ByteView raw) {
  WireReader r(raw);
  ArqFrame f;
  f.tag = r.u8();
  if (f.tag != kArqDataTag && f.tag != kArqAckTag)
    throw WireError("arq: unknown frame tag");
  f.incarnation = r.u64();
  f.seq = r.u64();
  f.inner = r.bytes();
  r.expect_done();
  if (f.tag == kArqAckTag && !f.inner.empty())
    throw WireError("arq: ack frame with payload");
  return f;
}

bool is_arq_frame(ByteView payload) {
  return !payload.empty() &&
         (payload[0] == kArqDataTag || payload[0] == kArqAckTag);
}

void ArqEndpoint::bind(Network& net, NodeId self, ArqConfig config,
                       std::uint64_t seed) {
  net_ = &net;
  self_ = self;
  config_ = config;
  prng_ = crypto::Prng(seed);
  incarnation_ = prng_.next_u64();
}

void ArqEndpoint::count(const char* name) {
  if (auto* m = net_->metrics()) m->counter(name).inc();
}

void ArqEndpoint::arm_timer(std::uint64_t token, Flight& f) {
  SimDuration jitter =
      config_.retry_jitter == 0 ? 0 : prng_.uniform(config_.retry_jitter);
  f.timer = net_->set_timer(self_, f.rto + jitter, token);
}

void ArqEndpoint::transmit(const Flight& f) {
  // Re-apply the flight's captured trace context for the duration of the
  // send: on the first transmission this is a no-op (the ambient context
  // is what we captured), on retransmissions it restores the context the
  // timer callback lost.
  TraceContext saved = net_->current_trace();
  net_->set_current_trace(f.trace);
  net_->unicast(self_, f.to, f.label, f.frame);
  net_->set_current_trace(saved);
}

void ArqEndpoint::send_ack(NodeId to, std::uint64_t incarnation,
                           std::uint64_t seq) {
  static const Label kAckLabel{kArqAckLabel};
  ArqFrame ack;
  ack.tag = kArqAckTag;
  ack.incarnation = incarnation;  // echo the sender's, not ours
  ack.seq = seq;
  net_->unicast(self_, to, kAckLabel, ack.serialize());
}

void ArqEndpoint::send(NodeId to, Label label, Bytes payload) {
  ArqFrame frame;
  frame.incarnation = incarnation_;
  frame.seq = ++next_seq_[to];

  Flight f;
  f.to = to;
  f.seq = frame.seq;
  f.label = label;
  f.trace = net_->current_trace();
  frame.inner = std::move(payload);
  f.frame = frame.serialize();
  f.rto = config_.rto_initial;

  std::uint64_t token = kArqTimerBit | next_flight_++;
  transmit(f);
  ++stats_.data_sent;
  arm_timer(token, f);
  flight_index_[{to, f.seq}] = token;
  flights_[token] = std::move(f);
}

ArqEndpoint::Rx ArqEndpoint::on_message(const Message& msg,
                                        Message& unwrapped) {
  if (!is_arq_frame(msg.payload)) return Rx::kPassThrough;
  ArqFrame frame;
  try {
    frame = ArqFrame::parse(msg.payload);
  } catch (const WireError&) {
    return Rx::kConsumed;  // malformed ARQ traffic: drop silently
  }

  if (frame.tag == kArqAckTag) {
    if (frame.incarnation != incarnation_) return Rx::kConsumed;  // stale
    auto idx = flight_index_.find({msg.from, frame.seq});
    if (idx != flight_index_.end()) {
      auto fit = flights_.find(idx->second);
      if (fit != flights_.end()) {
        net_->cancel_timer(fit->second.timer);
        flights_.erase(fit);
      }
      flight_index_.erase(idx);
      ++stats_.acks_received;
    }
    return Rx::kConsumed;
  }

  // Data frame: always acknowledge (the previous ack may have been lost),
  // then deliver unless we have seen this (incarnation, seq) before.
  send_ack(msg.from, frame.incarnation, frame.seq);

  PeerRx& peer = rx_[msg.from];
  if (peer.incarnation != frame.incarnation) {
    peer = PeerRx{};  // the sender restarted: its sequence space is fresh
    peer.incarnation = frame.incarnation;
  }
  bool duplicate = frame.seq <= peer.cum || peer.ahead.contains(frame.seq);
  if (duplicate) {
    ++stats_.dups_dropped;
    count("arq.dup_drops");
    return Rx::kConsumed;
  }
  peer.ahead.insert(frame.seq);
  while (peer.ahead.erase(peer.cum + 1) > 0) ++peer.cum;
  if (peer.ahead.size() > config_.dedup_window)
    peer.ahead.erase(peer.ahead.begin());

  ++stats_.delivered;
  unwrapped = msg;
  unwrapped.payload = std::move(frame.inner);
  return Rx::kDeliver;
}

bool ArqEndpoint::on_timer(std::uint64_t token) {
  if ((token & kArqTimerBit) == 0) return false;
  auto it = flights_.find(token);
  if (it == flights_.end()) return true;  // acked while the timer was due
  Flight& f = it->second;
  if (f.retries >= config_.max_retries) {
    NodeId to = f.to;
    Label label = f.label;
    flight_index_.erase({f.to, f.seq});
    flights_.erase(it);
    ++stats_.give_ups;
    count("arq.give_ups");
    if (auto* t = net_->tracer())
      t->instant(obs::EventKind::kArqGiveUp, self_, net_->now(), to, 0, label);
    if (give_up_) give_up_(to, label.name());  // last: may re-enter send()
    return true;
  }
  ++f.retries;
  f.rto = std::min<SimDuration>(
      static_cast<SimDuration>(static_cast<double>(f.rto) *
                               config_.rto_backoff),
      config_.rto_max);
  transmit(f);
  ++stats_.retransmits;
  count("arq.retransmits");
  if (auto* t = net_->tracer())
    t->instant(obs::EventKind::kRetransmit, self_, net_->now(), f.to,
               f.retries, f.label);
  arm_timer(token, f);
  return true;
}

void ArqEndpoint::on_recover() {
  // Timers that came due while the node was down were suppressed, not
  // deferred (see network.h). Cancel whatever survives and re-arm every
  // in-flight frame so retransmission resumes.
  for (auto& [token, f] : flights_) {
    net_->cancel_timer(f.timer);
    arm_timer(token, f);
  }
}

void ArqEndpoint::reset() {
  for (auto& [token, f] : flights_) net_->cancel_timer(f.timer);
  flights_.clear();
  flight_index_.clear();
  next_seq_.clear();
  rx_.clear();
  incarnation_ = prng_.next_u64();
}

}  // namespace mykil::net
