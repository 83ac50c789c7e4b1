// ARQ endpoint: reliable unicast over the lossy simulator. Frame encoding,
// at-most-once delivery under heavy loss (against raw unicast as the
// negative control), dedup, give-up escalation and crash recovery.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "net/arq.h"
#include "net/network.h"

namespace mykil::net {
namespace {

NetworkConfig quiet_config() {
  NetworkConfig cfg;
  cfg.jitter = 0;
  return cfg;
}

/// A node that speaks ARQ: every incoming message is routed through the
/// endpoint; fresh deliveries are recorded by payload.
class ArqNode : public Node {
 public:
  void setup(Network& net, ArqConfig cfg = {}, std::uint64_t seed = 42) {
    net.attach(*this);
    arq.bind(net, id(), cfg, seed);
  }

  void on_message(const Message& msg) override {
    Message unwrapped;
    switch (arq.on_message(msg, unwrapped)) {
      case ArqEndpoint::Rx::kPassThrough:
        raw.push_back(to_string(msg.payload));
        break;
      case ArqEndpoint::Rx::kConsumed:
        break;
      case ArqEndpoint::Rx::kDeliver:
        delivered.push_back(to_string(unwrapped.payload));
        break;
    }
  }
  void on_timer(std::uint64_t token) override {
    if (arq.on_timer(token)) return;
    other_timers.push_back(token);
  }
  void on_recover() override { arq.on_recover(); }

  ArqEndpoint arq;
  std::vector<std::string> delivered;
  std::vector<std::string> raw;
  std::vector<std::uint64_t> other_timers;
};

TEST(ArqFrame, RoundTripIsExact) {
  ArqFrame f;
  f.tag = kArqDataTag;
  f.incarnation = 7;
  f.seq = 123456789;
  f.inner = to_bytes("payload bytes");
  Bytes wire = f.serialize();
  ArqFrame g = ArqFrame::parse(wire);
  EXPECT_EQ(g.tag, f.tag);
  EXPECT_EQ(g.incarnation, f.incarnation);
  EXPECT_EQ(g.seq, f.seq);
  EXPECT_EQ(g.inner, f.inner);
  EXPECT_EQ(g.serialize(), wire);
}

TEST(ArqFrame, AckRoundTrip) {
  ArqFrame a;
  a.tag = kArqAckTag;
  a.incarnation = 1;
  a.seq = 9;
  ArqFrame g = ArqFrame::parse(a.serialize());
  EXPECT_EQ(g.tag, kArqAckTag);
  EXPECT_EQ(g.seq, 9u);
  EXPECT_TRUE(g.inner.empty());
}

TEST(ArqFrame, RejectsGarbageAndTruncation) {
  EXPECT_THROW(ArqFrame::parse(Bytes{}), Error);
  EXPECT_THROW(ArqFrame::parse(to_bytes("not a frame")), Error);
  ArqFrame f;
  f.inner = to_bytes("x");
  Bytes wire = f.serialize();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    Bytes trunc(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(ArqFrame::parse(trunc), Error) << "length " << len;
  }
  EXPECT_FALSE(is_arq_frame(to_bytes("\x01plain protocol envelope")));
  EXPECT_TRUE(is_arq_frame(wire));
}

TEST(Arq, DeliversExactlyOnceUnderHeavyLoss) {
  NetworkConfig cfg = quiet_config();
  cfg.drop_probability = 0.5;
  cfg.seed = 18;
  Network net(cfg);
  ArqNode a, b;
  // At 50% loss each attempt needs BOTH the data frame and its ack to
  // survive (p = 0.25), so the default 6-retry budget would give up on a
  // visible fraction of messages; the budget, not the scheme, is the knob.
  ArqConfig acfg;
  acfg.max_retries = 20;
  a.setup(net, acfg);
  b.setup(net);
  constexpr int kMessages = 40;
  for (int i = 0; i < kMessages; ++i)
    a.arq.send(b.id(), "ctl", to_bytes("msg-" + std::to_string(i)));
  net.run_until(sec(300));
  // Every message arrives despite 50% loss, and none arrives twice.
  std::set<std::string> unique(b.delivered.begin(), b.delivered.end());
  EXPECT_EQ(b.delivered.size(), static_cast<std::size_t>(kMessages));
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kMessages));
  EXPECT_GT(a.arq.stats().retransmits, 0u);
  EXPECT_EQ(a.arq.stats().give_ups, 0u);
  EXPECT_EQ(a.arq.in_flight(), 0u);
}

TEST(Arq, ReceiverDeduplicatesRetransmits) {
  // Block the ack path only: every data frame arrives, every ack is lost,
  // so the sender retransmits the full retry budget and the receiver must
  // suppress all copies after the first.
  Network net(quiet_config());
  ArqNode a, b;
  a.setup(net);
  b.setup(net);
  net.block_link(b.id(), a.id());
  a.arq.send(b.id(), "ctl", to_bytes("once"));
  net.run_until(sec(60));
  EXPECT_EQ(b.delivered.size(), 1u);
  EXPECT_GT(b.arq.stats().dups_dropped, 0u);
}

TEST(Arq, GivesUpAfterRetryBudgetAndEscalates) {
  Network net(quiet_config());
  ArqNode a, b;
  ArqConfig acfg;
  acfg.max_retries = 3;
  a.setup(net, acfg);
  b.setup(net);
  std::vector<std::pair<NodeId, std::string>> gave_up;
  a.arq.set_give_up_handler([&](NodeId to, const std::string& label) {
    gave_up.emplace_back(to, label);
  });
  net.block_link(a.id(), b.id());
  a.arq.send(b.id(), "ctl", to_bytes("doomed"));
  net.run_until(sec(60));
  ASSERT_EQ(gave_up.size(), 1u);
  EXPECT_EQ(gave_up[0].first, b.id());
  EXPECT_EQ(gave_up[0].second, "ctl");
  EXPECT_EQ(a.arq.stats().give_ups, 1u);
  EXPECT_EQ(a.arq.stats().retransmits, 3u);
  EXPECT_EQ(a.arq.in_flight(), 0u);
  EXPECT_TRUE(b.delivered.empty());
}

TEST(Arq, SenderCrashRecoveryRearmsRetransmission) {
  // The retransmission timer due during the crash window is suppressed by
  // the simulator; on_recover must re-arm it or the frame is stuck forever.
  Network net(quiet_config());
  ArqNode a, b;
  a.setup(net);
  b.setup(net);
  net.block_link(a.id(), b.id());  // first transmission is lost
  a.arq.send(b.id(), "ctl", to_bytes("resumed"));
  net.run_until(msec(10));
  net.crash(a.id());
  net.run_until(sec(5));  // retry timers fire into the void
  net.unblock_link(a.id(), b.id());
  net.recover(a.id());
  net.run_until(sec(30));
  ASSERT_EQ(b.delivered.size(), 1u);
  EXPECT_EQ(b.delivered[0], "resumed");
}

TEST(Arq, RawUnicastLosesWhatArqDelivers) {
  // Negative control for DeliversExactlyOnceUnderHeavyLoss: on one lossy
  // network, the same number of plain Network::unicast messages visibly
  // lose frames while every ARQ message arrives exactly once.
  NetworkConfig cfg = quiet_config();
  cfg.drop_probability = 0.5;
  cfg.seed = 17;
  Network net(cfg);
  ArqNode a, b;
  ArqConfig acfg;
  acfg.max_retries = 20;  // see DeliversExactlyOnceUnderHeavyLoss
  a.setup(net, acfg);
  b.setup(net);
  constexpr int kMessages = 40;
  for (int i = 0; i < kMessages; ++i) {
    net.unicast(a.id(), b.id(), "ctl", to_bytes("raw-" + std::to_string(i)));
    a.arq.send(b.id(), "ctl", to_bytes("arq-" + std::to_string(i)));
  }
  net.run_until(sec(300));
  EXPECT_LT(b.raw.size(), static_cast<std::size_t>(kMessages));
  std::set<std::string> unique(b.delivered.begin(), b.delivered.end());
  EXPECT_EQ(b.delivered.size(), static_cast<std::size_t>(kMessages));
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kMessages));
}

TEST(Arq, ResetAdoptsFreshIncarnation) {
  // After a state-losing restart the sender reuses sequence numbers; the
  // new incarnation keeps the receiver from treating them as duplicates.
  Network net(quiet_config());
  ArqNode a, b;
  a.setup(net);
  b.setup(net);
  a.arq.send(b.id(), "ctl", to_bytes("before"));
  net.run_until(sec(5));
  a.arq.reset();
  a.arq.send(b.id(), "ctl", to_bytes("after"));
  net.run_until(sec(10));
  ASSERT_EQ(b.delivered.size(), 2u);
  EXPECT_EQ(b.delivered[1], "after");
}

}  // namespace
}  // namespace mykil::net
