// Simulator edge cases: stepping control, event budgets, group dynamics.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "net/network.h"

namespace mykil::net {
namespace {

class Counter : public Node {
 public:
  void on_message(const Message&) override { ++messages; }
  void on_timer(std::uint64_t) override { ++timers; }
  int messages = 0;
  int timers = 0;
};

NetworkConfig quiet() {
  NetworkConfig cfg;
  cfg.jitter = 0;
  return cfg;
}

TEST(NetworkEdge, RunHonoursEventBudget) {
  Network net(quiet());
  Counter a, b;
  net.attach(a);
  net.attach(b);
  for (int i = 0; i < 10; ++i) net.unicast(a.id(), b.id(), "t", Bytes(1, 0));
  EXPECT_EQ(net.run(4), 4u);
  EXPECT_EQ(b.messages, 4);
  EXPECT_EQ(net.run(), 6u);
  EXPECT_EQ(b.messages, 10);
}

TEST(NetworkEdge, StepReturnsFalseWhenIdle) {
  Network net(quiet());
  Counter a;
  net.attach(a);
  EXPECT_FALSE(net.step());
  EXPECT_TRUE(net.idle());
  net.set_timer(a.id(), msec(1), 0);
  EXPECT_FALSE(net.idle());
  EXPECT_TRUE(net.step());
  EXPECT_FALSE(net.step());
}

TEST(NetworkEdge, RunUntilAdvancesClockEvenWithoutEvents) {
  Network net(quiet());
  EXPECT_EQ(net.now(), 0u);
  net.run_until(sec(10));
  EXPECT_EQ(net.now(), sec(10));
}

TEST(NetworkEdge, ClockNeverMovesBackward) {
  Network net(quiet());
  Counter a;
  net.attach(a);
  net.run_until(sec(5));
  net.set_timer(a.id(), msec(1), 0);
  net.run();
  EXPECT_EQ(net.now(), sec(5) + msec(1));
}

TEST(NetworkEdge, SelfUnicastDelivers) {
  Network net(quiet());
  Counter a;
  net.attach(a);
  net.unicast(a.id(), a.id(), "self", Bytes(1, 0));
  net.run();
  EXPECT_EQ(a.messages, 1);
}

TEST(NetworkEdge, MulticastToEmptyGroupIsNoop) {
  Network net(quiet());
  Counter a;
  net.attach(a);
  GroupId g = net.create_group();
  net.multicast(a.id(), g, "mc", Bytes(10, 0));
  net.run();
  EXPECT_EQ(net.stats().recv_total().messages, 0u);
  // The send itself is still accounted (it went out on the wire).
  EXPECT_EQ(net.stats().sent_total().messages, 1u);
}

TEST(NetworkEdge, DoubleJoinGroupIsIdempotent) {
  Network net(quiet());
  Counter a, b;
  net.attach(a);
  net.attach(b);
  GroupId g = net.create_group();
  net.join_group(g, b.id());
  net.join_group(g, b.id());
  EXPECT_EQ(net.group_size(g), 1u);
  net.multicast(a.id(), g, "mc", Bytes(1, 0));
  net.run();
  EXPECT_EQ(b.messages, 1);  // exactly one delivery
}

TEST(NetworkEdge, CrashRecoverIdempotent) {
  Network net(quiet());
  Counter a;
  net.attach(a);
  net.crash(a.id());
  net.crash(a.id());  // second crash: no-op
  net.recover(a.id());
  net.recover(a.id());  // second recover: no-op
  EXPECT_TRUE(net.is_up(a.id()));
}

TEST(NetworkEdge, TimerDuringCrashSuppressedButLaterTimersFire) {
  Network net(quiet());
  Counter a;
  net.attach(a);
  net.set_timer(a.id(), msec(1), 1);
  net.crash(a.id());
  net.run();
  EXPECT_EQ(a.timers, 0);
  net.recover(a.id());
  net.set_timer(a.id(), msec(1), 2);
  net.run();
  EXPECT_EQ(a.timers, 1);
}

TEST(NetworkEdge, ZeroByteMessageDelivered) {
  Network net(quiet());
  Counter a, b;
  net.attach(a);
  net.attach(b);
  net.unicast(a.id(), b.id(), "empty", Bytes{});
  net.run();
  EXPECT_EQ(b.messages, 1);
  EXPECT_EQ(net.stats().recv_total().bytes, 0u);
}

TEST(NetworkEdge, ZeroBaseLatencyIsRejected) {
  // base_latency is the engine's lookahead; a zero-latency link could land
  // a cross-shard event inside the window that sent it.
  EXPECT_THROW({ Network net(NetworkConfig{.base_latency = 0}); }, SimError);
}

/// Probes the in-window callback rules: from a callback, timers may only be
/// set or cancelled on the callback's own shard, and nodes may not attach.
class Prober : public Node {
 public:
  void on_message(const Message&) override {
    Network& net = network();
    try {
      (void)net.set_timer(peer, msec(1), 0);
    } catch (const SimError&) {
      ++rejected_set;
    }
    try {
      net.cancel_timer(peer_timer);
    } catch (const SimError&) {
      ++rejected_cancel;
    }
    try {
      (void)net.attach(spare);
    } catch (const SimError&) {
      ++rejected_attach;
    }
    (void)net.set_timer(id(), msec(1), 7);  // own shard: allowed
  }
  void on_timer(std::uint64_t token) override { timers.push_back(token); }

  NodeId peer = kNoNode;
  Network::TimerId peer_timer = 0;
  Counter spare;
  int rejected_set = 0;
  int rejected_cancel = 0;
  int rejected_attach = 0;
  std::vector<std::uint64_t> timers;
};

TEST(NetworkEdge, CallbackExceptionReachesTheCaller) {
  struct Thrower : Node {
    void on_message(const Message&) override { throw SimError("boom"); }
  };
  for (unsigned workers : {1u, 4u}) {
    Network net(quiet());
    net.set_workers(workers);
    Thrower a, b;
    net.attach(a);
    net.attach(b);
    net.set_shard(a.id(), 1);
    net.set_shard(b.id(), 2);
    net.unicast(a.id(), a.id(), "go", Bytes(1, 0));
    net.unicast(b.id(), b.id(), "go", Bytes(1, 0));
    EXPECT_THROW(net.run(), SimError) << "workers=" << workers;
    // The driver thread is outside any callback again.
    EXPECT_NO_THROW(net.set_workers(1)) << "workers=" << workers;
  }
}

TEST(NetworkEdge, CallbackRulesAreWorkerInvariant) {
  for (unsigned workers : {1u, 4u}) {
    Network net(quiet());
    net.set_workers(workers);
    Prober a, b;
    net.attach(a);
    net.attach(b);
    net.set_shard(a.id(), 1);
    net.set_shard(b.id(), 2);
    a.peer = b.id();
    b.peer = a.id();
    a.peer_timer = net.set_timer(b.id(), msec(5), 1);
    b.peer_timer = net.set_timer(a.id(), msec(5), 2);
    // Both shards have work in the same window, so at workers=4 the two
    // callbacks may run on different threads.
    net.unicast(a.id(), a.id(), "go", Bytes(1, 0));
    net.unicast(b.id(), b.id(), "go", Bytes(1, 0));
    net.run();
    for (const Prober* p : {&a, &b}) {
      EXPECT_EQ(p->rejected_set, 1) << "workers=" << workers;
      EXPECT_EQ(p->rejected_cancel, 1) << "workers=" << workers;
      EXPECT_EQ(p->rejected_attach, 1) << "workers=" << workers;
      EXPECT_FALSE(p->spare.attached()) << "workers=" << workers;
    }
    // The rejected cancels left the driver's timers armed; the own-shard
    // timers from the callbacks fired first.
    EXPECT_EQ(a.timers, (std::vector<std::uint64_t>{7, 2})) << workers;
    EXPECT_EQ(b.timers, (std::vector<std::uint64_t>{7, 1})) << workers;
  }
}

}  // namespace
}  // namespace mykil::net
