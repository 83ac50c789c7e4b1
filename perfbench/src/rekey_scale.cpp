// rekey_scale: paper-scale LKH rekeying over the simulator, no RSA and no
// Member. 100k synthetic members in 20 areas (the bench/scale_members
// shape): each area is a hub that owns a real lkh::KeyTree, and members
// hold a real lkh::MemberKeyState that decrypts the rekeys meant for it.
// Every round, per area: one leave (rekey multicast), one fresh join into
// the vacated node (path unicast, plus a split update when the tree
// grows), and one data multicast whose every delivery re-arms an ack
// timer. Traffic carries the protocol's labels so the per-label byte
// counters line up with the protocol workloads.
#include <deque>
#include <memory>
#include <optional>

#include "bench.h"
#include "lkh/key_tree.h"
#include "lkh/member_state.h"

namespace perfbench {

namespace {

using namespace mykil;

const net::Label kRekey{"mykil-rekey"};
const net::Label kPath{"mykil-join"};
const net::Label kData{"mykil-data"};

class ScaleMember : public net::Node {
 public:
  void on_message(const net::Message& msg) override {
    if (msg.label == kRekey) {
      std::size_t n = keys.apply(lkh::RekeyMessage::deserialize(msg.payload));
      if (n > 0) ++rekeys_applied;
      entries_applied += n;
    } else if (msg.label == kPath) {
      keys.reinstall(lkh::deserialize_path(msg.payload));
    } else {
      ++data_received;
      if (timer_armed) network().cancel_timer(ack_timer);
      ack_timer = network().set_timer(id(), net::msec(1), 1);
      timer_armed = true;
    }
  }
  void on_timer(std::uint64_t) override {
    timer_armed = false;
    ++timer_fires;
  }

  lkh::MemberKeyState keys;
  std::uint64_t data_received = 0, rekeys_applied = 0, entries_applied = 0;
  std::uint64_t timer_fires = 0;
  net::Network::TimerId ack_timer = 0;
  bool timer_armed = false;
};

class AreaHub : public net::Node {
 public:
  void on_message(const net::Message&) override {}
};

struct Area {
  AreaHub hub;
  net::GroupId group = 0;
  std::unique_ptr<lkh::KeyTree> tree;
  /// (member id, slot in the member deque) per occupied position.
  std::vector<std::pair<lkh::MemberId, std::size_t>> roster;
};

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

/// Expected run digests at full size, recorded for the benchmark's default
/// and held-out seeds (README.md). Other seeds are checked for agreement
/// between reps and for the delivery invariants.
std::optional<std::uint64_t> expected_digest(std::uint64_t seed) {
  switch (seed) {
    case 1:
      return 0x000f469f51e6ecf2ull;
    case 7919:
      return 0xaa481abc58b9b717ull;
    default:
      return std::nullopt;
  }
}

}  // namespace

RepResult run_rekey_scale(const RepOptions& opt) {
  RepResult res(opt.traced);
  SpanLog& spans = res.spans;
  const std::size_t n_areas = opt.smoke ? 4 : 20;
  const std::size_t per_area = opt.smoke ? 50 : 5000;
  const std::size_t rounds = opt.smoke ? 3 : 2;

  // Both phases allocate: trees and members in set-up, messages and
  // timers in the timed phase.
  SegmentTimer setup(res.setup, Kernel::kFreshPages);
  net::Network net;  // default latency model, no loss
  std::deque<ScaleMember> members;  // stable addresses: Network keeps Node*
  std::deque<Area> areas;
  lkh::MemberId next_mid = 1;
  for (std::size_t a = 0; a < n_areas; ++a) {
    Area& area = areas.emplace_back();
    net.attach(area.hub);
    area.group = net.create_group();
    lkh::KeyTree::Config tcfg;
    tcfg.fanout = 4;
    tcfg.rekey_root_on_join = false;  // bulk load: no per-join multicast
    area.tree = std::make_unique<lkh::KeyTree>(
        tcfg, crypto::Prng(opt.seed * 1000003 + a));
    for (std::size_t m = 0; m < per_area; ++m) {
      std::size_t slot = members.size();
      ScaleMember& member = members.emplace_back();
      net.attach(member);
      net.join_group(area.group, member.id());
      lkh::MemberId mid = next_mid++;
      auto out = area.tree->join(mid);
      member.keys.install(out.member_path);
      if (out.split)
        for (auto& [rmid, rslot] : area.roster)
          if (rmid == out.split_member)
            members[rslot].keys.install(out.split_member_update);
      area.roster.emplace_back(mid, slot);
    }
    setup.cut();
  }
  // The schedule: which roster position leaves, per round and area.
  std::vector<std::size_t> victim(rounds * n_areas);
  {
    SpanLog::Scope s(spans, "workload.schedule", 0);
    crypto::Prng prng(opt.seed ^ 0x5CA1Eu);
    for (auto& v : victim) v = prng.uniform(per_area);
  }
  setup.cut();

  net.stats().reset();
  if (opt.traced) net.enable_engine_profile(true);
  std::uint64_t events = 0, queue_peak = 0;
  SegmentTimer timer(res.timed, Kernel::kFreshPages);
  for (std::size_t round = 0; round < rounds; ++round) {
    // Issue every area's traffic before draining, so the queue holds the
    // whole cross-area burst at once.
    for (std::size_t a = 0; a < n_areas; ++a) {
      Area& area = areas[a];
      const std::uint64_t op = round * n_areas + a + 1;
      auto& [victim_mid, victim_slot] = area.roster[victim[op - 1]];
      ScaleMember& leaver = members[victim_slot];
      net.leave_group(area.group, leaver.id());
      leaver.keys.clear();
      Bytes rekey;
      {
        SpanLog::Scope s(spans, "lkh.rekey_build", op);
        rekey = area.tree->leave(victim_mid).serialize();
      }
      net.multicast(area.hub.id(), area.group, kRekey, std::move(rekey));

      lkh::KeyTree::JoinOutcome out;
      {
        SpanLog::Scope s(spans, "lkh.rekey_build", op);
        out = area.tree->join(next_mid);
      }
      net.join_group(area.group, leaver.id());
      net.unicast(area.hub.id(), leaver.id(), kPath,
                  lkh::serialize_path(out.member_path));
      if (out.split)
        for (auto& [rmid, rslot] : area.roster)
          if (rmid == out.split_member)
            net.unicast(area.hub.id(), members[rslot].id(), kPath,
                        lkh::serialize_path(out.split_member_update));
      victim_mid = next_mid++;

      net.multicast(area.hub.id(), area.group, kData,
                    Bytes(256, static_cast<std::uint8_t>(round)));
    }
    // Drain in 25 us slices of virtual time (the round spans about
    // 1.3 ms); each slice is one timing segment.
    queue_peak = std::max<std::uint64_t>(queue_peak, net.queued_events());
    while (!net.idle()) {
      {
        SpanLog::Scope s(spans, "net.run_until", round + 1);
        events += net.run_until(net.now() + net::usec(25));
      }
      timer.cut();
    }
  }

  // ---- checks ----
  const std::uint64_t total = n_areas * per_area;
  std::uint64_t in_sync = 0, data = 0, fires = 0, entries = 0;
  for (Area& area : areas)
    for (auto& [mid, slot] : area.roster)
      if (members[slot].keys.has_group_key() &&
          members[slot].keys.group_key() == area.tree->root_key())
        ++in_sync;
  std::uint64_t digest = 14695981039346656037ull;
  for (const ScaleMember& m : members) {
    digest = fold(digest, m.data_received);
    digest = fold(digest, m.rekeys_applied);
    digest = fold(digest, m.entries_applied);
    digest = fold(digest, m.timer_fires);
    data += m.data_received;
    fires += m.timer_fires;
    entries += m.entries_applied;
  }
  const net::NetStats& st = net.stats();
  digest = fold(digest, st.sent_total().messages);
  digest = fold(digest, st.sent_total().bytes);
  digest = fold(digest, st.recv_total().messages);
  digest = fold(digest, st.recv_total().bytes);

  res.attempted = total + 3;  // a key check per member, 3 run-level checks
  if (in_sync != total)
    res.fail("member key differs from its area's root key", total - in_sync);
  if (data != rounds * total || fires != rounds * total)
    res.fail("data deliveries or ack timers differ from one per member per round");
  if (net.queued_events() != 0 || net.cancelled_timers_pending() != 0)
    res.fail("events left in the queue after the run");
  if (auto want = expected_digest(opt.seed); want && !opt.smoke &&
                                             *want != digest)
    res.fail("run digest differs from the recorded digest");

  res.work = static_cast<double>(events);
  res.net_bytes = static_cast<double>(st.sent_total().bytes);
  res.det["net.events"] = static_cast<double>(events);
  res.det["net.bytes_sent"] = res.net_bytes;
  res.det["net.bytes.mykil-rekey"] =
      static_cast<double>(st.sent_by_label("mykil-rekey").bytes);
  res.det["lkh.entries_applied"] = static_cast<double>(entries);
  // The digest as two exact 32-bit halves (a double holds 53 bits).
  res.det["digest.hi"] = static_cast<double>(digest >> 32);
  res.det["digest.lo"] = static_cast<double>(digest & 0xFFFFFFFFu);

  if (opt.traced) {
    auto& L = res.layer;
    fill_net_layer(net, L);
    L["net.run_until.ms"] = spans.total_ms("net.run_until");
    L["net.run_until.calls"] =
        static_cast<double>(spans.total_count("net.run_until"));
    L["net.events"] = static_cast<double>(events);
    L["net.queue_peak"] = static_cast<double>(queue_peak);
    L["lkh.rekey_build.ms"] = spans.total_ms("lkh.rekey_build");
    L["lkh.rekey_build.count"] =
        static_cast<double>(spans.total_count("lkh.rekey_build"));
    L["lkh.entries_applied"] = static_cast<double>(entries);
  }
  return res;
}

}  // namespace perfbench
