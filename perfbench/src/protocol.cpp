// The three workloads that run the real Mykil protocol: churn, data_fanout
// and failover. Each builds a MykilGroup (RS + root area + 3 child areas)
// with real RSA-768 members, then drives it only through public calls:
// Member::join/rejoin/leave/send_data, Network::run_until/crash/recover,
// and read-only introspection for completion and the output checks.
#include <algorithm>
#include <memory>
#include <optional>

#include "bench.h"
#include "crypto/sealed.h"
#include "mykil/group.h"
#include "obs/metrics.h"
#include "workload/churn.h"

namespace perfbench {

namespace {

using namespace mykil;
using core::AreaController;
using core::Member;

constexpr net::SimDuration kAuthorized = net::sec(360000);
constexpr std::size_t kAreas = 4;  // a root area and three children
constexpr std::size_t kDataPayload = 64;  // churn and failover data sends

double to_ms(net::SimDuration d) { return static_cast<double>(d) / 1000.0; }

/// Client operations of the churn and failover schedules.
enum class Op { kJoin, kRejoin, kLeave, kData, kMove };

struct Scheduled {
  net::SimTime at = 0;
  Op op = Op::kData;
};

/// Exactly `n` operations at Poisson arrival times of `rate` per second
/// (workload::ChurnSchedule), whose kinds follow `block` shuffled anew
/// for every run of block.size() arrivals. The blocks keep the mix and
/// the joined population the same for every seed: with independent
/// Poisson streams per kind, the population random-walks and the work
/// per operation varies several-fold between seeds.
std::vector<Scheduled> make_schedule(std::uint64_t seed, double rate,
                                     std::size_t n,
                                     const std::vector<Op>& block) {
  crypto::Prng prng(seed);
  const auto horizon = static_cast<net::SimDuration>(2.0 * n / rate * 1e6);
  workload::ChurnSchedule arrivals =
      workload::ChurnSchedule::poisson(horizon, rate, 0, 0, 0, prng);
  std::vector<Scheduled> out;
  std::vector<Op> kinds;
  for (const workload::Event& ev : arrivals.events()) {
    if (out.size() == n) break;
    if (kinds.empty()) {
      kinds = block;
      for (std::size_t k = kinds.size(); k > 1; --k)
        std::swap(kinds[k - 1], kinds[prng.uniform(k)]);
    }
    out.push_back({ev.at, kinds.back()});
    kinds.pop_back();
  }
  return out;
}

struct Deployment {
  std::unique_ptr<net::Network> net;
  std::unique_ptr<core::MykilGroup> group;
  std::vector<std::unique_ptr<Member>> members;
  obs::MetricsRegistry metrics;  // attached in traced reps only
};

struct BuildSpec {
  unsigned workers = 1;
  bool backups = false;
  std::size_t pool = 0;     ///< members created (keypairs generated)
  std::size_t prejoin = 0;  ///< of which joined during set-up
};

/// Set-up: group and area keygen, member keygen, pre-joins. Every keypair
/// is a pure function of the seed and construction order. `timer` is cut
/// at fixed points: after each area, each member and every 2 pre-joins.
void build(Deployment& d, const RepOptions& opt, const BuildSpec& spec,
           RepResult& res, SegmentTimer& timer) {
  SpanLog& spans = res.spans;
  net::NetworkConfig ncfg;
  ncfg.seed = opt.seed;
  d.net = std::make_unique<net::Network>(ncfg);
  if (opt.traced) d.net->set_metrics(&d.metrics);

  core::GroupOptions gopt;
  gopt.seed = opt.seed;
  gopt.workers = spec.workers;
  gopt.with_backups = spec.backups;
  const std::uint64_t per_area = spec.backups ? 2 : 1;
  {
    SpanLog::Scope s(spans, "crypto.keygen", 0, 1);
    d.group = std::make_unique<core::MykilGroup>(*d.net, gopt);
  }
  for (std::size_t a = 0; a < kAreas; ++a) {
    {
      SpanLog::Scope s(spans, "crypto.keygen", 0, per_area);
      if (a == 0) {
        d.group->add_area();
      } else {
        d.group->add_area(0);
      }
    }
    timer.cut();
  }
  {
    SpanLog::Scope s(spans, "setup.finalize", 0);
    d.group->finalize();
  }
  for (std::size_t i = 0; i < spec.pool; ++i) {
    {
      SpanLog::Scope s(spans, "crypto.keygen", 0, 1);
      d.members.push_back(d.group->make_member(i + 1, kAuthorized));
    }
    timer.cut();
  }
  for (std::size_t i = 0; i < spec.prejoin; ++i) {
    {
      SpanLog::Scope s(spans, "setup.prejoin", 0);
      d.members[i]->join(d.group->rs().id(), kAuthorized);
      d.net->run_until(d.net->now() + net::msec(20));
    }
    if (i % 2 == 1) timer.cut();
  }
  {
    // Past one batching interval, so the joins' rekeys are all sent.
    SpanLog::Scope s(spans, "setup.settle", 0);
    d.group->settle(net::sec(6));
  }
  for (std::size_t i = 0; i < spec.prejoin; ++i)
    if (!d.members[i]->joined()) res.fail("pre-join did not complete");
}

/// The controller acting as primary for area `a`, or nullptr.
AreaController* acting_primary(core::MykilGroup& g, std::size_t a) {
  if (g.ac(a).role() == AreaController::Role::kPrimary) return &g.ac(a);
  AreaController* b = g.backup(a);
  if (b != nullptr && b->role() == AreaController::Role::kPrimary) return b;
  return nullptr;
}

/// Counters read from every entity; the timed phase reports deltas.
struct Totals {
  std::uint64_t key_recoveries = 0, entries_applied = 0, undecryptable = 0;
  std::map<std::size_t, std::uint64_t> received;  ///< per payload size
  net::ArqStats arq;
  AreaController::Counters ac;
  crypto::PkOpCounts pk;
};

void add_arq(net::ArqStats& t, const net::ArqStats& s) {
  t.data_sent += s.data_sent;
  t.retransmits += s.retransmits;
  t.give_ups += s.give_ups;
}

void add_ac(AreaController::Counters& t, const AreaController& ac) {
  const AreaController::Counters& c = ac.counters();
  t.joins += c.joins;
  t.rejoins += c.rejoins;
  t.rekey_multicasts += c.rekey_multicasts;
  t.data_forwards += c.data_forwards;
  t.takeovers += c.takeovers;
  t.evictions += c.evictions;
}

Totals totals(Deployment& d) {
  Totals t;
  for (const auto& m : d.members) {
    t.key_recoveries += m->key_recoveries();
    t.entries_applied += m->rekey_entries_applied();
    t.undecryptable += m->undecryptable_count();
    for (const Bytes& b : m->received_data()) ++t.received[b.size()];
    add_arq(t.arq, m->arq().stats());
  }
  for (std::size_t a = 0; a < d.group->area_count(); ++a) {
    add_arq(t.arq, d.group->ac(a).arq().stats());
    add_ac(t.ac, d.group->ac(a));
    if (AreaController* b = d.group->backup(a)) {
      add_arq(t.arq, b->arq().stats());
      add_ac(t.ac, *b);
    }
  }
  t.pk = crypto::pk_op_counts();
  return t;
}

/// Timed-phase bookkeeping shared by the three workloads.
class Phase {
 public:
  Phase(Deployment& d, const RepOptions& opt, RepResult& res, Kernel kernel)
      : d_(d), opt_(opt), res_(res), base_(totals(d)),
        timer_(res.timed, kernel) {
    d_.net->stats().reset();
    if (opt_.traced) d_.net->enable_engine_profile(true);
  }

  void run_until(net::SimTime t, std::uint64_t op) {
    queue_peak_ = std::max<std::uint64_t>(queue_peak_, d_.net->queued_events());
    SpanLog::Scope s(res_.spans, "net.run_until", op);
    events_ += d_.net->run_until(t);
  }

  /// End a timing segment here.
  void segment() { timer_.cut(); }

  /// Stop the clock and record what every workload reports.
  void finish() {
    segment();
    const Totals end = totals(d_);
    const net::NetStats& st = d_.net->stats();
    res_.net_bytes = static_cast<double>(st.sent_total().bytes);
    auto& det = res_.det;
    det["net.events"] = static_cast<double>(events_);
    det["net.bytes_sent"] = res_.net_bytes;
    det["net.bytes.mykil-rekey"] =
        static_cast<double>(st.sent_by_label("mykil-rekey").bytes);
    det["mykil.key_recoveries"] =
        static_cast<double>(end.key_recoveries - base_.key_recoveries);
    det["mykil.data.undecryptable"] =
        static_cast<double>(end.undecryptable - base_.undecryptable);
    double opened = 0;
    for (auto [size, n] : end.received) {
      auto it = base_.received.find(size);
      n -= it == base_.received.end() ? 0 : it->second;
      if (n > 0) res_.opened[size] = n;
      opened += static_cast<double>(n);
    }
    det["crypto.pk_encrypt.count"] =
        static_cast<double>(end.pk.encrypts - base_.pk.encrypts);
    det["crypto.pk_decrypt.count"] =
        static_cast<double>(end.pk.decrypts - base_.pk.decrypts);
    det["crypto.rsa_sign.count"] =
        static_cast<double>(end.pk.signs - base_.pk.signs);
    det["crypto.rsa_verify.count"] =
        static_cast<double>(end.pk.verifies - base_.pk.verifies);
    det["arq.retransmits"] =
        static_cast<double>(end.arq.retransmits - base_.arq.retransmits);

    if (!opt_.traced) return;
    auto& L = res_.layer;
    fill_net_layer(*d_.net, L);
    L["net.run_until.ms"] = res_.spans.total_ms("net.run_until");
    L["net.run_until.calls"] =
        static_cast<double>(res_.spans.total_count("net.run_until"));
    L["net.events"] = static_cast<double>(events_);
    L["net.queue_peak"] = static_cast<double>(queue_peak_);
    const double sent = static_cast<double>(end.arq.data_sent - base_.arq.data_sent);
    const double retx = det["arq.retransmits"];
    L["arq.data_sent"] = sent;
    L["arq.retransmits"] = retx;
    L["arq.give_ups"] =
        static_cast<double>(end.arq.give_ups - base_.arq.give_ups);
    L["arq.retransmit_ratio"] = sent > 0 ? retx / sent : 0;
    L["lkh.entries_applied"] =
        static_cast<double>(end.entries_applied - base_.entries_applied);
    L["mykil.client_calls.ms"] = res_.spans.total_ms("mykil.client_call");
    L["mykil.joins_completed"] =
        static_cast<double>(end.ac.joins - base_.ac.joins);
    L["mykil.rejoins_completed"] =
        static_cast<double>(end.ac.rejoins - base_.ac.rejoins);
    L["mykil.rekey_multicasts"] =
        static_cast<double>(end.ac.rekey_multicasts - base_.ac.rekey_multicasts);
    L["mykil.data_forwards"] =
        static_cast<double>(end.ac.data_forwards - base_.ac.data_forwards);
    L["mykil.takeovers"] =
        static_cast<double>(end.ac.takeovers - base_.ac.takeovers);
    L["mykil.evictions"] =
        static_cast<double>(end.ac.evictions - base_.ac.evictions);
    L["mykil.key_recoveries"] = det["mykil.key_recoveries"];
    const double bad = det["mykil.data.undecryptable"];
    L["mykil.data.undecryptable"] = bad;
    L["mykil.data.useful_ratio"] =
        opened + bad > 0 ? opened / (opened + bad) : 0;
    auto counter = [&](const char* name) {
      const obs::Counter* c = d_.metrics.find_counter(name);
      return c == nullptr ? 0.0 : static_cast<double>(c->value());
    };
    L["member.key_recovery_requests"] = counter("member.key_recovery_requests");
    L["ac.key_recovery_rate_limited"] = counter("ac.key_recovery_rate_limited");
  }

 private:
  Deployment& d_;
  const RepOptions& opt_;
  RepResult& res_;
  Totals base_;
  SegmentTimer timer_;
  std::uint64_t events_ = 0;
  std::uint64_t queue_peak_ = 0;
};

/// Issues membership operations to idle members and detects completion
/// from outside: an op is complete when the member is joined under a
/// ticket different from the one it held when the op was issued (every
/// join and rejoin issues a fresh ticket).
class OpClient {
 public:
  OpClient(Deployment& d, std::uint64_t seed, SpanLog& spans)
      : d_(d), prng_(seed), spans_(spans), busy_(d.members.size(), false) {}

  void issue(Op kind, std::uint64_t op) {
    switch (kind) {
      case Op::kRejoin:
        // A departed member returns by ticket at its old area.
        if (auto i = pick([](const Member& m) {
              return !m.joined() && !m.sealed_ticket().empty();
            })) {
          Member& m = *d_.members[*i];
          start(*i, Op::kRejoin);
          SpanLog::Scope s(spans_, "mykil.client_call", op);
          m.rejoin(m.current_ac());
          return;
        }
        [[fallthrough]];  // nobody has departed yet: register instead
      case Op::kJoin: {
        // A pool member registers (again) through the RS: all 7 steps.
        if (auto i = pick([](const Member& m) { return !m.joined(); })) {
          start(*i, Op::kJoin);
          SpanLog::Scope s(spans_, "mykil.client_call", op);
          d_.members[*i]->join(d_.group->rs().id(), kAuthorized);
        }
        return;
      }
      case Op::kLeave: {
        if (joined_count() <= leave_floor) return;
        if (auto i = pick([](const Member& m) { return m.joined(); })) {
          SpanLog::Scope s(spans_, "mykil.client_call", op);
          d_.members[*i]->leave();
          ++leaves;
          ++attempted;
          ++completed;
        }
        return;
      }
      case Op::kData: {
        if (auto i = pick([](const Member& m) { return m.joined(); })) {
          Bytes payload = prng_.bytes(kDataPayload);
          SpanLog::Scope s(spans_, "mykil.client_call", op);
          d_.members[*i]->send_data(payload);
          ++data_sent;
        }
        return;
      }
      case Op::kMove: {
        if (auto i = pick([](const Member& m) { return m.joined(); })) {
          Member& m = *d_.members[*i];
          const std::size_t areas = d_.group->area_count();
          std::size_t a = prng_.uniform(areas);
          if (d_.group->ac(a).ac_id() == m.current_ac()) a = (a + 1) % areas;
          start(*i, Op::kMove);
          // A handoff: leave the old area, then present the ticket at the
          // new one. The old AC answers the new one's cohort check (rejoin
          // steps 4-5) with "gone"; a member still heard by its old AC is
          // refused for 5 x T_active as a suspected ticket-sharing cohort.
          SpanLog::Scope s(spans_, "mykil.client_call", op);
          m.leave();
          m.rejoin(d_.group->ac(a).ac_id());
        }
        return;
      }
    }
  }

  void poll() {
    for (auto it = pending_.begin(); it != pending_.end();) {
      const Member& m = *d_.members[it->member];
      if (!m.joined() || m.sealed_ticket() == it->ticket) {
        ++it;
        continue;
      }
      if (it->kind == Op::kJoin) {
        join_ms.push_back(to_ms(m.last_join_latency().value_or(0)));
      } else {
        rejoin_ms.push_back(to_ms(m.last_rejoin_latency().value_or(0)));
      }
      ++completed;
      busy_[it->member] = false;
      it = pending_.erase(it);
    }
  }

  /// Ops still outstanding, as "join"/"rejoin"/"move" per op.
  [[nodiscard]] std::vector<std::string> pending() const {
    std::vector<std::string> out;
    for (const Pending& p : pending_)
      out.push_back(p.kind == Op::kJoin     ? "join"
                    : p.kind == Op::kRejoin ? "rejoin"
                                              : "move");
    return out;
  }

  std::size_t leave_floor = 0;
  std::uint64_t joins = 0, rejoins = 0, moves = 0, leaves = 0, data_sent = 0;
  std::uint64_t attempted = 0, completed = 0;
  std::vector<double> join_ms, rejoin_ms;

 private:
  struct Pending {
    std::size_t member;
    Op kind;  // kJoin, kRejoin or kMove
    Bytes ticket;
  };

  template <typename Pred>
  std::optional<std::size_t> pick(Pred pred) {
    const std::size_t n = d_.members.size();
    const std::size_t start = prng_.uniform(n);
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t i = (start + k) % n;
      if (!busy_[i] && pred(*d_.members[i])) return i;
    }
    return std::nullopt;
  }

  void start(std::size_t i, Op kind) {
    busy_[i] = true;
    pending_.push_back({i, kind, d_.members[i]->sealed_ticket()});
    ++attempted;
    if (kind == Op::kJoin) ++joins;
    if (kind == Op::kRejoin) ++rejoins;
    if (kind == Op::kMove) ++moves;
  }

  std::size_t joined_count() const {
    std::size_t n = 0;
    for (const auto& m : d_.members) n += m->joined() ? 1 : 0;
    return n;
  }

  Deployment& d_;
  crypto::Prng prng_;
  SpanLog& spans_;
  std::vector<bool> busy_;
  std::vector<Pending> pending_;
};

/// Output check: every joined member holds its area's current group key.
void check_keys(Deployment& d, RepResult& res) {
  for (const auto& m : d.members) {
    if (!m->joined()) continue;
    ++res.attempted;
    AreaController* ac = nullptr;
    for (std::size_t a = 0; a < d.group->area_count(); ++a)
      if (d.group->ac(a).ac_id() == m->current_ac())
        ac = acting_primary(*d.group, a);
    if (ac == nullptr || !m->keys().has_group_key() ||
        !(m->keys().group_key() == ac->tree().root_key()))
      res.fail("joined member's group key differs from its AC's root key");
  }
}

/// Membership-op results shared by churn and failover.
void record_ops(const OpClient& ops, RepResult& res) {
  // Data sends are not counted: no check can fail one.
  res.attempted += ops.attempted;
  for (const std::string& kind : ops.pending())
    res.fail(kind + " issued but never completed");
  res.work = static_cast<double>(ops.completed);
  auto& det = res.det;
  det["ops.joins"] = static_cast<double>(ops.joins);
  det["ops.rejoins"] = static_cast<double>(ops.rejoins);
  det["ops.moves"] = static_cast<double>(ops.moves);
  det["ops.leaves"] = static_cast<double>(ops.leaves);
  det["ops.data_sent"] = static_cast<double>(ops.data_sent);
  det["ops.completed"] = static_cast<double>(ops.completed);
  res.samples["join_latency"] = ops.join_ms;
  res.samples["rejoin_latency"] = ops.rejoin_ms;
}

}  // namespace

RepResult run_churn(const RepOptions& opt) {
  RepResult res(opt.traced);
  SpanLog& spans = res.spans;
  const BuildSpec spec{1, false, opt.smoke ? 24u : 80u, opt.smoke ? 16u : 56u};
  // Per second: 2 joins, 2 ticket rejoins, 4 leaves, 2 data, 1 move.
  const std::vector<Op> block{Op::kJoin,  Op::kJoin,  Op::kRejoin, Op::kRejoin,
                              Op::kLeave, Op::kLeave, Op::kLeave,  Op::kLeave,
                              Op::kData,  Op::kData,  Op::kMove};
  const std::size_t n_ops = opt.smoke ? 110 : 2420;

  Deployment d;
  SegmentTimer setup(res.setup, Kernel::kProducts);  // keygen
  build(d, opt, spec, res, setup);
  std::vector<Scheduled> schedule;
  {
    SpanLog::Scope s(spans, "workload.schedule", 0);
    schedule = make_schedule(opt.seed ^ 0xC4u, 11.0, n_ops, block);
  }
  setup.cut();

  OpClient ops(d, opt.seed ^ 0x0B5u, spans);
  ops.leave_floor = spec.prejoin / 2;
  Phase phase(d, opt, res, Kernel::kProducts);  // RSA-bound
  const net::SimTime base = d.net->now();
  std::uint64_t op = 1;
  for (const Scheduled& ev : schedule) {
    phase.run_until(base + ev.at, op);
    ops.poll();
    ops.issue(ev.op, op);
    if (op++ % 10 == 0) phase.segment();
  }
  // Tail: past one batching interval, so every pending rekey is flushed.
  for (int i = 0; i < 16; ++i) {
    phase.run_until(d.net->now() + net::msec(500), op);
    ops.poll();
  }
  phase.finish();

  record_ops(ops, res);
  check_keys(d, res);
  return res;
}

RepResult run_data_fanout(const RepOptions& opt) {
  RepResult res(opt.traced);
  SpanLog& spans = res.spans;
  const BuildSpec spec{1, false, opt.smoke ? 16u : 100u, opt.smoke ? 16u : 100u};
  const std::size_t packets = opt.smoke ? 40 : 1500;

  Deployment d;
  SegmentTimer setup(res.setup, Kernel::kProducts);  // keygen
  build(d, opt, spec, res, setup);
  // The plan: sender and payload of every packet. The sizes are a
  // synthetic mix, not a traffic model: a quarter each of the four
  // calibrated sizes (64 B, 256 B, 1 KiB, 4 KiB). Every seed sends exactly
  // this mix, in its own order, so the bytes delivered do not vary with
  // the seed.
  std::vector<std::size_t> sender(packets);
  std::vector<Bytes> payload(packets);
  {
    SpanLog::Scope s(spans, "workload.schedule", 0);
    crypto::Prng prng(opt.seed ^ 0xDA7Au);
    const std::vector<std::size_t>& mix = payload_sizes();
    std::vector<std::size_t> sizes(packets);
    for (std::size_t k = 0; k < packets; ++k) sizes[k] = mix[k % mix.size()];
    for (std::size_t k = packets; k > 1; --k)
      std::swap(sizes[k - 1], sizes[prng.uniform(k)]);
    for (std::size_t k = 0; k < packets; ++k) {
      sender[k] = prng.uniform(spec.pool);
      payload[k] = prng.bytes(sizes[k]);
    }
  }
  setup.cut();

  // Every delivery allocates and fills a stored payload copy.
  Phase phase(d, opt, res, Kernel::kFreshPages);
  for (std::size_t k = 0; k < packets; ++k) {
    {
      SpanLog::Scope s(spans, "mykil.client_call", k + 1);
      d.members[sender[k]]->send_data(payload[k]);
    }
    // Two packets per millisecond of virtual time: several multicasts are
    // in flight at once across the four areas.
    if (k % 2 == 1) phase.run_until(d.net->now() + net::msec(1), k + 1);
    if (k % 20 == 19) phase.segment();
  }
  phase.run_until(d.net->now() + net::msec(500), packets + 1);
  phase.finish();

  // Each receiver must hold every packet another member sent: compare the
  // count and the order-independent hash of the decrypted payloads.
  std::uint64_t all_hash = 0, all_count = packets;
  for (const Bytes& p : payload) all_hash += fnv1a(p);
  std::vector<std::uint64_t> own_hash(spec.pool, 0), own_count(spec.pool, 0);
  for (std::size_t k = 0; k < packets; ++k) {
    own_hash[sender[k]] += fnv1a(payload[k]);
    ++own_count[sender[k]];
  }
  double delivered = 0, bytes = 0;
  for (std::size_t i = 0; i < spec.pool; ++i) {
    const auto& got = d.members[i]->received_data();
    const std::uint64_t want = all_count - own_count[i];
    res.attempted += want;
    std::uint64_t h = 0;
    for (const Bytes& b : got) {
      h += fnv1a(b);
      bytes += static_cast<double>(b.size());
    }
    delivered += static_cast<double>(got.size());
    if (got.size() != want || h != all_hash - own_hash[i])
      res.fail("receiver did not decrypt every packet to the sent bytes",
               want > got.size() ? want - got.size() : 1);
  }
  res.work = delivered;
  res.det["data.packets"] = static_cast<double>(packets);
  res.det["data.deliveries"] = delivered;
  res.det["data.payload_bytes"] = bytes;
  return res;
}

RepResult run_failover(const RepOptions& opt) {
  RepResult res(opt.traced);
  SpanLog& spans = res.spans;
  const BuildSpec spec{1, true, opt.smoke ? 16u : 40u, opt.smoke ? 12u : 32u};
  // One primary crash every 2.5 s, rotating over the areas; each crashed
  // controller stays down 5 s (past the 3-heartbeat takeover horizon) and
  // its area is next hit 10 s after the last crash.
  const std::size_t crashes = opt.smoke ? 6 : 110;
  const net::SimDuration crash_gap = net::msec(2500);
  const net::SimDuration outage = net::sec(5);
  const net::SimDuration duration = crash_gap * (crashes + 1);

  Deployment d;
  SegmentTimer setup(res.setup, Kernel::kProducts);  // keygen
  build(d, opt, spec, res, setup);
  // Per 8 s on average: a join, a ticket rejoin, 2 leaves, 3 data and a
  // move, spread over the whole crash schedule.
  const std::vector<Op> block{Op::kJoin,  Op::kRejoin, Op::kLeave, Op::kLeave,
                              Op::kData,  Op::kData,   Op::kData,  Op::kMove};
  const double rate = 1.0;
  const auto n_ops = static_cast<std::size_t>(
      rate * static_cast<double>(duration) / 1e6);
  std::vector<Scheduled> schedule;
  {
    SpanLog::Scope s(spans, "workload.schedule", 0);
    schedule = make_schedule(opt.seed ^ 0xFA11u, rate, n_ops, block);
  }
  setup.cut();

  // Actions in time order: churn events, then crashes and recoveries.
  struct Action {
    net::SimTime at;
    int kind;  // 0 churn event, 1 crash, 2 recover
    std::size_t index;
  };
  std::vector<Action> actions;
  for (std::size_t i = 0; i < schedule.size(); ++i)
    actions.push_back({schedule[i].at, 0, i});
  for (std::size_t k = 0; k < crashes; ++k) {
    actions.push_back({crash_gap * (k + 1), 1, k});
    actions.push_back({crash_gap * (k + 1) + outage, 2, k});
  }
  std::stable_sort(actions.begin(), actions.end(),
                   [](const Action& a, const Action& b) { return a.at < b.at; });

  struct Outage {
    AreaController* down = nullptr;
    AreaController* standby = nullptr;
    net::SimTime crashed_at = 0;
    bool taken_over = false;
  };
  std::vector<Outage> outages(crashes);
  std::vector<double> takeover_ms;
  std::size_t awaiting = 0;

  OpClient ops(d, opt.seed ^ 0x0B5u, spans);
  ops.leave_floor = spec.prejoin / 2;
  Phase phase(d, opt, res, Kernel::kProducts);  // RSA-bound
  d.net->set_drop_probability(0.01);
  const net::SimTime base = d.net->now();
  auto poll = [&] {
    ops.poll();
    for (Outage& o : outages) {
      if (o.down == nullptr || o.taken_over) continue;
      if (o.standby->role() == AreaController::Role::kPrimary) {
        o.taken_over = true;
        --awaiting;
        takeover_ms.push_back(to_ms(d.net->now() - o.crashed_at));
      }
    }
  };
  std::uint64_t op = 1;
  std::size_t done = 0;
  for (const Action& act : actions) {
    if (++done % 8 == 0) phase.segment();
    // Poll the standbys every 10 ms of virtual time while a takeover is
    // outstanding: the time without service is read from outside.
    const net::SimTime target = base + act.at;
    while (d.net->now() < target) {
      net::SimTime step = awaiting > 0
                              ? std::min(target, d.net->now() + net::msec(10))
                              : target;
      phase.run_until(step, op);
      poll();
    }
    if (act.kind == 0) {
      ops.issue(schedule[act.index].op, op++);
      continue;
    }
    Outage& o = outages[act.index];
    const std::size_t area = act.index % kAreas;
    if (act.kind == 1) {
      AreaController* p = acting_primary(*d.group, area);
      if (p == nullptr) {
        res.fail("area without an acting primary at crash time");
        continue;
      }
      AreaController* other = p == &d.group->ac(area) ? d.group->backup(area)
                                                       : &d.group->ac(area);
      ++res.attempted;
      o = {p, other, d.net->now(), false};
      ++awaiting;
      d.net->crash(p->id());
    } else if (o.down != nullptr) {
      if (!o.taken_over) {
        res.fail("standby did not take over within the outage");
        o.taken_over = true;
        --awaiting;
      }
      d.net->recover(o.down->id());
    }
  }
  // Quiesce: loss off, every controller up, repair to a fixed point.
  d.net->set_drop_probability(0.0);
  for (int i = 0; i < 30; ++i) {
    phase.run_until(d.net->now() + net::msec(500), op);
    poll();
  }
  phase.finish();

  record_ops(ops, res);
  for (std::size_t a = 0; a < d.group->area_count(); ++a) {
    ++res.attempted;
    int primaries = d.group->ac(a).role() == AreaController::Role::kPrimary;
    primaries += d.group->backup(a)->role() == AreaController::Role::kPrimary;
    if (primaries != 1) res.fail("area without exactly one acting primary");
  }
  check_keys(d, res);
  res.samples["takeover"] = std::move(takeover_ms);
  return res;
}

}  // namespace perfbench
