// Paper-scale simulator benchmark: up to 1,000,000 members under churn +
// rekey + data fan-out (Section V sizes Mykil areas at ~5,000 members; the
// figure benches top out far below this without the zero-copy fan-out,
// slab scheduler, and sharded parallel engine, DESIGN.md 10-11).
//
// Each area is a lightweight hub driving a REAL KeyTree over REAL sealed
// rekey ciphertext; members hold real MemberKeyState and decrypt what is
// theirs. Only the RSA handshakes of the full protocol are elided (200ms of
// keygen per member makes 100k infeasible and measures crypto, not the
// simulator). Every measured round, per area: one leave (rekey multicast to
// the area), one rejoin (path unicast), one data multicast, and an
// ack-delay timer set/cancel per data delivery — the ARQ-shaped churn that
// used to leak cancellation bookkeeping.
//
// --workers sweeps the parallel engine: the WHOLE benchmark (setup + all
// rounds) reruns per worker count, each run folds every member's observed
// deliveries into a digest in node order, and the digests must be
// bit-identical across the sweep — the throughput comparison is only
// meaningful because the work is provably the same work.
//
// Reported per worker count: events/sec through the scheduler, wall-clock,
// peak RSS, fan-out bytes physically copied vs. copy-per-receiver, and the
// run digest. Appends one JSON object per run to BENCH_sim.json (JSONL —
// see bench_util.h).
//
// --trace reruns every worker count with a Tracer attached and the rejoin
// path exchange carrying causal trace context: the traced digest must be
// bit-identical to the untraced one (trace ids come from deterministic
// counters that feed nothing else), and the wall-clock delta is appended
// as a scale_members_trace_overhead row. --engine-profile collects the
// parallel engine's per-shard accounting (busy/stall wall time, events
// per window, cross-shard send matrix) into the JSON row.
//
// --shards caps how many shards the areas spread over (default: one shard
// per area, the legacy layout); fewer shards than workers is a
// configuration error the sweep will show as zero speedup, not a crash.
//
//   scale_members [--members=100000] [--areas=20] [--rounds=10]
//                 [--workers=1,2,8] [--shards=0]
//                 [--smoke] [--trace] [--engine-profile]
//                 [--json_out=BENCH_sim.json]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "lkh/key_tree.h"
#include "lkh/member_state.h"
#include "net/network.h"
#include "obs/trace.h"

namespace {

using namespace mykil;

const net::Label kRekeyLabel{"scale-rekey"};
const net::Label kPathLabel{"scale-path"};    // authoritative rejoin path
const net::Label kSplitLabel{"scale-split"};  // partial path after a split
const net::Label kDataLabel{"scale-data"};

/// A member at benchmark scale: real key state, real decryption, plus the
/// ack-delay timer churn that stresses cancellation bookkeeping.
class ScaleMember : public net::Node {
 public:
  void on_message(const net::Message& msg) override {
    if (msg.label == kRekeyLabel) {
      lkh::RekeyMessage rk = lkh::RekeyMessage::deserialize(msg.payload);
      std::size_t n = keys.apply(rk);
      if (n > 0) {
        ++rekeys_applied;
        entries_applied += n;
      }
    } else if (msg.label == kPathLabel) {
      keys.reinstall(lkh::deserialize_path(msg.payload));
      // Close the rejoin-path flow the driver opened: with --trace every
      // path install draws one cross-node arrow in the exported trace.
      if (auto* t = network().tracer()) {
        net::TraceContext ctx = network().current_trace();
        if (ctx.active())
          t->flow_end(obs::EventKind::kFlow, ctx.trace_id, id(),
                      network().now(), msg.label);
      }
    } else if (msg.label == kSplitLabel) {
      keys.install(lkh::deserialize_path(msg.payload));
    } else {  // data
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
  std::uint64_t data_received = 0;
  std::uint64_t rekeys_applied = 0;
  std::uint64_t entries_applied = 0;
  std::uint64_t timer_fires = 0;
  net::Network::TimerId ack_timer = 0;
  bool timer_armed = false;
};

/// Area controller stand-in: owns the key tree and the multicast group.
class AreaHub : public net::Node {
 public:
  void on_message(const net::Message&) override {}
};

struct Area {
  AreaHub hub;
  net::GroupId group = 0;
  std::unique_ptr<lkh::KeyTree> tree;
  /// Current (member id, member slot) roster; slot indexes `members`.
  std::vector<std::pair<lkh::MemberId, std::size_t>> roster;
};

struct Options {
  std::size_t members = 100000;
  std::size_t areas = 20;
  std::size_t rounds = 10;
  std::vector<unsigned> workers{1};
  std::size_t shards = 0;     ///< 0 = one shard per area (legacy layout)
  std::string json_out;
  bool trace = false;           ///< traced rerun + overhead/digest check
  bool engine_profile = false;  ///< per-shard engine accounting in the JSON
};

struct RunResult {
  double setup_s = 0;
  double run_s = 0;
  std::size_t events = 0;
  double events_per_sec = 0;
  std::uint64_t rekey_multicasts = 0;
  std::uint64_t fanout_copied_bytes = 0;
  std::uint64_t fanout_expanded_bytes = 0;
  double fanout_reduction = 0;
  std::size_t pool_slots = 0;
  std::size_t in_sync = 0;
  std::size_t members = 0;
  std::size_t peak_rss_mb = 0;
  std::uint64_t lookahead_us = 0;
  std::uint64_t digest = 0;
  bool residue = false;
  std::size_t trace_events = 0;       ///< traced runs only
  std::uint64_t trace_dropped = 0;    ///< ring overwrites in the traced run
  net::EngineProfile profile;         ///< --engine-profile runs only
  bool profiled = false;
};

bool flag_value(const char* arg, const char* name, std::string& out) {
  std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  out = arg + n + 1;
  return true;
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
  return h;
}

/// One full benchmark pass at a given worker count. Everything — topology,
/// tree randomness, schedule — derives from the options alone, so two
/// passes differ ONLY in how the engine executes the identical schedule.
RunResult run_one(const Options& opt, unsigned workers, bool traced) {
  RunResult res;
  const std::size_t per_area = opt.members / opt.areas;

  const net::NetworkConfig ncfg;  // default latency model, no loss
  net::Network net(ncfg);
  net.set_workers(workers);
  net.enable_engine_profile(opt.engine_profile);
  obs::Tracer tracer(1 << 20);
  if (traced) net.set_tracer(&tracer);
  std::deque<ScaleMember> members;  // stable addresses: Network keeps Node*
  std::deque<Area> areas;
  lkh::MemberId next_mid = 1;

  auto t0 = std::chrono::steady_clock::now();
  for (std::size_t a = 0; a < opt.areas; ++a) {
    Area& area = areas.emplace_back();
    net.attach(area.hub);
    // One shard per area by default (shard 0 is left to drivers in the
    // full stack; the bench has no such node); --shards folds the areas
    // onto a fixed shard count.
    std::size_t shard_slots = opt.shards > 0
                                  ? opt.shards
                                  : net::Network::kMaxShards - 1;
    std::uint32_t shard = 1 + static_cast<std::uint32_t>(a % shard_slots);
    net.set_shard(area.hub.id(), shard);
    area.group = net.create_group();
    lkh::KeyTree::Config tcfg;
    tcfg.fanout = 4;
    // Bulk load installs current path keys directly (no per-join rekey
    // multicast — the measured phase drives those via leaves).
    tcfg.rekey_root_on_join = false;
    area.tree = std::make_unique<lkh::KeyTree>(
        tcfg, crypto::Prng(0x5CA1E000 + a));
    for (std::size_t m = 0; m < per_area; ++m) {
      std::size_t slot = members.size();
      ScaleMember& member = members.emplace_back();
      net.attach(member);
      net.set_shard(member.id(), shard);
      net.join_group(area.group, member.id());
      lkh::MemberId mid = next_mid++;
      auto out = area.tree->join(mid);
      member.keys.install(out.member_path);
      if (out.split) {
        for (auto& [rmid, rslot] : area.roster) {
          if (rmid == out.split_member) {
            members[rslot].keys.install(out.split_member_update);
            break;
          }
        }
      }
      area.roster.emplace_back(mid, slot);
    }
  }
  auto t1 = std::chrono::steady_clock::now();
  res.setup_s = std::chrono::duration<double>(t1 - t0).count();

  net.stats().reset();

  auto t2 = std::chrono::steady_clock::now();
  for (std::size_t round = 0; round < opt.rounds; ++round) {
    // Issue every area's traffic before draining, so the queue holds the
    // full cross-area burst at once (peak depth ~= areas * per_area * 2).
    for (Area& area : areas) {
      auto& [victim_mid, victim_slot] = area.roster[round % area.roster.size()];
      ScaleMember& victim = members[victim_slot];

      // Leave: out of the group first, then one rekey multicast fans the
      // path rotation out to every survivor off a single payload buffer.
      net.leave_group(area.group, victim.id());
      victim.keys.clear();
      lkh::RekeyMessage rk = area.tree->leave(victim_mid);
      net.multicast(area.hub.id(), area.group, kRekeyLabel, rk.serialize());
      ++res.rekey_multicasts;

      // Rejoin the same node as a fresh member: path by unicast. Traced
      // runs stamp this exchange with a fresh trace id (from the driver's
      // deterministic origin-0 counter), so each path install becomes one
      // cross-node flow arrow; the id allocation feeds nothing else, which
      // is why the traced digest must equal the untraced one.
      lkh::MemberId mid = next_mid++;
      auto out = area.tree->join(mid);
      net.join_group(area.group, victim.id());
      if (traced) {
        net.set_current_trace({net.new_trace_id(net::kNoNode), 0});
        tracer.flow_start(obs::EventKind::kFlow, net.current_trace().trace_id,
                          area.hub.id(), net.now(), kPathLabel);
      }
      net.unicast(area.hub.id(), victim.id(), kPathLabel,
                  lkh::serialize_path(out.member_path));
      if (out.split) {
        for (auto& [rmid, rslot] : area.roster) {
          if (rmid == out.split_member) {
            net.unicast(area.hub.id(), members[rslot].id(), kSplitLabel,
                        lkh::serialize_path(out.split_member_update));
            break;
          }
        }
      }
      if (traced) net.set_current_trace({});
      area.roster[round % area.roster.size()] = {mid, victim_slot};

      // Data: second full fan-out; every delivery churns an ack timer.
      net.multicast(area.hub.id(), area.group, kDataLabel,
                    Bytes(256, static_cast<std::uint8_t>(round)));
    }
    res.events += net.run();
  }
  auto t3 = std::chrono::steady_clock::now();
  res.run_s = std::chrono::duration<double>(t3 - t2).count();

  const net::NetStats& st = net.stats();
  res.events_per_sec = res.run_s > 0 ? res.events / res.run_s : 0;
  double copied = static_cast<double>(st.fanout_copied().bytes);
  double expanded = static_cast<double>(st.fanout_expanded().bytes);
  res.fanout_copied_bytes = st.fanout_copied().bytes;
  res.fanout_expanded_bytes = st.fanout_expanded().bytes;
  res.fanout_reduction = copied > 0 ? expanded / copied : 0;
  res.pool_slots = net.event_pool_slots();
  res.members = members.size();
  res.residue =
      net.cancelled_timers_pending() != 0 || net.queued_events() != 0;

  for (Area& area : areas) {
    for (auto& [mid, slot] : area.roster) {
      if (members[slot].keys.has_group_key() &&
          members[slot].keys.group_key() == area.tree->root_key())
        ++res.in_sync;
    }
  }

  // Fold every member's observations in node-id order, then the global
  // traffic totals: identical digests across worker counts certify the
  // engine executed the same delivery schedule.
  std::uint64_t d = 14695981039346656037ull;
  for (const ScaleMember& m : members) {
    d = fnv(d, m.data_received);
    d = fnv(d, m.rekeys_applied);
    d = fnv(d, m.entries_applied);
    d = fnv(d, m.timer_fires);
  }
  d = fnv(d, st.sent_total().messages);
  d = fnv(d, st.sent_total().bytes);
  d = fnv(d, st.recv_total().messages);
  d = fnv(d, st.recv_total().bytes);
  d = fnv(d, net.now());
  res.digest = d;
  res.peak_rss_mb = bench::peak_rss_mb();
  res.lookahead_us = static_cast<std::uint64_t>(ncfg.base_latency);
  if (traced) {
    res.trace_events = tracer.size();
    res.trace_dropped = tracer.dropped();
  }
  if (opt.engine_profile) {
    res.profile = net.engine_profile();
    res.profiled = true;
  }
  return res;
}

/// Per-shard wall-time totals (0 when the run was not profiled).
double busy_ms_total(const RunResult& r) {
  double t = 0;
  for (const net::ShardProfile& sh : r.profile.shards) t += sh.busy_ms;
  return t;
}
double stall_ms_total(const RunResult& r) {
  double t = 0;
  for (const net::ShardProfile& sh : r.profile.shards) t += sh.stall_ms;
  return t;
}

/// `, "engine_profile": {...}` fragment for the JSON row (empty when off).
std::string profile_json(const RunResult& r) {
  if (!r.profiled) return "";
  char buf[384];
  std::snprintf(buf, sizeof buf,
                ", \"engine_profile\": {\"windows\": %llu, "
                "\"solo_windows\": %llu, \"wall_ms\": %.1f, "
                "\"merged_events\": %llu, \"arena_mb\": %.1f, "
                "\"events_per_window_p50\": %.0f, "
                "\"events_per_window_p95\": %.0f, \"shards\": [",
                (unsigned long long)r.profile.windows,
                (unsigned long long)r.profile.solo_windows, r.profile.wall_ms,
                (unsigned long long)r.profile.merged_events,
                r.profile.arena_bytes / 1e6,
                r.profile.events_per_window.p50, r.profile.events_per_window.p95);
  std::string out = buf;
  for (std::size_t s = 0; s < r.profile.shards.size(); ++s) {
    const net::ShardProfile& sh = r.profile.shards[s];
    std::snprintf(buf, sizeof buf,
                  "%s{\"events\": %llu, \"windows_active\": %llu, "
                  "\"busy_ms\": %.1f, \"stall_ms\": %.1f, "
                  "\"peak_heap\": %llu, \"pool_slots\": %llu, "
                  "\"outbox_peak\": %llu, \"arena_mb\": %.1f, "
                  "\"xshard_sent\": %llu}",
                  s == 0 ? "" : ", ", (unsigned long long)sh.events,
                  (unsigned long long)sh.windows_active, sh.busy_ms,
                  sh.stall_ms, (unsigned long long)sh.peak_heap,
                  (unsigned long long)sh.pool_slots,
                  (unsigned long long)sh.outbox_peak, sh.arena_bytes / 1e6,
                  (unsigned long long)sh.xshard_sent);
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opt.members = 100;
      opt.areas = 2;
      opt.rounds = 2;
      opt.workers = {1, 2};
    } else if (flag_value(argv[i], "--members", v)) {
      opt.members = static_cast<std::size_t>(std::atoll(v.c_str()));
    } else if (flag_value(argv[i], "--areas", v)) {
      opt.areas = static_cast<std::size_t>(std::atoll(v.c_str()));
    } else if (flag_value(argv[i], "--rounds", v)) {
      opt.rounds = static_cast<std::size_t>(std::atoll(v.c_str()));
    } else if (flag_value(argv[i], "--workers", v)) {
      opt.workers.clear();
      for (std::size_t pos = 0; pos < v.size();) {
        std::size_t comma = v.find(',', pos);
        if (comma == std::string::npos) comma = v.size();
        opt.workers.push_back(static_cast<unsigned>(
            std::atoi(v.substr(pos, comma - pos).c_str())));
        pos = comma + 1;
      }
      if (opt.workers.empty()) opt.workers = {1};
    } else if (flag_value(argv[i], "--shards", v)) {
      opt.shards = static_cast<std::size_t>(std::atoll(v.c_str()));
    } else if (flag_value(argv[i], "--json_out", v)) {
      opt.json_out = v;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opt.trace = true;
    } else if (std::strcmp(argv[i], "--engine-profile") == 0) {
      opt.engine_profile = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  const std::size_t per_area = opt.members / opt.areas;

  bench::print_header(
      "scale_members: zero-copy fan-out + slab scheduler + sharded engine");
  std::printf("%zu areas x %zu members (%zu total), %zu churn rounds, "
              "worker sweep:",
              opt.areas, per_area, opt.areas * per_area, opt.rounds);
  for (unsigned w : opt.workers) std::printf(" %u", w);
  std::printf("  [%u host cores", bench::host_cores());
  if (opt.shards > 0) std::printf(", %zu shards", opt.shards);
  std::printf("]\n");

  bool ok = true;
  std::uint64_t base_digest = 0;
  double base_eps = 0;
  std::FILE* json = nullptr;
  if (!opt.json_out.empty()) {
    json = std::fopen(opt.json_out.c_str(), "a");
    if (json == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", opt.json_out.c_str());
      return 1;
    }
  }

  for (std::size_t wi = 0; wi < opt.workers.size(); ++wi) {
    unsigned workers = opt.workers[wi];
    RunResult r = run_one(opt, workers, /*traced=*/false);

    bench::print_rule();
    std::printf("workers=%u\n", workers);
    std::printf("setup: %.2fs (%zu nodes, %zu tree joins)\n", r.setup_s,
                r.members + opt.areas, r.members);
    std::printf("churn+rekey: %.2fs wall, %zu events, %.0f events/sec",
                r.run_s, r.events, r.events_per_sec);
    if (wi > 0 && base_eps > 0)
      std::printf(" (%.2fx vs workers=%u)", r.events_per_sec / base_eps,
                  opt.workers[0]);
    std::printf("\n");
    std::printf("fan-out: copied %.1f MB, copy-per-receiver would be "
                "%.1f MB (%.0fx reduction)\n",
                r.fanout_copied_bytes / 1e6, r.fanout_expanded_bytes / 1e6,
                r.fanout_reduction);
    std::printf("scheduler: peak slab %zu slots; peak RSS %zu MB\n",
                r.pool_slots, r.peak_rss_mb);
    std::printf("in sync: %zu/%zu members; digest %016llx\n", r.in_sync,
                r.members, (unsigned long long)r.digest);
    if (r.profiled) {
      std::printf("engine: %llu windows (%llu solo), %.1f ms wall, "
                  "busy %.1f ms, stall %.1f ms, merged %llu, "
                  "lookahead %llu us, arena %.1f MB, "
                  "events/window p95=%.0f\n",
                  (unsigned long long)r.profile.windows,
                  (unsigned long long)r.profile.solo_windows,
                  r.profile.wall_ms, busy_ms_total(r), stall_ms_total(r),
                  (unsigned long long)r.profile.merged_events,
                  (unsigned long long)r.lookahead_us,
                  r.profile.arena_bytes / 1e6,
                  r.profile.events_per_window.p95);
      for (std::size_t s = 0; s < r.profile.shards.size(); ++s) {
        const net::ShardProfile& sh = r.profile.shards[s];
        std::printf("  shard %-2zu: %llu events, busy %.1f ms, "
                    "stall %.1f ms, peak heap %llu, xshard %llu\n",
                    s, (unsigned long long)sh.events, sh.busy_ms, sh.stall_ms,
                    (unsigned long long)sh.peak_heap,
                    (unsigned long long)sh.xshard_sent);
      }
    }

    if (r.in_sync != r.members) {
      std::printf("FAIL: %zu members out of sync\n", r.members - r.in_sync);
      ok = false;
    }
    if (r.fanout_reduction < 10.0) {
      std::printf("FAIL: fan-out reduction %.1fx < 10x\n", r.fanout_reduction);
      ok = false;
    }
    if (r.residue) {
      std::printf("FAIL: scheduler residue after drain\n");
      ok = false;
    }
    if (wi == 0) {
      base_digest = r.digest;
      base_eps = r.events_per_sec;
    } else if (r.digest != base_digest) {
      std::printf("FAIL: digest differs from workers=%u run\n",
                  opt.workers[0]);
      ok = false;
    }

    if (json != nullptr) {
      std::fprintf(
          json,
          "{\"suite\": \"scale_members\", \"areas\": %zu, "
          "\"members\": %zu, \"rounds\": %zu, \"workers\": %u, "
          "\"host_cores\": %u, \"shards\": %zu, "
          "\"setup_s\": %.2f, \"run_s\": %.3f, \"events\": %zu, "
          "\"events_per_sec\": %.0f, \"rekey_multicasts\": %llu, "
          "\"fanout_copied_bytes\": %llu, \"fanout_expanded_bytes\": %llu, "
          "\"fanout_reduction\": %.1f, \"peak_pool_slots\": %zu, "
          "\"peak_rss_mb\": %zu, \"lookahead_us\": %llu, "
          "\"busy_ms_total\": %.1f, \"stall_ms_total\": %.1f, "
          "\"in_sync\": %zu, "
          "\"digest\": \"%016llx\"%s, \"ok\": %s}\n",
          opt.areas, r.members, opt.rounds, workers, bench::host_cores(),
          opt.shards, r.setup_s, r.run_s,
          r.events, r.events_per_sec, (unsigned long long)r.rekey_multicasts,
          (unsigned long long)r.fanout_copied_bytes,
          (unsigned long long)r.fanout_expanded_bytes, r.fanout_reduction,
          r.pool_slots, r.peak_rss_mb, (unsigned long long)r.lookahead_us,
          busy_ms_total(r), stall_ms_total(r), r.in_sync,
          (unsigned long long)r.digest, profile_json(r).c_str(),
          ok ? "true" : "false");
    }

    if (opt.trace) {
      // Rerun the identical schedule with tracing on: the digest must not
      // move (trace ids come from counters that feed nothing else), and
      // the run_s delta is the measured tracing overhead.
      RunResult rt = run_one(opt, workers, /*traced=*/true);
      double overhead_pct =
          r.run_s > 0 ? (rt.run_s - r.run_s) / r.run_s * 100.0 : 0;
      std::printf("tracing: %zu events (%llu dropped), run %.3fs vs %.3fs "
                  "(%+.1f%%), digest %s\n",
                  rt.trace_events, (unsigned long long)rt.trace_dropped,
                  rt.run_s, r.run_s, overhead_pct,
                  rt.digest == r.digest ? "identical" : "MISMATCH");
      if (rt.digest != r.digest) {
        std::printf("FAIL: traced digest differs from untraced\n");
        ok = false;
      }
      if (json != nullptr) {
        std::fprintf(
            json,
            "{\"suite\": \"scale_members_trace_overhead\", \"areas\": %zu, "
            "\"members\": %zu, \"rounds\": %zu, \"workers\": %u, "
            "\"run_s_untraced\": %.3f, \"run_s_traced\": %.3f, "
            "\"overhead_pct\": %.1f, \"trace_events\": %zu, "
            "\"trace_events_dropped\": %llu, \"digest\": \"%016llx\", "
            "\"digest_match\": %s, \"ok\": %s}\n",
            opt.areas, rt.members, opt.rounds, workers, r.run_s, rt.run_s,
            overhead_pct, rt.trace_events,
            (unsigned long long)rt.trace_dropped,
            (unsigned long long)rt.digest,
            rt.digest == r.digest ? "true" : "false", ok ? "true" : "false");
      }
    }
  }

  if (json != nullptr) {
    std::fclose(json);
    std::printf("appended -> %s\n", opt.json_out.c_str());
  }
  return ok ? 0 : 1;
}
