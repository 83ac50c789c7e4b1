// End-to-end encrypted-multicast data-plane benchmark (DESIGN.md 12).
//
// Runs the Iolus-style data path members actually run (paper Section III;
// Member::send_data / Member::handle_data). For each application packet
// the source draws a fresh data key K_d, seals K_d under the long-lived
// group key through a crypto::DataPlaneKey and the payload under K_d with
// sym_seal, and multicasts the two-box kData envelope to every member
// through the zero-copy fan-out. Each member opens the packet when it
// arrives: the key box through the group DataPlaneKey, then the payload
// with sym_open under K_d.
//
// Reported: MB/s of verified plaintext through the members, packets/sec,
// and per-packet ns split into encrypt (source: both seals) / auth+decrypt
// (member: both opens) / deliver (engine fan-out, i.e. run() wall minus
// crypto inside it), all fed through obs histograms. The dispatched kernel
// names are printed and recorded so a trajectory row says what it measured.
//
// Appends one JSONL object (suite "data_plane") per run via --json_out —
// BENCH_sim.json at the repo root records the trajectory across commits:
//   data_plane --members=1000000 --json_out=BENCH_sim.json
//
// --smoke shrinks the group and also cross-checks that forced-scalar and
// SIMD dispatch seal BIT-IDENTICAL bytes (same key, same nonce draw), the
// property that keeps golden digests valid; it is cheap enough to run on
// every ctest pass (bench_dataplane_smoke).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <optional>
#include <string>

#include "bench_util.h"
#include "common/error.h"
#include "common/wire.h"
#include "crypto/cpu_features.h"
#include "crypto/data_plane.h"
#include "crypto/prng.h"
#include "crypto/sealed.h"
#include "mykil/wire.h"
#include "net/network.h"
#include "obs/metrics.h"

namespace {

using namespace mykil;

const net::Label kDataLabel{"dataplane"};

obs::MetricsRegistry g_metrics;

/// One data packet as Member::send_data builds it: msg id, sender, K_d
/// sealed under the group key, payload sealed under K_d.
Bytes build_packet(const crypto::DataPlaneKey& group, std::uint64_t sender,
                   ByteView payload, crypto::Prng& prng) {
  crypto::SymmetricKey data_key = crypto::SymmetricKey::random(prng);
  WireWriter w;
  w.u64(prng.next_u64());
  w.u64(sender);
  w.bytes(group.seal(data_key.bytes(), prng));
  w.bytes(crypto::sym_seal(data_key, payload, prng));
  return core::envelope(core::MsgType::kData, w.data());
}

/// Open a packet as Member::handle_data does; nullopt if the key box does
/// not open under the group key. A bad payload tag throws AuthError.
std::optional<Bytes> open_packet(const crypto::DataPlaneKey& group,
                                 ByteView packet) {
  core::Envelope env = core::parse_envelope(packet);
  WireReader r(env.box);
  (void)r.u64();  // msg id
  (void)r.u64();  // sender
  Bytes key_box = r.bytes();
  Bytes payload_box = r.bytes();
  r.expect_done();
  std::optional<Bytes> dk_raw = group.try_open(key_box);
  if (!dk_raw) return std::nullopt;
  crypto::SymmetricKey data_key(std::move(*dk_raw));
  return crypto::sym_open(data_key, payload_box);
}

/// Group member: opens every packet on arrival. The group DataPlaneKey is
/// shared (every member holds the same group key), so a million members
/// cost one Speck schedule and one pair of HMAC pads, not a million.
class SinkMember : public net::Node {
 public:
  const crypto::DataPlaneKey* group_key = nullptr;  ///< owned by main

  void on_message(const net::Message& msg) override {
    auto t0 = std::chrono::steady_clock::now();
    std::optional<Bytes> pt;
    try {
      pt = open_packet(*group_key, msg.payload.view());
    } catch (const Error&) {
      // Malformed packet or bad payload tag: counted as a failure below.
    }
    auto t1 = std::chrono::steady_clock::now();
    open_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    if (pt) {
      ++verified_ok;
      plaintext_bytes += pt->size();
    } else {
      ++verify_failed;
    }
  }

  std::uint64_t verified_ok = 0;
  std::uint64_t verify_failed = 0;
  std::uint64_t plaintext_bytes = 0;
  std::uint64_t open_ns = 0;  ///< time spent opening packets on this member
};

class SourceNode : public net::Node {
 public:
  void on_message(const net::Message&) override {}
};

struct Options {
  std::size_t members = 1000000;
  std::size_t packets = 8;       // sealed and multicast per run
  std::size_t payload_b = 1024;  // plaintext bytes per packet
  std::string json_out;
  bool smoke = false;
};

bool flag_value(const char* arg, const char* name, std::string& out) {
  std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  out = arg + n + 1;
  return true;
}

/// Scalar/SIMD dispatch must produce identical sealed bytes: seal the same
/// packet from the same PRNG state both ways and compare.
bool seal_identity_check(const crypto::SymmetricKey& key) {
  crypto::DataPlaneKey dpk(key);
  Bytes msg(777, 0x5A);
  for (std::size_t i = 0; i < msg.size(); ++i)
    msg[i] = static_cast<std::uint8_t>(i * 131 + 7);
  crypto::Prng a(4242), b(4242);
  crypto::set_force_scalar(true);
  Bytes scalar_box = dpk.seal(msg, a);
  crypto::set_force_scalar(false);
  Bytes simd_box = dpk.seal(msg, b);
  if (scalar_box != simd_box) return false;
  return dpk.open(simd_box) == msg;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opt.smoke = true;
      opt.members = 2000;
      opt.packets = 10;
      opt.payload_b = 256;
    } else if (flag_value(argv[i], "--members", v)) {
      opt.members = static_cast<std::size_t>(std::atoll(v.c_str()));
    } else if (flag_value(argv[i], "--packets", v)) {
      opt.packets = static_cast<std::size_t>(std::atoll(v.c_str()));
    } else if (flag_value(argv[i], "--payload", v)) {
      opt.payload_b = static_cast<std::size_t>(std::atoll(v.c_str()));
    } else if (flag_value(argv[i], "--json_out", v)) {
      opt.json_out = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  bench::print_header("data_plane: encrypted multicast, end to end");
  std::printf("%zu members, %zu packets x %zu B plaintext; kernels: "
              "speck=%s sha256=%s; %u host cores\n",
              opt.members, opt.packets, opt.payload_b,
              crypto::speck_impl_name(), crypto::sha256_impl_name(),
              bench::host_cores());

  bool ok = true;

  crypto::Prng key_prng(0xDA7A);
  crypto::SymmetricKey group_key = crypto::SymmetricKey::random(key_prng);
  if (!seal_identity_check(group_key)) {
    std::printf("FAIL: scalar and SIMD dispatch sealed different bytes\n");
    return 1;
  }
  std::printf("seal identity: scalar == %s/%s dispatch, bit for bit\n",
              crypto::speck_impl_name(), crypto::sha256_impl_name());

  const crypto::DataPlaneKey dpk(group_key);

  // ---- topology: one source, one group, N sink members ----
  auto t0 = std::chrono::steady_clock::now();
  net::Network net;
  SourceNode source;
  net.attach(source);
  net::GroupId group = net.create_group();
  std::deque<SinkMember> members;  // stable addresses for Network
  for (std::size_t i = 0; i < opt.members; ++i) {
    SinkMember& m = members.emplace_back();
    m.group_key = &dpk;
    net.attach(m);
    net.join_group(group, m.id());
  }
  auto t1 = std::chrono::steady_clock::now();
  double setup_s = std::chrono::duration<double>(t1 - t0).count();

  obs::Histogram& h_encrypt = g_metrics.histogram("dataplane.encrypt_ns");
  obs::Histogram& h_open = g_metrics.histogram("dataplane.open_ns");
  obs::Histogram& h_deliver = g_metrics.histogram("dataplane.deliver_ms");

  // ---- measured phase: seal, multicast, drain (members open) ----
  crypto::Prng data_prng(0xFEED);
  std::uint64_t encrypt_ns_total = 0;
  std::uint64_t run_ns_total = 0;
  auto t2 = std::chrono::steady_clock::now();
  for (std::size_t p = 0; p < opt.packets; ++p) {
    Bytes payload = data_prng.bytes(opt.payload_b);
    auto e0 = std::chrono::steady_clock::now();
    Bytes packet = build_packet(dpk, source.id(), payload, data_prng);
    auto e1 = std::chrono::steady_clock::now();
    std::uint64_t ens = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(e1 - e0).count());
    encrypt_ns_total += ens;
    h_encrypt.record(ens);

    net.multicast(source.id(), group, kDataLabel, std::move(packet));
    auto r0 = std::chrono::steady_clock::now();
    net.run();
    auto r1 = std::chrono::steady_clock::now();
    std::uint64_t rns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(r1 - r0).count());
    run_ns_total += rns;
    h_deliver.record(rns / 1000000);
  }
  auto t3 = std::chrono::steady_clock::now();
  double wall_s = std::chrono::duration<double>(t3 - t2).count();

  // ---- fold member-side results ----
  std::uint64_t verified = 0, failed = 0, pt_bytes = 0, open_ns_total = 0;
  for (const SinkMember& m : members) {
    verified += m.verified_ok;
    failed += m.verify_failed;
    pt_bytes += m.plaintext_bytes;
    open_ns_total += m.open_ns;
    h_open.record(m.open_ns / (m.verified_ok + m.verify_failed == 0
                                   ? 1
                                   : m.verified_ok + m.verify_failed));
  }
  const std::uint64_t expected = static_cast<std::uint64_t>(opt.members) *
                                 static_cast<std::uint64_t>(opt.packets);

  double mb_s = wall_s > 0 ? static_cast<double>(pt_bytes) / 1e6 / wall_s : 0;
  double pkts_s = wall_s > 0 ? static_cast<double>(verified) / wall_s : 0;
  double enc_pp = opt.packets > 0
                      ? static_cast<double>(encrypt_ns_total) / opt.packets
                      : 0;
  double open_pp =
      verified > 0 ? static_cast<double>(open_ns_total) / verified : 0;
  // Deliver = engine time inside run() that was NOT member crypto (opens
  // happen in on_message, inside the same drain).
  double deliver_ns = run_ns_total > open_ns_total
                          ? static_cast<double>(run_ns_total - open_ns_total)
                          : 0;
  double deliver_pp = verified > 0 ? deliver_ns / verified : 0;

  bench::print_rule();
  std::printf("setup: %.2fs (%zu nodes)\n", setup_s, opt.members + 1);
  std::printf("end to end: %.2fs wall; %.1f MB plaintext verified at "
              "members\n",
              wall_s, pt_bytes / 1e6);
  std::printf("throughput: %.1f MB/s, %.0f packets/sec delivered+verified\n",
              mb_s, pkts_s);
  std::printf("per packet: encrypt %.0f ns (source), auth+decrypt %.0f ns "
              "(member), deliver %.0f ns (engine)\n",
              enc_pp, open_pp, deliver_pp);
  std::printf("histograms: encrypt p50 %.0f ns, open/pkt p50 %.0f ns, "
              "drain p50 %.0f ms\n",
              h_encrypt.percentile(50), h_open.percentile(50),
              h_deliver.percentile(50));
  std::printf("verified: %llu/%llu (%llu failed); peak RSS %zu MB\n",
              (unsigned long long)verified, (unsigned long long)expected,
              (unsigned long long)failed, bench::peak_rss_mb());

  if (verified != expected || failed != 0) {
    std::printf("FAIL: expected %llu verified packets\n",
                (unsigned long long)expected);
    ok = false;
  }

  if (!opt.json_out.empty()) {
    std::FILE* json = std::fopen(opt.json_out.c_str(), "a");
    if (json == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", opt.json_out.c_str());
      return 1;
    }
    std::fprintf(
        json,
        "{\"suite\": \"data_plane\", \"members\": %zu, \"packets\": %zu, "
        "\"payload_b\": %zu, \"host_cores\": %u, \"setup_s\": %.2f, "
        "\"wall_s\": %.3f, \"mb_s\": %.1f, \"packets_per_sec\": %.0f, "
        "\"encrypt_ns_per_pkt\": %.0f, \"auth_decrypt_ns_per_pkt\": %.0f, "
        "\"deliver_ns_per_pkt\": %.0f, \"verified\": %llu, "
        "\"verify_failed\": %llu, \"speck_impl\": \"%s\", "
        "\"sha256_impl\": \"%s\", \"peak_rss_mb\": %zu, \"ok\": %s}\n",
        opt.members, opt.packets, opt.payload_b, bench::host_cores(), setup_s,
        wall_s, mb_s, pkts_s, enc_pp, open_pp, deliver_pp,
        (unsigned long long)verified, (unsigned long long)failed,
        crypto::speck_impl_name(), crypto::sha256_impl_name(),
        bench::peak_rss_mb(), ok ? "true" : "false");
    std::fclose(json);
    std::printf("appended -> %s\n", opt.json_out.c_str());
  }
  return ok ? 0 : 1;
}
