// Mykil benchmark: command-line entry point.
//
//   mykil_perfbench --workload <churn|data_fanout|rekey_scale|failover>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-out <path>]
//   mykil_perfbench --smoke
//
// Untraced (--trace 0): repeats set-up + timed phase ("reps"), as many
// times as fill about --seconds on the reference host and at least three
// times. Phases are timed in reference seconds (host_speed.cpp). setup_s
// is the median over reps; rates use the median over reps of each timing
// segment (median_ref_timed_s). Every count and virtual-time value must be
// identical between reps, or the run fails. Traced (--trace 1): one untraced rep and
// one traced rep (benchmark spans, the engine profile and a
// MetricsRegistry), compared the same way, plus the crypto calibration;
// reports the per-layer metrics. The last stdout line is the JSON result;
// the lines above it are a human-readable report. Exit code 1 when any
// output check fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.h"

namespace {

using namespace perfbench;

struct Metric {
  const char* name;
  const char* unit;
};

/// Per-layer metrics, printed (zero where a layer does no work) on every
/// workload's traced run. `.est_ms` values are count x calibrated unit
/// cost, not measured time.
const std::vector<Metric>& layer_metrics() {
  static const std::vector<Metric> m{
      {"crypto.keygen.count", "count"},
      {"crypto.keygen.ms", "ms"},
      {"crypto.pk_encrypt.count", "count"},
      {"crypto.pk_encrypt.est_ms", "est-ms"},
      {"crypto.pk_decrypt.count", "count"},
      {"crypto.pk_decrypt.est_ms", "est-ms"},
      {"crypto.rsa_sign.count", "count"},
      {"crypto.rsa_sign.est_ms", "est-ms"},
      {"crypto.rsa_verify.count", "count"},
      {"crypto.rsa_verify.est_ms", "est-ms"},
      {"crypto.data_open.count", "count"},
      {"crypto.data_open.est_ms", "est-ms"},
      {"crypto.unit.rsa_generate.ms", "ms"},
      {"crypto.unit.pk_encrypt.us", "us"},
      {"crypto.unit.pk_decrypt.us", "us"},
      {"crypto.unit.rsa_sign.us", "us"},
      {"crypto.unit.rsa_verify.us", "us"},
      {"crypto.unit.data_open_64.us", "us"},
      {"crypto.unit.data_open_256.us", "us"},
      {"crypto.unit.data_open_1024.us", "us"},
      {"crypto.unit.data_open_4096.us", "us"},
      {"net.run_until.ms", "ms"},
      {"net.run_until.calls", "count"},
      {"net.events", "count"},
      {"net.queue_peak", "count"},
      {"net.messages_sent", "count"},
      {"net.bytes_sent", "B"},
      {"net.bytes.mykil-rekey", "B"},
      {"net.bytes.mykil-data", "B"},
      {"net.bytes.mykil-join", "B"},
      {"net.bytes.mykil-rejoin", "B"},
      {"net.bytes.mykil-recovery", "B"},
      {"net.bytes.mykil-repl", "B"},
      {"net.bytes.mykil-alive", "B"},
      {"net.fanout_copied_bytes", "B"},
      {"net.fanout_expanded_bytes", "B"},
      {"net.engine.windows", "count"},
      {"net.engine.solo_windows", "count"},
      {"net.engine.busy_ms", "ms"},
      {"net.engine.stall_ms", "ms"},
      {"net.engine.merged_events", "count"},
      {"arq.data_sent", "count"},
      {"arq.retransmits", "count"},
      {"arq.give_ups", "count"},
      {"arq.retransmit_ratio", "ratio"},
      {"lkh.rekey_build.ms", "ms"},
      {"lkh.rekey_build.count", "count"},
      {"lkh.entries_applied", "count"},
      {"mykil.client_calls.ms", "ms"},
      {"mykil.joins_completed", "count"},
      {"mykil.rejoins_completed", "count"},
      {"mykil.rekey_multicasts", "count"},
      {"mykil.data_forwards", "count"},
      {"mykil.takeovers", "count"},
      {"mykil.evictions", "count"},
      {"mykil.key_recoveries", "count"},
      {"mykil.data.undecryptable", "count"},
      {"mykil.data.useful_ratio", "ratio"},
      {"member.key_recovery_requests", "count"},
      {"ac.key_recovery_rate_limited", "count"},
      {"workload.schedule.ms", "ms"},
      {"obs.trace_overhead_ratio", "ratio"},
  };
  return m;
}

using Runner = RepResult (*)(const RepOptions&);

struct Workload {
  const char* name;
  Runner run;
  /// Wall seconds of one rep (set-up + timed phase + checks) on the 4-core
  /// host the benchmark was sized on. Only the rep count derives from it.
  double rep_seconds;
};

const Workload* find_workload(const std::string& name) {
  static const Workload all[] = {{"churn", run_churn, 6.5},
                                 {"data_fanout", run_data_fanout, 3.6},
                                 {"rekey_scale", run_rekey_scale, 2.2},
                                 {"failover", run_failover, 2.2}};
  for (const Workload& w : all)
    if (name == w.name) return &w;
  return nullptr;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  std::fclose(f);
  return kb / 1024.0;
}

/// Determinism: `b` must repeat `a`'s counts, virtual times and outcome.
/// The comparison is one check in `into`.
void compare_reps(const RepResult& a, const RepResult& b, RepResult& into,
                  const char* what) {
  ++into.attempted;
  if (a.det != b.det || a.samples != b.samples || a.opened != b.opened ||
      a.failed != b.failed || a.attempted != b.attempted) {
    into.fail(std::string(what) + ": counts differ between two runs of one seed");
    for (const auto& [k, v] : a.det) {
      auto it = b.det.find(k);
      if (it == b.det.end() || it->second != v)
        std::printf("# mismatch %s: %.17g vs %.17g\n", k.c_str(), v,
                    it == b.det.end() ? NAN : it->second);
    }
  }
}

/// Highest of the usual percentiles that keeps >= 10 samples beyond it.
double tail_percentile(std::size_t n) {
  for (double p : {99.0, 95.0, 90.0, 75.0})
    if (static_cast<double>(n) * (1 - p / 100) >= 10) return p;
  return 50;
}

/// Timed phase, robust to host noise: every segment in reference seconds
/// (scaled by the kernel times at its two ends), then the median over reps
/// per segment. Segments
/// hold the same work in every rep of a seed (the determinism check
/// guarantees it), so the per-segment median discards the reps a burst of
/// contention from other tenants slowed, and the scaling removes the
/// slow-downs that last longer than a run. Equal segment counts across
/// reps are one check in `summary`.
double median_ref_timed_s(const std::vector<RepResult>& reps,
                          RepResult& summary) {
  const std::size_t n = reps.front().timed.segments.size();
  ++summary.attempted;
  for (const RepResult& r : reps) {
    if (r.timed.segments.size() != n) {
      summary.fail("timing segments differ between two runs of one seed");
      return reps.front().timed.ref_s();
    }
  }
  double total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    std::vector<double> seg;
    for (const RepResult& r : reps) seg.push_back(r.timed.ref_segment_s(k));
    total += median(seg);
  }
  return total;
}

/// The workload's named end-to-end figures, printed for humans above the
/// JSON line: counts and virtual times from the first rep, rates over
/// `timed_s` (median_ref_timed_s), failed_ops_ratio from `summary`, whose
/// counts the JSON result reports.
void print_report(const std::string& workload, const std::vector<RepResult>& reps,
                  double timed_s, const RepResult& summary) {
  const RepResult& r = reps.front();
  auto det = [&](const char* k) {
    auto it = r.det.find(k);
    return it == r.det.end() ? 0.0 : it->second;
  };
  auto line = [](const std::string& name, double v, const char* unit,
                 const std::string& note = "") {
    std::printf("# %-28s %14.4f %-8s %s\n", name.c_str(), v, unit, note.c_str());
  };
  auto timing = [&](const char* base, const char* key) {
    auto it = r.samples.find(key);
    if (it == r.samples.end()) return;
    const auto& s = it->second;
    const std::string n = "n=" + std::to_string(s.size());
    line(std::string(base) + "_p50_ms", percentile(s, 50), "ms", n + " (virtual)");
    const double p = tail_percentile(s.size());
    line(std::string(base) + "_p" + std::to_string(static_cast<int>(p)) + "_ms",
         percentile(s, p), "ms", n + " (virtual)");
  };
  const double ops = std::max(1.0, r.work);
  std::printf("# workload %s: %zu reps\n", workload.c_str(), reps.size());
  line("failed_ops_ratio",
       summary.attempted > 0 ? static_cast<double>(summary.failed) /
                                   static_cast<double>(summary.attempted)
                             : 0,
       "ratio");
  if (workload == "churn" || workload == "failover") {
    line("membership_ops_per_s", r.work / timed_s, "ops/s");
    line("key_recoveries_per_op", det("mykil.key_recoveries") / ops, "count/op");
  }
  if (workload == "churn") {
    timing("join_latency", "join_latency");
    timing("rejoin_latency", "rejoin_latency");
    line("rekey_bytes_per_op", det("net.bytes.mykil-rekey") / ops, "B/op");
  }
  if (workload == "failover") timing("takeover", "takeover");
  if (workload == "data_fanout") {
    line("deliveries_per_s", r.work / timed_s, "pkts/s");
    line("data_mb_s", det("data.payload_bytes") / 1e6 / timed_s, "MB/s");
    line("key_recoveries_per_op", det("mykil.key_recoveries") / ops, "count/pkt");
  }
  if (workload == "rekey_scale") {
    line("events_per_s", r.work / timed_s, "events/s");
    std::printf("# run digest %08llx%08llx\n",
                static_cast<unsigned long long>(det("digest.hi")),
                static_cast<unsigned long long>(det("digest.lo")));
  }
  for (const RepResult& x : reps)
    for (const std::string& f : x.failures) std::printf("# FAILED: %s\n", f.c_str());
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<std::pair<Metric, double>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.name, metrics[i].second,
                metrics[i].first.unit);
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

int run_untraced(const Args& a, const Workload& w) {
  const RepOptions opt{a.seed, false, false};
  std::vector<RepResult> reps;
  RepResult summary;
  // A fixed rep count, not "until the clock runs out": the rep count must
  // not vary with how busy the host is.
  const auto n_reps = static_cast<std::size_t>(
      std::max(3.0, std::round(a.seconds / w.rep_seconds)));
  while (reps.size() < n_reps) {
    reps.push_back(w.run(opt));
    if (reps.size() > 1) compare_reps(reps.front(), reps.back(), summary, "rep");
  }
  std::vector<double> setup;
  for (const RepResult& r : reps) {
    setup.push_back(r.setup.ref_s());
    summary.attempted += r.attempted;
    summary.failed += r.failed;
  }
  const RepResult& first = reps.front();
  const double timed_s = median_ref_timed_s(reps, summary);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    std::printf("# rep %zu: wall setup %.3f s, timed %.3f s, %.4g ops/s; "
                "kernel %.3f ms (median); reference setup %.3f s, "
                "timed %.3f s, %.4g ops/s\n",
                i + 1, r.setup.wall_s(), r.timed.wall_s(),
                r.work / r.timed.wall_s(), median(r.timed.kernel_s) * 1e3,
                r.setup.ref_s(), r.timed.ref_s(), r.work / r.timed.ref_s());
  }
  std::printf("# per-segment median timed phase: %.3f reference s over %zu "
              "segments\n",
              timed_s, first.timed.segments.size());
  print_report(a.workload, reps, timed_s, summary);
  for (const std::string& f : summary.failures) std::printf("# FAILED: %s\n", f.c_str());
  const bool correct = summary.failed == 0;
  print_json(correct, summary.attempted, summary.failed,
             {{{"setup_s", "s"}, median(setup)},
              {{"peak_rss_mb", "MiB"}, peak_rss_mib()},
              {{"ops_per_s", "ops/s"}, first.work / timed_s},
              {{"net_bytes_per_op", "B/op"},
               first.net_bytes / std::max(1.0, first.work)}});
  return correct ? 0 : 1;
}

int run_traced(const Args& a, const Workload& w) {
  const Runner& run = w.run;
  CryptoUnitCosts costs = calibrate_crypto(a.seed);
  RepResult plain = run(RepOptions{a.seed, false, false});
  RepResult traced = run(RepOptions{a.seed, false, true});
  const SpanLog& on = traced.spans;
  RepResult summary;
  compare_reps(plain, traced, summary, "traced vs untraced");
  summary.attempted += plain.attempted + traced.attempted;
  summary.failed += plain.failed + traced.failed;
  for (const RepResult* r : {&plain, &traced})
    for (const std::string& f : r->failures) summary.failures.push_back(f);

  std::map<std::string, double> L = traced.layer;
  L["crypto.keygen.count"] = static_cast<double>(on.total_count("crypto.keygen"));
  L["crypto.keygen.ms"] = on.total_ms("crypto.keygen");
  L["workload.schedule.ms"] = on.total_ms("workload.schedule");
  L["crypto.unit.rsa_generate.ms"] = costs.rsa_generate_ms;
  L["crypto.unit.pk_encrypt.us"] = costs.pk_encrypt_us;
  L["crypto.unit.pk_decrypt.us"] = costs.pk_decrypt_us;
  L["crypto.unit.rsa_sign.us"] = costs.rsa_sign_us;
  L["crypto.unit.rsa_verify.us"] = costs.rsa_verify_us;
  for (auto [size, us] : costs.data_open_us)
    L["crypto.unit.data_open_" + std::to_string(size) + ".us"] = us;
  L["obs.trace_overhead_ratio"] = traced.timed.ref_s() / plain.timed.ref_s();
  // Estimates, not measured busy time: count x calibrated unit cost.
  for (auto [name, unit_us] :
       {std::pair{"crypto.pk_encrypt", costs.pk_encrypt_us},
        std::pair{"crypto.pk_decrypt", costs.pk_decrypt_us},
        std::pair{"crypto.rsa_sign", costs.rsa_sign_us},
        std::pair{"crypto.rsa_verify", costs.rsa_verify_us}}) {
    auto it = traced.det.find(std::string(name) + ".count");
    const double n = it == traced.det.end() ? 0 : it->second;
    L[std::string(name) + ".count"] = n;
    L[std::string(name) + ".est_ms"] = n * unit_us / 1000.0;
  }
  double opened = 0, open_ms = 0;
  for (auto [size, n] : traced.opened) {
    opened += static_cast<double>(n);
    open_ms += static_cast<double>(n) * costs.open_us(size) / 1000.0;
  }
  L["crypto.data_open.count"] = opened;
  L["crypto.data_open.est_ms"] = open_ms;

  std::vector<std::pair<Metric, double>> out;
  std::printf("# workload %s traced: per-layer metrics (.est_ms = count x "
              "calibrated unit cost, an estimate)\n",
              a.workload.c_str());
  for (const Metric& m : layer_metrics()) {
    double v = L.count(m.name) ? L[m.name] : 0.0;
    std::printf("# %-34s %16.4f %s\n", m.name, v, m.unit);
    out.push_back({m, v});
  }
  for (const std::string& f : summary.failures) std::printf("# FAILED: %s\n", f.c_str());

  if (!a.trace_out.empty()) {
    char other[1024];
    std::snprintf(other, sizeof other,
                  "{\"workload\":\"%s\",\"seed\":%llu,\"unit_costs\":{"
                  "\"rsa_generate_ms\":%.4f,\"pk_encrypt_us\":%.3f,"
                  "\"pk_decrypt_us\":%.3f,\"rsa_sign_us\":%.3f,"
                  "\"rsa_verify_us\":%.3f,\"data_open_64_us\":%.3f,"
                  "\"data_open_256_us\":%.3f,\"data_open_1024_us\":%.3f,"
                  "\"data_open_4096_us\":%.3f}}",
                  a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                  costs.rsa_generate_ms, costs.pk_encrypt_us,
                  costs.pk_decrypt_us, costs.rsa_sign_us, costs.rsa_verify_us,
                  costs.open_us(64), costs.open_us(256), costs.open_us(1024),
                  costs.open_us(4096));
    on.write_json(a.trace_out, other);
  }
  const bool correct = summary.failed == 0;
  print_json(correct, summary.attempted, summary.failed, out);
  return correct ? 0 : 1;
}

/// Tiny sizes of every workload: the output checks, the rep-to-rep
/// determinism check and the traced-vs-untraced check must all pass.
int run_smoke() {
  int bad = 0;
  for (const char* w : {"churn", "data_fanout", "rekey_scale", "failover"}) {
    const Runner& run = find_workload(w)->run;
    RepResult a = run(RepOptions{3, true, false});
    RepResult b = run(RepOptions{3, true, true});
    RepResult check;
    compare_reps(a, b, check, w);
    const std::uint64_t failed = a.failed + b.failed + check.failed;
    std::printf("%-12s attempted %llu failed %llu work %.0f\n", w,
                static_cast<unsigned long long>(a.attempted),
                static_cast<unsigned long long>(failed), a.work);
    for (const auto* r : {&a, &b, &check})
      for (const std::string& f : r->failures) std::printf("  FAILED: %s\n", f.c_str());
    if (failed != 0 || a.attempted == 0 || a.work <= 0) ++bad;
  }
  std::printf(bad == 0 ? "smoke OK\n" : "smoke FAILED\n");
  return bad == 0 ? 0 : 1;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return a.smoke || find_workload(a.workload) != nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: mykil_perfbench --workload "
                 "<churn|data_fanout|rekey_scale|failover> --seed N "
                 "--seconds S --trace 0|1 [--trace-out PATH] | --smoke\n");
    return 2;
  }
  if (a.smoke) return run_smoke();
  const Workload& w = *find_workload(a.workload);
  return a.trace ? run_traced(a, w) : run_untraced(a, w);
}
