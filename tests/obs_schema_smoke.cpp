// Schema gate for the observability outputs (DESIGN.md 13.3): run one
// short chaos schedule with metrics sampling + tracing attached, then
// validate the artifacts the way a downstream dashboard would consume
// them:
//
//   1. the metrics JSONL parses line by line, carries the
//      mykil-metrics-v1 schema tag, and its seq / ts_us columns are
//      strictly monotone;
//   2. the sampled time series is worker-count-invariant once the
//      engine's own per-shard queue gauge (net.queue_depth — the one
//      legitimately sharding-dependent series) is excluded;
//   3. the chaos digest is bit-identical with and without the whole
//      observability stack, at both worker counts;
//   4. the Chrome trace parses and reports its drop counter;
//   5. the per-trigger recovery counters (member.key_recovery_requests.
//      <trigger>, ac.uplink_recovery_requests.<trigger>) add up to their
//      totals in every sample.
//
// This is deliberately a consumer-side test: it only looks at the bytes a
// user would read off disk, never at internal state.
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "workload/chaos.h"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("%-56s %s\n", what, ok ? "ok" : "FAIL");
  if (!ok) ++g_failures;
}

// Minimal JSON validator (objects/arrays/strings/numbers/bools) — enough
// to reject truncated or mis-quoted lines.
struct JsonCursor {
  const std::string& s;
  std::size_t i = 0;
  bool ok = true;

  void skip_ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool eat(char c) {
    skip_ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  void fail() { ok = false; }
  void value() {
    if (!ok) return;
    skip_ws();
    if (i >= s.size()) return fail();
    char c = s[i];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) return number();
    if (s.compare(i, 4, "true") == 0) { i += 4; return; }
    if (s.compare(i, 5, "false") == 0) { i += 5; return; }
    if (s.compare(i, 4, "null") == 0) { i += 4; return; }
    fail();
  }
  void object() {
    if (!eat('{')) return fail();
    if (eat('}')) return;
    do {
      string();
      if (!ok || !eat(':')) return fail();
      value();
      if (!ok) return;
    } while (eat(','));
    if (!eat('}')) fail();
  }
  void array() {
    if (!eat('[')) return fail();
    if (eat(']')) return;
    do {
      value();
      if (!ok) return;
    } while (eat(','));
    if (!eat(']')) fail();
  }
  void string() {
    skip_ws();
    if (i >= s.size() || s[i] != '"') return fail();
    ++i;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') ++i;
      ++i;
    }
    if (i >= s.size()) return fail();
    ++i;
  }
  void number() {
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '-' ||
            s[i] == '+' || s[i] == '.' || s[i] == 'e' || s[i] == 'E'))
      ++i;
  }
};

bool parses_as_json(const std::string& text) {
  JsonCursor c{text};
  c.value();
  c.skip_ws();
  return c.ok && c.i == text.size();
}

std::uint64_t field_u64(const std::string& line, const char* key) {
  std::string pat = std::string("\"") + key + "\": ";
  std::size_t p = line.find(pat);
  if (p == std::string::npos) return ~0ull;
  return std::strtoull(line.c_str() + p + pat.size(), nullptr, 10);
}

/// Sum of every `"<prefix>.<suffix>": <n>` counter in one JSONL line.
std::uint64_t sum_prefixed(const std::string& line, const std::string& prefix) {
  const std::string pat = "\"" + prefix + ".";
  std::uint64_t sum = 0;
  for (std::size_t p = line.find(pat); p != std::string::npos;
       p = line.find(pat, p + 1)) {
    std::size_t colon = line.find("\": ", p + pat.size());
    if (colon == std::string::npos) break;
    sum += std::strtoull(line.c_str() + colon + 3, nullptr, 10);
  }
  return sum;
}

/// Remove one `"key": {...}` histogram entry (flat object) plus the comma
/// that separated it from its neighbours. Used to mask net.queue_depth —
/// the per-shard heap-depth gauge whose shape legitimately depends on
/// --workers — before comparing series across worker counts.
std::string strip_entry(std::string line, const std::string& key) {
  std::string pat = "\"" + key + "\": {";
  std::size_t start = line.find(pat);
  if (start == std::string::npos) return line;
  std::size_t end = line.find('}', start + pat.size());
  if (end == std::string::npos) return line;
  ++end;  // past '}'
  if (line.compare(end, 2, ", ") == 0)
    end += 2;  // entry had a right neighbour
  else if (start >= 2 && line.compare(start - 2, 2, ", ") == 0)
    start -= 2;  // last entry: eat the left comma instead
  return line.erase(start, end - start);
}

struct Run {
  std::uint64_t digest = 0;
  std::string jsonl;
  std::string trace;
  std::size_t samples = 0;
};

}  // namespace

int main() {
  using namespace mykil;

  // Unobserved baseline, then one observed run per worker count.
  Run plain;
  {
    workload::ChaosOptions opt;
    opt.seed = 11;
    plain.digest = workload::run_chaos(opt).digest;
  }

  std::string jsonl[2];
  Run observed[2];
  for (int i = 0; i < 2; ++i) {
    unsigned workers = i == 0 ? 1 : 2;
    obs::Tracer tracer(1 << 20);
    workload::ChaosOptions opt;
    opt.seed = 11;
    opt.workers = workers;
    opt.tracer = &tracer;
    opt.metrics_interval = net::sec(4);
    opt.metrics_jsonl_path =
        "obs_schema_w" + std::to_string(workers) + ".jsonl";
    workload::ChaosReport rep = workload::run_chaos(opt);
    observed[i].digest = rep.digest;
    observed[i].samples = rep.metric_samples;
    observed[i].trace = tracer.to_chrome_trace();

    std::FILE* f = std::fopen(opt.metrics_jsonl_path.c_str(), "rb");
    if (f != nullptr) {
      char buf[4096];
      std::size_t n;
      while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        jsonl[i].append(buf, n);
      std::fclose(f);
    }
  }

  // ---- digest invariance: observability must not perturb the run ----
  check(observed[0].digest == plain.digest,
        "digest unchanged by tracing+sampling (workers=1)");
  check(observed[1].digest == plain.digest,
        "digest unchanged by tracing+sampling (workers=2)");

  // ---- metrics JSONL schema ----
  check(!jsonl[0].empty(), "metrics JSONL written to disk");
  check(observed[0].samples > 2, "multiple samples taken");

  std::istringstream in(jsonl[0]);
  std::string line;
  std::size_t lines = 0;
  std::uint64_t prev_seq = ~0ull, prev_ts = 0;
  bool all_parse = true, all_tagged = true, seq_ok = true, ts_ok = true;
  bool keys_ok = true;
  bool triggers_add_up = true;
  std::uint64_t member_requests = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    if (!parses_as_json(line)) all_parse = false;
    if (line.find("\"schema\": \"mykil-metrics-v1\"") == std::string::npos)
      all_tagged = false;
    std::uint64_t seq = field_u64(line, "seq");
    std::uint64_t ts = field_u64(line, "ts_us");
    if (seq != prev_seq + 1) seq_ok = false;  // 0,1,2,... exactly
    if (lines > 1 && ts <= prev_ts) ts_ok = false;
    prev_seq = seq;
    prev_ts = ts;
    for (const char* key : {"\"counters\": {", "\"gauges\": {",
                            "\"histograms\": {"})
      if (line.find(key) == std::string::npos) keys_ok = false;
    for (const char* total :
         {"member.key_recovery_requests", "ac.uplink_recovery_requests"}) {
      std::uint64_t t = field_u64(line, total);
      if (t == ~0ull) t = 0;  // not touched yet
      if (sum_prefixed(line, total) != t) triggers_add_up = false;
    }
    member_requests = field_u64(line, "member.key_recovery_requests");
  }
  check(lines == observed[0].samples, "one JSONL line per sample");
  check(all_parse, "every JSONL line parses as JSON");
  check(all_tagged, "every line carries the schema tag");
  check(seq_ok, "seq column counts 0,1,2,...");
  check(ts_ok, "ts_us column strictly increases");
  check(keys_ok, "counters/gauges/histograms sections present");
  check(member_requests != ~0ull && member_requests > 0,
        "chaos run made member key-recovery requests");
  check(triggers_add_up, "per-trigger recovery counts add up to totals");

  // ---- worker invariance (minus the per-shard queue gauge) ----
  check(observed[0].samples == observed[1].samples,
        "sample count identical across worker counts");
  std::istringstream in1(jsonl[0]), in2(jsonl[1]);
  std::string l1, l2;
  bool invariant = true;
  while (std::getline(in1, l1) && std::getline(in2, l2))
    if (strip_entry(l1, "net.queue_depth") !=
        strip_entry(l2, "net.queue_depth"))
      invariant = false;
  check(invariant, "series identical across workers (ex queue_depth)");

  // ---- trace output ----
  check(parses_as_json(observed[0].trace), "chrome trace parses as JSON");
  check(observed[0].trace.find("\"trace_events_dropped\":") !=
            std::string::npos,
        "trace header reports drop counter");
  check(observed[0].trace == observed[1].trace,
        "trace export identical across worker counts");

  std::printf("obs_schema_smoke: %zu samples, %zu trace bytes -> %s\n",
              observed[0].samples, observed[0].trace.size(),
              g_failures == 0 ? "PASS" : "FAIL");
  return g_failures == 0 ? 0 : 1;
}
