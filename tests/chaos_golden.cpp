// Golden-digest gate for the chaos harness: every row of BENCH_chaos.json
// is rerun from its seed, and each run must converge with exactly the
// digest the row records. The digest folds every schedule tally,
// invariant result, repair counter and the network's message/byte totals,
// so a change that alters protocol behaviour anywhere in a schedule shows
// up here. An intended behaviour change regenerates BENCH_chaos.json
// (mykil_sim --chaos <seed> --area-split --chaos-json <path>) and edits
// nothing else.
//
//   chaos_golden <path/to/BENCH_chaos.json> [workers]
//
// With `workers` every row reruns at that worker count instead of the one
// it records. The digest must not change: worker count changes wall time
// only, never results.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "workload/chaos.h"

namespace {

/// The raw text after `"key": ` in a one-line JSON object, up to the next
/// ',' or '}' (quotes stripped). Empty when the key is absent.
std::string field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\": ";
  std::size_t pos = line.find(tag);
  if (pos == std::string::npos) return {};
  pos += tag.size();
  std::size_t end = line.find_first_of(",}", pos);
  std::string v = line.substr(pos, end - pos);
  if (v.size() >= 2 && v.front() == '"' && v.back() == '"')
    v = v.substr(1, v.size() - 2);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  // 0: rerun each row at the worker count it records.
  unsigned workers_override = 0;
  bool bad_workers = false;
  if (argc == 3) {
    char* end = nullptr;
    unsigned long w = std::strtoul(argv[2], &end, 10);
    bad_workers = *end != '\0' || w == 0 || w > 64;
    workers_override = static_cast<unsigned>(w);
  }
  if (argc < 2 || argc > 3 || bad_workers) {
    std::fprintf(stderr,
                 "usage: chaos_golden <BENCH_chaos.json> [workers 1..64]\n");
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "chaos_golden: cannot read %s\n", argv[1]);
    return 2;
  }

  int rows = 0;
  int failures = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    ++rows;
    const std::string seed = field(line, "seed");
    const std::string workers = field(line, "workers");
    const std::string digest = field(line, "digest");
    if (seed.empty() || digest.empty() || field(line, "converged") != "true") {
      std::printf("chaos_golden: row %d is not a converged chaos row\n", rows);
      ++failures;
      continue;
    }
    mykil::workload::ChaosOptions opt;
    opt.seed = std::strtoull(seed.c_str(), nullptr, 10);
    opt.workers = workers_override;
    if (opt.workers == 0)
      opt.workers = workers.empty() ? 1u
                                    : static_cast<unsigned>(std::strtoul(
                                          workers.c_str(), nullptr, 10));
    opt.dynamic_areas = field(line, "dynamic_areas") == "true";
    mykil::workload::ChaosReport rep = mykil::workload::run_chaos(opt);

    char got[17];
    std::snprintf(got, sizeof got, "%016llx",
                  static_cast<unsigned long long>(rep.digest));
    const bool ok = rep.converged() && digest == got;
    std::printf(
        "chaos_golden: seed %s workers %u %s digest %s (recorded %s)%s\n",
        seed.c_str(), opt.workers, rep.converged() ? "CONVERGED" : "FAILED",
        got, digest.c_str(), ok ? "" : "  <-- MISMATCH");
    if (!ok) ++failures;
  }
  if (rows == 0) {
    std::printf("chaos_golden: FAIL — no rows in %s\n", argv[1]);
    return 1;
  }
  std::printf("chaos_golden: %d/%d seeds reproduce\n", rows - failures, rows);
  return failures == 0 ? 0 : 1;
}
