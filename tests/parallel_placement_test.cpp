// Shard-placement determinism gate (DESIGN.md 11): shards are an execution
// detail, so a chaos schedule must produce ONE digest no matter how many
// workers drain the area shards.
//
// Two sweeps, each at workers 1/2/4/8:
//   1. dynamic_areas, so spares, splits, and merges move members between
//      area shards mid-run.
//   2. a crash-heavy seed: primary crashes land mid-window, where a
//      worker-dependent merge order would show up first.
#include <cstdio>

#include "workload/chaos.h"

namespace {

using namespace mykil;

constexpr unsigned kWorkers[] = {1, 2, 4, 8};

/// Run the schedule at every worker count; return true iff all digests
/// match the first and every run converged.
bool sweep(const char* name, const workload::ChaosOptions& base) {
  std::uint64_t digest = 0;
  for (unsigned workers : kWorkers) {
    workload::ChaosOptions opt = base;
    opt.workers = workers;
    workload::ChaosReport rep = workload::run_chaos(opt);
    std::printf("parallel_placement[%s]: workers=%u digest=%016llx %s\n",
                name, workers, static_cast<unsigned long long>(rep.digest),
                rep.converged() ? "converged" : "FAILED");
    if (!rep.converged()) return false;
    if (digest == 0) {
      digest = rep.digest;
    } else if (rep.digest != digest) {
      std::printf("parallel_placement[%s]: FAIL — digest depends on the "
                  "worker count\n", name);
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace mykil;

  // Sweep 1: dynamic areas (spares + split/merge traffic).
  workload::ChaosOptions opt;
  opt.seed = 5;
  opt.dynamic_areas = true;
  if (!sweep("dynamic", opt)) return 1;

  // Sweep 2: crash-heavy seed — faults land mid-window where merge-order
  // bugs would first desynchronize shards.
  workload::ChaosOptions crash;
  crash.seed = 2;
  crash.crash_primaries = true;
  if (!sweep("faults", crash)) return 1;

  std::printf("parallel_placement: PASS — one digest per schedule across "
              "workers 1/2/4/8\n");
  return 0;
}
