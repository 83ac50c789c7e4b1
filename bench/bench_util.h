// Shared helpers for the figure/table reproduction binaries.
//
// Bench output file formats (the BENCH_*.json files at the repo root):
//
//   - Single-document suites (BenchJson::write_file): ONE JSON object
//     holding every row of one suite run — rewritten wholesale each run.
//     Used when a suite is always regenerated as a unit (BENCH_crypto.json).
//   - Per-run suites are JSONL: one self-contained JSON object PER LINE,
//     appended per run/configuration (BenchJson::append_jsonl, or fprintf
//     of a single line). Used when runs accumulate across configurations
//     or commits (BENCH_sim.json, BENCH_chaos.json) — append keeps earlier
//     rows' bytes intact, and `grep`/`jq -c` consume lines directly.
//
// The smoke gates accept both shapes: a parser should treat a leading '{'
// on line one followed by more lines as a pretty-printed single document,
// and otherwise parse line-by-line.
#pragma once

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace mykil::bench {

/// Peak resident set size of this process in MiB (VmHWM from
/// /proc/self/status), or 0 where unavailable. Scale benches record it so
/// memory growth at 1M members shows up in the JSON trajectory.
inline std::size_t peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %zu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024;
}

/// Online CPUs on this host (0 where unavailable). Scale benches record it
/// in every row: a speedup curve is meaningless without knowing whether
/// the sweep ran on one core or sixteen.
inline unsigned host_cores() {
  long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 0;
}

/// The CMake build type this bench was compiled under ("RelWithDebInfo",
/// "Debug", ...; bench/CMakeLists.txt defines MYKIL_BUILD_TYPE). JSON rows
/// record it next to host_cores: a timing says little without the build
/// that produced it.
inline const char* build_type() { return MYKIL_BUILD_TYPE; }

/// Print a header line followed by a separator sized to it.
inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Fixed-width row printing: benches format with std::printf directly for
/// byte-identical reproducible output files.
inline void print_rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Collects (name, ns/op, iterations) rows and writes them as a small JSON
/// document, so benchmark trajectories (e.g. BENCH_crypto.json at the repo
/// root) can be recorded and diffed across commits without a JSON library.
/// Every row carries host_cores and build_type.
class BenchJson {
 public:
  explicit BenchJson(std::string suite) : suite_(std::move(suite)) {}

  void add(const std::string& name, double ns_per_op, std::int64_t iterations) {
    rows_.push_back({name, ns_per_op, iterations, 0.0, ""});
  }

  /// Row with throughput and the dispatched implementation name ("scalar",
  /// "avx2", "sha_ni", ...) — the shape the SIMD data-plane rows use.
  /// mb_s <= 0 or an empty impl omits that field from the JSON.
  void add(const std::string& name, double ns_per_op, std::int64_t iterations,
           double mb_s, std::string impl) {
    rows_.push_back({name, ns_per_op, iterations, mb_s, std::move(impl)});
  }

  /// Write the collected rows to `path`; returns false on I/O failure.
  bool write_file(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"suite\": \"%s\",\n  \"results\": [\n", suite_.c_str());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"ns_per_op\": %.1f, "
                   "\"iterations\": %lld",
                   r.name.c_str(), r.ns_per_op,
                   static_cast<long long>(r.iterations));
      if (r.mb_s > 0) std::fprintf(f, ", \"mb_s\": %.1f", r.mb_s);
      if (!r.impl.empty())
        std::fprintf(f, ", \"impl\": \"%s\"", r.impl.c_str());
      std::fprintf(f, ", \"host_cores\": %u, \"build_type\": \"%s\"}%s\n",
                   host_cores(), build_type(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Row {
    std::string name;
    double ns_per_op;
    std::int64_t iterations;
    double mb_s;       ///< throughput, omitted from JSON when <= 0
    std::string impl;  ///< dispatched kernel name, omitted when empty
  };

  std::string suite_;
  std::vector<Row> rows_;
};

/// Write a MetricsRegistry snapshot alongside a bench's JSON output, so a
/// trajectory file can carry distributions (p50/p95/p99 latencies, batch
/// sizes) in addition to BenchJson's flat ns/op rows. Returns false on I/O
/// failure; prints where the snapshot went on success.
inline bool write_metrics_snapshot(const obs::MetricsRegistry& metrics,
                                   const std::string& suite,
                                   const std::string& path) {
  if (!metrics.write_json(path, suite)) return false;
  std::printf("metrics snapshot (%zu series) -> %s\n", metrics.size(),
              path.c_str());
  return true;
}

}  // namespace mykil::bench
