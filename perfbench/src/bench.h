// Shared types of the Mykil benchmark.
//
// A workload run ("rep") builds a fresh deployment from the seed (set-up),
// runs a timed phase, checks the outputs, and returns a RepResult. The
// benchmark repeats reps and compares them: every deterministic value must be
// identical across reps of one seed, and wall-clock values are reported as
// medians. Spans are recorded only in a traced rep.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "net/network.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// In-memory span recorder for the benchmark's own calls into each layer.
/// Spans carry a name, wall start/end, the enclosing span, and the id of
/// the workload operation they serve; they are written out at exit.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t op = 0;
    std::int64_t parent = -1;
    double start_us = 0;
    double end_us = 0;
    std::uint64_t count = 1;  ///< units of work the span covers
  };

  /// RAII span; a no-op when the log is disabled.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::uint64_t op,
          std::uint64_t count = 1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::int64_t index_ = -1;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  /// Sum of the durations (ms) and of the counts of spans named `name`.
  [[nodiscard]] double total_ms(const std::string& name) const;
  [[nodiscard]] std::uint64_t total_count(const std::string& name) const;

  /// Chrome trace-event JSON (complete events, op id and parent in args);
  /// `other` is a JSON object stored as the file's otherData.
  void write_json(const std::string& path, const std::string& other) const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// Calibrated unit costs of the crypto primitives, measured by calling
/// them directly (calibrate.cpp). Feeds the `.est_ms` per-layer metrics,
/// which are count x unit cost estimates, not measured busy time.
struct CryptoUnitCosts {
  double rsa_generate_ms = 0;
  double pk_encrypt_us = 0;
  double pk_decrypt_us = 0;
  double rsa_sign_us = 0;
  double rsa_verify_us = 0;
  /// One data-envelope open (DataPlaneKey::open of the key box + sym_open
  /// of the payload box) per payload size.
  std::map<std::size_t, double> data_open_us;
  [[nodiscard]] double open_us(std::size_t payload) const;
};
CryptoUnitCosts calibrate_crypto(std::uint64_t seed);

/// Payload sizes of the data workloads (the calibration covers each).
inline const std::vector<std::size_t>& payload_sizes() {
  static const std::vector<std::size_t> sizes{64, 256, 1024, 4096};
  return sizes;
}

/// Fixed kernels (host_speed.cpp), one per kind of work that bounds a
/// phase. Host contention slows these kinds by different amounts, so each
/// phase is scaled by the kernel whose time tracks its own.
enum class Kernel {
  kProducts,    ///< chained 768-bit products: RSA-bound phases
  kFreshPages,  ///< fault in and fill 768 KiB of new pages: allocation-bound
};

/// Wall seconds of one run of `kernel`.
double kernel_s(Kernel kernel);

/// Each kernel's wall seconds on the 4-core reference host. A reference
/// second is a wall second scaled by kReferenceKernelS / the kernel's time
/// measured next to it: what the interval would have taken at the
/// reference host's speed.
constexpr double kReferenceKernelS = 0.0005;

/// Wall time of one phase of a rep (set-up or the timed phase), cut into
/// segments at fixed points of the workload: the same points, with the
/// same work, in every rep of a seed.
struct Timing {
  std::vector<double> segments;  ///< wall seconds
  /// Kernel times at the cuts: kernel_s[k] just before segments[k] and
  /// kernel_s[k + 1] just after it, both outside the timed segments.
  std::vector<double> kernel_s;

  [[nodiscard]] double wall_s() const;
  /// Segment k in reference seconds, scaled by the kernel at its two ends.
  [[nodiscard]] double ref_segment_s(std::size_t k) const;
  [[nodiscard]] double ref_s() const;  ///< sum over the segments
};

/// Times a phase into a Timing. The phase's kernel runs at the start and
/// at every cut, outside the timed segments.
class SegmentTimer {
 public:
  SegmentTimer(Timing& t, Kernel kernel);
  void cut();  ///< ends a segment here and starts the next

 private:
  Timing& t_;
  Kernel kernel_;
  Clock::time_point t0_;
};

struct RepResult {
  explicit RepResult(bool traced = false) : spans(traced) {}

  SpanLog spans;
  Timing setup;  ///< group, keypairs, schedule and pre-joins
  Timing timed;  ///< the timed phase
  /// Units of work completed in the timed phase for ops_per_s: membership
  /// ops (churn, failover), receiver deliveries (data_fanout), simulator
  /// events (rekey_scale).
  double work = 0;
  /// Network bytes sent in the timed phase.
  double net_bytes = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failed checks, for humans
  /// Counts and virtual-time values: identical across reps of one seed.
  std::map<std::string, double> det;
  /// Virtual-time latency samples (ms), deterministic like `det`.
  std::map<std::string, std::vector<double>> samples;
  /// Decrypted data deliveries in the timed phase per payload size,
  /// deterministic like `det`; feeds the data-open cost estimate.
  std::map<std::size_t, std::uint64_t> opened;
  /// Per-layer values, filled in traced reps only.
  std::map<std::string, double> layer;

  void fail(const std::string& what, std::uint64_t n = 1) {
    failed += n;
    if (failures.size() < 8) failures.push_back(what);
  }
};

struct RepOptions {
  std::uint64_t seed = 1;
  bool smoke = false;   ///< tiny sizes for the self-test
  bool traced = false;  ///< spans + engine profile + metrics registry
};

RepResult run_churn(const RepOptions& opt);
RepResult run_data_fanout(const RepOptions& opt);
RepResult run_failover(const RepOptions& opt);
RepResult run_rekey_scale(const RepOptions& opt);

/// Network-layer per-layer values (NetStats totals and per-label bytes,
/// plus the engine profile when enabled) written into `layer`.
void fill_net_layer(const mykil::net::Network& net,
                    std::map<std::string, double>& layer);

/// p-th percentile (0..100) by nearest rank; 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// Order-independent multiset hash of byte strings (sum of FNV-1a).
std::uint64_t fnv1a(mykil::ByteView b);

}  // namespace perfbench
