// Host-speed reference kernels and the timer that uses them.
//
// The benchmark runs on shared hosts whose speed changes by up to about 2x,
// on every core at once, within tens of milliseconds and in episodes that
// last minutes. Medians inside one run cannot remove an episode that covers
// the whole run, so every phase is timed in reference seconds: the wall
// time scaled by how fast the host ran a fixed kernel, of the kind of work
// that bounds the phase, right next to it. The kernels are the benchmark's
// own code, not the repository's, so a change to the libraries cannot make
// them faster or slower.
#include <sys/mman.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "bench.h"

namespace perfbench {

namespace {

constexpr int kLimbs = 12;      // 768 bits, the benchmark's RSA size
constexpr int kRounds = 2000;   // about 0.5 ms on the reference host
constexpr std::size_t kFresh = 768 << 10;  // about 0.5 ms on the reference host
volatile std::uint64_t g_sink = 0;  // keeps the kernels' results alive

/// Chained 768-bit schoolbook products: the multiply-carry shape of the
/// RSA inner loop, with no memory traffic beyond a few cache lines.
std::uint64_t products() {
  std::uint64_t a[kLimbs], b[kLimbs], r[2 * kLimbs];
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < kLimbs; ++i) {
    x ^= x << 13, x ^= x >> 7, x ^= x << 17;
    a[i] = x;
    x ^= x << 13, x ^= x >> 7, x ^= x << 17;
    b[i] = x | 1;
  }
  for (int round = 0; round < kRounds; ++round) {
    for (auto& w : r) w = 0;
    for (int i = 0; i < kLimbs; ++i) {
      std::uint64_t carry = 0;
      for (int j = 0; j < kLimbs; ++j) {
        const unsigned __int128 p =
            static_cast<unsigned __int128>(a[i]) * b[j] + r[i + j] + carry;
        r[i + j] = static_cast<std::uint64_t>(p);
        carry = static_cast<std::uint64_t>(p >> 64);
      }
      r[i + kLimbs] = carry;
    }
    for (int i = 0; i < kLimbs; ++i) a[i] = r[i] ^ r[i + kLimbs];
  }
  return a[0];
}

/// Fresh pages from the operating system, faulted in by a copy, then
/// returned: the cost of allocating and filling new memory.
std::uint64_t fresh_pages() {
  static const std::vector<std::uint8_t> source(kFresh, 0x5A);
  void* fresh = mmap(nullptr, kFresh, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (fresh == MAP_FAILED) return 0;
  std::memcpy(fresh, source.data(), kFresh);
  const std::uint64_t v = static_cast<const std::uint8_t*>(fresh)[kFresh / 2];
  munmap(fresh, kFresh);
  return v;
}

}  // namespace

double kernel_s(Kernel kernel) {
  const Clock::time_point t0 = Clock::now();
  const std::uint64_t v =
      kernel == Kernel::kProducts ? products() : fresh_pages();
  const double s = seconds_since(t0);
  g_sink = g_sink + v;
  return s;
}

SegmentTimer::SegmentTimer(Timing& t, Kernel kernel) : t_(t), kernel_(kernel) {
  t_.kernel_s.push_back(kernel_s(kernel_));
  t0_ = Clock::now();
}

void SegmentTimer::cut() {
  t_.segments.push_back(seconds_since(t0_));
  t_.kernel_s.push_back(kernel_s(kernel_));
  t0_ = Clock::now();
}

double Timing::wall_s() const {
  double s = 0;
  for (double seg : segments) s += seg;
  return s;
}

double Timing::ref_segment_s(std::size_t k) const {
  return segments[k] * kReferenceKernelS /
         ((kernel_s[k] + kernel_s[k + 1]) / 2);
}

double Timing::ref_s() const {
  double s = 0;
  for (std::size_t k = 0; k < segments.size(); ++k) s += ref_segment_s(k);
  return s;
}

}  // namespace perfbench
