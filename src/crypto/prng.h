// Deterministic cryptographic PRNG.
//
// Every source of randomness in the library (keys, nonces, RSA primes,
// simulated workload churn) draws from a Prng instance, so whole experiments
// are reproducible from a single seed — essential for a simulator whose
// results must be regenerable.
//
// Construction: SHA-256 in counter mode over (seed || counter), with a
// buffered output block. This is the classic hash-DRBG shape; it is not
// meant to be an audited DRBG, but it is unpredictable without the seed and
// has no observable bias for our purposes.
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "crypto/speck.h"

namespace mykil::crypto {

class Prng {
 public:
  /// Seed from a 64-bit value (tests, benchmarks, simulations).
  explicit Prng(std::uint64_t seed);
  /// Seed from arbitrary bytes (e.g. mixing in an entity identifier so each
  /// node's stream is independent).
  explicit Prng(ByteView seed);

  /// Fill and return `n` random bytes.
  Bytes bytes(std::size_t n);
  /// Fill caller-provided buffer.
  void fill(std::span<std::uint8_t> out);

  std::uint64_t next_u64();
  /// Uniform value in [0, bound). `bound` must be > 0.
  std::uint64_t uniform(std::uint64_t bound);
  /// Uniform double in [0, 1).
  double uniform_double();
  /// Exponentially distributed value with the given mean (Poisson processes
  /// in workload generators).
  double exponential(double mean);

  /// Derive an independent child generator (e.g. one per simulated node).
  Prng fork();

 private:
  void refill();

  Bytes key_;               // 32-byte internal state
  std::uint64_t counter_ = 0;
  Bytes block_;             // current output block
  std::size_t block_pos_ = 0;
};

/// Order-independent counter-mode randomness.
///
/// A Prng is a single sequential stream: the i-th draw depends on how many
/// draws happened before it, so any consumer whose draw ORDER varies (a
/// parallel simulator interleaving shards differently per worker count)
/// gets different values. A StreamPrf instead maps explicit coordinates
/// (stream, counter) to uniform bits with one Speck128 invocation — no
/// hidden state, so the value of draw #n of stream s is the same no matter
/// what other streams did in between. The simulator keys streams by
/// (node, purpose) and gives each its own counter; see net::Network.
///
/// The derivation (key = SHA-256("mykil-stream-prf" || seed) truncated to
/// 16 bytes, block = SpeckEnc(stream, counter)) is covered by golden-value
/// regression tests: changing it invalidates every recorded same-seed
/// digest, so it must never change silently.
class StreamPrf {
 public:
  explicit StreamPrf(std::uint64_t seed);

  /// Raw 128-bit PRF output for (stream, counter).
  void block(std::uint64_t stream, std::uint64_t counter, std::uint64_t& lo,
             std::uint64_t& hi) const {
    prf_.ctr_block(stream, counter, lo, hi);
  }

  [[nodiscard]] std::uint64_t u64(std::uint64_t stream,
                                  std::uint64_t counter) const {
    std::uint64_t lo, hi;
    prf_.ctr_block(stream, counter, lo, hi);
    return lo;
  }

  /// Uniform in [0, bound), bound > 0. Rejection-sampled to avoid modulo
  /// bias; each attempt consumes one tick of `counter`.
  std::uint64_t uniform(std::uint64_t stream, std::uint64_t& counter,
                        std::uint64_t bound) const;

  /// Uniform double in [0, 1); consumes one tick of `counter`.
  double uniform_double(std::uint64_t stream, std::uint64_t& counter) const {
    return static_cast<double>(u64(stream, counter++) >> 11) * 0x1.0p-53;
  }

 private:
  Speck128 prf_;
};

}  // namespace mykil::crypto
