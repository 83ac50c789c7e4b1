#include "crypto/prng.h"

#include <cmath>

#include "common/error.h"
#include "common/wire.h"
#include "crypto/sha256.h"

namespace mykil::crypto {

Prng::Prng(std::uint64_t seed) {
  WireWriter w;
  w.str("mykil-prng-seed-u64");
  w.u64(seed);
  key_ = Sha256::digest(w.data());
}

Prng::Prng(ByteView seed) {
  WireWriter w;
  w.str("mykil-prng-seed-bytes");
  w.bytes(seed);
  key_ = Sha256::digest(w.data());
}

void Prng::refill() {
  WireWriter w;
  w.raw(key_);
  w.u64(counter_++);
  block_ = Sha256::digest(w.data());
  block_pos_ = 0;
}

void Prng::fill(std::span<std::uint8_t> out) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (block_pos_ >= block_.size()) refill();
    out[i] = block_[block_pos_++];
  }
}

Bytes Prng::bytes(std::size_t n) {
  Bytes out(n);
  fill(out);
  return out;
}

std::uint64_t Prng::next_u64() {
  std::uint8_t buf[8];
  fill(buf);
  std::uint64_t v = 0;
  for (std::uint8_t b : buf) v = v << 8 | b;
  return v;
}

std::uint64_t Prng::uniform(std::uint64_t bound) {
  if (bound == 0) throw CryptoError("Prng::uniform bound must be > 0");
  // Rejection sampling to avoid modulo bias.
  std::uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return v % bound;
}

double Prng::uniform_double() {
  // 53 random bits into [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Prng::exponential(double mean) {
  double u;
  do {
    u = uniform_double();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

Prng Prng::fork() {
  Bytes child_seed = bytes(32);
  return Prng(ByteView(child_seed));
}

namespace {

Bytes stream_prf_key(std::uint64_t seed) {
  WireWriter w;
  w.str("mykil-stream-prf");
  w.u64(seed);
  Bytes digest = Sha256::digest(w.data());
  digest.resize(Speck128::kKeySize);
  return digest;
}

}  // namespace

StreamPrf::StreamPrf(std::uint64_t seed) : prf_(stream_prf_key(seed)) {}

std::uint64_t StreamPrf::uniform(std::uint64_t stream, std::uint64_t& counter,
                                 std::uint64_t bound) const {
  if (bound == 0) throw CryptoError("StreamPrf::uniform bound must be > 0");
  std::uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
  std::uint64_t v;
  do {
    v = u64(stream, counter++);
  } while (v >= limit);
  return v % bound;
}

}  // namespace mykil::crypto
