// Unit costs of the crypto primitives at the benchmark's RSA-768, timed by
// calling crypto:: directly. Each figure is the median of several batches.
#include <algorithm>
#include <vector>

#include "bench.h"
#include "crypto/data_plane.h"
#include "crypto/prng.h"
#include "crypto/rsa.h"
#include "crypto/sealed.h"

namespace perfbench {

namespace {

using namespace mykil;

/// Median over `batches` of the per-call microseconds of `fn` run `iters`
/// times per batch.
template <typename Fn>
double median_us(int batches, int iters, Fn&& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) fn();
    per_call.push_back(seconds_since(t0) * 1e6 / iters);
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

}  // namespace

CryptoUnitCosts calibrate_crypto(std::uint64_t seed) {
  constexpr std::size_t kBits = 768;
  CryptoUnitCosts c;
  crypto::Prng prng(seed ^ 0xCA11B4A7Eull);

  c.rsa_generate_ms =
      median_us(5, 1, [&] { (void)crypto::rsa_generate(kBits, prng); }) / 1000;

  crypto::RsaKeyPair kp = crypto::rsa_generate(kBits, prng);
  // 64-byte messages: the size of a wrapped nonce/ticket block.
  Bytes msg = prng.bytes(64);
  Bytes box = crypto::pk_encrypt(kp.pub, msg, prng);
  Bytes sig = crypto::rsa_sign(kp.priv, msg);
  c.pk_encrypt_us =
      median_us(5, 40, [&] { (void)crypto::pk_encrypt(kp.pub, msg, prng); });
  c.pk_decrypt_us =
      median_us(5, 40, [&] { (void)crypto::pk_decrypt(kp.priv, box); });
  c.rsa_sign_us = median_us(5, 40, [&] { (void)crypto::rsa_sign(kp.priv, msg); });
  c.rsa_verify_us =
      median_us(5, 40, [&] { (void)crypto::rsa_verify(kp.pub, msg, sig); });

  // A data envelope as Member::send_data builds it: a fresh data key sealed
  // under the group key, and the payload sealed under the data key.
  crypto::SymmetricKey group_key = crypto::SymmetricKey::random(prng);
  crypto::DataPlaneKey plane(group_key);
  for (std::size_t size : payload_sizes()) {
    crypto::SymmetricKey data_key = crypto::SymmetricKey::random(prng);
    Bytes key_box = plane.seal(data_key.bytes(), prng);
    Bytes payload_box = crypto::sym_seal(data_key, prng.bytes(size), prng);
    c.data_open_us[size] = median_us(5, 400, [&] {
      crypto::SymmetricKey k(plane.open(key_box));
      (void)crypto::sym_open(k, payload_box);
    });
  }
  return c;
}

}  // namespace perfbench
