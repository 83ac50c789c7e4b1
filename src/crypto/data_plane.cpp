#include "crypto/data_plane.h"

#include <bit>
#include <cstring>
#include <utility>

#include "common/error.h"
#include "crypto/sealed.h"

namespace mykil::crypto {

namespace {

constexpr std::size_t kNonceLen = 8;
constexpr std::size_t kTagLen = 16;
static_assert(kSealOverhead == kNonceLen + kTagLen);

inline std::uint64_t nonce_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    std::uint64_t r = 0;
    for (int i = 0; i < 8; ++i) r = r << 8 | ((v >> (8 * i)) & 0xFF);
    v = r;
  }
  return v;
}

}  // namespace

DataPlaneKey::DataPlaneKey(const SymmetricKey& key)
    : cipher_(key.derive("enc").bytes()), mac_(key.derive("mac").bytes()) {}

Bytes DataPlaneKey::seal(ByteView plaintext, Prng& prng) const {
  Bytes out;
  out.reserve(kNonceLen + plaintext.size() + kTagLen);
  Bytes nonce = prng.bytes(kNonceLen);
  append(out, nonce);
  append(out, plaintext);
  // Encrypt in place: the plaintext bytes sit in their final wire position
  // and the keystream XOR happens right there — no scratch ciphertext.
  cipher_.ctr_xor(nonce_le64(out.data()), 0, out.data() + kNonceLen,
                  plaintext.size());
  Bytes tag = mac_.mac_trunc(ByteView(out.data(), out.size()), kTagLen);
  append(out, tag);
  return out;
}

std::optional<Bytes> DataPlaneKey::try_open(ByteView sealed) const {
  if (sealed.size() < kNonceLen + kTagLen) return std::nullopt;
  ByteView body(sealed.data(), sealed.size() - kTagLen);
  ByteView tag(sealed.data() + sealed.size() - kTagLen, kTagLen);
  if (!mac_.verify(body, tag)) return std::nullopt;
  Bytes pt(sealed.begin() + kNonceLen, sealed.end() - kTagLen);
  cipher_.ctr_xor(nonce_le64(sealed.data()), 0, pt.data(), pt.size());
  return pt;
}

Bytes DataPlaneKey::open(ByteView sealed) const {
  std::optional<Bytes> pt = try_open(sealed);
  if (!pt) throw AuthError("sealed box too short or tag mismatch");
  return std::move(*pt);
}

}  // namespace mykil::crypto
