#include "crypto/hmac.h"

namespace mykil::crypto {

HmacKey::HmacKey(ByteView key) {
  constexpr std::size_t kBlock = Sha256::kBlockSize;

  Bytes k(kBlock, 0);
  if (key.size() > kBlock) {
    Bytes kd = Sha256::digest(key);
    std::copy(kd.begin(), kd.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }

  Bytes ipad(kBlock), opad(kBlock);
  for (std::size_t i = 0; i < kBlock; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  // Each pad is exactly one block, so both states are compressed and the
  // internal buffers are empty — copies of them resume mid-stream.
  inner_.update(ipad);
  outer_.update(opad);
}

Bytes HmacKey::mac(ByteView message) const {
  Sha256 inner = inner_;
  inner.update(message);
  Bytes inner_digest = inner.finish();

  Sha256 outer = outer_;
  outer.update(inner_digest);
  return outer.finish();
}

Bytes HmacKey::mac_trunc(ByteView message, std::size_t n) const {
  Bytes full = mac(message);
  if (n < full.size()) full.resize(n);
  return full;
}

bool HmacKey::verify(ByteView message, ByteView tag) const {
  Bytes expected = mac(message);
  if (tag.size() > expected.size() || tag.empty()) return false;
  // Accept truncated tags of the caller-provided length.
  return ct_equal(ByteView(expected.data(), tag.size()), tag);
}

Bytes hmac_sha256(ByteView key, ByteView message) {
  return HmacKey(key).mac(message);
}

bool hmac_verify(ByteView key, ByteView message, ByteView tag) {
  return HmacKey(key).verify(message, tag);
}

Bytes hmac_sha256_trunc(ByteView key, ByteView message, std::size_t n) {
  return HmacKey(key).mac_trunc(message, n);
}

}  // namespace mykil::crypto
