// SIMD/scalar equivalence gate (DESIGN.md 12).
//
// Every accelerated primitive must be bit-identical to the portable scalar
// core for all message lengths 0..1025 and for unaligned buffers (offsets
// 1/3/7), plus the 64-bit CTR counter crossing the 2^32 block boundary.
// A known-answer test pins the sealed-box bytes themselves.
// The binary is registered twice in ctest: once with auto dispatch (SIMD
// vs scalar in-process via set_force_scalar) and once with
// MYKIL_FORCE_SCALAR=1 in the environment, which pins every path scalar
// and turns the same tests into a scalar self-consistency check.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/hex.h"
#include "crypto/cpu_features.h"
#include "crypto/data_plane.h"
#include "crypto/sealed.h"
#include "crypto/sha256.h"
#include "crypto/speck.h"

namespace mykil::crypto {
namespace {

constexpr std::size_t kMaxLen = 1025;  // past one SHA block + one word
const std::size_t kOffsets[] = {0, 1, 3, 7};

/// Scoped dispatch override; restores auto dispatch on exit.
struct ForceScalar {
  explicit ForceScalar(bool on) { set_force_scalar(on); }
  ~ForceScalar() { set_force_scalar(false); }
};

Bytes pattern(std::size_t len, std::uint8_t salt) {
  Bytes b(len);
  for (std::size_t i = 0; i < len; ++i)
    b[i] = static_cast<std::uint8_t>(i * 31 + salt);
  return b;
}

Bytes test_key() { return pattern(16, 0xA5); }

/// CTR keystream oracle built only on the (always-scalar) single-block
/// encryptor: byte i of block k is E(nonce, counter+k) serialized LE.
Bytes ctr_oracle(const Speck128& cipher, std::uint64_t nonce,
                 std::uint64_t counter, ByteView data) {
  Bytes out(data.begin(), data.end());
  for (std::size_t off = 0; off < out.size(); off += 16) {
    std::uint8_t block[16];
    for (int i = 0; i < 8; ++i) {
      block[i] = static_cast<std::uint8_t>(nonce >> (8 * i));
      block[8 + i] = static_cast<std::uint8_t>(counter >> (8 * i));
    }
    cipher.encrypt_block(block);
    for (std::size_t i = 0; i < 16 && off + i < out.size(); ++i)
      out[off + i] ^= block[i];
    ++counter;
  }
  return out;
}

TEST(SpeckSimd, CtrXorAllLengthsAndOffsets) {
  Speck128 cipher(test_key());
  const std::uint64_t nonce = 0x0123456789ABCDEFULL;
  for (std::size_t off : kOffsets) {
    // One oversized buffer per offset; the region under test starts at
    // `off` so SIMD loads/stores see genuinely unaligned pointers.
    std::vector<std::uint8_t> raw(off + kMaxLen);
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      Bytes msg = pattern(len, static_cast<std::uint8_t>(off));

      if (len != 0) std::memcpy(raw.data() + off, msg.data(), len);
      {
        ForceScalar fs(true);
        cipher.ctr_xor(nonce, 0, raw.data() + off, len);
      }
      Bytes scalar_out(raw.data() + off, raw.data() + off + len);

      if (len != 0) std::memcpy(raw.data() + off, msg.data(), len);
      cipher.ctr_xor(nonce, 0, raw.data() + off, len);
      Bytes simd_out(raw.data() + off, raw.data() + off + len);

      ASSERT_EQ(simd_out, scalar_out) << "len=" << len << " off=" << off;
      if (len % 97 == 0) {  // spot-check against the block oracle
        ASSERT_EQ(simd_out, ctr_oracle(cipher, nonce, 0, msg)) << len;
      }
    }
  }
}

TEST(SpeckSimd, FreeFunctionMatchesScalar) {
  Bytes key = test_key();
  Bytes nonce = pattern(8, 0x5A);
  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 64u, 127u, 1024u, 1025u}) {
    Bytes msg = pattern(len, 7);
    Bytes simd_out = speck_ctr(key, nonce, msg);
    ForceScalar fs(true);
    ASSERT_EQ(simd_out, speck_ctr(key, nonce, msg)) << len;
  }
}

TEST(SpeckSimd, CounterCrosses32BitBoundary) {
  Speck128 cipher(test_key());
  const std::uint64_t nonce = 0xFEEDFACECAFEBEEFULL;
  // Start 5 blocks below 2^32: a 12-block message straddles the boundary
  // inside a single SIMD batch. A kernel that increments the counter in 32
  // bits (or splits lanes wrong) diverges exactly here.
  const std::uint64_t start = (1ULL << 32) - 5;
  Bytes msg = pattern(12 * 16 + 5, 0x3C);

  Bytes simd_out = msg;
  cipher.ctr_xor(nonce, start, simd_out.data(), simd_out.size());

  Bytes scalar_out = msg;
  {
    ForceScalar fs(true);
    cipher.ctr_xor(nonce, start, scalar_out.data(), scalar_out.size());
  }

  ASSERT_EQ(simd_out, scalar_out);
  ASSERT_EQ(simd_out, ctr_oracle(cipher, nonce, start, msg));
  // And the keystream must actually differ from a non-crossing window of
  // the same length (guards against a counter stuck at truncated values).
  Bytes other = msg;
  cipher.ctr_xor(nonce, 5, other.data(), other.size());
  ASSERT_NE(simd_out, other);
}

TEST(Sha256Simd, AllLengthsAndOffsets) {
  for (std::size_t off : kOffsets) {
    std::vector<std::uint8_t> raw(off + kMaxLen);
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      Bytes msg = pattern(len, static_cast<std::uint8_t>(off * 11));
      if (len != 0) std::memcpy(raw.data() + off, msg.data(), len);
      ByteView view(raw.data() + off, len);

      Bytes simd_digest = Sha256::digest(view);
      ForceScalar fs(true);
      ASSERT_EQ(simd_digest, Sha256::digest(view))
          << "len=" << len << " off=" << off;
    }
  }
}

// Known-answer test for the sealed box: the bytes seal() and sym_seal()
// put on the wire for a fixed key, plaintext and nonce draw. Every golden
// protocol digest depends on these bytes, so a change to the box layout,
// the nonce draw, the Speck-CTR kernels or the HMAC core fails here, under
// both the auto-dispatch and the forced-scalar run. The 1024-byte box
// (1048 bytes) is pinned by its SHA-256 digest.
TEST(DataPlaneSimd, SealKnownAnswer) {
  struct Case {
    std::size_t len;
    const char* box_hex;
  };
  const Case cases[] = {
      {0, "ff59f06111d4599a48ad71259bdc25f1463374cf9f28c66c"},
      {1, "ff59f06111d4599ab22d0c5409f3f0306d2a03896ac14ea392"},
      {16,
       "ff59f06111d4599ab2f77f5b11e349628bdb9b01cabe72958dbb383962c5"
       "2ceb530561967dbc405a"},
      {100,
       "ff59f06111d4599ab2f77f5b11e349628bdb9b01cabe7295a79c9309ebe0"
       "e481df713b117def07a2f83ab128bd215e4433d11a6d669265937de72f40"
       "c546483f1d226a0bea53451ddee5495e4d2454e5c8c774d04d848e486e1c"
       "94011c53957fd11060eaa36ddceb181f35be6094ec4c18de02c5412ec823"
       "2076ce6d"},
  };
  SymmetricKey key(test_key());
  DataPlaneKey dpk(key);
  auto seal_both = [&](std::size_t len) {
    Bytes msg = pattern(len, 0x42);
    Prng a(1234), b(1234);
    Bytes box = dpk.seal(msg, a);
    EXPECT_EQ(sym_seal(key, msg, b), box) << len;
    EXPECT_EQ(sym_open(key, box), msg) << len;
    return box;
  };
  for (const Case& c : cases)
    EXPECT_EQ(hex_encode(seal_both(c.len)), c.box_hex) << c.len;
  EXPECT_EQ(hex_encode(Sha256::digest(seal_both(1024))),
            "377d062c6f3782fa73bc1cfe09a7bed9abefc6739afc0b73d41644babff479d1");
}

TEST(CpuFeaturesApi, ImplNamesAndOverride) {
  // Names must come from the fixed vocabulary whatever the host is.
  auto one_of = [](const char* s, std::initializer_list<const char*> set) {
    for (const char* v : set)
      if (std::strcmp(s, v) == 0) return true;
    return false;
  };
  EXPECT_TRUE(one_of(speck_impl_name(), {"scalar", "sse2", "avx2"}));
  EXPECT_TRUE(one_of(sha256_impl_name(), {"scalar", "sha_ni"}));

  ForceScalar fs(true);
  EXPECT_STREQ(speck_impl_name(), "scalar");
  EXPECT_STREQ(sha256_impl_name(), "scalar");
}

}  // namespace
}  // namespace mykil::crypto
