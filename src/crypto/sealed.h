// Authenticated symmetric encryption and hybrid public-key encryption.
//
// sym_seal/sym_open: Speck128-CTR + HMAC-SHA256 (encrypt-then-MAC). This is
// the "E_K(...)" operation the paper performs with its 128-bit area and
// auxiliary keys. Both are one-shot wrappers over crypto::DataPlaneKey, the
// one implementation of the box; a caller that seals or opens many boxes
// under one key builds a DataPlaneKey once instead.
//
// pk_encrypt/pk_decrypt: RSA-OAEP when the message fits in one RSA block,
// otherwise the hybrid scheme the paper adopts in Section V-D ("the area
// controller creates a one-time symmetric key, communicates that key ...
// encrypted with the public key of the client, and then sends the set of
// auxiliary keys by encrypting them using the one-time symmetric key").
#pragma once

#include "common/bytes.h"
#include "crypto/keys.h"
#include "crypto/rsa.h"

namespace mykil::crypto {

/// Wire overhead added by sym_seal (8-byte nonce + 16-byte truncated tag).
inline constexpr std::size_t kSealOverhead = 8 + 16;

/// Encrypt-then-MAC: returns nonce(8) || ciphertext || tag(16).
Bytes sym_seal(const SymmetricKey& key, ByteView plaintext, Prng& prng);

/// Open a sym_seal box; throws AuthError if the tag does not verify.
Bytes sym_open(const SymmetricKey& key, ByteView sealed);

/// Public-key encrypt, choosing direct OAEP or the hybrid scheme by size.
/// Output begins with a one-byte mode marker.
Bytes pk_encrypt(const RsaPublicKey& pub, ByteView msg, Prng& prng);

/// Decrypt a pk_encrypt output.
Bytes pk_decrypt(const RsaPrivateKey& priv, ByteView ciphertext);

/// Counters used by the latency benchmarks to report how many expensive
/// RSA private/public operations each protocol run performs.
struct PkOpCounts {
  std::uint64_t encrypts = 0;
  std::uint64_t decrypts = 0;
  std::uint64_t signs = 0;
  std::uint64_t verifies = 0;
};
PkOpCounts pk_op_counts();
void pk_reset_op_counts();
void pk_count_sign();
void pk_count_verify();

}  // namespace mykil::crypto
