// Precomputed sealing context: the one implementation of the sealed box
// (DESIGN.md 12).
//
// A box is nonce(8) || Speck128-CTR ciphertext || HMAC-SHA256 tag truncated
// to 16 bytes, with subkeys derive("enc")/derive("mac") of the box key.
// DataPlaneKey runs the per-key work — subkey derivation, the Speck key
// schedule, the HMAC pad compressions — once in its constructor; seal/open
// then touch only the message bytes. sym_seal/sym_open (crypto/sealed.h)
// are one-shot wrappers over it for control-plane messages, so both produce
// the same bytes. Member caches one per group key for the application data
// stream (Member::data_plane_for).
#pragma once

#include <optional>

#include "common/bytes.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "crypto/speck.h"

namespace mykil::crypto {

/// Sealing context for one symmetric key: build once, seal/open many.
class DataPlaneKey {
 public:
  explicit DataPlaneKey(const SymmetricKey& key);

  /// Seal `plaintext`, drawing the 8 nonce bytes from `prng`.
  [[nodiscard]] Bytes seal(ByteView plaintext, Prng& prng) const;

  /// Open a box sealed under this key; nullopt if the box is too short or
  /// its tag does not verify (a wrong key and tampering look the same).
  /// The receive paths that try a current key and then a previous one use
  /// this form, so a miss costs no exception.
  [[nodiscard]] std::optional<Bytes> try_open(ByteView sealed) const;

  /// try_open that throws AuthError where try_open returns nullopt.
  [[nodiscard]] Bytes open(ByteView sealed) const;

 private:
  Speck128 cipher_;  ///< key schedule for derive("enc"), run once
  HmacKey mac_;      ///< ipad/opad states for derive("mac"), run once
};

}  // namespace mykil::crypto
