// Client-side key state for key-tree based protocols (LKH and Mykil areas).
//
// A member holds the keys on its root→leaf path. Rekey multicasts are
// applied by decrypting exactly the entries sealed under a held key; every
// other entry is skipped (it is meant for another subtree). The held set IS
// the member's path-node set, kept hashed so the skip test for each of the
// O(n) off-path entries in a big batched rekey is one O(1) probe, never a
// decrypt attempt or a tree walk.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "crypto/keys.h"
#include "lkh/rekey.h"

namespace mykil::lkh {

class MemberKeyState {
 public:
  /// Install or replace path keys received by secure unicast (join answer,
  /// split update). Entries with a version older than what is already held
  /// are ignored.
  void install(const std::vector<PathKey>& path);

  /// Replace ALL held keys with `path`, bypassing the version guard (the
  /// previous group key is kept for in-flight data). For authoritative
  /// catch-ups: versions regress across takeovers, so a fresh key-recovery
  /// answer must win even against "newer-looking" stale keys.
  void reinstall(const std::vector<PathKey>& path);

  /// Apply a rekey multicast. Returns the number of keys updated. Entries
  /// sealed under keys this member does not hold are skipped; a decryption
  /// failure on a held key throws AuthError (tampering).
  std::size_t apply(const RekeyMessage& msg);

  /// The group/area key (root node 0). Throws ProtocolError if not held.
  [[nodiscard]] const crypto::SymmetricKey& group_key() const;
  /// The previous group key, kept for one generation so data encrypted just
  /// before a rekey (and still in flight) remains readable.
  [[nodiscard]] const std::optional<crypto::SymmetricKey>& previous_group_key()
      const {
    return prev_root_;
  }
  [[nodiscard]] bool has_group_key() const { return keys_.contains(0); }
  [[nodiscard]] bool holds(NodeIndex node) const { return keys_.contains(node); }
  [[nodiscard]] std::size_t key_count() const { return keys_.size(); }
  [[nodiscard]] std::uint64_t version_of(NodeIndex node) const;

  /// Drop everything (member left / moved to another area).
  void clear() {
    keys_.clear();
    prev_root_.reset();
  }

 private:
  struct Held {
    crypto::SymmetricKey key;
    std::uint64_t version = 0;
  };
  void remember_root(const Held& old_root) { prev_root_ = old_root.key; }

  std::unordered_map<NodeIndex, Held> keys_;
  std::optional<crypto::SymmetricKey> prev_root_;
};

}  // namespace mykil::lkh
