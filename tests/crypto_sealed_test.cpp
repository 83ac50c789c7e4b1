// Authenticated symmetric boxes and hybrid public-key encryption.
#include <gtest/gtest.h>

#include "common/error.h"
#include "crypto/data_plane.h"
#include "crypto/prng.h"
#include "crypto/sealed.h"

namespace mykil::crypto {
namespace {

TEST(SymmetricKey, SizeEnforced) {
  EXPECT_THROW(SymmetricKey{Bytes(8, 0)}, CryptoError);
  EXPECT_NO_THROW(SymmetricKey{Bytes(16, 0)});
}

TEST(SymmetricKey, RandomKeysDiffer) {
  Prng prng(1);
  EXPECT_FALSE(SymmetricKey::random(prng) == SymmetricKey::random(prng));
}

TEST(SymmetricKey, DeriveIsDeterministicAndPurposeSeparated) {
  Prng prng(2);
  SymmetricKey k = SymmetricKey::random(prng);
  EXPECT_TRUE(k.derive("enc") == k.derive("enc"));
  EXPECT_FALSE(k.derive("enc") == k.derive("mac"));
}

TEST(SymSeal, RoundTrip) {
  Prng prng(3);
  SymmetricKey k = SymmetricKey::random(prng);
  Bytes msg = to_bytes("area key update payload");
  Bytes box = sym_seal(k, msg, prng);
  EXPECT_EQ(box.size(), msg.size() + kSealOverhead);
  EXPECT_EQ(sym_open(k, box), msg);
}

TEST(SymSeal, EmptyPlaintext) {
  Prng prng(4);
  SymmetricKey k = SymmetricKey::random(prng);
  Bytes box = sym_seal(k, ByteView{}, prng);
  EXPECT_TRUE(sym_open(k, box).empty());
}

TEST(SymSeal, WrongKeyRejected) {
  Prng prng(5);
  SymmetricKey k1 = SymmetricKey::random(prng);
  SymmetricKey k2 = SymmetricKey::random(prng);
  Bytes box = sym_seal(k1, to_bytes("secret"), prng);
  EXPECT_THROW(sym_open(k2, box), AuthError);
  EXPECT_EQ(DataPlaneKey(k2).try_open(box), std::nullopt);
}

TEST(SymSeal, TamperedCiphertextRejected) {
  Prng prng(6);
  SymmetricKey k = SymmetricKey::random(prng);
  Bytes box = sym_seal(k, to_bytes("secret"), prng);
  box[10] ^= 1;
  EXPECT_THROW(sym_open(k, box), AuthError);
  EXPECT_EQ(DataPlaneKey(k).try_open(box), std::nullopt);
}

TEST(SymSeal, TamperedTagRejected) {
  Prng prng(7);
  SymmetricKey k = SymmetricKey::random(prng);
  Bytes box = sym_seal(k, to_bytes("secret"), prng);
  box.back() ^= 1;
  EXPECT_THROW(sym_open(k, box), AuthError);
  EXPECT_EQ(DataPlaneKey(k).try_open(box), std::nullopt);
}

TEST(SymSeal, TruncatedBoxRejected) {
  Prng prng(8);
  SymmetricKey k = SymmetricKey::random(prng);
  EXPECT_THROW(sym_open(k, Bytes(5, 0)), AuthError);
  EXPECT_EQ(DataPlaneKey(k).try_open(Bytes(5, 0)), std::nullopt);
}

TEST(SymSeal, NoncesVary) {
  Prng prng(9);
  SymmetricKey k = SymmetricKey::random(prng);
  Bytes msg = to_bytes("same message");
  EXPECT_NE(sym_seal(k, msg, prng), sym_seal(k, msg, prng));
}

class HybridPkTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    prng_ = new Prng(4242);
    kp_ = new RsaKeyPair(rsa_generate(768, *prng_));
  }
  static void TearDownTestSuite() {
    delete kp_;
    delete prng_;
    kp_ = nullptr;
    prng_ = nullptr;
  }
  static Prng* prng_;
  static RsaKeyPair* kp_;
};

Prng* HybridPkTest::prng_ = nullptr;
RsaKeyPair* HybridPkTest::kp_ = nullptr;

TEST_F(HybridPkTest, SmallMessageUsesDirectMode) {
  Bytes msg = to_bytes("tiny");  // fits in 768-bit OAEP (30 bytes)
  Bytes ct = pk_encrypt(kp_->pub, msg, *prng_);
  EXPECT_EQ(ct[0], 0);  // direct marker
  EXPECT_EQ(pk_decrypt(kp_->priv, ct), msg);
}

TEST_F(HybridPkTest, LargeMessageUsesHybridMode) {
  Bytes msg(500, 0x42);  // too big for one RSA block
  Bytes ct = pk_encrypt(kp_->pub, msg, *prng_);
  EXPECT_EQ(ct[0], 1);  // hybrid marker
  EXPECT_EQ(pk_decrypt(kp_->priv, ct), msg);
}

TEST_F(HybridPkTest, BoundaryMessageLengths) {
  for (std::size_t len : {29u, 30u, 31u, 100u}) {
    Bytes msg(len, 0x11);
    Bytes ct = pk_encrypt(kp_->pub, msg, *prng_);
    EXPECT_EQ(pk_decrypt(kp_->priv, ct), msg) << "len=" << len;
  }
}

TEST_F(HybridPkTest, TamperedHybridBodyRejected) {
  Bytes msg(500, 0x42);
  Bytes ct = pk_encrypt(kp_->pub, msg, *prng_);
  ct.back() ^= 1;
  EXPECT_ANY_THROW(pk_decrypt(kp_->priv, ct));
}

TEST_F(HybridPkTest, EmptyCiphertextRejected) {
  EXPECT_THROW(pk_decrypt(kp_->priv, Bytes{}), CryptoError);
}

TEST_F(HybridPkTest, UnknownModeRejected) {
  Bytes ct(100, 0);
  ct[0] = 9;
  EXPECT_THROW(pk_decrypt(kp_->priv, ct), CryptoError);
}

TEST_F(HybridPkTest, OpCountersTrackOperations) {
  pk_reset_op_counts();
  Bytes msg = to_bytes("count me");
  Bytes ct = pk_encrypt(kp_->pub, msg, *prng_);
  pk_decrypt(kp_->priv, ct);
  pk_count_sign();
  pk_count_verify();
  PkOpCounts counts = pk_op_counts();
  EXPECT_EQ(counts.encrypts, 1u);
  EXPECT_EQ(counts.decrypts, 1u);
  EXPECT_EQ(counts.signs, 1u);
  EXPECT_EQ(counts.verifies, 1u);
}

}  // namespace
}  // namespace mykil::crypto
