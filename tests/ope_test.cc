// OPE tests (paper §5.6.2 extension): order preservation (property sweep),
// round trips, tamper rejection, and end-to-end verified range queries over
// order-preserving-encrypted keys, plus the WriteBatch API.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "crypto/ope.h"
#include "elsm/elsm_db.h"
#include "storage/simfs.h"
#include "str_cat.h"

namespace elsm {
namespace {

TEST(OpeTest, RoundTripAssortedStrings) {
  crypto::OpeCipher ope("k");
  const std::vector<std::string> plains = {
      "", "a", "abc", "user000123", std::string("\x00\xff\x7f", 3),
      std::string(64, 'z')};
  for (const std::string& plain : plains) {
    const std::string ct = ope.Encrypt(plain);
    auto back = ope.Decrypt(ct);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back.value(), plain);
  }
}

TEST(OpeTest, PreservesOrderOnRandomPairs) {
  crypto::OpeCipher ope("key");
  Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    std::string a, b;
    const size_t la = rng.Uniform(10);
    const size_t lb = rng.Uniform(10);
    for (size_t i = 0; i < la; ++i) a.push_back(char('a' + rng.Uniform(6)));
    for (size_t i = 0; i < lb; ++i) b.push_back(char('a' + rng.Uniform(6)));
    const std::string ea = ope.Encrypt(a);
    const std::string eb = ope.Encrypt(b);
    EXPECT_EQ(a < b, ea < eb) << "a=" << a << " b=" << b;
    EXPECT_EQ(a == b, ea == eb);
  }
}

TEST(OpeTest, PrefixSortsBeforeExtension) {
  crypto::OpeCipher ope("key");
  EXPECT_LT(ope.Encrypt("user"), ope.Encrypt("user0"));
  EXPECT_LT(ope.Encrypt(""), ope.Encrypt(std::string("\x00", 1)));
}

TEST(OpeTest, SortedSequenceStaysSorted) {
  crypto::OpeCipher ope("key");
  std::vector<std::string> ciphertexts;
  for (int i = 0; i < 200; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%05d", i * 7);
    ciphertexts.push_back(ope.Encrypt(buf));
  }
  EXPECT_TRUE(std::is_sorted(ciphertexts.begin(), ciphertexts.end()));
}

TEST(OpeTest, DifferentKeysDifferentCiphertexts) {
  crypto::OpeCipher a("key1");
  crypto::OpeCipher b("key2");
  EXPECT_NE(a.Encrypt("same-plaintext"), b.Encrypt("same-plaintext"));
}

TEST(OpeTest, DecryptRejectsGarbage) {
  crypto::OpeCipher ope("key");
  EXPECT_FALSE(ope.Decrypt("\x01").ok());          // truncated code
  EXPECT_FALSE(ope.Decrypt("\xff\xff\x00\x00").ok());  // impossible code
  std::string ct = ope.Encrypt("abc");
  ct += "x";  // trailing byte
  EXPECT_FALSE(ope.Decrypt(ct).ok());
}

TEST(OpeDbTest, VerifiedRangeQueriesOverEncryptedKeys) {
  Options o;
  o.mode = Mode::kP2;
  o.memtable_bytes = 4 << 10;
  o.order_preserving_keys = true;
  o.encrypt_values = true;
  auto db = ElsmDb::Create(o);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 80; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i);
    ASSERT_TRUE(db.value()->Put(key, test_util::Cat("v", i)).ok());
  }
  ASSERT_TRUE(db.value()->Flush().ok());

  // Point reads round-trip through the OPE layer.
  auto got = db.value()->Get("k00042");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(got.value().has_value());
  EXPECT_EQ(*got.value(), "v42");

  // Range scan works — the property DE cannot provide.
  auto scan = db.value()->Scan("k00010", "k00020");
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan.value().size(), 11u);
  EXPECT_EQ(scan.value().front().key, "k00010");
  EXPECT_EQ(scan.value().back().key, "k00020");
  EXPECT_EQ(scan.value()[5].value, "v15");

  // No plaintext key appears on the untrusted disk.
  bool plain_on_disk = false;
  for (const auto& name : db.value()->fs().List(o.name)) {
    auto blob = db.value()->fs().Blob(name);
    if (blob && blob->find("k00042") != std::string::npos) plain_on_disk = true;
  }
  EXPECT_FALSE(plain_on_disk);
}

TEST(OpeDbTest, ExclusiveWithDeterministicEncryption) {
  Options o;
  o.deterministic_key_encryption = true;
  o.order_preserving_keys = true;
  EXPECT_FALSE(ElsmDb::Create(o).ok());
}

TEST(WriteBatchTest, AtomicBatchApplies) {
  Options o;
  o.mode = Mode::kP2;
  o.memtable_bytes = 4 << 10;
  auto db = ElsmDb::Create(o);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db.value()->Put("stale", "old").ok());

  ElsmDb::WriteBatch batch;
  for (int i = 0; i < 50; ++i) {
    batch.Put(test_util::Cat("batch", i), test_util::Cat("v", i));
  }
  batch.Delete("stale");
  ASSERT_TRUE(db.value()->Write(batch).ok());

  for (int i = 0; i < 50; ++i) {
    auto got = db.value()->Get(test_util::Cat("batch", i));
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got.value().has_value());
    EXPECT_EQ(*got.value(), test_util::Cat("v", i));
  }
  EXPECT_FALSE(db.value()->Get("stale").value().has_value());
}

TEST(WriteBatchTest, BatchSurvivesFlushAndCompaction) {
  Options o;
  o.mode = Mode::kP2;
  o.memtable_bytes = 2 << 10;  // batch larger than the memtable
  auto db = ElsmDb::Create(o);
  ASSERT_TRUE(db.ok());
  ElsmDb::WriteBatch batch;
  for (int i = 0; i < 200; ++i) {
    batch.Put(test_util::Cat("k", i), test_util::Cat("v", i));
  }
  ASSERT_TRUE(db.value()->Write(batch).ok());
  ASSERT_TRUE(db.value()->CompactAll().ok());
  for (int i = 0; i < 200; i += 17) {
    auto got = db.value()->Get(test_util::Cat("k", i));
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got.value().has_value()) << i;
  }
}

}  // namespace
}  // namespace elsm
