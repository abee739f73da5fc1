// Unit tests for the crypto substrate: SHA-256 against FIPS/NIST vectors,
// its two compression backends against each other, HMAC-SHA256 against
// RFC 4231 vectors, cipher round-trips, hash chains.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "crypto/cipher.h"
#include "crypto/hash_chain.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"

namespace elsm::crypto {
namespace {

TEST(Sha256Test, NistVectorEmpty) {
  EXPECT_EQ(ToHex(Sha256::Digest("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, NistVectorAbc) {
  EXPECT_EQ(ToHex(Sha256::Digest("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, NistVectorTwoBlock) {
  EXPECT_EQ(ToHex(Sha256::Digest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(ToHex(h.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string data =
      "The quick brown fox jumps over the lazy dog, repeatedly and with "
      "variable chunk sizes to exercise the buffer boundary logic.";
  for (size_t chunk = 1; chunk <= 67; chunk += 3) {
    Sha256 h;
    for (size_t i = 0; i < data.size(); i += chunk) {
      h.Update(data.substr(i, chunk));
    }
    EXPECT_EQ(h.Finalize(), Sha256::Digest(data)) << "chunk=" << chunk;
  }
}

TEST(Sha256Test, FinalizeResetsState) {
  Sha256 h;
  h.Update("abc");
  const Hash256 first = h.Finalize();
  h.Update("abc");
  EXPECT_EQ(h.Finalize(), first);
}

TEST(Sha256Test, ExactBlockBoundaryPadding) {
  // 55, 56, 63, 64, 65 bytes straddle the padding edge cases.
  for (size_t n : {55u, 56u, 63u, 64u, 65u}) {
    const std::string data(n, 'x');
    Sha256 a;
    a.Update(data);
    Sha256 b;
    for (char c : data) b.Update(&c, 1);
    EXPECT_EQ(a.Finalize(), b.Finalize()) << n;
  }
}

// The two compression backends, driven through the whole Sha256 class. The
// reference for every comparison is the portable backend's one-shot
// digest, so on a CPU with the SHA extensions the hardware half is a
// differential test against it; the hardware half skips elsewhere.
class Sha256BackendTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    backend_ = GetParam() == "scalar" ? &detail::ProcessBlocksScalar
                                      : detail::ProcessBlocksHardware();
    if (backend_ == nullptr) {
      GTEST_SKIP() << "this CPU has no x86 SHA extensions";
    }
  }

  Hash256 Digest(std::string_view data) const {
    Sha256 h(backend_);
    h.Update(data);
    return h.Finalize();
  }

  static Hash256 Reference(std::string_view data) {
    Sha256 h(&detail::ProcessBlocksScalar);
    h.Update(data);
    return h.Finalize();
  }

  // Bytes that vary with their position.
  static std::string Pattern(size_t n) {
    std::string out(n, '\0');
    for (size_t i = 0; i < n; ++i) out[i] = char((i * 131 + i / 251) & 0xff);
    return out;
  }

  detail::ProcessBlocksFn backend_ = nullptr;
};

TEST_P(Sha256BackendTest, NistVectors) {
  EXPECT_EQ(ToHex(Digest("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(ToHex(Digest("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(ToHex(Digest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST_P(Sha256BackendTest, MillionAs) {
  Sha256 h(backend_);
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(ToHex(h.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256BackendTest, EveryLengthMatchesTheReference) {
  // Every padding case across several blocks, one 4 KiB SSTable block and
  // a 64 KiB run of blocks, each from an aligned and two unaligned starts.
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  lengths.push_back(4096);
  lengths.push_back(65536);
  const std::string buffer = Pattern(65536 + 8);
  for (size_t offset : {0u, 1u, 7u}) {
    for (size_t n : lengths) {
      const std::string_view input(buffer.data() + offset, n);
      EXPECT_EQ(Digest(input), Reference(std::string(input)))
          << "offset=" << offset << " n=" << n;
    }
  }
}

TEST_P(Sha256BackendTest, SplitUpdatesMatchTheReference) {
  // Two Updates split at every offset, from an unaligned buffer, so the
  // block runs start both in the carry buffer and in the caller's bytes.
  const std::string buffer = Pattern(131);
  for (size_t n = 0; n <= 130; ++n) {
    const std::string_view input(buffer.data() + 1, n);
    const Hash256 want = Reference(std::string(input));
    for (size_t split = 0; split <= n; ++split) {
      Sha256 h(backend_);
      h.Update(input.substr(0, split));
      h.Update(input.substr(split));
      EXPECT_EQ(h.Finalize(), want) << "n=" << n << " split=" << split;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, Sha256BackendTest,
                         ::testing::Values("scalar", "hardware"),
                         [](const auto& info) { return info.param; });

TEST(HmacTest, Rfc4231Case1) {
  const std::string key(20, '\x0b');
  EXPECT_EQ(ToHex(HmacSha256(key, "Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(ToHex(HmacSha256("Jefe", "what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231LongKey) {
  const std::string key(131, '\xaa');
  EXPECT_EQ(ToHex(HmacSha256(
                key, "Test Using Larger Than Block-Size Key - Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, TagEqualConstantTimeSemantics) {
  const Hash256 a = Sha256::Digest("a");
  Hash256 b = a;
  EXPECT_TRUE(TagEqual(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(TagEqual(a, b));
}

TEST(CipherTest, StreamRoundTrip) {
  const std::string plain = "some secret value with \x00 bytes and length 42";
  const std::string ct = StreamEncrypt("key", 7, plain);
  EXPECT_NE(ct, plain);
  EXPECT_EQ(StreamDecrypt("key", 7, ct), plain);
}

TEST(CipherTest, StreamDifferentNoncesDiffer) {
  const std::string plain(100, 'p');
  EXPECT_NE(StreamEncrypt("key", 1, plain), StreamEncrypt("key", 2, plain));
}

TEST(CipherTest, DeterministicEncryptIsDeterministic) {
  const std::string ct1 = DeterministicEncrypt("key", "hostname.example");
  const std::string ct2 = DeterministicEncrypt("key", "hostname.example");
  EXPECT_EQ(ct1, ct2);  // searchability: equal plaintext -> equal ciphertext
  EXPECT_NE(ct1, DeterministicEncrypt("key", "hostname.example2"));
}

TEST(CipherTest, DeterministicDecryptRoundTrip) {
  const std::string ct = DeterministicEncrypt("key", "payload");
  auto pt = DeterministicDecrypt("key", ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(pt.value(), "payload");
}

TEST(CipherTest, DeterministicDecryptRejectsTamper) {
  const std::string plaintext = "a-reasonably-long-payload-to-tamper-with";
  std::string body_tampered = DeterministicEncrypt("key", plaintext);
  ASSERT_GT(body_tampered.size(), 40u);
  body_tampered[40] ^= 1;  // inside the encrypted body
  EXPECT_FALSE(DeterministicDecrypt("key", body_tampered).ok());

  std::string tag_tampered = DeterministicEncrypt("key", plaintext);
  tag_tampered[5] ^= 1;  // inside the SIV tag
  EXPECT_FALSE(DeterministicDecrypt("key", tag_tampered).ok());

  EXPECT_FALSE(DeterministicDecrypt("other-key",
                                    DeterministicEncrypt("key", plaintext))
                   .ok());
  EXPECT_FALSE(DeterministicDecrypt("key", "short").ok());
}

TEST(HashChainTest, SingleRecordChain) {
  const std::vector<std::string> encs{"record-a"};
  EXPECT_EQ(ChainDigest(encs), ChainBase("record-a"));
  Hash256 leaf{};
  const auto suffixes = ChainSuffixes(encs, &leaf);
  ASSERT_EQ(suffixes.size(), 1u);
  EXPECT_FALSE(suffixes[0].present);
  EXPECT_EQ(leaf, ChainBase("record-a"));
}

TEST(HashChainTest, ChainStructureMatchesPaperExample) {
  // h4 = H(<Z,7> || H(<Z,6>)) — newest outermost (§5.2).
  const std::vector<std::string> encs{"Z7", "Z6"};
  EXPECT_EQ(ChainDigest(encs), ChainLink("Z7", ChainBase("Z6")));
}

TEST(HashChainTest, SuffixesRebuildLeaf) {
  const std::vector<std::string> encs{"r1", "r2", "r3", "r4"};
  const Hash256 leaf = ChainDigest(encs);
  Hash256 walked{};
  const auto suffixes = ChainSuffixes(encs, &walked);
  ASSERT_EQ(suffixes.size(), 4u);
  EXPECT_EQ(walked, leaf);  // the suffix walk ends on the leaf
  // Rebuild from any prefix length.
  for (size_t k = 1; k <= encs.size(); ++k) {
    std::vector<std::string_view> prefix;
    for (size_t i = 0; i < k; ++i) prefix.emplace_back(encs[i]);
    EXPECT_EQ(ChainLeafFromPrefix(prefix, suffixes[k - 1]), leaf) << k;
  }
}

TEST(HashChainTest, OrderMatters) {
  EXPECT_NE(ChainDigest({"a", "b"}), ChainDigest({"b", "a"}));
}

TEST(HashChainTest, DomainSeparationFromInteriorNodes) {
  // A chain base over 65 bytes must differ from an interior-node hash over
  // the same bytes (0x00 vs 0x01 prefixes).
  Hash256 a = Sha256::Digest("a-left-half-that-is-32-bytes-xx");
  Hash256 b = Sha256::Digest("b-right-half-that-is-32-bytes-x");
  std::string concat(reinterpret_cast<const char*>(a.data()), 32);
  concat.append(reinterpret_cast<const char*>(b.data()), 32);
  EXPECT_NE(ChainBase(concat), HashInterior(a, b));
}

}  // namespace
}  // namespace elsm::crypto
