// Merkle tree tests: membership paths and range proofs across a sweep of
// tree sizes (property-style via TEST_P), the tree image (the sidecar
// format) and trees opened from it, the root-only accumulator, adjacency
// semantics, tamper and malformed-proof rejection, and wire-format round
// trips.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/coding.h"
#include "crypto/merkle.h"
#include "str_cat.h"

namespace elsm::crypto {
namespace {

std::vector<Hash256> MakeLeaves(uint64_t n) {
  std::vector<Hash256> leaves;
  leaves.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    leaves.push_back(Sha256::Digest(test_util::Cat("leaf-", i)));
  }
  return leaves;
}

std::shared_ptr<const std::string> Image(std::string bytes) {
  return std::make_shared<const std::string>(std::move(bytes));
}

std::string Bytes(const Hash256& h) {
  return std::string(reinterpret_cast<const char*>(h.data()), h.size());
}

class MerkleSizeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MerkleSizeTest, ImageIsTheSidecarLayout) {
  // A fixed64 leaf count, then every level's 32-byte nodes, leaves first:
  // the layout of every tree sidecar already on disk.
  const uint64_t n = GetParam();
  const std::vector<Hash256> leaves = MakeLeaves(n);
  const MerkleTree tree(leaves);
  const std::string& image = *tree.image();
  uint64_t nodes = 0;
  for (uint64_t width = n;; width = (width + 1) / 2) {
    nodes += width;
    if (width <= 1) break;
  }
  ASSERT_EQ(image.size(), 8 + 32 * nodes);
  std::string_view header(image);
  uint64_t leaf_count = 0;
  ASSERT_TRUE(GetFixed64(&header, &leaf_count));
  EXPECT_EQ(leaf_count, n);
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(image.substr(8 + 32 * i, 32), Bytes(leaves[i])) << i;
  }
  EXPECT_EQ(image.substr(image.size() - 32), Bytes(tree.root()));
}

TEST_P(MerkleSizeTest, OpenedImageServesTheSameProofs) {
  const uint64_t n = GetParam();
  const MerkleTree tree(MakeLeaves(n));
  // A copy of the image, as the host maps it back from its sidecar file.
  auto opened = MerkleTree::Open(Image(*tree.image()));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const MerkleTree& file = opened.value();
  EXPECT_EQ(file.leaf_count(), n);
  EXPECT_EQ(file.root(), tree.root());
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(file.leaf(i), tree.leaf(i)) << i;
    EXPECT_EQ(file.Path(i).siblings, tree.Path(i).siblings) << i;
  }
  // Every range AllRangesVerify sweeps, and the prefix (plus a stride of
  // ranges) on the larger trees.
  auto same_range = [&](uint64_t lo, uint64_t hi) {
    EXPECT_EQ(file.RangeProof(lo, hi).hashes, tree.RangeProof(lo, hi).hashes)
        << "n=" << n << " [" << lo << "," << hi << "]";
  };
  if (n <= 64) {
    for (uint64_t lo = 0; lo < n; ++lo) {
      for (uint64_t hi = lo; hi < n; ++hi) same_range(lo, hi);
    }
  } else {
    same_range(0, 5);
    for (uint64_t lo = 0; lo < n; lo += n / 13 + 1) {
      for (uint64_t hi = lo; hi < n; hi += n / 7 + 1) same_range(lo, hi);
    }
  }
}

TEST_P(MerkleSizeTest, EveryPathVerifies) {
  const uint64_t n = GetParam();
  MerkleTree tree(MakeLeaves(n));
  for (uint64_t i = 0; i < n; ++i) {
    const MerklePath path = tree.Path(i);
    EXPECT_TRUE(MerkleTree::VerifyPath(tree.leaf(i), path, n, tree.root())
                    .ok())
        << "n=" << n << " i=" << i;
  }
}

TEST_P(MerkleSizeTest, AccumulatorMatchesTheTree) {
  // Compaction re-authenticates its inputs with the accumulator and checks
  // the result against roots MerkleTree built.
  const uint64_t n = GetParam();
  const std::vector<Hash256> leaves = MakeLeaves(n);
  MerkleAccumulator acc;
  for (const Hash256& leaf : leaves) acc.Add(leaf);
  const MerkleTree tree(leaves);
  EXPECT_EQ(acc.leaf_count(), tree.leaf_count());
  EXPECT_EQ(acc.root(), tree.root());
}

TEST(MerkleAccumulatorTest, EmptyMatchesTheEmptyTree) {
  const MerkleAccumulator acc;
  EXPECT_EQ(acc.leaf_count(), 0u);
  EXPECT_EQ(acc.root(), MerkleTree(std::vector<Hash256>{}).root());
}

TEST_P(MerkleSizeTest, WrongLeafFailsEveryPath) {
  const uint64_t n = GetParam();
  MerkleTree tree(MakeLeaves(n));
  const Hash256 wrong = Sha256::Digest("not-a-leaf");
  for (uint64_t i = 0; i < n; i += (n / 7 + 1)) {
    EXPECT_FALSE(
        MerkleTree::VerifyPath(wrong, tree.Path(i), n, tree.root()).ok());
  }
}

TEST_P(MerkleSizeTest, AllRangesVerify) {
  const uint64_t n = GetParam();
  if (n > 64) GTEST_SKIP() << "quadratic sweep bounded to small trees";
  MerkleTree tree(MakeLeaves(n));
  for (uint64_t lo = 0; lo < n; ++lo) {
    for (uint64_t hi = lo; hi < n; ++hi) {
      std::vector<Hash256> run;
      for (uint64_t i = lo; i <= hi; ++i) run.push_back(tree.leaf(i));
      const MerkleRangeProof proof = tree.RangeProof(lo, hi);
      EXPECT_TRUE(
          MerkleTree::VerifyRange(run, proof, n, tree.root()).ok())
          << "n=" << n << " [" << lo << "," << hi << "]";
    }
  }
}

TEST_P(MerkleSizeTest, RangeWithAlteredLeafFails) {
  const uint64_t n = GetParam();
  MerkleTree tree(MakeLeaves(n));
  const uint64_t lo = 0;
  const uint64_t hi = n - 1 < 5 ? n - 1 : 5;
  std::vector<Hash256> run;
  for (uint64_t i = lo; i <= hi; ++i) run.push_back(tree.leaf(i));
  run[run.size() / 2][0] ^= 1;
  EXPECT_FALSE(MerkleTree::VerifyRange(run, tree.RangeProof(lo, hi), n,
                                       tree.root())
                   .ok());
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleSizeTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                                           31, 33, 64, 100, 255, 256, 257,
                                           1000));

TEST(MerkleTest, EmptyTreeHasZeroRoot) {
  MerkleTree tree({});
  EXPECT_EQ(tree.root(), kZeroHash);
  EXPECT_EQ(tree.leaf_count(), 0u);
  EXPECT_EQ(tree.image()->size(), 8u);  // the leaf count alone
  auto opened = MerkleTree::Open(tree.image());
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().leaf_count(), 0u);
  EXPECT_EQ(opened.value().root(), kZeroHash);
}

TEST(MerkleTest, OpenRejectsShortHeader) {
  for (const std::string& bytes : {std::string(), std::string("shrt"),
                                   std::string(7, '\0')}) {
    EXPECT_TRUE(MerkleTree::Open(Image(bytes)).status().IsCorruption())
        << bytes.size();
  }
}

TEST(MerkleTest, OpenRejectsSizeMismatch) {
  const std::string image = *MerkleTree(MakeLeaves(11)).image();
  ASSERT_TRUE(MerkleTree::Open(Image(image)).ok());
  for (const std::string& bytes :
       {image + "x", image.substr(0, image.size() - 1),
        image.substr(0, image.size() - 32), image + std::string(32, 'n')}) {
    EXPECT_TRUE(MerkleTree::Open(Image(bytes)).status().IsCorruption())
        << bytes.size();
  }
  // The right size for 11 leaves, but a header claiming 10 or 12.
  for (uint64_t claimed : {10, 12}) {
    std::string forged;
    PutFixed64(&forged, claimed);
    forged += image.substr(8);
    EXPECT_TRUE(MerkleTree::Open(Image(forged)).status().IsCorruption())
        << claimed;
  }
}

TEST(MerkleTest, OpenRejectsLeafCountThatWouldOverflow) {
  // 2^58 + 1 leaves make 2^59 + 59 nodes, whose 32-byte size wraps a 64-bit
  // count to exactly 59 nodes: a size check that multiplied before bounding
  // the count would accept this 59-node image.
  for (uint64_t claimed : {(uint64_t{1} << 58) + 1, UINT64_MAX}) {
    std::string forged;
    PutFixed64(&forged, claimed);
    forged.append(59 * 32, '\0');
    EXPECT_TRUE(MerkleTree::Open(Image(forged)).status().IsCorruption())
        << claimed;
  }
}

TEST(MerkleTest, SingleLeafRootIsLeaf) {
  auto leaves = MakeLeaves(1);
  MerkleTree tree(leaves);
  EXPECT_EQ(tree.root(), leaves[0]);
  EXPECT_TRUE(tree.Path(0).siblings.empty());
}

TEST(MerkleTest, RootChangesWithAnyLeaf) {
  auto leaves = MakeLeaves(10);
  MerkleTree tree(leaves);
  for (int i = 0; i < 10; ++i) {
    auto mutated = leaves;
    mutated[size_t(i)][5] ^= 0x10;
    EXPECT_NE(MerkleTree(mutated).root(), tree.root()) << i;
  }
}

TEST(MerkleTest, PathAgainstWrongIndexFails) {
  MerkleTree tree(MakeLeaves(16));
  MerklePath path = tree.Path(5);
  path.leaf_index = 6;
  EXPECT_FALSE(
      MerkleTree::VerifyPath(tree.leaf(5), path, 16, tree.root()).ok());
}

TEST(MerkleTest, TruncatedPathFails) {
  MerkleTree tree(MakeLeaves(16));
  MerklePath path = tree.Path(5);
  path.siblings.pop_back();
  EXPECT_FALSE(
      MerkleTree::VerifyPath(tree.leaf(5), path, 16, tree.root()).ok());
}

TEST(MerkleTest, OverlongPathFails) {
  MerkleTree tree(MakeLeaves(16));
  MerklePath path = tree.Path(5);
  path.siblings.push_back(kZeroHash);
  EXPECT_FALSE(
      MerkleTree::VerifyPath(tree.leaf(5), path, 16, tree.root()).ok());
}

TEST(MerkleTest, PathIndexBeyondCountFails) {
  MerkleTree tree(MakeLeaves(8));
  MerklePath path = tree.Path(7);
  path.leaf_index = 8;
  EXPECT_FALSE(
      MerkleTree::VerifyPath(tree.leaf(7), path, 8, tree.root()).ok());
}

TEST(MerkleTest, CarriedNodePathsVerify) {
  // Odd widths exercise the carry-up rule at several levels: 11 leaves give
  // level widths 11 -> 6 -> 3 -> 2 -> 1.
  MerkleTree tree(MakeLeaves(11));
  for (uint64_t i = 0; i < 11; ++i) {
    EXPECT_TRUE(
        MerkleTree::VerifyPath(tree.leaf(i), tree.Path(i), 11, tree.root())
            .ok())
        << i;
  }
}

TEST(MerkleTest, PathEncodeDecodeRoundTrip) {
  MerkleTree tree(MakeLeaves(33));
  const MerklePath path = tree.Path(20);
  auto decoded = MerklePath::Decode(path.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().leaf_index, path.leaf_index);
  EXPECT_EQ(decoded.value().siblings, path.siblings);
}

TEST(MerkleTest, RangeProofEncodeDecodeRoundTrip) {
  MerkleTree tree(MakeLeaves(33));
  const MerkleRangeProof proof = tree.RangeProof(7, 19);
  auto decoded = MerkleRangeProof::Decode(proof.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().lo, proof.lo);
  EXPECT_EQ(decoded.value().hashes, proof.hashes);
}

TEST(MerkleTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(MerklePath::Decode("\xff\xff\xff").ok());
  EXPECT_FALSE(MerkleRangeProof::Decode("\x01\x05"
                                        "abc")
                   .ok());
}

TEST(MerkleTest, RangeProofWrongOffsetFails) {
  MerkleTree tree(MakeLeaves(32));
  std::vector<Hash256> run;
  for (uint64_t i = 4; i <= 9; ++i) run.push_back(tree.leaf(i));
  MerkleRangeProof proof = tree.RangeProof(4, 9);
  proof.lo = 5;  // misaligned claim
  EXPECT_FALSE(
      MerkleTree::VerifyRange(run, proof, 32, tree.root()).ok());
}

TEST(MerkleTest, FullRangeNeedsNoExtraHashes) {
  MerkleTree tree(MakeLeaves(16));
  const MerkleRangeProof proof = tree.RangeProof(0, 15);
  EXPECT_TRUE(proof.hashes.empty());
  std::vector<Hash256> run;
  for (uint64_t i = 0; i < 16; ++i) run.push_back(tree.leaf(i));
  EXPECT_TRUE(MerkleTree::VerifyRange(run, proof, 16, tree.root()).ok());
}

TEST(MerkleTest, PathLengthIsLogarithmic) {
  MerkleTree tree(MakeLeaves(1024));
  EXPECT_EQ(tree.Path(512).siblings.size(), 10u);
}

}  // namespace
}  // namespace elsm::crypto
