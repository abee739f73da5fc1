// Unit tests for the auth module: embedded-proof codec, the Merkle sidecar
// (a level's tree file, opened as a crypto::MerkleTree), level digest/seal
// construction, the WAL digest chain, and verifier edge cases not covered
// by the end-to-end security tests.
#include <gtest/gtest.h>

#include <optional>

#include "auth/level_builder.h"
#include "auth/listener.h"
#include "auth/proof.h"
#include "auth/verifier.h"
#include "auth/wal_digest.h"
#include "storage/simfs.h"
#include "str_cat.h"

namespace elsm::auth {
namespace {

std::shared_ptr<sgx::Enclave> MakeEnclave() {
  return std::make_shared<sgx::Enclave>(sgx::CostModel{}, true);
}

lsm::Record MakeRecord(const std::string& key, const std::string& value,
                       uint64_t ts) {
  lsm::Record r;
  r.key = key;
  r.value = value;
  r.ts = ts;
  return r;
}

// A sorted run with 3 versions of "b" and single versions of "a".."e".
std::vector<lsm::Record> SampleRun() {
  return {
      MakeRecord("a", "va", 10), MakeRecord("b", "vb3", 30),
      MakeRecord("b", "vb2", 20), MakeRecord("b", "vb1", 5),
      MakeRecord("c", "vc", 11), MakeRecord("d", "vd", 12),
      MakeRecord("e", "ve", 13),
  };
}

// Hands a sorted run to `add_group` one key group at a time, the way the
// compaction merge feeds the output side.
template <typename AddGroup>
Status ForEachGroup(const std::vector<lsm::Record>& records,
                    AddGroup&& add_group) {
  std::vector<lsm::Record> group;
  for (size_t i = 0; i < records.size(); ++i) {
    group.push_back(records[i]);
    if (i + 1 == records.size() || records[i + 1].key != records[i].key) {
      Status s = add_group(group);
      if (!s.ok()) return s;
      group.clear();
    }
  }
  return Status::Ok();
}

// Seals a sorted run through SealBuilder; the returned seal carries one
// proof blob per record in either layout.
lsm::CompactionSeal SealRun(const std::vector<lsm::Record>& records,
                            sgx::Enclave* enclave, bool embed_full_paths) {
  SealBuilder builder(enclave, embed_full_paths);
  std::vector<std::string> blobs;
  EXPECT_TRUE(ForEachGroup(records, [&](const std::vector<lsm::Record>& g) {
                return builder.AddGroup(g, &blobs);
              }).ok());
  auto seal = builder.Finish();
  EXPECT_TRUE(seal.ok());
  if (!embed_full_paths) seal.value().proof_blobs = std::move(blobs);
  return std::move(seal).value();
}

// Re-digests a sorted run the way compaction-input verification does.
LevelDigest DigestOf(const std::vector<lsm::Record>& records,
                     sgx::Enclave* enclave) {
  RunDigester digester(enclave);
  for (const auto& r : records) digester.Add(r, r.EncodeCore());
  return digester.Finish();
}

TEST(EmbeddedProofTest, CodecRoundTripWithSuffix) {
  EmbeddedProof proof;
  proof.leaf_index = 1234567;
  proof.suffix.present = true;
  proof.suffix.digest = crypto::Sha256::Digest("suffix");
  auto decoded = EmbeddedProof::Decode(proof.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().leaf_index, proof.leaf_index);
  EXPECT_TRUE(decoded.value().suffix.present);
  EXPECT_EQ(decoded.value().suffix.digest, proof.suffix.digest);
  EXPECT_FALSE(decoded.value().path.has_value());
}

TEST(EmbeddedProofTest, CodecRoundTripWithPath) {
  EmbeddedProof proof;
  proof.leaf_index = 3;
  crypto::MerklePath path;
  path.leaf_index = 3;
  path.siblings = {crypto::Sha256::Digest("s1"), crypto::Sha256::Digest("s2")};
  proof.path = path;
  auto decoded = EmbeddedProof::Decode(proof.Encode());
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded.value().path.has_value());
  EXPECT_EQ(decoded.value().path->siblings, path.siblings);
}

TEST(EmbeddedProofTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(EmbeddedProof::Decode("").ok());
  EXPECT_FALSE(EmbeddedProof::Decode("\x01").ok());          // missing index
  EXPECT_FALSE(EmbeddedProof::Decode("\x01\x05shrt").ok());  // short suffix
}

TEST(LevelBuilderTest, SealMatchesDigestRun) {
  auto enclave = MakeEnclave();
  const auto records = SampleRun();
  const lsm::CompactionSeal seal = SealRun(records, enclave.get(), false);
  EXPECT_EQ(seal.leaf_count, 5u);  // distinct keys a..e
  ASSERT_EQ(seal.proof_blobs.size(), records.size());

  // Re-digesting the same run (as compaction-input verification does) must
  // reproduce the sealed root.
  const LevelDigest digest = DigestOf(records, enclave.get());
  EXPECT_EQ(digest.root, seal.root);
  EXPECT_EQ(digest.leaf_count, seal.leaf_count);
}

TEST(LevelBuilderTest, ChainMembersShareLeafIndex) {
  auto enclave = MakeEnclave();
  const auto records = SampleRun();
  const lsm::CompactionSeal seal = SealRun(records, enclave.get(), false);
  ASSERT_EQ(seal.proof_blobs.size(), records.size());
  // Records 1..3 are the three versions of "b" -> leaf index 1.
  for (int i = 1; i <= 3; ++i) {
    auto proof = EmbeddedProof::Decode(seal.proof_blobs[size_t(i)]);
    ASSERT_TRUE(proof.ok());
    EXPECT_EQ(proof.value().leaf_index, 1u);
  }
  // Newest "b" has a suffix; oldest does not.
  auto newest = EmbeddedProof::Decode(seal.proof_blobs[1]);
  auto oldest = EmbeddedProof::Decode(seal.proof_blobs[3]);
  EXPECT_TRUE(newest.value().suffix.present);
  EXPECT_FALSE(oldest.value().suffix.present);
}

TEST(LevelBuilderTest, EmbeddedPathsArriveWithTheSeal) {
  // The paper-literal layout: blobs wait for the finished tree, then each
  // carries its record's full Merkle path. Same root, same charges.
  auto plain_enclave = MakeEnclave();
  auto embed_enclave = MakeEnclave();
  const auto records = SampleRun();
  const lsm::CompactionSeal plain =
      SealRun(records, plain_enclave.get(), false);
  const lsm::CompactionSeal embedded =
      SealRun(records, embed_enclave.get(), true);
  EXPECT_EQ(embedded.root, plain.root);
  EXPECT_EQ(embedded.leaf_count, plain.leaf_count);
  ASSERT_NE(plain.tree_payload, nullptr);
  ASSERT_NE(embedded.tree_payload, nullptr);
  EXPECT_EQ(*embedded.tree_payload, *plain.tree_payload);
  EXPECT_EQ(embed_enclave->now_ns(), plain_enclave->now_ns());
  ASSERT_EQ(embedded.proof_blobs.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    auto proof = EmbeddedProof::Decode(embedded.proof_blobs[i]);
    auto bare = EmbeddedProof::Decode(plain.proof_blobs[i]);
    ASSERT_TRUE(proof.ok());
    ASSERT_TRUE(bare.ok());
    EXPECT_EQ(proof.value().leaf_index, bare.value().leaf_index);
    EXPECT_EQ(proof.value().suffix.present, bare.value().suffix.present);
    ASSERT_TRUE(proof.value().path.has_value());
    EXPECT_EQ(proof.value().path->leaf_index, proof.value().leaf_index);
  }
}

TEST(LevelBuilderTest, EmptyRunYieldsEmptySeal) {
  auto enclave = MakeEnclave();
  const lsm::CompactionSeal seal = SealRun({}, enclave.get(), false);
  EXPECT_EQ(seal.leaf_count, 0u);
  EXPECT_EQ(seal.root, crypto::kZeroHash);
  EXPECT_TRUE(seal.proof_blobs.empty());
}

// The tree sidecar (a level's `.tree` file) is the image of its
// crypto::MerkleTree; the host opens the stored file as a tree.
TEST(TreeFileTest, SiblingsMatchInMemoryTree) {
  auto enclave = MakeEnclave();
  storage::SimFs fs(enclave);
  std::vector<crypto::Hash256> leaves;
  for (int i = 0; i < 37; ++i) {
    leaves.push_back(crypto::Sha256::Digest(test_util::Cat("leaf", i)));
  }
  crypto::MerkleTree tree(leaves);
  ASSERT_TRUE(fs.Write("t.tree", *tree.image()).ok());
  auto file = crypto::MerkleTree::Open(fs.Blob("t.tree"));
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file.value().leaf_count(), 37u);
  for (uint64_t i = 0; i < 37; ++i) {
    EXPECT_EQ(file.value().Path(i).siblings, tree.Path(i).siblings) << i;
  }
}

TEST(TreeFileTest, RangeProofMatchesInMemoryTree) {
  auto enclave = MakeEnclave();
  storage::SimFs fs(enclave);
  std::vector<crypto::Hash256> leaves;
  for (int i = 0; i < 64; ++i) {
    leaves.push_back(crypto::Sha256::Digest(test_util::Cat("leaf", i)));
  }
  crypto::MerkleTree tree(leaves);
  ASSERT_TRUE(fs.Write("t.tree", *tree.image()).ok());
  auto file = crypto::MerkleTree::Open(fs.Blob("t.tree"));
  ASSERT_TRUE(file.ok());
  for (uint64_t lo = 0; lo < 64; lo += 13) {
    for (uint64_t hi = lo; hi < 64; hi += 7) {
      EXPECT_EQ(file.value().RangeProof(lo, hi).hashes,
                tree.RangeProof(lo, hi).hashes);
    }
  }
}

// A one-key level whose record claims `leaf_index`, and the response the
// engine would return for its key.
struct OneKeyLevel {
  std::vector<lsm::LevelMeta> levels = std::vector<lsm::LevelMeta>(1);
  lsm::GetResponse get;
  lsm::ScanResponse scan;
};

OneKeyLevel MakeOneKeyLevel(const std::string& tree_file,
                            uint64_t leaf_index) {
  OneKeyLevel out;
  out.levels[0].leaf_count = 1;
  out.levels[0].tree_file = tree_file;
  EmbeddedProof proof;
  proof.leaf_index = leaf_index;
  lsm::RawEntry raw;
  raw.record = MakeRecord("k", "v", 1);
  raw.core = raw.record.EncodeCore();
  raw.proof_blob = proof.Encode();
  lsm::LevelGetResult level;
  level.found = true;
  level.chain.push_back(raw);
  out.get.levels.push_back(level);
  lsm::LevelScanResult scan_level;
  scan_level.heads.push_back(raw);
  out.scan.levels.push_back(scan_level);
  return out;
}

TEST(TreeFileTest, OpenRejectsTruncatedFile) {
  auto enclave = MakeEnclave();
  auto fs = std::make_shared<storage::SimFs>(enclave);
  ASSERT_TRUE(fs->Write("t.tree", "shrt").ok());
  EXPECT_FALSE(crypto::MerkleTree::Open(fs->Blob("t.tree")).ok());
  // The host assembling a proof from a truncated or missing sidecar fails.
  ProofAssembler assembler(fs);
  for (const char* name : {"t.tree", "missing.tree"}) {
    const OneKeyLevel level = MakeOneKeyLevel(name, 0);
    EXPECT_FALSE(assembler.AssembleGet(level.get, level.levels).ok()) << name;
  }
}

TEST(TreeFileTest, AssemblerRejectsIndicesBeyondTheSidecar) {
  // The sidecar and the embedded leaf indices are untrusted: an index or
  // range end at or beyond the tree's leaf count is Corruption, not a read
  // past the image.
  auto enclave = MakeEnclave();
  auto fs = std::make_shared<storage::SimFs>(enclave);
  const crypto::MerkleTree tree({crypto::Sha256::Digest("leaf")});
  ASSERT_TRUE(fs->Write("t.tree", *tree.image()).ok());
  ProofAssembler assembler(fs);
  for (uint64_t index : {uint64_t{1}, uint64_t{7}, UINT64_MAX}) {
    const OneKeyLevel level = MakeOneKeyLevel("t.tree", index);
    EXPECT_TRUE(assembler.AssembleGet(level.get, level.levels)
                    .status()
                    .IsCorruption())
        << index;
    EXPECT_TRUE(assembler.AssembleScan(level.scan, level.levels)
                    .status()
                    .IsCorruption())
        << index;
  }
  const OneKeyLevel honest = MakeOneKeyLevel("t.tree", 0);
  EXPECT_TRUE(assembler.AssembleGet(honest.get, honest.levels).ok());
  EXPECT_TRUE(assembler.AssembleScan(honest.scan, honest.levels).ok());
}

TEST(WalDigestTest, OrderAndContentSensitive) {
  WalDigest a, b;
  a.Append("one");
  a.Append("two");
  b.Append("two");
  b.Append("one");
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_EQ(a.count(), 2u);

  WalDigest c;
  c.Append("one");
  c.Append("two");
  EXPECT_EQ(a.digest(), c.digest());
}

TEST(WalDigestTest, RestoreContinuesChain) {
  WalDigest a;
  a.Append("one");
  WalDigest b;
  b.Restore(a.digest(), a.count());
  a.Append("two");
  b.Append("two");
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(b.count(), 2u);
}

TEST(ListenerTest, AcceptsMatchingInputRejectsMismatched) {
  auto enclave = MakeEnclave();
  AuthCompactionListener listener(enclave.get(), false);
  const auto records = SampleRun();
  ASSERT_TRUE(listener.OnCompactionBegin(0).ok());
  std::vector<std::string> blobs;
  ASSERT_TRUE(ForEachGroup(records, [&](const std::vector<lsm::Record>& g) {
                return listener.OnOutputGroup(g, &blobs);
              }).ok());
  EXPECT_EQ(blobs.size(), records.size());
  auto seal = listener.OnOutputEnd();
  ASSERT_TRUE(seal.ok());

  lsm::LevelMeta meta;
  meta.root = seal.value().root;
  meta.leaf_count = seal.value().leaf_count;

  std::vector<lsm::RawEntry> run;
  for (const auto& r : records) {
    lsm::RawEntry e;
    e.record = r;
    e.core = r.EncodeCore();
    run.push_back(e);
  }
  // One input run through the streaming input hooks.
  auto authenticate = [&](int depth, const lsm::LevelMeta* level) {
    Status s = listener.OnCompactionBegin(1);
    if (s.ok()) s = listener.OnInputRunBegin(0, depth, level);
    for (const auto& e : run) {
      if (s.ok()) s = listener.OnInputEntry(0, e.record, e.core);
    }
    return s.ok() ? listener.OnInputRunEnd(0) : s;
  };
  EXPECT_TRUE(authenticate(2, &meta).ok());

  run[3].core[1] ^= 0x01;  // tamper one stored byte
  EXPECT_TRUE(authenticate(2, &meta).IsAuthFailure());
  // Memtable runs (depth -1) are trusted regardless.
  EXPECT_TRUE(authenticate(-1, nullptr).ok());
}

TEST(VerifierTest, EmptyLevelNeedsNoWitnesses) {
  auto enclave = MakeEnclave();
  Verifier verifier(enclave.get());
  AssembledGet proof;
  AssembledLevel level;
  level.level_pos = 0;
  proof.levels.push_back(level);
  std::vector<lsm::LevelMeta> levels(1);  // empty level: zero root
  auto result = verifier.VerifyGet("k", UINT64_MAX, proof, levels);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().has_value());
}

TEST(VerifierTest, WitnessAgainstEmptyLevelRejected) {
  auto enclave = MakeEnclave();
  Verifier verifier(enclave.get());
  AssembledGet proof;
  AssembledLevel level;
  level.level_pos = 0;
  AssembledEntry fake;
  fake.entry.record = MakeRecord("a", "v", 1);
  fake.entry.core = fake.entry.record.EncodeCore();
  level.pred = fake;
  proof.levels.push_back(level);
  std::vector<lsm::LevelMeta> levels(1);
  EXPECT_TRUE(verifier.VerifyGet("k", UINT64_MAX, proof, levels)
                  .status()
                  .IsAuthFailure());
}

TEST(VerifierTest, MissProofMustCoverAllLevels) {
  auto enclave = MakeEnclave();
  Verifier verifier(enclave.get());
  AssembledGet proof;
  AssembledLevel level;
  level.level_pos = 0;
  proof.levels.push_back(level);  // covers level 0 only
  std::vector<lsm::LevelMeta> levels(2);  // but there are two levels
  EXPECT_TRUE(verifier.VerifyGet("k", UINT64_MAX, proof, levels)
                  .status()
                  .IsAuthFailure());
}

TEST(VerifierTest, MemtableHitWithTrailingLevelsRejected) {
  auto enclave = MakeEnclave();
  Verifier verifier(enclave.get());
  AssembledGet proof;
  proof.memtable_hit = MakeRecord("k", "v", 9);
  AssembledLevel level;
  level.level_pos = 0;
  proof.levels.push_back(level);
  std::vector<lsm::LevelMeta> levels(1);
  EXPECT_TRUE(verifier.VerifyGet("k", UINT64_MAX, proof, levels)
                  .status()
                  .IsAuthFailure());
}

// The cached climb checks a path's length and index exactly as
// MerkleTree::VerifyPath does, whether the path cache is off, cold, or warm
// (a neighbour verified first, so the climb stops at their shared parent).
enum class PathCacheMode { kOff, kCold, kWarm };

class VerifierClimbTest : public ::testing::TestWithParam<PathCacheMode> {
 protected:
  // 37 keys: levels 37, 19, 10, 5, 3, 2, 1 carry odd nodes up.
  static constexpr uint64_t kLeaves = 37;
  static constexpr uint64_t kLeaf = 20;  // paired with leaf 21

  void SetUp() override {
    for (uint64_t i = 0; i < kLeaves; ++i) {
      records_.push_back(MakeRecord(test_util::Cat("k", 100 + i),
                                    test_util::Cat("v", i), 10 + i));
    }
    seal_ = SealRun(records_, enclave_.get(), false);
    levels_[0].root = seal_.root;
    levels_[0].leaf_count = seal_.leaf_count;
    auto sidecar = crypto::MerkleTree::Open(seal_.tree_payload);
    ASSERT_TRUE(sidecar.ok());
    sidecar_.emplace(std::move(sidecar).value());
    verifier_ = std::make_unique<Verifier>(
        enclave_.get(), GetParam() == PathCacheMode::kOff ? 0 : 4096);
    if (GetParam() == PathCacheMode::kWarm) {
      ASSERT_TRUE(Verify(Proof(kLeaf ^ 1)).ok());
    }
  }

  // The honest proof of leaf `i`, as the assembler builds it.
  AssembledGet Proof(uint64_t i) const {
    AssembledEntry entry;
    entry.entry.record = records_[i];
    entry.entry.core = records_[i].EncodeCore();
    entry.proof = EmbeddedProof::Decode(seal_.proof_blobs[i]).value();
    AssembledLevel level;
    level.found = true;
    level.chain.push_back(entry);
    level.chain_path = sidecar_->Path(i);
    AssembledGet proof;
    proof.levels.push_back(level);
    return proof;
  }

  // Moves the proof's claimed leaf index (record and path agree).
  static void Reindex(AssembledGet* proof, uint64_t index) {
    proof->levels[0].chain[0].proof.leaf_index = index;
    proof->levels[0].chain_path.leaf_index = index;
  }

  Status Verify(const AssembledGet& proof) {
    const std::string& key = proof.levels[0].chain[0].entry.record.key;
    return verifier_->VerifyGet(key, UINT64_MAX, proof, levels_).status();
  }

  crypto::MerklePath& PathOf(AssembledGet* proof) {
    return proof->levels[0].chain_path;
  }

  std::shared_ptr<sgx::Enclave> enclave_ = MakeEnclave();
  std::vector<lsm::Record> records_;
  lsm::CompactionSeal seal_;
  std::optional<crypto::MerkleTree> sidecar_;  // the level's opened sidecar
  std::vector<lsm::LevelMeta> levels_ = std::vector<lsm::LevelMeta>(1);
  std::unique_ptr<Verifier> verifier_;
};

TEST_P(VerifierClimbTest, HonestProofPasses) {
  const ProofPathCacheStats before = verifier_->path_cache_stats();
  ASSERT_TRUE(Verify(Proof(kLeaf)).ok());
  const ProofPathCacheStats after = verifier_->path_cache_stats();
  const uint64_t hashed = after.path_nodes_hashed - before.path_nodes_hashed;
  switch (GetParam()) {
    case PathCacheMode::kOff:
      EXPECT_EQ(after.lookups, 0u);
      break;
    case PathCacheMode::kCold:
      EXPECT_EQ(hashed, crypto::MerkleTree::Height(kLeaves));
      break;
    case PathCacheMode::kWarm:
      // The climb stops at the parent the neighbour cached.
      EXPECT_EQ(hashed, 1u);
      EXPECT_EQ(after.hits, before.hits + 1);
      break;
  }
}

TEST_P(VerifierClimbTest, PathOneSiblingShortRejected) {
  AssembledGet proof = Proof(kLeaf);
  PathOf(&proof).siblings.pop_back();
  EXPECT_TRUE(Verify(proof).IsAuthFailure());
}

TEST_P(VerifierClimbTest, PathOneSiblingExtraRejected) {
  AssembledGet proof = Proof(kLeaf);
  PathOf(&proof).siblings.push_back(crypto::kZeroHash);
  EXPECT_TRUE(Verify(proof).IsAuthFailure());
}

TEST_P(VerifierClimbTest, LeafIndexAtOrBeyondCountRejected) {
  for (uint64_t index : {kLeaves, kLeaves + 1, UINT64_MAX}) {
    AssembledGet proof = Proof(kLeaf);
    Reindex(&proof, index);
    EXPECT_TRUE(Verify(proof).IsAuthFailure()) << index;
  }
}

TEST_P(VerifierClimbTest, FlippedSiblingAtOrBelowCachedNodeRejected) {
  // The first sibling is hashed below every cached node: the warm climb's
  // lowest cached node is the parent it produces, the cold climb's the
  // root.
  AssembledGet proof = Proof(kLeaf);
  PathOf(&proof).siblings.front()[0] ^= 0x01;
  EXPECT_TRUE(Verify(proof).IsAuthFailure());
}

INSTANTIATE_TEST_SUITE_P(
    PathCache, VerifierClimbTest,
    ::testing::Values(PathCacheMode::kOff, PathCacheMode::kCold,
                      PathCacheMode::kWarm),
    [](const ::testing::TestParamInfo<PathCacheMode>& info) {
      switch (info.param) {
        case PathCacheMode::kOff:
          return "Off";
        case PathCacheMode::kCold:
          return "Cold";
        case PathCacheMode::kWarm:
          return "Warm";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace elsm::auth
