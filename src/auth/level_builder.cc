#include "auth/level_builder.h"

#include "auth/proof.h"
#include "crypto/hash_chain.h"
#include "crypto/merkle.h"

namespace elsm::auth {

void RunDigester::Add(const lsm::Record& record, std::string_view core) {
  if (!in_group_ || record.key != current_key_) {
    SealGroup();
    current_key_ = record.key;
    in_group_ = true;
  }
  group_cores_.emplace_back(core);
  enclave_->ChargeHash(core.size() + 33);
}

void RunDigester::SealGroup() {
  if (!in_group_ || group_cores_.empty()) return;
  tree_.Add(crypto::ChainDigest(group_cores_));
  group_cores_.clear();
}

LevelDigest RunDigester::Finish() {
  SealGroup();
  in_group_ = false;
  enclave_->ChargeHash(tree_.leaf_count() * 64);  // interior nodes, amortized
  const LevelDigest digest{tree_.root(), tree_.leaf_count()};
  tree_ = crypto::MerkleAccumulator();
  return digest;
}

Status SealBuilder::AddGroup(const std::vector<lsm::Record>& group,
                             std::vector<std::string>* proof_blobs) {
  if (group.empty()) return Status::Ok();
  std::vector<std::string> encodings;
  encodings.reserve(group.size());
  for (const lsm::Record& r : group) encodings.push_back(r.EncodeCore());
  crypto::Hash256 leaf = crypto::kZeroHash;
  const auto suffixes = crypto::ChainSuffixes(encodings, &leaf);
  const uint64_t leaf_index = leaves_.size();
  for (size_t i = 0; i < group.size(); ++i) {
    EmbeddedProof proof;
    proof.leaf_index = leaf_index;
    proof.suffix = suffixes[i];
    if (embed_full_paths_) {
      pending_.push_back(std::move(proof));  // path known only at Finish
    } else {
      proof_blobs->push_back(proof.Encode());
    }
    enclave_->ChargeHash(encodings[i].size() + 33);
  }
  leaves_.push_back(leaf);
  return Status::Ok();
}

Result<lsm::CompactionSeal> SealBuilder::Finish() {
  lsm::CompactionSeal seal;
  if (leaves_.empty()) return seal;
  enclave_->ChargeHash(leaves_.size() * 64);  // interior-node hashing
  const crypto::MerkleTree tree(std::move(leaves_));
  leaves_.clear();
  seal.root = tree.root();
  seal.leaf_count = tree.leaf_count();
  seal.tree_payload = tree.image();  // the sidecar is the tree's own image
  seal.proof_blobs.reserve(pending_.size());
  for (EmbeddedProof& proof : pending_) {
    proof.path = tree.Path(proof.leaf_index);
    seal.proof_blobs.push_back(proof.Encode());
  }
  pending_.clear();
  return seal;
}

}  // namespace elsm::auth
