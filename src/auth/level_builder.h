// Builds the eLSM-P2 digest for a freshly compacted level (paper §5.5.2
// steps b and c): per-key hash chains over the sorted run, a Merkle tree
// over the chain digests, embedded-proof blobs for every record, and the
// tree sidecar, which is the tree's own image. Each chain link and each
// tree node is hashed once.
//
// Hash work is real (the root is a genuine SHA-256 Merkle root over the
// records) and is charged on the enclave cost model.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "auth/proof.h"
#include "common/status.h"
#include "crypto/merkle.h"
#include "lsm/engine.h"
#include "sgxsim/enclave.h"

namespace elsm::auth {

struct LevelDigest {
  crypto::Hash256 root = crypto::kZeroHash;
  uint64_t leaf_count = 0;
};

// Digest of one sorted run, fed record by record in order (key asc, ts
// desc) — used to re-authenticate compaction *inputs* against the
// enclave-held root (Fig. 4 lines 31-33). Per-key chains seal as the key
// changes, so only the current group's encodings are ever buffered, and
// each chain digest folds into a MerkleAccumulator as it seals: no leaf is
// kept and no tree is built. Finish() returns the root and leaf count.
class RunDigester {
 public:
  explicit RunDigester(sgx::Enclave* enclave) : enclave_(enclave) {}

  void Add(const lsm::Record& record, std::string_view core);
  LevelDigest Finish();

 private:
  void SealGroup();

  sgx::Enclave* enclave_;
  std::string current_key_;
  bool in_group_ = false;
  std::vector<std::string> group_cores_;
  crypto::MerkleAccumulator tree_;
};

// Seal of compaction *output*, fed one merged key group (newest-first) at a
// time: AddGroup() walks the group's chain once, oldest to newest, keeping
// each record's suffix digest and the leaf the walk ends on; Finish()
// builds the tree and returns root/leaf_count/tree sidecar. By default
// each group's proof blobs ({leaf_index, suffix}) are emitted immediately.
// With `embed_full_paths` (the paper's literal layout) a record's blob also
// carries its full Merkle path, which needs the finished tree: AddGroup()
// then keeps the {leaf_index, suffix} pairs and Finish() returns one blob
// per record.
class SealBuilder {
 public:
  explicit SealBuilder(sgx::Enclave* enclave, bool embed_full_paths = false)
      : enclave_(enclave), embed_full_paths_(embed_full_paths) {}

  Status AddGroup(const std::vector<lsm::Record>& group,
                  std::vector<std::string>* proof_blobs);
  Result<lsm::CompactionSeal> Finish();

 private:
  sgx::Enclave* enclave_;
  bool embed_full_paths_;
  std::vector<crypto::Hash256> leaves_;
  std::vector<EmbeddedProof> pending_;  // embed_full_paths only
};

}  // namespace elsm::auth
