// eLSM-P2 proof machinery (paper §5.2, §5.3).
//
// Embedded proof: every record stored in an SSTable carries
//   { leaf_index, chain suffix }  (+ optionally the full Merkle path).
// The Merkle authentication-path hashes live in a per-level *tree sidecar*
// file in untrusted storage, the image of the level's crypto::MerkleTree;
// the ProofAssembler (playing the untrusted-host role, §5.3 r1) combines
// record blobs with sidecar hashes into the proof the enclave verifies.
// DESIGN.md §2 documents this as a storage-layout refinement of the
// paper's "proofs embedded in records": the proof is still assembled
// entirely from untrusted, per-record materialized data, but interior
// hashes are not duplicated into every record (the paper's literal layout
// is available via `embed_full_paths` and tested equal).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "crypto/hash_chain.h"
#include "crypto/merkle.h"
#include "lsm/engine.h"
#include "storage/fs.h"

namespace elsm::auth {

struct EmbeddedProof {
  uint64_t leaf_index = 0;
  crypto::ChainSuffix suffix;               // digest of the older chain tail
  std::optional<crypto::MerklePath> path;   // present iff embed_full_paths

  std::string Encode() const;
  static Result<EmbeddedProof> Decode(std::string_view blob);
};

// --- assembled (wire-level) proofs the enclave verifies ---------------------

struct AssembledEntry {
  lsm::RawEntry entry;
  EmbeddedProof proof;
};

struct AssembledLevel {
  size_t level_pos = 0;
  bool bloom_negative = false;
  bool found = false;
  std::vector<AssembledEntry> chain;       // newest-first group prefix
  crypto::MerklePath chain_path;           // shared by every chain entry
  std::optional<AssembledEntry> pred;
  crypto::MerklePath pred_path;
  std::optional<AssembledEntry> succ;
  crypto::MerklePath succ_path;
};

struct AssembledGet {
  std::optional<lsm::Record> memtable_hit;
  std::vector<AssembledLevel> levels;
  uint64_t proof_bytes = 0;  // total authentication payload (reporting)
};

struct AssembledScanLevel {
  size_t level_pos = 0;
  std::vector<AssembledEntry> heads;  // newest record per in-range key group
  std::optional<AssembledEntry> pred;
  std::optional<AssembledEntry> succ;
  crypto::MerkleRangeProof range;
};

struct AssembledScan {
  std::vector<lsm::Record> memtable_records;
  std::vector<AssembledScanLevel> levels;
  uint64_t proof_bytes = 0;
};

// Untrusted-host role: turns engine responses into assembled proofs by
// decoding embedded blobs and fetching sidecar hashes. A level's sidecar is
// mapped once, opened as a crypto::MerkleTree and hung on the level's
// LevelMeta::sidecar, so it lives exactly as long as a snapshot that can
// read it; proofs come from the tree's own Path/RangeProof. The sidecar is
// untrusted: an index beyond it is Corruption, and a tampered node only
// produces proofs that fail verification.
class ProofAssembler {
 public:
  explicit ProofAssembler(std::shared_ptr<storage::Fs> fs)
      : fs_(std::move(fs)) {}

  Result<AssembledGet> AssembleGet(const lsm::GetResponse& response,
                                   const std::vector<lsm::LevelMeta>& levels);
  Result<AssembledScan> AssembleScan(const lsm::ScanResponse& response,
                                     const std::vector<lsm::LevelMeta>& levels);

 private:
  Result<const crypto::MerkleTree*> Tree(const lsm::LevelMeta& meta);
  // Charges reading `nodes` 32-byte nodes from a mapped sidecar.
  void ChargeNodeReads(size_t nodes) const;

  std::shared_ptr<storage::Fs> fs_;
};

}  // namespace elsm::auth
