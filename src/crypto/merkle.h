// Merkle hash tree with membership paths, adjacency-based non-membership
// and contiguous range proofs (paper §5.2, §5.4, Appendix A.2).
//
// Shape: RFC 6962-style binary tree. Leaves are pre-hashed 32-byte digests
// (eLSM leaves are per-key hash-chain digests). At each level nodes are
// paired left-to-right; a trailing unpaired node is carried up unchanged.
// Interior nodes are H(0x01 || left || right), giving domain separation from
// the 0x00-prefixed record/chain hashes (see hash_chain.h). merkle.cc is the
// only place that knows this shape.
//
// A tree is its image: a fixed64 leaf count, then every level's 32-byte
// nodes, leaves first and the root last. That image is the per-level tree
// sidecar eLSM-P2 stores on the untrusted disk, so the enclave seals a
// level by building a tree and writing its image, and the untrusted host
// opens the stored sidecar as a tree and serves the same Path/RangeProof.
//
// A MerklePath carries the leaf index so the verifier can recompute the
// left/right orientation at every level; the verifier must also know the
// authenticated leaf count (eLSM keeps (root, leaf_count) per level inside
// the enclave).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "crypto/sha256.h"

namespace elsm::crypto {

// Interior node rule, exposed for tests: H(0x01 || a || b).
Hash256 HashInterior(const Hash256& a, const Hash256& b);

struct MerklePath {
  uint64_t leaf_index = 0;
  std::vector<Hash256> siblings;

  // Compact wire form: varint index, varint count, raw hashes.
  std::string Encode() const;
  static Result<MerklePath> Decode(std::string_view data);
  size_t ByteSize() const { return siblings.size() * 32 + 16; }
};

// Extra hashes required to recompute the root from a contiguous run of
// leaves [lo, hi]: at each level, the left neighbour of the run's first
// node and the right neighbour of its last, where the run needs them.
struct MerkleRangeProof {
  uint64_t lo = 0;  // first covered leaf index
  std::vector<Hash256> hashes;  // consumed in verification order

  std::string Encode() const;
  static Result<MerkleRangeProof> Decode(std::string_view data);
};

class MerkleTree {
 public:
  // Levels below the root of the tallest tree a 64-bit leaf count allows.
  static constexpr uint32_t kMaxHeight = 64;
  // One climb's nodes, leaf first (see Climb).
  using ClimbNodes = std::array<Hash256, kMaxHeight + 1>;

  // Builds the tree; an empty leaf set yields root() == kZeroHash. Takes
  // the leaves by value, so a caller that moves them in frees them once the
  // image holds them.
  explicit MerkleTree(std::vector<Hash256> leaves);

  // Wraps a stored image without copying it, so the tree sees later
  // in-place writes to it as a mapping would. The image is untrusted: Open
  // checks only that its size matches the leaf count its header claims,
  // and a tampered node yields proofs that fail verification.
  static Result<MerkleTree> Open(std::shared_ptr<const std::string> image);

  // The tree's bytes (the sidecar format above).
  const std::shared_ptr<const std::string>& image() const { return image_; }
  Hash256 root() const;
  uint64_t leaf_count() const { return leaf_count_; }
  Hash256 leaf(uint64_t index) const { return Node(index); }

  // Require leaf_index < leaf_count() and lo <= hi < leaf_count().
  MerklePath Path(uint64_t leaf_index) const;
  MerkleRangeProof RangeProof(uint64_t lo, uint64_t hi) const;

  // Levels below the root of a tree over `leaf_count` leaves.
  static uint32_t Height(uint64_t leaf_count);

  // The one climb up a membership path. Hashes `leaf_hash` with the path's
  // siblings into (*nodes)[1..min(hash_levels, height)], with
  // (*nodes)[0] = leaf_hash; above `hash_levels` it only counts the
  // siblings the path must carry. Fails when the index is out of range or
  // the path has too few or too many siblings. `*hashed` grows by the
  // interior hashes evaluated, also on failure.
  static Status Climb(const Hash256& leaf_hash, const MerklePath& path,
                      uint64_t leaf_count, uint32_t hash_levels,
                      ClimbNodes* nodes, uint64_t* hashed);

  // Recomputes the root from a single leaf + path. Pure function: no tree
  // instance needed (this is what runs inside the enclave).
  static Status VerifyPath(const Hash256& leaf_hash, const MerklePath& path,
                           uint64_t leaf_count, const Hash256& root);

  // Recomputes the root from leaves [proof.lo, proof.lo + leaves.size()).
  static Status VerifyRange(const std::vector<Hash256>& leaf_hashes,
                            const MerkleRangeProof& proof, uint64_t leaf_count,
                            const Hash256& root);

 private:
  MerkleTree(std::shared_ptr<const std::string> image, uint64_t leaf_count)
      : image_(std::move(image)), leaf_count_(leaf_count) {}

  // The node at `pos` in the image's node order (level by level).
  Hash256 Node(uint64_t pos) const;

  std::shared_ptr<const std::string> image_;
  uint64_t leaf_count_;
};

// The root and leaf count of MerkleTree(leaves) for leaves that arrive one
// at a time, without the tree: each leaf is folded into at most kMaxHeight
// pending subtree roots, so memory stays constant however many leaves come.
// It evaluates the same n - 1 interior hashes the tree does.
class MerkleAccumulator {
 public:
  void Add(const Hash256& leaf);
  // kZeroHash for no leaves, as MerkleTree.
  Hash256 root() const;
  uint64_t leaf_count() const { return leaf_count_; }

 private:
  // Slot h holds the root of a complete 2^h-leaf subtree while bit h of
  // leaf_count_ is set; the slots' subtrees cover the leaves left to right
  // from the highest set bit down.
  std::array<Hash256, MerkleTree::kMaxHeight> pending_{};
  uint64_t leaf_count_ = 0;
};

}  // namespace elsm::crypto
