#include "crypto/merkle.h"

#include <bit>
#include <cstring>

#include "common/coding.h"

namespace elsm::crypto {
namespace {

constexpr uint64_t kHeaderBytes = 8;  // fixed64 leaf count

// The shape. A level is half as wide as the one below it, rounded up: nodes
// pair left to right, and an unpaired last node is carried up unchanged.
uint64_t ParentWidth(uint64_t width) { return width / 2 + width % 2; }

// Whether the node at `index` of a level `width` nodes wide is paired.
bool HasSibling(uint64_t index, uint64_t width) {
  return index % 2 == 1 || index + 1 < width;
}

// Nodes of a tree over `leaf_count` leaves, summed over its levels.
uint64_t NodeCount(uint64_t leaf_count) {
  uint64_t count = leaf_count;
  for (uint64_t width = leaf_count; width > 1; width = ParentWidth(width)) {
    count += ParentWidth(width);
  }
  return count;
}

Hash256 NodeAt(std::string_view image, uint64_t pos) {
  Hash256 node;
  std::memcpy(node.data(), image.data() + kHeaderBytes + 32 * pos, 32);
  return node;
}

void AppendNode(std::string* image, const Hash256& node) {
  image->append(reinterpret_cast<const char*>(node.data()), node.size());
}

}  // namespace

Hash256 HashInterior(const Hash256& a, const Hash256& b) {
  Sha256 h;
  const uint8_t prefix = 0x01;
  h.Update(&prefix, 1);
  h.Update(a.data(), a.size());
  h.Update(b.data(), b.size());
  return h.Finalize();
}

std::string MerklePath::Encode() const {
  std::string out;
  PutVarint64(&out, leaf_index);
  PutVarint32(&out, static_cast<uint32_t>(siblings.size()));
  for (const Hash256& h : siblings) {
    out.append(reinterpret_cast<const char*>(h.data()), h.size());
  }
  return out;
}

Result<MerklePath> MerklePath::Decode(std::string_view data) {
  MerklePath path;
  uint32_t count = 0;
  if (!GetVarint64(&data, &path.leaf_index) || !GetVarint32(&data, &count) ||
      data.size() < size_t(count) * 32) {
    return Status::Corruption("bad merkle path encoding");
  }
  path.siblings.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::memcpy(path.siblings[i].data(), data.data() + size_t(i) * 32, 32);
  }
  return path;
}

std::string MerkleRangeProof::Encode() const {
  std::string out;
  PutVarint64(&out, lo);
  PutVarint32(&out, static_cast<uint32_t>(hashes.size()));
  for (const Hash256& h : hashes) {
    out.append(reinterpret_cast<const char*>(h.data()), h.size());
  }
  return out;
}

Result<MerkleRangeProof> MerkleRangeProof::Decode(std::string_view data) {
  MerkleRangeProof proof;
  uint32_t count = 0;
  if (!GetVarint64(&data, &proof.lo) || !GetVarint32(&data, &count) ||
      data.size() < size_t(count) * 32) {
    return Status::Corruption("bad merkle range proof encoding");
  }
  proof.hashes.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::memcpy(proof.hashes[i].data(), data.data() + size_t(i) * 32, 32);
  }
  return proof;
}

MerkleTree::MerkleTree(std::vector<Hash256> leaves)
    : leaf_count_(leaves.size()) {
  std::string image;
  image.reserve(kHeaderBytes + 32 * NodeCount(leaf_count_));
  PutFixed64(&image, leaf_count_);
  for (const Hash256& leaf : leaves) AppendNode(&image, leaf);
  // Each level pairs up the nodes of the level appended before it.
  uint64_t start = 0;  // position of the level's first node
  for (uint64_t width = leaf_count_; width > 1;
       start += width, width = ParentWidth(width)) {
    for (uint64_t i = 0; i + 1 < width; i += 2) {
      AppendNode(&image, HashInterior(NodeAt(image, start + i),
                                      NodeAt(image, start + i + 1)));
    }
    if (width % 2 == 1) AppendNode(&image, NodeAt(image, start + width - 1));
  }
  image_ = std::make_shared<const std::string>(std::move(image));
}

Result<MerkleTree> MerkleTree::Open(std::shared_ptr<const std::string> image) {
  std::string_view header(*image);
  uint64_t leaf_count = 0;
  if (!GetFixed64(&header, &leaf_count)) {
    return Status::Corruption("bad tree image header");
  }
  // Bound the untrusted count by the image before summing its levels, so
  // the sum cannot overflow.
  const uint64_t node_bytes = image->size() - kHeaderBytes;
  if (leaf_count > node_bytes / 32 ||
      NodeCount(leaf_count) * 32 != node_bytes) {
    return Status::Corruption("tree image size does not match its header");
  }
  return MerkleTree(std::move(image), leaf_count);
}

Hash256 MerkleTree::Node(uint64_t pos) const { return NodeAt(*image_, pos); }

Hash256 MerkleTree::root() const {
  if (leaf_count_ == 0) return kZeroHash;
  return Node((image_->size() - kHeaderBytes) / 32 - 1);
}

uint32_t MerkleTree::Height(uint64_t leaf_count) {
  uint32_t height = 0;
  for (uint64_t width = leaf_count; width > 1; width = ParentWidth(width)) {
    ++height;
  }
  return height;
}

MerklePath MerkleTree::Path(uint64_t leaf_index) const {
  MerklePath path;
  path.leaf_index = leaf_index;
  uint64_t start = 0;
  uint64_t idx = leaf_index;
  for (uint64_t width = leaf_count_; width > 1;
       start += width, width = ParentWidth(width), idx /= 2) {
    if (HasSibling(idx, width)) {
      path.siblings.push_back(Node(start + (idx ^ 1)));
    }
  }
  return path;
}

Status MerkleTree::Climb(const Hash256& leaf_hash, const MerklePath& path,
                         uint64_t leaf_count, uint32_t hash_levels,
                         ClimbNodes* nodes, uint64_t* hashed) {
  if (leaf_count == 0) return Status::AuthFailure("path against empty tree");
  if (path.leaf_index >= leaf_count) {
    return Status::AuthFailure("leaf index out of range");
  }
  (*nodes)[0] = leaf_hash;
  uint64_t idx = path.leaf_index;
  size_t used = 0;
  uint32_t level = 0;
  for (uint64_t width = leaf_count; width > 1;
       width = ParentWidth(width), idx /= 2, ++level) {
    if (!HasSibling(idx, width)) {
      if (level < hash_levels) (*nodes)[level + 1] = (*nodes)[level];
      continue;
    }
    if (used == path.siblings.size()) {
      return Status::AuthFailure("merkle path too short");
    }
    const Hash256& sibling = path.siblings[used++];
    if (level < hash_levels) {
      const Hash256& node = (*nodes)[level];
      (*nodes)[level + 1] = idx % 2 == 1 ? HashInterior(sibling, node)
                                         : HashInterior(node, sibling);
      ++*hashed;
    }
  }
  if (used != path.siblings.size()) {
    return Status::AuthFailure("merkle path has extra nodes");
  }
  return Status::Ok();
}

Status MerkleTree::VerifyPath(const Hash256& leaf_hash, const MerklePath& path,
                              uint64_t leaf_count, const Hash256& root) {
  ClimbNodes nodes;
  uint64_t hashed = 0;
  Status s = Climb(leaf_hash, path, leaf_count, kMaxHeight, &nodes, &hashed);
  if (!s.ok()) return s;
  if (nodes[Height(leaf_count)] != root) {
    return Status::AuthFailure("merkle root mismatch");
  }
  return Status::Ok();
}

MerkleRangeProof MerkleTree::RangeProof(uint64_t lo, uint64_t hi) const {
  MerkleRangeProof proof;
  proof.lo = lo;
  uint64_t start = 0;
  for (uint64_t width = leaf_count_; width > 1;
       start += width, width = ParentWidth(width), lo /= 2, hi /= 2) {
    if (lo % 2 == 1) proof.hashes.push_back(Node(start + lo - 1));
    if (hi % 2 == 0 && hi + 1 < width) {
      proof.hashes.push_back(Node(start + hi + 1));
    }
  }
  return proof;
}

Status MerkleTree::VerifyRange(const std::vector<Hash256>& leaf_hashes,
                               const MerkleRangeProof& proof,
                               uint64_t leaf_count, const Hash256& root) {
  if (leaf_hashes.empty()) {
    return Status::AuthFailure("empty range proof payload");
  }
  const uint64_t lo = proof.lo;
  const uint64_t hi = lo + leaf_hashes.size() - 1;
  if (hi >= leaf_count) return Status::AuthFailure("range beyond leaf count");

  std::vector<Hash256> nodes = leaf_hashes;
  uint64_t cur_lo = lo;
  uint64_t width = leaf_count;
  size_t used = 0;
  while (width > 1) {
    uint64_t cur_hi = cur_lo + nodes.size() - 1;
    if (cur_lo % 2 == 1) {
      if (used >= proof.hashes.size()) {
        return Status::AuthFailure("range proof too short");
      }
      nodes.insert(nodes.begin(), proof.hashes[used++]);
      cur_lo -= 1;
    }
    if (cur_hi % 2 == 0 && cur_hi + 1 < width) {
      if (used >= proof.hashes.size()) {
        return Status::AuthFailure("range proof too short");
      }
      nodes.push_back(proof.hashes[used++]);
    }
    // Pair up; a trailing unpaired node (only possible at the end of the
    // level) carries up unchanged.
    std::vector<Hash256> next;
    next.reserve(nodes.size() / 2 + 1);
    size_t i = 0;
    for (; i + 1 < nodes.size(); i += 2) {
      next.push_back(HashInterior(nodes[i], nodes[i + 1]));
    }
    if (i < nodes.size()) next.push_back(nodes[i]);
    nodes = std::move(next);
    cur_lo /= 2;
    width = ParentWidth(width);
  }
  if (used != proof.hashes.size()) {
    return Status::AuthFailure("range proof has extra nodes");
  }
  if (nodes.size() != 1 || nodes[0] != root) {
    return Status::AuthFailure("range proof root mismatch");
  }
  return Status::Ok();
}

void MerkleAccumulator::Add(const Hash256& leaf) {
  // Binary carry: each set low bit pairs a complete subtree with the new
  // one to its right.
  Hash256 node = leaf;
  uint32_t h = 0;
  for (; (leaf_count_ >> h) & 1; ++h) node = HashInterior(pending_[h], node);
  pending_[h] = node;
  ++leaf_count_;
}

Hash256 MerkleAccumulator::root() const {
  if (leaf_count_ == 0) return kZeroHash;
  // From the lowest set slot upward: the rightmost subtree is the tree's
  // carried odd node until a larger subtree to its left pairs with it.
  uint32_t h = static_cast<uint32_t>(std::countr_zero(leaf_count_));
  Hash256 node = pending_[h];
  for (++h; h < MerkleTree::kMaxHeight; ++h) {
    if ((leaf_count_ >> h) & 1) node = HashInterior(pending_[h], node);
  }
  return node;
}

}  // namespace elsm::crypto
