#include "auth/proof.h"

#include <cstring>

#include "common/coding.h"

namespace elsm::auth {
namespace {

constexpr uint8_t kHasSuffix = 1 << 0;
constexpr uint8_t kHasPath = 1 << 1;

}  // namespace

std::string EmbeddedProof::Encode() const {
  std::string out;
  uint8_t flags = 0;
  if (suffix.present) flags |= kHasSuffix;
  if (path.has_value()) flags |= kHasPath;
  out.push_back(static_cast<char>(flags));
  PutVarint64(&out, leaf_index);
  if (suffix.present) {
    out.append(reinterpret_cast<const char*>(suffix.digest.data()), 32);
  }
  if (path.has_value()) PutLengthPrefixed(&out, path->Encode());
  return out;
}

Result<EmbeddedProof> EmbeddedProof::Decode(std::string_view blob) {
  if (blob.empty()) return Status::Corruption("empty embedded proof");
  EmbeddedProof proof;
  const uint8_t flags = static_cast<uint8_t>(blob.front());
  blob.remove_prefix(1);
  if (!GetVarint64(&blob, &proof.leaf_index)) {
    return Status::Corruption("bad embedded proof index");
  }
  if (flags & kHasSuffix) {
    if (blob.size() < 32) return Status::Corruption("bad embedded suffix");
    proof.suffix.present = true;
    std::memcpy(proof.suffix.digest.data(), blob.data(), 32);
    blob.remove_prefix(32);
  }
  if (flags & kHasPath) {
    std::string_view encoded;
    if (!GetLengthPrefixed(&blob, &encoded)) {
      return Status::Corruption("bad embedded path");
    }
    auto path = crypto::MerklePath::Decode(encoded);
    if (!path.ok()) return path.status();
    proof.path = std::move(path).value();
  }
  return proof;
}

std::string TreeFile::Serialize(const crypto::MerkleTree& tree) {
  std::string out;
  PutFixed64(&out, tree.leaf_count());
  // Rebuild level-by-level exactly as MerkleTree does, appending raw hashes.
  // (The tree object does not expose its levels; recompute widths and walk
  // leaves upward — cheap relative to the hashing already done.)
  std::vector<crypto::Hash256> level;
  level.reserve(tree.leaf_count());
  for (uint64_t i = 0; i < tree.leaf_count(); ++i) level.push_back(tree.leaf(i));
  while (true) {
    for (const crypto::Hash256& h : level) {
      out.append(reinterpret_cast<const char*>(h.data()), h.size());
    }
    if (level.size() <= 1) break;
    std::vector<crypto::Hash256> next;
    next.reserve((level.size() + 1) / 2);
    for (size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(crypto::HashInterior(level[i], level[i + 1]));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  return out;
}

Result<TreeFile> TreeFile::Open(const storage::Fs& fs,
                                const std::string& name) {
  auto region = storage::MmapRegion::Open(fs, name);
  if (!region.ok()) return region.status();
  auto header = region.value().Read(0, 8);
  if (!header.ok() || header.value().size() < 8) {
    return Status::Corruption("bad tree file header");
  }
  uint64_t leaf_count = 0;
  std::string_view cursor = header.value();
  if (!GetFixed64(&cursor, &leaf_count)) {
    return Status::Corruption("bad tree file header");
  }
  std::vector<uint64_t> offsets;
  std::vector<uint64_t> widths;
  uint64_t offset = 8;
  uint64_t width = leaf_count == 0 ? 1 : leaf_count;
  while (true) {
    offsets.push_back(offset);
    widths.push_back(width);
    offset += width * 32;
    if (width <= 1) break;
    width = (width + 1) / 2;
  }
  return TreeFile(std::move(region).value(), leaf_count, std::move(offsets),
                  std::move(widths));
}

Result<crypto::Hash256> TreeFile::Node(size_t level, uint64_t index) const {
  if (level >= level_offsets_.size() || index >= level_widths_[level]) {
    return Status::Corruption("tree node out of range");
  }
  auto bytes = region_.Read(level_offsets_[level] + index * 32, 32);
  if (!bytes.ok()) return bytes.status();
  if (bytes.value().size() != 32) {
    return Status::Corruption("short tree node read");
  }
  crypto::Hash256 h;
  std::memcpy(h.data(), bytes.value().data(), 32);
  return h;
}

Result<crypto::MerklePath> TreeFile::Siblings(uint64_t leaf_index) const {
  crypto::MerklePath path;
  path.leaf_index = leaf_index;
  uint64_t idx = leaf_index;
  for (size_t l = 0; l + 1 < level_widths_.size(); ++l) {
    const uint64_t width = level_widths_[l];
    if (idx % 2 == 1) {
      auto node = Node(l, idx - 1);
      if (!node.ok()) return node.status();
      path.siblings.push_back(node.value());
    } else if (idx + 1 < width) {
      auto node = Node(l, idx + 1);
      if (!node.ok()) return node.status();
      path.siblings.push_back(node.value());
    }
    idx /= 2;
  }
  return path;
}

Result<crypto::MerkleRangeProof> TreeFile::RangeProof(uint64_t lo,
                                                      uint64_t hi) const {
  crypto::MerkleRangeProof proof;
  proof.lo = lo;
  uint64_t cur_lo = lo;
  uint64_t cur_hi = hi;
  for (size_t l = 0; l + 1 < level_widths_.size(); ++l) {
    const uint64_t width = level_widths_[l];
    if (cur_lo % 2 == 1) {
      auto node = Node(l, cur_lo - 1);
      if (!node.ok()) return node.status();
      proof.hashes.push_back(node.value());
    }
    if (cur_hi % 2 == 0 && cur_hi + 1 < width) {
      auto node = Node(l, cur_hi + 1);
      if (!node.ok()) return node.status();
      proof.hashes.push_back(node.value());
    }
    cur_lo /= 2;
    cur_hi /= 2;
  }
  return proof;
}

Result<const TreeFile*> ProofAssembler::Tree(const lsm::LevelMeta& meta) {
  return meta.sidecar->GetOrMake<TreeFile>(
      [&] { return TreeFile::Open(*fs_, meta.tree_file); });
}

namespace {

Result<AssembledEntry> MakeEntry(const lsm::RawEntry& raw) {
  auto proof = EmbeddedProof::Decode(raw.proof_blob);
  if (!proof.ok()) return proof.status();
  AssembledEntry out;
  out.entry = raw;
  out.proof = std::move(proof).value();
  return out;
}

}  // namespace

Result<AssembledGet> ProofAssembler::AssembleGet(
    const lsm::GetResponse& response,
    const std::vector<lsm::LevelMeta>& levels) {
  AssembledGet out;
  out.memtable_hit = response.memtable_hit;
  for (const lsm::LevelGetResult& lr : response.levels) {
    AssembledLevel al;
    al.level_pos = lr.level_pos;
    al.bloom_negative = lr.bloom_negative;
    al.found = lr.found;
    if (lr.level_pos >= levels.size()) {
      return Status::Corruption("level position out of range");
    }
    const lsm::LevelMeta& meta = levels[lr.level_pos];

    auto attach_path =
        [&](const EmbeddedProof& proof,
            crypto::MerklePath* path_out) -> Status {
      if (proof.path.has_value()) {
        *path_out = *proof.path;
        return Status::Ok();
      }
      auto tree = Tree(meta);
      if (!tree.ok()) return tree.status();
      auto path = tree.value()->Siblings(proof.leaf_index);
      if (!path.ok()) return path.status();
      *path_out = std::move(path).value();
      return Status::Ok();
    };

    if (!lr.chain.empty()) {
      for (const lsm::RawEntry& raw : lr.chain) {
        auto entry = MakeEntry(raw);
        if (!entry.ok()) return entry.status();
        out.proof_bytes += raw.core.size() + raw.proof_blob.size();
        al.chain.push_back(std::move(entry).value());
      }
      Status s = attach_path(al.chain.front().proof, &al.chain_path);
      if (!s.ok()) return s;
      out.proof_bytes += al.chain_path.ByteSize();
    }
    if (lr.pred.has_value()) {
      auto entry = MakeEntry(*lr.pred);
      if (!entry.ok()) return entry.status();
      al.pred = std::move(entry).value();
      Status s = attach_path(al.pred->proof, &al.pred_path);
      if (!s.ok()) return s;
      out.proof_bytes += lr.pred->core.size() + al.pred_path.ByteSize();
    }
    if (lr.succ.has_value()) {
      auto entry = MakeEntry(*lr.succ);
      if (!entry.ok()) return entry.status();
      al.succ = std::move(entry).value();
      Status s = attach_path(al.succ->proof, &al.succ_path);
      if (!s.ok()) return s;
      out.proof_bytes += lr.succ->core.size() + al.succ_path.ByteSize();
    }
    out.levels.push_back(std::move(al));
  }
  return out;
}

Result<AssembledScan> ProofAssembler::AssembleScan(
    const lsm::ScanResponse& response,
    const std::vector<lsm::LevelMeta>& levels) {
  AssembledScan out;
  out.memtable_records = response.memtable_records;
  for (const lsm::LevelScanResult& lr : response.levels) {
    AssembledScanLevel al;
    al.level_pos = lr.level_pos;
    if (lr.level_pos >= levels.size()) {
      return Status::Corruption("level position out of range");
    }
    const lsm::LevelMeta& meta = levels[lr.level_pos];
    if (meta.leaf_count == 0) {
      out.levels.push_back(std::move(al));
      continue;
    }

    for (const lsm::RawEntry& raw : lr.heads) {
      auto entry = MakeEntry(raw);
      if (!entry.ok()) return entry.status();
      out.proof_bytes += raw.core.size() + raw.proof_blob.size();
      al.heads.push_back(std::move(entry).value());
    }
    if (lr.pred.has_value()) {
      auto entry = MakeEntry(*lr.pred);
      if (!entry.ok()) return entry.status();
      out.proof_bytes += lr.pred->core.size();
      al.pred = std::move(entry).value();
    }
    if (lr.succ.has_value()) {
      auto entry = MakeEntry(*lr.succ);
      if (!entry.ok()) return entry.status();
      out.proof_bytes += lr.succ->core.size();
      al.succ = std::move(entry).value();
    }

    // Contiguous leaf run = [pred] + heads + [succ].
    uint64_t lo = 0;
    uint64_t hi = 0;
    bool have = false;
    auto extend = [&](const std::optional<AssembledEntry>& e) {
      if (!e.has_value()) return;
      const uint64_t idx = e->proof.leaf_index;
      if (!have) {
        lo = hi = idx;
        have = true;
      } else {
        lo = std::min(lo, idx);
        hi = std::max(hi, idx);
      }
    };
    extend(al.pred);
    for (const AssembledEntry& e : al.heads) {
      if (!have) {
        lo = hi = e.proof.leaf_index;
        have = true;
      } else {
        lo = std::min(lo, e.proof.leaf_index);
        hi = std::max(hi, e.proof.leaf_index);
      }
    }
    extend(al.succ);
    if (have) {
      auto tree = Tree(meta);
      if (!tree.ok()) return tree.status();
      auto range = tree.value()->RangeProof(lo, hi);
      if (!range.ok()) return range.status();
      al.range = std::move(range).value();
      out.proof_bytes += al.range.hashes.size() * 32;
    }
    out.levels.push_back(std::move(al));
  }
  return out;
}

}  // namespace elsm::auth
