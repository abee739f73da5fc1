#include "auth/proof.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/coding.h"
#include "storage/mmap.h"

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

Result<const crypto::MerkleTree*> ProofAssembler::Tree(
    const lsm::LevelMeta& meta) {
  return meta.sidecar->GetOrMake<crypto::MerkleTree>(
      [&]() -> Result<crypto::MerkleTree> {
        auto region = storage::MmapRegion::Open(*fs_, meta.tree_file);
        if (!region.ok()) return region.status();
        (void)region.value().Read(0, 8);  // the leaf-count header
        return crypto::MerkleTree::Open(region.value().blob());
      });
}

void ProofAssembler::ChargeNodeReads(size_t nodes) const {
  fs_->enclave().UntrustedRead(32 * nodes);
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
      if (proof.leaf_index >= tree.value()->leaf_count()) {
        return Status::Corruption("leaf index beyond the tree sidecar");
      }
      *path_out = tree.value()->Path(proof.leaf_index);
      ChargeNodeReads(path_out->siblings.size());
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
    uint64_t lo = UINT64_MAX;
    uint64_t hi = 0;
    auto extend = [&](const AssembledEntry& e) {
      lo = std::min(lo, e.proof.leaf_index);
      hi = std::max(hi, e.proof.leaf_index);
    };
    if (al.pred.has_value()) extend(*al.pred);
    for (const AssembledEntry& e : al.heads) extend(e);
    if (al.succ.has_value()) extend(*al.succ);
    if (lo <= hi) {
      auto tree = Tree(meta);
      if (!tree.ok()) return tree.status();
      if (hi >= tree.value()->leaf_count()) {
        return Status::Corruption("leaf range beyond the tree sidecar");
      }
      al.range = tree.value()->RangeProof(lo, hi);
      ChargeNodeReads(al.range.hashes.size());
      out.proof_bytes += al.range.hashes.size() * 32;
    }
    out.levels.push_back(std::move(al));
  }
  return out;
}

}  // namespace elsm::auth
