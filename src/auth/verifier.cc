#include "auth/verifier.h"

#include <algorithm>
#include <cstring>
#include <map>

namespace elsm::auth {
namespace {

Result<lsm::Record> DecodeEntry(const AssembledEntry& e) {
  std::string_view cursor(e.entry.core);
  auto record = lsm::Record::DecodeCore(&cursor);
  if (!record.ok() || !cursor.empty()) {
    return Status::AuthFailure("undecodable record in proof");
  }
  return record;
}

}  // namespace

uint64_t PathNodeCache::Hash(const Key& key) {
  // The root is a SHA-256 digest, so its first word is already uniform;
  // the multiply-xorshift spreads neighbouring indices across the table.
  uint64_t h = 0;
  std::memcpy(&h, key.root.data(), sizeof(h));
  h += key.index * 0x9E3779B97F4A7C15ull + key.level;
  h ^= h >> 32;
  h *= 0xD6E8FEB86659FD93ull;
  return h ^ (h >> 32);
}

size_t PathNodeCache::Locate(const Key& key, uint64_t hash) const {
  const size_t mask = table_.size() - 1;
  size_t pos = hash & mask;
  while (table_[pos] != kFree && ring_[table_[pos]].key != key) {
    pos = (pos + 1) & mask;
  }
  return pos;
}

const crypto::Hash256* PathNodeCache::Find(const Key& key) const {
  if (size_ == 0) return nullptr;
  const uint32_t slot = table_[Locate(key, Hash(key))];
  return slot == kFree ? nullptr : &ring_[slot].node;
}

bool PathNodeCache::Insert(const Key& key, const crypto::Hash256& node) {
  if (size_ == ring_.size()) Grow();
  const uint64_t hash = Hash(key);
  const size_t pos = Locate(key, hash);
  if (table_[pos] != kFree) return false;
  size_t slot = head_ + size_;
  if (slot >= ring_.size()) slot -= ring_.size();
  ring_[slot] = Entry{key, node, hash};
  table_[pos] = static_cast<uint32_t>(slot);
  ++size_;
  return true;
}

void PathNodeCache::PopOldest() {
  const size_t mask = table_.size() - 1;
  size_t hole = Locate(ring_[head_].key, ring_[head_].hash);
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless that would move it before its home position.
  for (size_t pos = (hole + 1) & mask; table_[pos] != kFree;
       pos = (pos + 1) & mask) {
    const size_t home = ring_[table_[pos]].hash & mask;
    if (((pos - home) & mask) >= ((pos - hole) & mask)) {
      table_[hole] = table_[pos];
      hole = pos;
    }
  }
  table_[hole] = kFree;
  if (++head_ == ring_.size()) head_ = 0;
  --size_;
}

void PathNodeCache::Clear() {
  std::fill(table_.begin(), table_.end(), kFree);
  head_ = 0;
  size_ = 0;
}

void PathNodeCache::Grow() {
  std::vector<Entry> ring(
      std::min(std::max<size_t>(16, 2 * ring_.size()), max_entries_));
  for (size_t i = 0; i < size_; ++i) {
    ring[i] = ring_[(head_ + i) % ring_.size()];
  }
  size_t table_size = 1;
  while (table_size < 2 * ring.size()) table_size *= 2;
  ring_ = std::move(ring);
  head_ = 0;
  table_.assign(table_size, kFree);
  for (size_t slot = 0; slot < size_; ++slot) {
    table_[Locate(ring_[slot].key, ring_[slot].hash)] =
        static_cast<uint32_t>(slot);
  }
}

Status Verifier::VerifyPathCached(const crypto::Hash256& leaf_hash,
                                  const crypto::MerklePath& path,
                                  uint64_t leaf_count,
                                  const crypto::Hash256& root) const {
  using crypto::MerkleTree;
  if (path_cache_entries_ == 0) {
    enclave_->ChargeHash(65 * path.siblings.size());
    return MerkleTree::VerifyPath(leaf_hash, path, leaf_count, root);
  }
  // An index beyond the tree fails the climb before it hashes anything, so
  // it consults no cache.
  if (path.leaf_index >= leaf_count) {
    return MerkleTree::VerifyPath(leaf_hash, path, leaf_count, root);
  }
  const uint32_t height = MerkleTree::Height(leaf_count);
  auto key_at = [&](uint32_t level) {
    return PathNodeCache::Key{root, path.leaf_index >> level, level};
  };

  // Probe: the climb can stop at the lowest cached node below the root.
  uint32_t stop = height;
  crypto::Hash256 expected = root;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    ++cache_stats_.lookups;
    for (uint32_t level = 0; level < height; ++level) {
      if (const crypto::Hash256* node = path_nodes_.Find(key_at(level))) {
        expected = *node;
        stop = level;
        break;
      }
    }
  }

  // Climb to `stop` with no lock held, keeping every node computed on the
  // way; they are inserted only if the whole path verifies. Above `stop`
  // the climb was verified before, so only the path's length is checked.
  MerkleTree::ClimbNodes nodes;
  uint64_t hashed = 0;
  Status s =
      MerkleTree::Climb(leaf_hash, path, leaf_count, stop, &nodes, &hashed);
  if (s.ok() && nodes[stop] != expected) {
    // Below the root, the host's proof disagrees with a node already
    // verified against this root: under collision resistance it is forged.
    s = Status::AuthFailure(stop < height
                                ? "proof contradicts verified path node"
                                : "merkle root mismatch");
  }
  // One ChargeHash covers the whole climb (same cost as the uncached
  // single 65*n charge when nothing is cached).
  if (hashed > 0) enclave_->ChargeHash(65 * hashed);

  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_stats_.path_nodes_hashed += hashed;
  if (!s.ok()) return s;
  if (stop < height) ++cache_stats_.hits;
  for (uint32_t level = 0; level <= stop; ++level) {
    if (path_nodes_.Insert(key_at(level), nodes[level])) {
      ++cache_stats_.insertions;
    }
  }
  while (path_nodes_.size() > path_cache_entries_) {
    path_nodes_.PopOldest();
    ++cache_stats_.evictions;
  }
  return Status::Ok();
}

void Verifier::InvalidatePathCache() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  path_nodes_.Clear();
}

ProofPathCacheStats Verifier::path_cache_stats() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_stats_;
}

Result<crypto::Hash256> Verifier::HeadLeaf(const AssembledEntry& e) const {
  enclave_->ChargeHash(e.entry.core.size() + 33);
  return crypto::ChainLeafFromPrefix({std::string_view(e.entry.core)},
                                     e.proof.suffix);
}

Status Verifier::VerifyLevelMembership(std::string_view key, uint64_t ts_max,
                                       const AssembledLevel& al,
                                       const lsm::LevelMeta& meta) const {
  if (al.chain.empty()) return Status::AuthFailure("empty membership chain");
  const uint64_t leaf_index = al.chain.front().proof.leaf_index;
  std::vector<std::string_view> encodings;
  encodings.reserve(al.chain.size());

  uint64_t prev_ts = UINT64_MAX;
  for (size_t i = 0; i < al.chain.size(); ++i) {
    const AssembledEntry& e = al.chain[i];
    auto record = DecodeEntry(e);
    if (!record.ok()) return record.status();
    const lsm::Record& r = record.value();
    if (r.key != key) return Status::AuthFailure("chain key mismatch");
    if (e.proof.leaf_index != leaf_index) {
      return Status::AuthFailure("chain leaf index mismatch");
    }
    if (r.ts >= prev_ts) {
      return Status::AuthFailure("chain timestamps not descending");
    }
    prev_ts = r.ts;
    const bool is_last = i + 1 == al.chain.size();
    if (!is_last && r.ts <= ts_max) {
      // A visible record hidden behind another visible record: the host
      // should have stopped the chain here.
      return Status::AuthFailure("chain extends past visible record");
    }
    if (is_last) {
      if (al.found && r.ts > ts_max) {
        return Status::AuthFailure("claimed result newer than query time");
      }
      if (!al.found) {
        // The whole group is invisible at ts_max: the chain must be
        // exhausted, otherwise older (possibly visible) records are hidden.
        if (r.ts <= ts_max) {
          return Status::AuthFailure("visible record on not-found chain");
        }
        if (e.proof.suffix.present) {
          return Status::AuthFailure("chain not exhausted on not-found");
        }
      }
    }
    encodings.push_back(e.entry.core);
    enclave_->ChargeHash(e.entry.core.size() + 33);
  }

  const crypto::Hash256 leaf = crypto::ChainLeafFromPrefix(
      encodings, al.chain.back().proof.suffix);
  if (al.chain_path.leaf_index != leaf_index) {
    return Status::AuthFailure("path index mismatch");
  }
  return VerifyPathCached(leaf, al.chain_path, meta.leaf_count, meta.root);
}

Status Verifier::VerifyLevelNonMembership(std::string_view key,
                                          const AssembledLevel& al,
                                          const lsm::LevelMeta& meta) const {
  if (!al.pred.has_value() && !al.succ.has_value()) {
    if (meta.leaf_count != 0 || meta.root != crypto::kZeroHash) {
      return Status::AuthFailure("missing non-membership witnesses");
    }
    return Status::Ok();  // provably empty level
  }
  if (meta.leaf_count == 0) {
    return Status::AuthFailure("witnesses against empty level");
  }

  uint64_t pred_index = 0;
  uint64_t succ_index = 0;
  if (al.pred.has_value()) {
    auto record = DecodeEntry(*al.pred);
    if (!record.ok()) return record.status();
    if (!(record.value().key < std::string(key))) {
      return Status::AuthFailure("pred key not below query");
    }
    auto leaf = HeadLeaf(*al.pred);
    if (!leaf.ok()) return leaf.status();
    pred_index = al.pred->proof.leaf_index;
    if (al.pred_path.leaf_index != pred_index) {
      return Status::AuthFailure("pred path index mismatch");
    }
    Status s = VerifyPathCached(leaf.value(), al.pred_path, meta.leaf_count,
                                meta.root);
    if (!s.ok()) return s;
  }
  if (al.succ.has_value()) {
    auto record = DecodeEntry(*al.succ);
    if (!record.ok()) return record.status();
    if (!(std::string(key) < record.value().key)) {
      return Status::AuthFailure("succ key not above query");
    }
    auto leaf = HeadLeaf(*al.succ);
    if (!leaf.ok()) return leaf.status();
    succ_index = al.succ->proof.leaf_index;
    if (al.succ_path.leaf_index != succ_index) {
      return Status::AuthFailure("succ path index mismatch");
    }
    Status s = VerifyPathCached(leaf.value(), al.succ_path, meta.leaf_count,
                                meta.root);
    if (!s.ok()) return s;
  }

  // Adjacency: the bracketing leaves must leave no room for the key.
  if (al.pred.has_value() && al.succ.has_value()) {
    if (succ_index != pred_index + 1) {
      return Status::AuthFailure("witnesses not adjacent");
    }
  } else if (al.succ.has_value()) {
    if (succ_index != 0) {
      return Status::AuthFailure("succ-only witness not first leaf");
    }
  } else {
    if (pred_index != meta.leaf_count - 1) {
      return Status::AuthFailure("pred-only witness not last leaf");
    }
  }
  return Status::Ok();
}

Result<std::optional<lsm::Record>> Verifier::VerifyGet(
    std::string_view key, uint64_t ts_max, const AssembledGet& proof,
    const std::vector<lsm::LevelMeta>& levels) const {
  enclave_->Copy(proof.proof_bytes, /*cross_boundary=*/true);

  if (proof.memtable_hit.has_value()) {
    // L0 lives inside the enclave: trusted, and it holds the newest data so
    // the search legitimately stopped there.
    if (!proof.levels.empty()) {
      return Status::AuthFailure("levels attached to a memtable hit");
    }
    return std::optional<lsm::Record>(*proof.memtable_hit);
  }

  for (size_t i = 0; i < proof.levels.size(); ++i) {
    const AssembledLevel& al = proof.levels[i];
    if (al.level_pos != i) {
      return Status::AuthFailure("level sequence gap in proof");
    }
    const lsm::LevelMeta& meta = levels[i];

    if (al.bloom_negative) {
      // Trusted skip, but re-check against the enclave-resident filter so a
      // forged response cannot abuse the flag.
      if (!meta.files.empty() && meta.bloom.MayContain(key)) {
        return Status::AuthFailure("bloom skip contradicts enclave filter");
      }
      continue;
    }

    if (!al.chain.empty()) {
      Status s = VerifyLevelMembership(key, ts_max, al, meta);
      if (!s.ok()) return s;
      if (al.found) {
        if (i + 1 != proof.levels.size()) {
          return Status::AuthFailure("proof continues past hit level");
        }
        auto record = DecodeEntry(al.chain.back());
        if (!record.ok()) return record.status();
        return std::optional<lsm::Record>(std::move(record).value());
      }
      continue;  // group exists but is invisible at ts_max: go deeper
    }

    Status s = VerifyLevelNonMembership(key, al, meta);
    if (!s.ok()) return s;
  }

  // No level produced a visible record: the proof must cover every level.
  if (proof.levels.size() != levels.size()) {
    return Status::AuthFailure("miss proof does not cover all levels");
  }
  return std::optional<lsm::Record>(std::nullopt);
}

Result<std::vector<lsm::Record>> Verifier::VerifyScan(
    std::string_view k1, std::string_view k2, const AssembledScan& proof,
    const std::vector<lsm::LevelMeta>& levels) const {
  enclave_->Copy(proof.proof_bytes, /*cross_boundary=*/true);
  if (proof.levels.size() != levels.size()) {
    return Status::AuthFailure("scan proof does not cover all levels");
  }

  // Merged view: first writer (shallowest source) wins per key.
  std::map<std::string, lsm::Record> merged;
  for (const lsm::Record& r : proof.memtable_records) {
    merged.emplace(r.key, r);
  }

  for (size_t i = 0; i < proof.levels.size(); ++i) {
    const AssembledScanLevel& al = proof.levels[i];
    if (al.level_pos != i) {
      return Status::AuthFailure("scan level sequence gap");
    }
    const lsm::LevelMeta& meta = levels[i];
    if (meta.leaf_count == 0) {
      if (!al.heads.empty() || al.pred.has_value() || al.succ.has_value()) {
        return Status::AuthFailure("witnesses against empty level");
      }
      continue;
    }

    std::vector<crypto::Hash256> run_leaves;
    uint64_t run_lo = 0;
    bool have_run = false;
    std::string prev_key;

    auto push_leaf = [&](const AssembledEntry& e,
                         uint64_t expected_index) -> Status {
      if (e.proof.leaf_index != expected_index) {
        return Status::AuthFailure("scan leaves not contiguous");
      }
      auto leaf = HeadLeaf(e);
      if (!leaf.ok()) return leaf.status();
      run_leaves.push_back(leaf.value());
      return Status::Ok();
    };

    if (al.pred.has_value()) {
      auto record = DecodeEntry(*al.pred);
      if (!record.ok()) return record.status();
      if (!(record.value().key < std::string(k1))) {
        return Status::AuthFailure("scan pred not below range");
      }
      run_lo = al.pred->proof.leaf_index;
      have_run = true;
      auto leaf = HeadLeaf(*al.pred);
      if (!leaf.ok()) return leaf.status();
      run_leaves.push_back(leaf.value());
    }

    std::vector<lsm::Record> head_records;
    head_records.reserve(al.heads.size());
    for (const AssembledEntry& e : al.heads) {
      auto record = DecodeEntry(e);
      if (!record.ok()) return record.status();
      const lsm::Record& r = record.value();
      if (r.key < std::string(k1) || std::string(k2) < r.key) {
        return Status::AuthFailure("scan head outside range");
      }
      if (!head_records.empty() && !(prev_key < r.key)) {
        return Status::AuthFailure("scan heads not strictly ascending");
      }
      prev_key = r.key;
      if (!have_run) {
        run_lo = e.proof.leaf_index;
        have_run = true;
        auto leaf = HeadLeaf(e);
        if (!leaf.ok()) return leaf.status();
        run_leaves.push_back(leaf.value());
      } else {
        Status s = push_leaf(e, run_lo + run_leaves.size());
        if (!s.ok()) return s;
      }
      head_records.push_back(r);
    }

    if (al.succ.has_value()) {
      auto record = DecodeEntry(*al.succ);
      if (!record.ok()) return record.status();
      if (!(std::string(k2) < record.value().key)) {
        return Status::AuthFailure("scan succ not above range");
      }
      if (!have_run) {
        run_lo = al.succ->proof.leaf_index;
        have_run = true;
        auto leaf = HeadLeaf(*al.succ);
        if (!leaf.ok()) return leaf.status();
        run_leaves.push_back(leaf.value());
      } else {
        Status s = push_leaf(*al.succ, run_lo + run_leaves.size());
        if (!s.ok()) return s;
      }
    }

    // Boundary completeness: without a pred (succ) witness the run must
    // start (end) at the level's edge.
    const uint64_t first_head_index =
        al.pred.has_value() ? run_lo + 1 : run_lo;
    if (!al.pred.has_value() && have_run && first_head_index != 0) {
      return Status::AuthFailure("scan run missing left boundary");
    }
    const uint64_t run_hi = run_lo + run_leaves.size() - 1;
    if (!al.succ.has_value() && have_run && run_hi != meta.leaf_count - 1) {
      return Status::AuthFailure("scan run missing right boundary");
    }
    if (!have_run) {
      return Status::AuthFailure("non-empty level with empty scan proof");
    }
    if (al.range.lo != run_lo) {
      return Status::AuthFailure("range proof offset mismatch");
    }
    enclave_->ChargeHash(65 * (al.range.hashes.size() + run_leaves.size()));
    Status s = crypto::MerkleTree::VerifyRange(run_leaves, al.range,
                                               meta.leaf_count, meta.root);
    if (!s.ok()) return s;

    for (const lsm::Record& r : head_records) merged.emplace(r.key, r);
  }

  std::vector<lsm::Record> out;
  out.reserve(merged.size());
  for (auto& [k, r] : merged) {
    if (!r.deleted()) out.push_back(std::move(r));
  }
  return out;
}

}  // namespace elsm::auth
