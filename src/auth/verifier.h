// In-enclave VRFY algorithms (paper §5.3, §5.3.1, §5.4).
//
// VerifyGet walks the assembled proof shallow→deep and enforces:
//   * integrity      — records re-decoded from the exact hashed bytes; leaf
//                      digests recomputed through the per-key hash chain;
//   * freshness      — every chain entry ahead of the result must be newer
//                      than the query timestamp (Case 1 of Theorem 5.3);
//                      shallower levels need non-membership (Case 2a);
//                      deeper levels need nothing (Case 2b / Lemma 5.4);
//   * completeness   — non-membership = two adjacent leaves bracketing the
//                      key (or boundary leaves), leaf adjacency checked
//                      against the enclave-held leaf count;
//   * bloom skips    — re-checked against the enclave-resident filters.
//
// VerifyScan additionally checks leaf-contiguity of the returned key groups
// plus boundary records and a Merkle range proof per level (§5.4).
//
// All roots/leaf counts/blooms come from the caller's *enclave-held*
// LevelMeta snapshot — never from the proof itself.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "auth/proof.h"
#include "common/status.h"
#include "lsm/engine.h"
#include "sgxsim/enclave.h"

namespace elsm::auth {

// Telemetry for the Merkle proof-path node cache (see Verifier below).
struct ProofPathCacheStats {
  uint64_t lookups = 0;           // path verifications that consulted it
  uint64_t hits = 0;              // climbs short-circuited at a cached node
  uint64_t path_nodes_hashed = 0; // interior hashes actually evaluated
  uint64_t insertions = 0;
  uint64_t evictions = 0;
};

// Verified Merkle nodes keyed by tree position, evicted oldest-first. The
// entries live in a ring in insertion order, indexed by an open-addressing
// (linear probing) table of ring slots. Both grow on demand, up to
// `max_entries`, so the cache holds memory only for the nodes it holds,
// and a warm cache inserts and evicts without allocating. Not thread-safe.
class PathNodeCache {
 public:
  // Position of a tree node: the enclave-held root it was verified
  // against, its level (0 = leaves) and its index within that level.
  struct Key {
    crypto::Hash256 root;
    uint64_t index = 0;
    uint32_t level = 0;
    bool operator==(const Key&) const = default;
  };

  explicit PathNodeCache(size_t max_entries) : max_entries_(max_entries) {}

  size_t size() const { return size_; }
  // The node cached at `key`, or null.
  const crypto::Hash256* Find(const Key& key) const;
  // Adds `key` as the newest entry; false (and no change) if cached.
  bool Insert(const Key& key, const crypto::Hash256& node);
  // Evicts the oldest entry. Requires size() > 0.
  void PopOldest();
  void Clear();

 private:
  struct Entry {
    Key key;
    crypto::Hash256 node;
    uint64_t hash = 0;
  };
  static constexpr uint32_t kFree = UINT32_MAX;

  static uint64_t Hash(const Key& key);
  // Table position holding `key`'s ring slot, or the free position that
  // ends its probe run. Requires a non-empty table.
  size_t Locate(const Key& key, uint64_t hash) const;
  void Grow();

  size_t max_entries_;
  std::vector<Entry> ring_;
  size_t head_ = 0;  // ring slot of the oldest entry
  size_t size_ = 0;
  std::vector<uint32_t> table_;  // ring slots; power-of-two size >= 2x ring
};

class Verifier {
 public:
  // `path_cache_entries` bounds the Merkle proof-path node cache (0
  // disables it). Upper tree levels are shared across keys, so once any
  // path against a root has been verified, climbs for neighbouring keys
  // stop at the first node they can match against a cached (and therefore
  // verified) value — a repeat verification of a hot key re-hashes zero
  // path nodes. Soundness: a cached node is keyed by the enclave-held root
  // it was verified against; under collision resistance only one value at
  // a (level, index) position is consistent with that root, so matching it
  // proves the rest of the climb, and a mismatch proves the host's proof
  // is forged (fail closed).
  //
  // Concurrent verifications share the cache without holding its lock
  // while they hash: a node's position follows from the leaf index alone,
  // so one short locked probe finds the lowest cached node on the climb,
  // the climb up to it is hashed unlocked, and one short locked section
  // inserts the new nodes. A single thread therefore sees the insertion
  // order, and so every eviction and hash charge, of a cache locked for
  // the whole climb; concurrent climbs may both hash a node neither has
  // inserted yet.
  explicit Verifier(sgx::Enclave* enclave, size_t path_cache_entries = 4096)
      : enclave_(enclave),
        path_cache_entries_(path_cache_entries),
        // A climb inserts at most one node per tree level (<= 65) before
        // the overflow is evicted.
        path_nodes_(std::min(path_cache_entries, SIZE_MAX - 65) + 65) {}

  // Returns the authenticated newest record visible at ts_max (which may be
  // a tombstone — the caller maps it to "absent"), or nullopt for an
  // authenticated miss. AuthFailure means the host misbehaved.
  Result<std::optional<lsm::Record>> VerifyGet(
      std::string_view key, uint64_t ts_max, const AssembledGet& proof,
      const std::vector<lsm::LevelMeta>& levels) const;

  // Returns the authenticated visible records in [k1, k2] (tombstones
  // filtered), or AuthFailure.
  Result<std::vector<lsm::Record>> VerifyScan(
      std::string_view k1, std::string_view k2, const AssembledScan& proof,
      const std::vector<lsm::LevelMeta>& levels) const;

  // Drops every cached path node (manifest restore / reopen).
  void InvalidatePathCache() const;
  ProofPathCacheStats path_cache_stats() const;

 private:
  Status VerifyLevelMembership(std::string_view key, uint64_t ts_max,
                               const AssembledLevel& al,
                               const lsm::LevelMeta& meta) const;
  Status VerifyLevelNonMembership(std::string_view key,
                                  const AssembledLevel& al,
                                  const lsm::LevelMeta& meta) const;
  // Recomputes a group-head leaf hash and verifies key/path bookkeeping.
  Result<crypto::Hash256> HeadLeaf(const AssembledEntry& e) const;

  // MerkleTree::VerifyPath with the node cache: the same climb
  // (MerkleTree::Climb, so the same malformed-proof checks), but it hashes
  // only up to the lowest cached node, and only the interior hashes
  // actually evaluated are charged to the enclave.
  Status VerifyPathCached(const crypto::Hash256& leaf_hash,
                          const crypto::MerklePath& path, uint64_t leaf_count,
                          const crypto::Hash256& root) const;

  sgx::Enclave* enclave_;
  size_t path_cache_entries_;
  // Guards the node cache and its stats. Held only to probe and to insert,
  // never across hashing (see the constructor).
  mutable std::mutex cache_mu_;
  mutable PathNodeCache path_nodes_;
  mutable ProofPathCacheStats cache_stats_;
};

}  // namespace elsm::auth
