// ShardedDb — hash-partitioned multi-shard router over N independent
// ElsmDb engines (ROADMAP "scaling directions": the paper keeps one
// authenticated LSM per enclave; production scale partitions the keyspace
// so writes, flushes and background compactions proceed per shard instead
// of serializing on one facade lock).
//
// Each shard is a full ElsmDb: its own Fs namespace (untrusted disk),
// WAL, sealed manifest, trusted monotonic counter, enclave instance and
// background jobs (its own flush and compaction threads when
// Options::async_flush / background_compaction are set).
// Keys route by a stable 64-bit FNV-1a hash; SCAN fans out per-shard
// verified range scans (each proof checked against that shard's trusted
// digests inside ElsmDb) and k-way merges the already-verified results
// with the lsm::MergeIterator machinery.
//
// Cross-shard fan-out (Options::fanout_threads): Scan, MultiGet and Write
// dispatch their per-shard work onto a shared common::ThreadPool when one
// is configured, turning the router loop into a parallel query engine.
// With fanout_threads == 0 every op visits its shards sequentially on the
// calling thread. Both paths are result- and proof-equivalent: the same
// per-shard verified operations run either way, only the dispatch differs,
// and errors are reported deterministically (the failing shard with the
// lowest index wins, so parallel and sequential calls surface the same
// status). A failure on any shard fails the whole operation — no partial
// results ever escape.
//
// Cross-shard trust (the "super-manifest"): a sealed log binding
//   shard count | meta monotonic counter |
//   per-shard (manifest-log digest, manifest last_ts floor)
// so a malicious host cannot silently drop a whole shard (digest recorded
// but manifest gone -> AuthFailure), swap or replay shard manifests (each
// shard's manifest is sealed under a per-shard derived key ->
// AuthFailure), re-partition the store under a different shard count
// (sealed count mismatch), or roll a single shard back to an
// older-but-validly-sealed manifest inside a counter-sync window: the
// recorded digests may lag the shards (they refresh on open, explicit
// Flush/CompactAll and Close — auto-flushes persist shard manifests in
// between), so a digest mismatch is resolved through the monotone
// last_ts floor — moved forward is benign, behind the floor is an attack.
//
// The super-manifest is a manifest::ManifestLog on meta_fs, the same class
// that writes and replays every shard's own manifest: a sealed SUPER
// snapshot holding the full digest table plus a hash-chained
// SUPER-EDITS-<gen> tail whose delta records carry only the shards whose
// state changed — O(changed shards) per refresh instead of rewriting
// O(shards) state — with a full snapshot every
// Options::manifest_snapshot_edits records. Every record bumps the meta
// counter; refreshes that change nothing are skipped entirely.
//
// Not provided: cross-shard atomicity. A WriteBatch spanning shards is
// applied per shard (each sub-batch atomically); timestamps are per-shard.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "crypto/sha256.h"
#include "elsm/elsm_db.h"
#include "elsm/manifest_log.h"

namespace elsm {

// The persistent world a sharded store lives in: untrusted disks and
// trusted platforms that survive Close()/reopen (simulated power cycles).
// Pass the same ShardEnv back to ShardedDb::Open to recover. Tests may
// substitute storage::FaultFs instances to crash individual shards.
struct ShardEnv {
  std::shared_ptr<storage::Fs> meta_fs;  // holds the super-manifest
  std::shared_ptr<TrustedPlatform> meta_platform;
  std::vector<std::shared_ptr<storage::Fs>> shard_fs;
  std::vector<std::shared_ptr<TrustedPlatform>> shard_platforms;
};

// Stable key router shared with tests/benches: FNV-1a 64 over the key
// bytes, reduced mod num_shards.
uint32_t ShardForKey(std::string_view key, uint32_t num_shards);

class ShardedDb {
 public:
  // Opens (or recovers) a sharded store. `env` may be empty/null for a
  // fresh store; pass the same env again to reopen. `base` configures every
  // shard; per-shard names/sealing keys are derived internally.
  static Result<std::unique_ptr<ShardedDb>> Open(
      const Options& base, uint32_t num_shards, std::shared_ptr<ShardEnv> env);
  static Result<std::unique_ptr<ShardedDb>> Create(const Options& base,
                                                   uint32_t num_shards);

  ~ShardedDb();

  // --- point ops: routed to the owning shard -------------------------------
  Status Put(std::string_view key, std::string_view value);
  Status Delete(std::string_view key);
  Result<std::optional<std::string>> Get(std::string_view key);
  Result<ElsmDb::VerifiedRecord> GetVerified(std::string_view key,
                                             uint64_t ts_max = kLatest);
  // Batch write, partitioned per shard; each sub-batch is a single shard
  // group commit, dispatched to the fan-out pool when one is configured.
  // Not atomic across shards: on error some shards may have committed their
  // sub-batch (the returned status is the lowest failing shard's), so the
  // caller must treat every key of the batch as indeterminate.
  Status Write(const ElsmDb::WriteBatch& batch);

  // Batched point lookups: keys are grouped by owning shard, the per-shard
  // groups run on the fan-out pool, and the per-key results are reassembled
  // in input order (duplicate keys allowed — each slot answers for its own
  // position). Every key is individually proof-verified inside its shard,
  // exactly as a lone Get would be. Fail-closed: any per-key failure
  // (AuthFailure & friends) fails the whole call with that shard's status —
  // never a partial result vector.
  Result<std::vector<std::optional<std::string>>> MultiGet(
      const std::vector<std::string>& keys);

  // Verified cross-shard range scan over the inclusive range [k1, k2]:
  // per-shard verified scans (parallel on the fan-out pool), k-way merged
  // into one globally key-ordered result. Shards that provably cannot hold
  // a key of the range are skipped without opening iterators: every shard
  // when k1 > k2, all but ShardOf(k1) when k1 == k2 (hash routing admits no
  // wider pruning; fanout_stats() counts invocations vs skips).
  Result<std::vector<lsm::Record>> Scan(std::string_view k1,
                                        std::string_view k2);

  // --- maintenance: fanned out to every shard (parallel on the fan-out
  // pool, deterministic lowest-failing-shard error selection) ---------------
  Status Flush();
  Status CompactAll();
  void ScheduleCompaction();
  Status WaitForCompaction();
  Status Close();

  // --- per-shard health (transient-fault tolerance) ------------------------
  // Maintenance fan-out tracks each shard's outcomes: a shard whose store
  // is in read-only degraded mode (ENOSPC-class exhaustion), or that
  // failed kQuarantineAfter consecutive maintenance passes, is *sick* —
  // Flush/CompactAll skip it (its failure would be repeated noise and
  // healthy shards must keep getting maintained) until TryResume
  // re-admits it. Point writes routed to a degraded shard still fail fast
  // inside the shard; reads stay fail-closed and keep serving.
  enum class ShardHealth { kHealthy, kDegraded, kQuarantined };
  struct ShardHealthInfo {
    ShardHealth state = ShardHealth::kHealthy;
    uint64_t consecutive_failures = 0;
    uint64_t total_failures = 0;
  };
  ShardHealthInfo shard_health(uint32_t shard) const;
  // Number of shards currently skipped by maintenance fan-out.
  uint32_t sick_shards() const;
  // Fans ElsmDb::TryResume out to every sick shard and re-admits the ones
  // whose probe succeeds. Returns the lowest still-failing shard's status
  // (Ok when every shard is healthy again).
  Status TryResume();

  // --- introspection -------------------------------------------------------
  // Fan-out observability: how often cross-shard ops ran, how many
  // per-shard scans were actually issued vs short-circuited away, and how
  // many ops dispatched in parallel (vs the sequential fallback).
  struct FanoutStats {
    std::atomic<uint64_t> scans{0};
    std::atomic<uint64_t> scan_shard_invocations{0};
    std::atomic<uint64_t> scan_shards_skipped{0};
    std::atomic<uint64_t> multigets{0};
    std::atomic<uint64_t> batch_writes{0};
    std::atomic<uint64_t> parallel_dispatches{0};
    // Shard visits maintenance fan-out skipped because the shard was sick.
    std::atomic<uint64_t> maintenance_shards_skipped{0};
  };
  const FanoutStats& fanout_stats() const { return fanout_stats_; }
  // Block-cache counters summed across every shard's read buffer.
  storage::ReadBufferStats read_cache_stats() const {
    storage::ReadBufferStats total;
    for (const auto& shard : shards_) {
      const storage::ReadBufferStats s = shard->read_cache_stats();
      total.hits += s.hits;
      total.misses += s.misses;
      total.evictions += s.evictions;
      total.invalidations += s.invalidations;
    }
    return total;
  }
  // Drops every shard's cached blocks (bench support: cold-read passes).
  void ClearReadCache() {
    for (const auto& shard : shards_) shard->ClearReadCache();
  }
  // Proof-path node-cache counters summed across every shard's verifier.
  auth::ProofPathCacheStats proof_path_cache_stats() const {
    auth::ProofPathCacheStats total;
    for (const auto& shard : shards_) {
      const auth::ProofPathCacheStats s = shard->proof_path_cache_stats();
      total.lookups += s.lookups;
      total.hits += s.hits;
      total.path_nodes_hashed += s.path_nodes_hashed;
      total.insertions += s.insertions;
      total.evictions += s.evictions;
    }
    return total;
  }
  // The pool cross-shard ops dispatch onto (null = sequential fallback).
  const std::shared_ptr<common::ThreadPool>& fanout_pool() const {
    return pool_;
  }
  uint32_t num_shards() const { return num_shards_; }
  uint32_t ShardOf(std::string_view key) const {
    return ShardForKey(key, num_shards_);
  }
  ElsmDb& shard(uint32_t i) { return *shards_[i]; }
  ShardEnv& env() { return *env_; }
  sgx::Enclave& meta_enclave() { return *meta_enclave_; }
  const Options& options() const { return options_; }
  // Total simulated time across the router and every shard enclave. Each
  // op advances only its shard's clock, so deltas of this sum price
  // individual ops; per-shard clocks model shards running on parallel
  // hardware (see bench/fig_shard_scaling.cc).
  uint64_t now_ns() const;

  static std::string ShardName(const std::string& base_name, uint32_t shard);

 private:
  ShardedDb(const Options& base, uint32_t num_shards,
            std::shared_ptr<ShardEnv> env);

  Status OpenShards();
  // Runs fn(slot, targets[slot]) for every slot — concurrently on the
  // fan-out pool when one is configured and more than one target exists,
  // inline in slot order otherwise. All targets run even after a failure
  // (matching the parallel path, where siblings are already in flight);
  // the returned status is the lowest failing slot's, so both dispatch
  // modes surface identical errors.
  Status FanOut(const std::vector<uint32_t>& targets,
                const std::function<Status(size_t, uint32_t)>& fn);
  // FanOut over every shard (the maintenance paths).
  Status AllShards(const std::function<Status(ElsmDb&)>& fn);
  // AllShards minus the sick shards, with per-shard outcomes folded into
  // the health counters (Flush/CompactAll use this).
  Status MaintenanceFanOut(const std::function<Status(ElsmDb&)>& fn);
  bool ShardSick(uint32_t shard) const;
  void NoteShardResult(uint32_t shard, const Status& s);
  // Replays the sealed super-manifest log (the meta counter checks live in
  // manifest::ManifestLog) and checks its table against the shard disks:
  // drop, swap, count and rollback-floor. Sets *found=false when no
  // super-manifest exists (fresh store candidate). The state it reads of
  // each shard log it checks lands in (*digests)[i] and (*last_ts)[i]; the
  // entries of shards it skips stay zero.
  Status VerifySuperManifest(bool* found,
                             std::vector<crypto::Hash256>* digests,
                             std::vector<uint64_t>* last_ts);
  // Records every shard's current log state (a no-op when the log already
  // pins it). A non-zero `digests` entry is a state already read with its
  // `floors` entry, taken as current; the other shards' logs are read here.
  Status PersistSuperManifest(std::vector<crypto::Hash256> digests = {},
                              std::vector<uint64_t> floors = {});
  // Digest + last_ts of shard's on-disk manifest log (zero/0 when absent).
  // The digest covers the sealed snapshot file plus its live tail file, so
  // it pins the shard's exact authoritative bytes; the last_ts (taken from
  // the newest sealed record) is the monotone floor that lets verification
  // tell a shard that *advanced* past the recorded digest (benign:
  // auto-flushes persist shard manifest records between super refreshes)
  // from one rolled *behind* it.
  Status ShardManifestState(uint32_t shard, crypto::Hash256* digest,
                            uint64_t* last_ts) const;
  std::string shard_manifest_name(uint32_t shard) const {
    return ShardName(options_.name, shard) + "/MANIFEST";
  }

  Options options_;
  uint32_t num_shards_;
  std::shared_ptr<ShardEnv> env_;
  std::shared_ptr<sgx::Enclave> meta_enclave_;
  std::vector<std::unique_ptr<ElsmDb>> shards_;
  std::shared_ptr<common::ThreadPool> pool_;  // null = sequential fallback
  FanoutStats fanout_stats_;

  // Serializes super-manifest writers (Flush/CompactAll/Close); routed
  // point ops never take it.
  std::mutex super_mu_;

  // The super-manifest log (written under super_mu_ or during open) and the
  // per-shard (digest, last_ts floor) table it currently encodes, so a
  // refresh appends only the shards that changed — and is skipped entirely
  // when none did.
  std::unique_ptr<manifest::ManifestLog> super_log_;
  std::vector<crypto::Hash256> recorded_digests_;
  std::vector<uint64_t> recorded_last_ts_;

  // --- per-shard health ----------------------------------------------------
  // Consecutive maintenance failures after which a shard is quarantined.
  static constexpr uint64_t kQuarantineAfter = 3;
  // Atomics (in unique_ptrs so the vector can size at open): maintenance
  // fan-out updates them from pool threads.
  struct ShardHealthState {
    std::atomic<uint64_t> consecutive_failures{0};
    std::atomic<uint64_t> total_failures{0};
    std::atomic<bool> quarantined{false};
  };
  std::vector<std::unique_ptr<ShardHealthState>> health_;

  bool closed_ = false;
};

}  // namespace elsm
