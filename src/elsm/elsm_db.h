// ElsmDb — the public authenticated key-value store (paper Eq. 1):
//
//   ts            = Put(k, v)
//   <k, v, ts>    = Get(k, ts_q)
//   {<k, v, ts>}  = Scan(k1, k2)
//   Delete(k)                      (tombstone write, §5.4)
//
// The facade plays the "trusted application + enclave" side: it assigns
// timestamps, maintains the WAL digest, drives flush/compaction, persists a
// sealed manifest bound to the trusted monotonic counter, and — in P2 mode —
// verifies every read against the enclave-held level roots.
//
// A TrustedPlatform outlives the DB instance across close/reopen (simulated
// power cycles); the storage::Fs backend is the untrusted disk the
// adversary may tamper
// with or roll back.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>

#include "auth/listener.h"
#include "auth/proof.h"
#include "auth/verifier.h"
#include "auth/wal_digest.h"
#include "common/background_job.h"
#include "common/histogram.h"
#include "common/status.h"
#include "elsm/manifest_log.h"
#include "elsm/options.h"
#include "lsm/engine.h"
#include "sgxsim/counter.h"
#include "sgxsim/enclave.h"
#include "storage/fs.h"

namespace elsm {

// Hardware that survives "power cycles" (DB close/reopen).
struct TrustedPlatform {
  sgx::MonotonicCounter counter;
  std::string sealing_key = "elsm-sealing-key";
};

inline constexpr uint64_t kLatest = UINT64_MAX;

class ElsmDb {
 public:
  // Opens (or recovers) a store on `fs`. Pass a fresh Fs (or nullptr to
  // build one from Options::backend/backend_dir) for a new store; pass the
  // same Fs + platform again to reopen after Close().
  static Result<std::unique_ptr<ElsmDb>> Open(
      const Options& options, std::shared_ptr<storage::Fs> fs,
      std::shared_ptr<TrustedPlatform> platform);

  // Convenience: fresh enclave + filesystem + platform.
  static Result<std::unique_ptr<ElsmDb>> Create(const Options& options);

  ~ElsmDb();

  // One-entry Writes.
  Status Put(std::string_view key, std::string_view value);
  Status Delete(std::string_view key);

  // Batched writes (LevelDB-style WriteBatch), the facade's one write path:
  // the batch joins one group-commit request — one WAL append, one
  // contiguous digest run, consecutive timestamps — with one trailing
  // flush check. The commit leader inserts it under the engine's exclusive
  // lock, so a reader never observes a partially applied batch.
  struct WriteBatch {
    void Put(std::string_view key, std::string_view value) {
      entries.push_back({std::string(key), std::string(value), false});
    }
    void Delete(std::string_view key) {
      entries.push_back({std::string(key), "", true});
    }
    struct Entry {
      std::string key;
      std::string value;
      bool is_delete;
    };
    std::vector<Entry> entries;
  };
  Status Write(const WriteBatch& batch);

  // Simple value lookup at the latest timestamp (nullopt = not found): a
  // one-key MultiGet.
  Result<std::optional<std::string>> Get(std::string_view key);

  struct VerifiedRecord {
    std::optional<lsm::Record> record;  // nullopt = authenticated miss
    uint64_t proof_bytes = 0;
    bool verified = false;  // true iff the VRFY algorithm actually ran
  };
  // A one-key MultiGetVerified.
  Result<VerifiedRecord> GetVerified(std::string_view key,
                                     uint64_t ts_max = kLatest);

  // Point lookups, the facade's one read path: all keys resolve against ONE
  // engine snapshot under one ECall, and the engine coalesces their
  // cache-missing blocks into Fs::MultiRead batches (see
  // Options::multiget_batching). Results are in key order; each key is
  // assembled and verified independently — per-key error isolation, so one
  // tampered block fails only the keys that need it.
  std::vector<Result<VerifiedRecord>> MultiGetVerified(
      const std::vector<std::string>& keys, uint64_t ts_max = kLatest);

  // Value-only MultiGet (nullopt = authenticated miss). Fail-closed in
  // aggregate: any per-key error fails the whole call.
  Result<std::vector<std::optional<std::string>>> MultiGet(
      const std::vector<std::string>& keys);

  // Range query; completeness-verified in P2 mode (§5.4).
  Result<std::vector<lsm::Record>> Scan(std::string_view k1,
                                        std::string_view k2);

  // Flush L0 + ripple compaction + persist the sealed manifest. With
  // background_compaction the ripple is scheduled on the compaction job's
  // thread instead of running inline, so the exclusive section stays
  // bounded by the memtable->L1 merge.
  Status Flush();
  Status CompactAll();
  // Background-compaction hooks: request a ripple pass (inline when the
  // option is off) / wait until no pass is pending or running, then
  // surface (and clear) the first error a pass or its manifest persist hit.
  void ScheduleCompaction();
  Status WaitForCompaction();
  // Async-flush hook (Options::async_flush): blocks until no background
  // flush is pending or running, then surfaces (and clears) the first
  // error a background flush hit. Immediately Ok when async flush is off.
  Status WaitForFlush();
  // Runs the flush and ripple already requested, persists and stops; the
  // Fs/platform can be reused to reopen.
  Status Close();

  // --- degraded operation (transient-fault tolerance) ----------------------
  // True while the store is in read-only degraded mode: a write path
  // exhausted its retries on an ENOSPC-class fault, so writes fail fast
  // with CapacityExceeded while verified Get/Scan keep serving (the
  // memtable and WAL of the failed op are intact and consistent).
  bool degraded() const { return degraded_.load(std::memory_order_acquire); }
  // Re-probes the disk with a small write+sync+delete under the store's
  // namespace. Exits degraded mode and returns Ok when space is back
  // (pending memtable data drains on the next flush); returns the probe's
  // error — typically CapacityExceeded — while the disk is still full.
  // Ok and a no-op when not degraded.
  Status TryResume();

  // --- introspection ----------------------------------------------------------
  sgx::Enclave& enclave() { return *enclave_; }
  lsm::LsmEngine& engine() { return *engine_; }
  storage::Fs& fs() { return *fs_; }
  TrustedPlatform& platform() { return *platform_; }
  const Options& options() const { return options_; }
  uint64_t last_ts() const { return last_ts_.load(std::memory_order_relaxed); }
  // Block-cache counters summed over the read buffer's shards (all zero
  // when the mmap read path carries no buffer).
  storage::ReadBufferStats read_cache_stats() const {
    const storage::ReadBuffer* buffer = engine_->read_buffer();
    return buffer != nullptr ? buffer->stats() : storage::ReadBufferStats{};
  }
  // Drops every cached block (bench support: cold-read passes).
  void ClearReadCache() { engine_->ClearReadCache(); }
  // Verifier-side Merkle proof-path node cache counters.
  auth::ProofPathCacheStats proof_path_cache_stats() const {
    return verifier_.path_cache_stats();
  }

  struct OpStats {
    Histogram put;
    Histogram get;
    Histogram scan;
    uint64_t proof_bytes = 0;
    uint64_t verified_ops = 0;
  };
  // A consistent copy, safe to take while clients run.
  OpStats op_stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return op_stats_;
  }
  void ResetOpStats() {
    std::lock_guard<std::mutex> lock(stats_mu_);
    op_stats_ = OpStats{};
  }

 private:
  ElsmDb(const Options& options, std::shared_ptr<storage::Fs> fs,
         std::shared_ptr<TrustedPlatform> platform);

  Status Recover();
  // Rebuilds the in-enclave WAL digest over every surviving frame, checks
  // it against the sealed coverage (the first `wal_count` frames; none on a
  // fresh store) and re-inserts the frames not yet in the level stack
  // (ts > flushed_ts).
  Status ReplayWal(const manifest::StoreState& sealed);
  // Seals one manifest-log record (manifest_log.h: snapshot or delta per
  // the cadence, counter bumped every counter_sync_period persists). The
  // WAL coverage is passed explicitly so a flush can seal the
  // post-truncation state (empty digest) *before* mutating the live
  // wal_digest_ — a transiently failed persist must leave the in-memory
  // digest matching the untouched WAL.
  Status PersistManifest(const crypto::Hash256& wal_dig, uint64_t wal_count);
  Status PersistManifest() {
    return PersistManifest(wal_digest_.digest(), wal_digest_.count());
  }
  // Marks the store degraded when `s` is a capacity exhaustion; returns `s`
  // unchanged so write paths can tail-call it.
  Status NoteWriteResult(Status s);
  // Deletes files under the store prefix that the recovered manifest does
  // not reference (crashed compactions/flushes strand their outputs, and
  // parked-for-deletion inputs whose purge never ran).
  void GcOrphanFiles();
  // The synchronous flush: serializes on flush_mu_, leaves early (without
  // touching db_mu_) when `only_if_full` and another writer already
  // flushed, then runs RunFlush.
  Status FlushInternal(bool only_if_full);
  // What RunFlush does after the seal. kSync/kIfFull merge the memtable and
  // ripple, persist (per persist_manifest_on_flush) and truncate the WAL;
  // kIfFull first re-checks FlushDue() under the lock. kAsync merges with
  // writers running and persists the live WAL digest without truncating.
  // kCompactAll merges the whole stack, always persists, and truncates.
  enum class FlushKind { kSync, kIfFull, kAsync, kCompactAll };
  // The one flush routine (caller holds flush_mu_): seal, merge, persist,
  // truncate the WAL when asked, purge. Drains the compaction job *before*
  // taking db_mu_, so readers are never blocked behind a deep merge, and
  // schedules/runs the ripple per the options.
  Status RunFlush(FlushKind kind);
  // The active memtable is full or the WAL has outgrown wal_bound().
  bool FlushDue() const;
  // Writer-path flush dispatch: synchronous FlushInternal when async_flush
  // is off; otherwise schedules the flush job and returns immediately,
  // falling back to a synchronous flush only under back-pressure (active
  // memtable 4x over its limit — the job cannot keep up) or once the
  // WAL outgrows wal_bound() and needs a truncating full flush.
  Status MaybeScheduleFlush();
  // The flush job: RunFlush(kAsync) under flush_mu_.
  Status AsyncFlushOnce();
  uint64_t wal_bound() const {
    return options_.max_wal_bytes != 0 ? options_.max_wal_bytes
                                       : 8 * options_.memtable_bytes;
  }
  // The compaction job: one ripple pass, then (background_compaction only)
  // a manifest persist; errors surface through WaitForCompaction().
  Status CompactOnce();
  // Folds one call into op_stats_ under a single stats_mu_ acquisition:
  // `samples` latency samples of `latency_ns` each, plus the proof bytes
  // and the number of ops it verified.
  void RecordOpStat(Histogram OpStats::*h, uint64_t latency_ns,
                    uint64_t samples = 1, uint64_t proof_bytes = 0,
                    uint64_t verified_ops = 0);
  std::string TransformKey(std::string_view key) const;
  std::string TransformValue(std::string_view value, uint64_t ts) const;
  Status UntransformRecord(lsm::Record* record) const;

  // Extracts the result record without verification (P1 / unsecured).
  static std::optional<lsm::Record> UnverifiedResult(
      const lsm::GetResponse& resp);

  Options options_;
  std::shared_ptr<sgx::Enclave> enclave_;
  std::shared_ptr<storage::Fs> fs_;
  std::shared_ptr<TrustedPlatform> platform_;
  std::unique_ptr<lsm::LsmEngine> engine_;
  std::unique_ptr<auth::AuthCompactionListener> listener_;
  std::unique_ptr<auth::ProofAssembler> assembler_;
  auth::Verifier verifier_;
  auth::WalDigest wal_digest_;

  // Facade-level reader/writer lock (paper §5.5.2 multi-threading): writes
  // and flushes are exclusive; verified reads share. Reads verify against
  // the engine-response *snapshot*, so background compaction never holds
  // this lock — a GET issued mid-merge completes without waiting for it.
  mutable std::shared_mutex db_mu_;
  // Serializes flushers so the compaction drain happens outside db_mu_.
  std::mutex flush_mu_;
  mutable std::mutex stats_mu_;

  // The sealed manifest log, written under the exclusive db_mu_ section of
  // every persist, and the engine edit sequence its records already cover.
  std::unique_ptr<manifest::ManifestLog> manifest_log_;
  uint64_t persisted_edit_seq_ = 0;

  // Timestamp oracle. Writers hold db_mu_ *shared* (they serialize on the
  // engine's commit queue, not here), so the increment must be atomic;
  // exclusive db_mu_ sections (flush/seal/persist/close) quiesce all
  // writers and may read it as a stable value.
  std::atomic<uint64_t> last_ts_{0};
  // Highest timestamp known to be in the level stack (set when a flush
  // lands, persisted in the manifest). Recovery re-inserts only WAL frames
  // above it — frames at/below it survive a crash between a flush's
  // manifest persist and its WAL truncation and are already in a level.
  uint64_t flushed_ts_ = 0;
  uint64_t flush_count_ = 0;
  bool closed_ = false;
  // Read-only degraded mode: set by NoteWriteResult on CapacityExceeded
  // exhaustion, cleared by a successful TryResume probe. Atomic so stats
  // and the fail-fast check need no lock; writes to it happen under
  // exclusive db_mu_ sections (or flush_mu_ for background persists).
  std::atomic<bool> degraded_{false};
  OpStats op_stats_;

  // The background jobs, each on its own thread when its option is on and
  // inline otherwise. Two threads, not one shared queue: a synchronous
  // flusher waits for the compaction job to go idle while it holds
  // flush_mu_, which the flush job takes. A flush job error waits for
  // WaitForFlush (writers keep succeeding: their WAL frames are durable
  // whether or not the flush behind them landed). Declared last: they run
  // code that uses every member above.
  common::BackgroundJob flush_job_;
  common::BackgroundJob compaction_job_;
};

}  // namespace elsm
