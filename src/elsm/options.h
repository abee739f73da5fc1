// Public configuration for ElsmDb (paper Table 1 + §5.6 extensions).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/retry.h"
#include "common/thread_pool.h"
#include "lsm/engine.h"
#include "sgxsim/cost_model.h"
#include "storage/fs.h"

namespace elsm {

// Which system from the paper to run.
enum class Mode {
  kP2,         // eLSM-P2: code in enclave, buffers outside, record-grained
               // Merkle digests with embedded proofs (§5)
  kP1,         // eLSM-P1: everything in enclave, file-grained protection (§4)
  kUnsecured,  // plain LSM store, no enclave, no authentication (baseline)
};

struct Options {
  Mode mode = Mode::kP2;
  std::string name = "elsm";

  // --- storage backend -----------------------------------------------------
  // Which storage::Fs backend Open/Create builds when the caller does not
  // pass one explicitly: the deterministic in-memory SimFs (default, the
  // paper's memory-resident evaluation) or PosixFs on real files under
  // `backend_dir` (required for kPosix). An explicitly passed Fs/ShardEnv
  // always wins over these fields.
  storage::BackendKind backend = storage::BackendKind::kSim;
  std::string backend_dir;
  // Honor the Fs durability contract on the write path: fsync the WAL
  // before acknowledging a write, fsync SSTables/sidecars before the
  // manifest that references them, and install manifests with
  // Sync(tmp) + Rename + SyncDir before bumping the monotonic counter.
  // Free on SimFs (always durable); real fsyncs on PosixFs. Disable only
  // for benchmarks that want the no-durability upper bound.
  bool sync_writes = true;
  // Bounded retry for transient storage faults (Status::IsTransient — an
  // EIO blip, EAGAIN-class resource pressure) on the retry-safe write
  // paths: WAL append+sync with tail repair between attempts, SSTable and
  // tree-sidecar installs (atomic whole-file replaces), and the manifest
  // install (a failed delta append escalates to an idempotent
  // fresh-generation snapshot before the retry). Backoff is charged on the
  // simulated enclave clock, so retried runs stay deterministic.
  // Permanent classes — Corruption, AuthFailure, CapacityExceeded, plain
  // IOError — are never retried. max_attempts <= 1 disables retries.
  common::RetryPolicy io_retry;
  // Group-commit linger window (microseconds). Concurrent writers already
  // share one WAL append + fsync per commit cohort (the first queued writer
  // acts as leader for everyone queued behind it); with 0 the leader syncs
  // as soon as it reaches the barrier, >0 lets it linger up to the window
  // to absorb straggling writers into the same fsync. Larger windows mean
  // fewer fsyncs per op under load but add up to the window of latency to
  // lightly-contended writes. No effect on durability: a write is never
  // acknowledged before its frame is synced (when sync_writes is set), so
  // the window only shapes latency/throughput, not the crash contract.
  // Ignored when sync_writes is false.
  uint64_t wal_sync_interval_us = 0;
  // Move memtable sealing off the writer path: when the active memtable
  // fills, writers seal it and roll to a fresh one, and the sealed
  // (immutable) memtable flushes on the store's flush-job thread — a Put
  // never stalls behind a memtable->L1 merge. A flush requested before
  // Close() lands before the final manifest. Off by default: the synchronous
  // path flushes inline and truncates the WAL every flush, which is the
  // deterministic behavior most tests and single-threaded callers want.
  // With async flush the WAL is truncated only by a forced synchronous
  // flush once it outgrows max_wal_bytes (manifests persisted by the
  // background flush record the live WAL digest instead, and recovery
  // skips frames already covered by a flushed level).
  bool async_flush = false;
  // WAL growth bound for async_flush (bytes); when the acknowledged WAL
  // exceeds it, the next write triggers a synchronous truncating flush.
  // 0 = 8 * memtable_bytes.
  uint64_t max_wal_bytes = 0;

  // --- LSM geometry (defaults are the paper's setup scaled /64) ------------
  uint64_t memtable_bytes = 64 << 10;
  uint64_t level1_bytes = 256 << 10;
  uint32_t level_ratio = 4;
  uint64_t block_bytes = 4096;
  uint64_t file_bytes = 64 << 10;
  bool use_bloom = true;
  bool compaction_enabled = true;
  // Run ripple compaction on the store's compaction-job thread: flushes
  // schedule it and return, so reads never wait for a deep merge, and each
  // pass re-persists the manifest. Drive deterministically with
  // ScheduleCompaction()/WaitForCompaction().
  bool background_compaction = false;

  // --- read path (§5.5.1; ignored for P1, which always uses an in-enclave
  //     user-space buffer) ---------------------------------------------------
  lsm::ReadPathKind read_path = lsm::ReadPathKind::kMmap;
  uint64_t read_buffer_bytes = 8 << 20;
  // LRU shards of the read buffer (per-shard mutex, single-flight misses;
  // entries are keyed by (file, offset), and P1 and authenticated P2 admit
  // a block only after it matches the digest sealed in the snapshot, so a
  // hit is already verified).
  int read_cache_shards = 8;
  // Merkle proof-path node cache inside the verifier: bounds the number of
  // verified tree nodes kept so hot-key re-verifications skip the path
  // re-hash entirely. 0 disables the cache.
  size_t proof_path_cache_entries = 4096;
  // Batched read I/O (buffer read path only). multiget_batching collects
  // the cache-missing candidate blocks of a MultiGet level pass that two
  // or more keys consult into one Fs::MultiRead; scan_readahead_blocks
  // pipelines verified scans by batch-reading the next N blocks the range
  // walk will provably visit (0 disables).
  bool multiget_batching = true;
  uint64_t scan_readahead_blocks = 8;

  // --- authentication (P2) -------------------------------------------------
  // Build the Merkle forest at all (false = a plain LSM store that still
  // runs inside the enclave — the "SGX port without authentication"
  // configuration of the paper's Fig. 2 / Fig. 6a preliminary studies).
  bool authenticate_data = true;
  bool verify_reads = true;       // run VRFY on every GET/SCAN result
  bool embed_full_paths = false;  // paper-literal proof layout (DESIGN.md §2)

  // --- freshness / rollback defence (§5.6.1) -------------------------------
  // The sealed manifest log is always bound to the trusted monotonic
  // counter (src/elsm/manifest_log.h); this sets how often it bumps.
  uint32_t counter_sync_period = 1;  // flushes per monotonic-counter bump
  // Seal + persist the manifest on every flush (durable default). Benches
  // disable it to keep the measured path free of manifest-sealing costs;
  // Close() always persists.
  bool persist_manifest_on_flush = true;
  // Manifest-log snapshot cadence: a full sealed snapshot replaces the
  // append-only delta tail after this many delta records, or once the tail
  // exceeds manifest_snapshot_bytes, whichever first. Between snapshots
  // every persist appends one O(changed levels) sealed record, keeping
  // manifest maintenance O(1) in resident file count. 0 delta records
  // means snapshot-on-every-persist — the legacy full-rewrite behavior the
  // fig_manifest_scaling bench uses as its O(files) baseline. ShardedDb
  // applies the same cadence to its super-manifest log.
  uint32_t manifest_snapshot_edits = 32;
  uint64_t manifest_snapshot_bytes = 4 << 20;

  // --- cross-shard fan-out (ShardedDb only; ElsmDb ignores these) ----------
  // Worker threads for parallel cross-shard Scan/MultiGet/Write fan-out.
  // 0 = sequential fallback: every cross-shard op visits its shards one at
  // a time on the calling thread (the pre-fan-out behavior). Shards are
  // fully independent stores and the calling thread runs one partition
  // itself (caller-runs), so a pool of min(num_shards - 1, cores - 1)
  // captures all available parallelism; larger pools only add queueing.
  uint32_t fanout_threads = 0;
  // Share one pool between stores (many ShardedDbs in one process should
  // not each spawn their own workers). When null and fanout_threads > 0,
  // ShardedDb creates a private pool of that size.
  std::shared_ptr<common::ThreadPool> fanout_pool;

  // --- confidentiality (§5.6.2) ---------------------------------------------
  bool encrypt_values = false;             // semantically secure values
  bool deterministic_key_encryption = false;  // searchable (DE) keys;
                                              // disables SCAN (needs OPE)
  // Order-preserving key encryption: keeps SCAN working over ciphertext
  // keys (mutually exclusive with deterministic_key_encryption). Leaks key
  // order by design — see crypto/ope.h.
  bool order_preserving_keys = false;
  std::string data_key = "elsm-data-key";

  // --- simulated hardware ----------------------------------------------------
  sgx::CostModel cost_model;
};

}  // namespace elsm
