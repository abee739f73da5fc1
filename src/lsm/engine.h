// LsmEngine: a LevelDB-class LSM store over the simulated enclave substrate.
//
// Layout (paper §5.1): L0 is the in-enclave memtable; disk levels are a
// stack of sorted runs, shallowest first (levels()[0] is the paper's L1).
// Each disk level is one sorted run split into SSTable files. Compaction is
// the paper's basic form — merge a full level into the next one.
//
// The engine is "vanilla": it knows nothing about Merkle trees. It exposes
// the integration points the paper uses for RocksDB (§5.5.3):
//   * CompactionListener — the Filter() / OnTableFileCreated() analogue
//     through which auth verifies compaction inputs and seals outputs. One
//     streaming protocol feeds the listener block-granular input/output
//     streams, so the hash-chain/Merkle build never buffers a whole level
//     (only a listener that defers its proofs to the finished tree makes the
//     engine hold the merged output until the seal).
//   * opaque per-record proof blobs stored alongside records in SSTables.
//
// One path per job: a point read is a one-key MultiGet, a flush seals the
// active memtable and merges it like any other sealed memtable, and every
// compaction runs the streaming merge.
//
// Read paths (§5.5.1): mmap (direct untrusted-memory access; a file is
// mapped on its first read and the region hangs on its FileMeta, so it
// lives as long as a snapshot that can read the file) or a user-space
// ReadBuffer placed outside (P2) or inside (P1) the enclave.
// Every block's one integrity tag is the SHA-256 digest sealed in its
// BlockHandle, and CheckBlock is the one routine that checks it: with
// `protect_blocks` (P1) on every load, charged as the SDK's one-pass
// decrypt; with `verify_blocks` (authenticated P2) on every read-buffer
// admission, charged as a hash.
//
// Concurrency (copy-on-write version set): the sealed level stack lives in
// an immutable Version published behind a shared_ptr. Get/Scan take the
// shared lock only long enough to probe the memtable and copy the version
// pointer, then search SSTables with no lock held; the response carries its
// snapshot so proof assembly/verification sees exactly the roots the lookup
// used. Structural changes (flush, compaction) serialize on an internal
// compaction mutex, do their merge work without blocking readers, and
// install the new version with one brief exclusive swap. Compacted-away
// files are refcounted (FileTracker): once the last snapshot using them
// dies they are parked, and PurgeObsoleteFiles deletes them after the
// owner's manifest stops referencing them. The engine runs no threads:
// which flush or compaction runs in the background is the facade's choice
// (ElsmDb runs them as common::BackgroundJobs), as in LevelDB's DBImpl.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "lsm/merge_iter.h"
#include "lsm/record.h"
#include "lsm/skiplist.h"
#include "lsm/sstable.h"
#include "lsm/version.h"
#include "sgxsim/enclave.h"
#include "storage/read_buffer.h"
#include "storage/fs.h"
#include "storage/wal.h"

namespace elsm::lsm {

enum class ReadPathKind { kMmap, kBuffer };

// Accounted bytes per memtable entry beyond the record payload (skiplist
// node + height vector slack). Both the simulated enclave access charge and
// the memtable_used_ occupancy advance by record.ByteSize() + this one
// constant, so the charged access pattern can never drift from the
// accounted occupancy (they briefly disagreed, +64 charged vs +32
// accounted).
inline constexpr uint64_t kMemtableEntryOverhead = 32;

struct LsmOptions {
  std::string name = "db";
  uint64_t memtable_bytes = 64 << 10;
  uint64_t level1_bytes = 256 << 10;
  uint32_t level_ratio = 4;
  uint64_t block_bytes = 4096;
  uint64_t file_bytes = 64 << 10;
  bool use_bloom = true;
  bool compaction_enabled = true;
  ReadPathKind read_path = ReadPathKind::kMmap;
  uint64_t read_buffer_bytes = 8 << 20;
  // LRU shards of the read buffer (per-shard mutex + single-flight misses).
  int read_cache_shards = 8;
  storage::BufferPlacement buffer_placement =
      storage::BufferPlacement::kOutsideEnclave;
  // eLSM-P1 file-granularity protection: every block load (read buffer,
  // mmap, compaction input) pays the cipher charge and is checked against
  // its sealed digest, and every SSTable write pays the cipher charge.
  bool protect_blocks = false;
  // Check a loaded block against its sealed digest before the read buffer
  // admits it, so a buffer hit is already verified. Authenticated P2 turns
  // this on; the unsecured and unauthenticated baselines carry no integrity
  // contract, so their SSTables carry no digests at all.
  bool verify_blocks = false;
  // Honor the Fs::Sync durability contract on the write path: fsync the
  // WAL before acknowledging, and SSTables/tree sidecars before they can
  // be referenced by a manifest. No-op on SimFs, real fsyncs on PosixFs.
  bool sync_writes = true;
  // Bounded retry for transient storage faults (Status::IsTransient) on the
  // retry-safe write paths: WAL append+sync (with tail repair between
  // attempts), SSTable/tree-sidecar installs (atomic whole-file replace),
  // and WAL reset. Backoff is charged on the simulated clock, so retried
  // runs stay deterministic. max_attempts <= 1 disables retries.
  common::RetryPolicy io_retry;
  // Group-commit linger window. Concurrent writers always share one WAL
  // append + fsync (the first writer at the barrier leads the cohort); with
  // a non-zero window the leader additionally waits up to this many
  // wall-clock microseconds for stragglers before issuing the sync, trading
  // per-op latency for larger cohorts (bigger fsync amortization). 0 =
  // sync as soon as a leader forms — cohorts still batch whatever queued
  // while the previous cohort's fsync was in flight. Only meaningful with
  // sync_writes; the crash window it opens is bounded by the window itself
  // (an unsynced cohort is never acknowledged).
  uint64_t wal_sync_interval_us = 0;
  // --- batched read I/O ----------------------------------------------------
  // MultiGet collects the candidate blocks of all still-searching keys at
  // each level and loads the cache misses with one Fs::MultiRead (buffer
  // read path only; per-block verify-and-admit is unchanged). A level only
  // one key consults reads its block directly, exactly like a lone Get.
  bool multiget_batching = true;
  // Scan readahead: batch-fetch up to this many upcoming blocks of each
  // level run ahead of the sequential walk, bounded to blocks the walk
  // provably visits (first_key <= k2). 0 disables. Buffer read path only.
  uint64_t scan_readahead_blocks = 8;
};

// Everything a CompactionListener returns to seal a freshly built level.
struct CompactionSeal {
  // One per output record, only from a listener that defers its proofs
  // (see CompactionListener::defers_proofs); otherwise empty.
  std::vector<std::string> proof_blobs;
  crypto::Hash256 root = crypto::kZeroHash;
  uint64_t leaf_count = 0;
  // The level's Merkle tree image, written as its sidecar when set.
  std::shared_ptr<const std::string> tree_payload;
};

// The streaming compaction protocol. One compaction = OnCompactionBegin,
// then per run: OnInputRunBegin, OnInputEntry xN (per-run order),
// OnInputRunEnd (the natural place to reject a tampered input); interleaved
// with OnOutputGroup once per merged key group (newest-first, after the drop
// policy); then OnOutputEnd, whose seal carries root/leaf_count/tree_payload.
// src_depth == -1 (meta == null) is the trusted memtable run; otherwise it
// is the level position. Any non-OK return aborts the merge.
class CompactionListener {
 public:
  virtual ~CompactionListener() = default;

  // A listener whose proofs need the finished tree (full Merkle paths)
  // answers true: OnOutputGroup then emits no blobs, the engine holds the
  // merged output, and OnOutputEnd's seal carries one blob per record.
  virtual bool defers_proofs() const { return false; }

  virtual Status OnCompactionBegin(size_t run_count) {
    (void)run_count;
    return Status::Ok();
  }
  virtual Status OnInputRunBegin(size_t run_idx, int src_depth,
                                 const LevelMeta* meta) {
    (void)run_idx;
    (void)src_depth;
    (void)meta;
    return Status::Ok();
  }
  virtual Status OnInputEntry(size_t run_idx, const Record& record,
                              std::string_view core) {
    (void)run_idx;
    (void)record;
    (void)core;
    return Status::Ok();
  }
  virtual Status OnInputRunEnd(size_t run_idx) {
    (void)run_idx;
    return Status::Ok();
  }
  // Append one proof blob per record to *proof_blobs (or none at all).
  virtual Status OnOutputGroup(const std::vector<Record>& group,
                               std::vector<std::string>* proof_blobs) {
    (void)group;
    (void)proof_blobs;
    return Status::Ok();
  }
  virtual Result<CompactionSeal> OnOutputEnd() { return CompactionSeal{}; }
  virtual void OnTableFileCreated(const FileMeta& meta) { (void)meta; }
};

// One consulted level during a GET (paper §5.3 r1: the untrusted store
// prepares proof material; verification happens in the facade/enclave).
struct LevelGetResult {
  size_t level_pos = 0;
  bool bloom_negative = false;  // trusted skip: filter lives in the enclave
  bool found = false;           // chain ends with a record visible at ts_max
  // Group prefix, newest first: entries with ts > ts_max, then (iff found)
  // the result record. Empty if the key's group is absent from the level.
  std::vector<RawEntry> chain;
  std::optional<RawEntry> pred;  // newest record of the preceding key group
  std::optional<RawEntry> succ;  // newest record of the following key group
};

struct GetResponse {
  std::optional<Record> memtable_hit;  // trusted L0 answer (early stop)
  std::vector<LevelGetResult> levels;  // search order; ends at hit level
  // The level-stack snapshot the lookup ran against. Verify proofs against
  // snapshot->levels(), not the engine's live stack, which a concurrent
  // compaction may have replaced.
  std::shared_ptr<const Version> snapshot;
};

// One consulted level during a SCAN.
struct LevelScanResult {
  size_t level_pos = 0;
  std::vector<RawEntry> heads;   // newest record of each key group in range
  std::optional<RawEntry> pred;  // newest record of last group below range
  std::optional<RawEntry> succ;  // newest record of first group above range
};

struct ScanResponse {
  std::vector<Record> memtable_records;  // trusted, newest per key in range
  std::vector<LevelScanResult> levels;
  std::shared_ptr<const Version> snapshot;  // see GetResponse::snapshot
};

struct EngineStats {
  // Write-path counters: acknowledged records only, split by kind. A write
  // whose WAL commit failed (retry budget exhausted) lands in the failed_*
  // twin instead — the counters are bumped by the commit leader *after* the
  // cohort's fsync, so an unacknowledged write can never inflate them.
  // Plain (non-atomic) because every bump happens under the exclusive
  // engine write lock.
  uint64_t puts = 0;
  uint64_t deletes = 0;
  uint64_t failed_puts = 0;
  uint64_t failed_deletes = 0;
  // Group-commit telemetry: cohorts committed (one WAL barrier each) and
  // the records they carried. records / commits is the mean cohort size —
  // the fsync amortization factor concurrent writers actually achieved.
  uint64_t group_commits = 0;
  uint64_t group_commit_records = 0;
  // gets/scans are bumped on the lock-free read path; the compaction
  // counters on whichever thread compacts — all of those must be atomic.
  std::atomic<uint64_t> gets = 0;
  std::atomic<uint64_t> scans = 0;
  std::atomic<uint64_t> flushes = 0;
  std::atomic<uint64_t> compactions = 0;
  std::atomic<uint64_t> compaction_bytes_in = 0;
  std::atomic<uint64_t> compaction_bytes_out = 0;
  // High-water mark of entry bytes a single compaction held in memory
  // (group buffer + parsed blocks: O(blocks in flight), plus the held
  // output for a listener that defers its proofs).
  std::atomic<uint64_t> compaction_peak_resident_bytes = 0;
  // Manifest-maintenance telemetry, bumped by the owning facade through
  // NoteManifestWrite: delta records appended to the tail log, full
  // snapshots installed, and total sealed manifest bytes written. With the
  // edit log, bytes-per-mutation stays O(1) in resident file count — see
  // bench/fig_manifest_scaling.cc.
  std::atomic<uint64_t> manifest_edits_appended = 0;
  std::atomic<uint64_t> manifest_snapshots_written = 0;
  std::atomic<uint64_t> manifest_bytes_written = 0;
  // Transient-fault tolerance telemetry: extra attempts spent in retry
  // loops, ops whose transient failure a retry absorbed, ops that exhausted
  // the retry budget, and WAL tails truncated back to the last committed
  // frame boundary (write-path repair + recovery-time torn-tail drops).
  std::atomic<uint64_t> retry_attempts = 0;
  std::atomic<uint64_t> retries_absorbed = 0;
  std::atomic<uint64_t> retries_exhausted = 0;
  std::atomic<uint64_t> wal_tail_repairs = 0;
  // Batched read-path telemetry: MultiGet block batches issued and the
  // blocks they carried, blocks submitted by scan readahead windows, and
  // prefetched blocks actually consumed by a lookup or scan walk
  // (MultiGet + readahead combined).
  std::atomic<uint64_t> multiget_batches = 0;
  std::atomic<uint64_t> multiget_batched_blocks = 0;
  std::atomic<uint64_t> readahead_blocks = 0;
  std::atomic<uint64_t> readahead_hits = 0;
};

class LsmEngine {
 public:
  LsmEngine(LsmOptions options, std::shared_ptr<sgx::Enclave> enclave,
            std::shared_ptr<storage::Fs> fs);
  ~LsmEngine();

  LsmEngine(const LsmEngine&) = delete;
  LsmEngine& operator=(const LsmEngine&) = delete;

  void SetListener(CompactionListener* listener) { listener_ = listener; }

  // Invoked once per record, in WAL byte order, after the cohort holding it
  // is durable (fsynced under sync_writes) and before its writer is
  // acknowledged. Runs under the exclusive engine write lock, so calls are
  // totally ordered and match the WAL exactly — the facade chains its
  // in-enclave WAL digest here. Set once before concurrent use.
  using CommitHook = std::function<void(std::string_view core)>;
  void SetCommitHook(CommitHook hook) { commit_hook_ = std::move(hook); }

  // Appends to the WAL and inserts into the memtable. The caller assigns
  // timestamps and decides when to Flush (memtable_bytes() tells how full
  // L0 is). Tombstones are Puts with RecordType::kTombstone.
  //
  // Concurrent writers group-commit on the WAL fsync barrier
  // (leader/follower, LevelDB-style): each writer enqueues its encoded
  // records under a short queue lock; the front writer becomes leader,
  // appends the whole cohort as one frame group, pays ONE SyncWal() for
  // everyone, advances the committed offset once, and wakes the followers
  // with the shared Status. The cohort commits or fails atomically: a
  // failed leader append/sync marks the tail dirty and the retry (or the
  // next cohort) truncates back to the committed boundary, so no follower
  // is ever acknowledged on an unsynced frame.
  Status Put(Record record);
  // Batched variant: the batch joins a cohort as one unit (one lock
  // acquisition and one WAL append cover it even without other writers).
  Status PutBatch(std::vector<Record> records);

  // A one-key MultiGet.
  Result<GetResponse> Get(std::string_view key, uint64_t ts_max);

  // One key's outcome in a MultiGet: status guards the response (per-key
  // error isolation — one failed block fails only the keys needing it).
  struct MultiGetItem {
    Status status = Status::Ok();
    GetResponse response;
  };
  // Point reads, the engine's one read path: one shared-lock pass probes
  // the memtables for every key and grabs ONE version snapshot, then the
  // level walk runs level-major — when several still-searching keys
  // consult a level, their candidate blocks are planned together and the
  // cache misses load via one Fs::MultiRead (see
  // LsmOptions::multiget_batching). Each key's per-level results,
  // bracketing witnesses, and early stop are those of a one-key lookup
  // against the same snapshot, so proof assembly/verification is unchanged.
  std::vector<MultiGetItem> MultiGet(const std::vector<std::string>& keys,
                                     uint64_t ts_max);

  Result<ScanResponse> Scan(std::string_view k1, std::string_view k2);

  // Memtable -> disk: drains any earlier sealed memtable, then seals the
  // active one and merges it the same way (FlushImm). With compaction
  // enabled the run merges into the shallowest level; otherwise it becomes
  // a new level on top of the stack. The caller must have quiesced writers
  // (the facade holds its exclusive lock).
  Status Flush();
  // --- off-writer-path flush handoff ---------------------------------------
  // Seals the active memtable: one pointer swap under the exclusive engine
  // lock turns it into the immutable memtable (imm) and installs a fresh
  // active one, so writers roll over instead of stalling behind the flush.
  // Returns false (and does nothing) when the active memtable is empty or
  // an earlier seal has not been flushed yet. The caller must have
  // quiesced writers for the duration of the swap (exclusive facade lock):
  // that is what makes its captured timestamp watermark sound.
  bool SealMemtable();
  // Merges the sealed memtable into the level stack. Runs under the
  // compaction mutex only — concurrent writers (into the fresh active
  // memtable) and readers proceed throughout. No-op without a pending imm.
  Status FlushImm();
  // True while a sealed memtable is awaiting its flush.
  bool HasImm() const;
  // Merges any level exceeding its capacity into the next one (rippling).
  // Safe to call from any thread; structural changes serialize internally.
  Status MaybeCompact();
  // Force-merges the whole stack into a single deepest level.
  Status CompactAll();
  // Compacted-away files are parked, not unlinked (see FileTracker). This
  // deletes the parked files and drops their cached blocks; call it after
  // persisting a manifest that no longer references them.
  void PurgeObsoleteFiles();

  // Live level stack. Single-threaded callers only: a concurrent compaction
  // may retire the backing version — concurrent readers must hold the
  // snapshot from a Get/Scan response (or current_version()) instead.
  const std::vector<LevelMeta>& levels() const { return version_->levels(); }
  std::shared_ptr<const Version> current_version() const;
  size_t memtable_entries() const { return memtable_->size(); }
  uint64_t memtable_bytes() const {
    return memtable_used_.load(std::memory_order_relaxed);
  }
  // Acknowledged (committed-boundary) WAL bytes. Lock-free; the facade's
  // async-flush path uses it to force a synchronous truncating flush when
  // the WAL outgrows its bound.
  uint64_t wal_bytes() const {
    return wal_committed_bytes_.load(std::memory_order_relaxed);
  }
  const EngineStats& stats() const { return stats_; }
  const LsmOptions& options() const { return options_; }
  storage::Fs& fs() { return *fs_; }
  sgx::Enclave& enclave() { return *enclave_; }
  // Null when read_path == kMmap (no block cache on the mmap path).
  const storage::ReadBuffer* read_buffer() const { return read_buffer_.get(); }
  // Drops every cached block (no-op on the mmap path). Bench support:
  // cold-read measurements reset the cache between passes.
  void ClearReadCache() {
    if (read_buffer_ != nullptr) read_buffer_->Clear();
  }

  // --- manifest & recovery (driven by the elsm facade) ---------------------
  // Full level-stack snapshot. When `covered_edit_seq` is non-null it
  // receives the edit sequence number the snapshot covers, captured
  // atomically with the stack — pass it to TrimEditsThrough once the
  // snapshot is durable.
  std::string EncodeManifest(uint64_t* covered_edit_seq = nullptr) const;
  Status RestoreManifest(std::string_view manifest);
  // Every structural change (flush / compaction step) appends an encoded
  // VersionEdit to an in-memory log with a monotone sequence number; the
  // facade drains it into sealed delta records. EditsSince returns the
  // encoded edits with seq > `since` plus the newest sequence (atomically
  // with the copy); TrimEditsThrough drops entries the facade has made
  // durable. RestoreManifest resets the log (sequence restarts at 0).
  std::vector<std::string> EditsSince(uint64_t since,
                                      uint64_t* newest_seq) const;
  void TrimEditsThrough(uint64_t seq);
  // Recovery replay: applies one encoded VersionEdit from a sealed delta
  // record on top of the restored stack. Does not re-log the edit.
  Status ApplyEdit(std::string_view encoded);
  // Manifest-maintenance telemetry (see EngineStats): the facade reports
  // each sealed manifest write here.
  void NoteManifestWrite(bool snapshot, uint64_t bytes);
  // Retry telemetry (see EngineStats): the facade folds in the stats of
  // retry loops it runs itself (manifest install).
  void NoteRetry(const common::RetryStats& stats);
  Result<storage::WalContents> ReadWalRecords() const;
  // Reinserts a WAL record into the memtable without re-appending it.
  Status ReinsertFromWal(Record record);
  Status ResetWal();
  // Recovery-side tail repair: drops WAL bytes past `committed_bytes` (the
  // well-formed prefix ReadWal accepted) so post-recovery appends never
  // land behind a torn frame, and primes the committed-offset tracking the
  // write path's repair relies on. The facade calls it after a successful
  // WAL replay.
  Status TruncateWalTail(uint64_t committed_bytes);

 private:
  // A level under construction: SSTable building, bloom, file bookkeeping.
  struct LevelBuild {
    LevelMeta level;
    SSTableBuilder builder;
    std::string prev_key;
    uint64_t records_out = 0;

    LevelBuild(uint64_t block_bytes, bool digest_blocks)
        : builder(block_bytes, digest_blocks) {}
  };
  // One merge input: a level position, or the memtable run when depth < 0.
  struct MergeSource {
    int depth = -1;
    std::vector<RawEntry> run;  // only for depth < 0
  };

  uint64_t LevelCapacity(size_t pos) const;
  std::string NewFileName(const char* suffix);

  using BlockRef = std::pair<const FileMeta*, const BlockHandle*>;
  // Batch-loaded block results keyed by storage::BlockKey. MultiGet and
  // scan readahead fill one with ReadBlockBatch; the block readers consult
  // it before the cache, so a batched operation reads and charges each
  // block exactly once and a stored error replays deterministically
  // instead of triggering a divergent second load.
  using PrefetchedBlocks =
      std::unordered_map<std::string,
                         Result<std::shared_ptr<const std::string>>>;
  // Batch-loads `blocks` through the read buffer with one Fs::MultiRead
  // (buffer read path only), recording every per-block result — including
  // failures — in *out. Blocks already present are skipped; returns how
  // many blocks were newly submitted.
  size_t ReadBlockBatch(const std::vector<BlockRef>& blocks,
                        PrefetchedBlocks* out) const;
  // Appends the block(s) LookupInLevel will read first for `key`: the
  // candidate block, or the boundary-witness blocks when the key misses
  // every file range.
  void PlanLookupBlocks(const LevelMeta& level, std::string_view key,
                        std::vector<BlockRef>* out) const;

  // The one block check: compares `bytes` with the block's sealed digest.
  // P1 checks every load and charges the one-pass AES-GCM decrypt;
  // authenticated P2 checks (and charges the hash of) only a block that is
  // about to enter the read buffer (`admission`), since the Merkle layer
  // authenticates every record the other paths serve. Other modes pass.
  Status CheckBlock(const FileMeta& file, const BlockHandle& block,
                    std::string_view bytes, bool admission) const;
  // Looks `blocks` up in the read buffer; the misses are read by the one
  // loader — one Fs::MultiRead when `batched`, else one Fs::Read each —
  // which checks every block before the buffer may admit it.
  std::vector<Result<std::shared_ptr<const std::string>>> FetchBlocks(
      std::span<const BlockRef> blocks, bool batched) const;
  Result<std::shared_ptr<const std::string>> ReadBlock(
      const FileMeta& file, const BlockHandle& block,
      const PrefetchedBlocks* prefetched = nullptr) const;
  // Parsed entries viewing `backing` (which pins them).
  struct ParsedBlock {
    std::shared_ptr<const std::string> backing;
    std::vector<BlockEntry> entries;
  };
  Result<ParsedBlock> ReadParsedBlock(
      const FileMeta& file, const BlockHandle& block,
      const PrefetchedBlocks* prefetched = nullptr) const;

  // WAL durability barrier for Put/PutBatch: fsync the file, plus a
  // one-time directory fsync per WAL generation (a freshly created WAL's
  // directory entry is not durable until SyncDir — fs.h contract).
  Status SyncWal();
  // Runs `op` under options_.io_retry, charging backoff on the simulated
  // clock and folding the attempt counts into stats_.
  Status RetryIo(const std::function<Status()>& op);
  // If a failed append/sync left unacknowledged bytes at the WAL's tail
  // (wal_dirty_), truncates back to wal_committed_bytes_ so the next frame
  // never lands behind garbage. Callers hold the exclusive write lock.
  Status RepairWalTailLocked();

  Status LookupInLevel(const LevelMeta& level, std::string_view key,
                       uint64_t ts_max, LevelGetResult* out,
                       const PrefetchedBlocks* prefetched = nullptr) const;
  Status ScanInLevel(const LevelMeta& level, std::string_view k1,
                     std::string_view k2, LevelScanResult* out) const;
  // Newest record of the key group holding the first/last entry of a file.
  Result<RawEntry> FirstHead(const FileMeta& file,
                             const PrefetchedBlocks* prefetched = nullptr)
      const;
  Result<RawEntry> LastHead(const FileMeta& file,
                            const PrefetchedBlocks* prefetched = nullptr)
      const;

  std::shared_ptr<const Version> SnapshotVersion() const;
  std::unique_ptr<RunIterator> MakeSourceIterator(const Version& base,
                                                  MergeSource source) const;

  // Whether a CompactStep drains the sealed (immutable) memtable (a flush)
  // or no in-memory table at all (a pure compaction).
  enum class MemtableReset { kNone, kImm };

  // --- group commit core ----------------------------------------------------
  // One writer's stake in a commit cohort (lives on the writer's stack).
  struct CommitRequest {
    std::vector<Record>* records = nullptr;  // moved into the memtable by
                                             // the leader on success
    std::vector<std::string> cores;          // encoded payloads, WAL order
    uint64_t framed_bytes = 0;
    Status status;
    bool done = false;
    std::condition_variable cv;
  };
  // The shared Put/PutBatch path: enqueue, lead or follow, return the
  // cohort's shared Status.
  Status CommitGroup(std::vector<Record>* records);
  // Leader body: one AppendBatch + one SyncWal for the whole cohort under
  // the exclusive write lock, then hook + memtable insert per record.
  Status CommitCohort(const std::vector<CommitRequest*>& cohort);

  // --- compaction core (callers hold compaction_mu_) -----------------------
  Status FlushImmInternal();
  Status MaybeCompactInternal();
  Status CompactAllInternal();
  // Merges `sources` (search-order-shallower first) plus — unless
  // insert_as_new — the level at `target_pos` into a fresh level installed
  // per the legacy position rules. `reset` empties the sealed memtable
  // atomically with the version swap (the flush path).
  Status CompactStep(std::vector<MergeSource> sources, size_t target_pos,
                     bool insert_as_new, MemtableReset reset);
  Status StreamCompaction(const Version& base, std::vector<MergeSource> sources,
                          std::vector<int> depths, bool to_bottom,
                          LevelBuild* build, CompactionSeal* seal);
  Status AppendOutput(LevelBuild* build, const Record& record,
                      std::string_view proof_blob);
  Status FinishOutputFile(LevelBuild* build);
  Status FinalizeLevel(LevelBuild* build, const CompactionSeal& seal);
  void AbortLevel(LevelBuild* build);
  // `encoded_edit` (when non-empty) is logged under the same exclusive
  // section as the version swap, so the edit sequence observes installs in
  // publication order.
  void InstallVersion(std::vector<LevelMeta> levels, MemtableReset reset,
                      const std::vector<std::string>& obsolete_files,
                      std::string encoded_edit = std::string());
  void UpdatePeakResident(uint64_t resident_bytes);

  void ChargeMetadataAccess(size_t level_pos) const;
  void RefreshMetadataFootprint(const std::vector<LevelMeta>& levels);

  LsmOptions options_;
  std::shared_ptr<sgx::Enclave> enclave_;
  std::shared_ptr<storage::Fs> fs_;
  CompactionListener* listener_ = nullptr;

  // mu_ protects the memtables and the version pointer swap; readers hold
  // it only while probing the memtables and copying the pointer.
  // compaction_mu_ serializes structural changes (flush/compaction/restore)
  // end to end. commit_mu_ (below) orders writers into cohorts *before*
  // they touch mu_ — only the cohort leader ever takes mu_ exclusively.
  mutable std::shared_mutex mu_;
  std::mutex compaction_mu_;
  std::unique_ptr<SkipList> memtable_;
  // Sealed-but-not-yet-flushed memtable (SealMemtable/FlushImm). Reads
  // probe it after the active memtable (its records are strictly older);
  // guarded by mu_ like the active one.
  std::unique_ptr<SkipList> imm_;
  uint64_t imm_used_ = 0;
  // Atomic: advanced by the commit leader under exclusive mu_, but read
  // lock-free by the facade's flush-trigger check on concurrent writers.
  std::atomic<uint64_t> memtable_used_{0};

  // --- group-commit queue ---------------------------------------------------
  // Writers enqueue under commit_mu_ and park on their request's cv. The
  // front request's owner is the leader: it may linger (wal_sync_interval_us)
  // on commit_join_cv_ to absorb stragglers, then commits the whole queue
  // prefix it captured. The cohort stays in the queue while its I/O runs —
  // arrivals during the fsync line up behind it as the next cohort.
  std::mutex commit_mu_;
  std::condition_variable commit_join_cv_;
  std::deque<CommitRequest*> commit_queue_;
  CommitHook commit_hook_;
  std::shared_ptr<FileTracker> tracker_;
  std::shared_ptr<const Version> version_;
  std::atomic<uint64_t> next_file_no_ = 1;
  // In-memory VersionEdit log (guarded by mu_): (seq, encoded edit) pairs
  // not yet persisted by the facade. Bounded by the facade's trim after
  // every sealed record; RestoreManifest clears it.
  uint64_t edit_seq_ = 0;
  std::vector<std::pair<uint64_t, std::string>> edit_log_;

  storage::WalWriter wal_;
  // The current WAL generation's directory entry is known durable (a
  // SyncDir ran since the file was created). Reset by ResetWal; writers
  // mutate it under the exclusive write lock, so relaxed atomics only
  // guard against incidental concurrent reads.
  std::atomic<bool> wal_dir_synced_{false};
  // Bytes of the WAL covered by acknowledged appends (always a frame
  // boundary). A failed append/sync sets wal_dirty_: a torn or orphan
  // frame may sit past the committed offset, and a frame appended behind
  // it would be unreachable to ReadWal — and would diverge the facade's
  // in-enclave WAL digest into a spurious AuthFailure on recovery. The
  // next append (or recovery) truncates back to the committed offset
  // first. Mutated under the exclusive write lock (mu_); atomic so the
  // facade's lock-free WAL-growth bound check (wal_bytes()) can read it
  // from concurrent writer threads.
  std::atomic<uint64_t> wal_committed_bytes_{0};
  bool wal_dirty_ = false;
  std::unique_ptr<storage::ReadBuffer> read_buffer_;
  sgx::RegionId memtable_region_ = 0;
  sgx::RegionId metadata_region_ = 0;
  mutable EngineStats stats_;
};

}  // namespace elsm::lsm
