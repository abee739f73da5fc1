#include "elsm/elsm_db.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/coding.h"
#include "crypto/cipher.h"
#include "crypto/ope.h"

namespace elsm {
namespace {

lsm::LsmOptions MakeEngineOptions(const Options& o) {
  lsm::LsmOptions eo;
  eo.name = o.name;
  eo.memtable_bytes = o.memtable_bytes;
  eo.level1_bytes = o.level1_bytes;
  eo.level_ratio = o.level_ratio;
  eo.block_bytes = o.block_bytes;
  eo.file_bytes = o.file_bytes;
  eo.use_bloom = o.use_bloom;
  eo.compaction_enabled = o.compaction_enabled;
  eo.sync_writes = o.sync_writes;
  eo.wal_sync_interval_us = o.wal_sync_interval_us;
  eo.io_retry = o.io_retry;
  eo.read_buffer_bytes = o.read_buffer_bytes;
  eo.read_cache_shards = o.read_cache_shards;
  eo.multiget_batching = o.multiget_batching;
  eo.scan_readahead_blocks = o.scan_readahead_blocks;
  switch (o.mode) {
    case Mode::kP1:
      // P1 keeps the whole read path in enclave memory; mmap files cannot
      // live in the EPC (§6.3), so P1 always uses the in-enclave buffer.
      eo.read_path = lsm::ReadPathKind::kBuffer;
      eo.buffer_placement = storage::BufferPlacement::kInsideEnclave;
      eo.protect_blocks = true;
      break;
    case Mode::kP2:
    case Mode::kUnsecured:
      eo.read_path = o.read_path;
      eo.buffer_placement = storage::BufferPlacement::kOutsideEnclave;
      eo.protect_blocks = false;
      // P2 blocks are plaintext in untrusted memory; verified cache
      // admission is what makes a buffer hit trustworthy. The unsecured
      // baseline and an unauthenticated P2 store (the "SGX port without
      // authentication") skip it: they carry no integrity contract.
      eo.verify_blocks = o.mode == Mode::kP2 && o.authenticate_data;
      break;
  }
  return eo;
}

}  // namespace

ElsmDb::ElsmDb(const Options& options, std::shared_ptr<storage::Fs> fs,
               std::shared_ptr<TrustedPlatform> platform)
    : options_(options),
      enclave_(std::make_shared<sgx::Enclave>(options.cost_model,
                                              options.mode != Mode::kUnsecured)),
      fs_(std::move(fs)),
      platform_(std::move(platform)),
      verifier_(enclave_.get(), options.proof_path_cache_entries),
      flush_job_([this] { return AsyncFlushOnce(); }, options.async_flush),
      compaction_job_([this] { return CompactOnce(); },
                      options.background_compaction) {
  if (fs_ == nullptr) {
    fs_ = storage::MakeFs(options_.backend, options_.backend_dir, enclave_);
  }
  fs_->set_enclave(enclave_);
  engine_ = std::make_unique<lsm::LsmEngine>(MakeEngineOptions(options_),
                                             enclave_, fs_);
  manifest_log_ = std::make_unique<manifest::ManifestLog>(
      manifest::ManifestLog::Config{fs_.get(), enclave_.get(),
                                    &platform_->counter, platform_->sealing_key,
                                    options_.name + "/MANIFEST",
                                    options_.name + "/EDITS", "manifest"},
      options_);
  if (options_.mode == Mode::kP2 && options_.authenticate_data) {
    listener_ = std::make_unique<auth::AuthCompactionListener>(
        enclave_.get(), options_.embed_full_paths);
    engine_->SetListener(listener_.get());
  }
  assembler_ = std::make_unique<auth::ProofAssembler>(fs_);
  // The in-enclave WAL digest is maintained by the engine's commit leader:
  // cores arrive here in WAL byte order, per record, only after the whole
  // cohort's frames are durable (sync_writes) and under the engine's
  // exclusive lock — so the digest can never run ahead of the real WAL (a
  // failed append appends nothing here), and concurrent leaders serialize.
  // Persist-time reads are safe without the engine lock: they run under
  // exclusive db_mu_, which quiesces every writer (writers hold db_mu_
  // shared across their whole commit).
  engine_->SetCommitHook([this](std::string_view core) {
    enclave_->ChargeHash(core.size() + 32);
    wal_digest_.Append(core);
  });
}

ElsmDb::~ElsmDb() {
  if (!closed_) (void)Close();
}

Result<std::unique_ptr<ElsmDb>> ElsmDb::Open(
    const Options& options, std::shared_ptr<storage::Fs> fs,
    std::shared_ptr<TrustedPlatform> platform) {
  if (platform == nullptr) {
    return Status::InvalidArgument("TrustedPlatform required");
  }
  if (options.deterministic_key_encryption && options.order_preserving_keys) {
    return Status::InvalidArgument(
        "deterministic and order-preserving key encryption are exclusive");
  }
  if (fs == nullptr && options.backend == storage::BackendKind::kPosix &&
      options.backend_dir.empty()) {
    return Status::InvalidArgument(
        "the posix backend needs Options::backend_dir");
  }
  std::unique_ptr<ElsmDb> db(new ElsmDb(options, std::move(fs), platform));
  Status s = db->Recover();
  if (!s.ok()) {
    // The destructor's Close() must not persist a fresh manifest over the
    // very state recovery just refused to accept — that would both destroy
    // the evidence of tampering and write a log whose chain cannot extend
    // the surviving tail.
    db->closed_ = true;
    return s;
  }
  return db;
}

Result<std::unique_ptr<ElsmDb>> ElsmDb::Create(const Options& options) {
  return Open(options, nullptr, std::make_shared<TrustedPlatform>());
}

Status ElsmDb::Recover() {
  manifest::ManifestLog::Replay replay;
  Status s = manifest_log_->Recover(&replay);
  if (!s.ok()) return s;
  // Snapshot body: store state | engine manifest. Delta body: store state |
  // count | VersionEdits; the newest record's state wins. A fresh store (or
  // a crash before the first persist) keeps the zero state, so its WAL
  // replays with no sealed digest to hold it to.
  manifest::StoreState state;
  if (replay.found) {
    std::string_view cursor(replay.snapshot);
    std::string_view engine_manifest;
    if (!manifest::GetStoreState(&cursor, &state) ||
        !GetLengthPrefixed(&cursor, &engine_manifest)) {
      return Status::Corruption("bad manifest payload");
    }
    std::vector<std::string_view> edits;
    for (std::string_view delta : replay.deltas) {
      uint32_t count = 0;
      bool ok = manifest::GetStoreState(&delta, &state) &&
                GetVarint32(&delta, &count);
      for (uint32_t i = 0; ok && i < count; ++i) {
        ok = GetLengthPrefixed(&delta, &edits.emplace_back());
      }
      if (!ok) return Status::Corruption("bad manifest edit record");
    }
    // RestoreManifest restarts the engine edit sequence at zero, so
    // persisted_edit_seq_ = 0 covers everything replayed here.
    s = engine_->RestoreManifest(engine_manifest);
    if (!s.ok()) return s;
    // The restored stack carries fresh roots: retire the verified path
    // nodes along with the engine's caches (its levels open their own
    // sidecars).
    verifier_.InvalidatePathCache();
    for (std::string_view edit : edits) {
      s = engine_->ApplyEdit(edit);
      if (!s.ok()) return s;
    }
  }
  last_ts_ = state.last_ts;
  flushed_ts_ = state.flushed_ts;
  s = ReplayWal(state);
  if (!s.ok()) return s;
  GcOrphanFiles();
  return Status::Ok();
}

void ElsmDb::GcOrphanFiles() {
  // A crash can strand files the recovered manifest does not reference:
  // outputs of a compaction whose manifest persist never landed, and
  // compacted-away inputs parked for deletion whose purge never ran.
  // Without GC they would accumulate across crash/recover cycles.
  std::set<std::string> keep;
  for (const lsm::LevelMeta& level : engine_->levels()) {
    for (const lsm::FileMeta& file : level.files) keep.insert(file.name);
    if (!level.tree_file.empty()) keep.insert(level.tree_file);
  }
  const std::string wal_name = options_.name + "/wal";
  // Only the current generation's tail file is live; stale EDITS-* files
  // (crash between a snapshot install and its tail truncation, or an
  // unsynced-loss rollback resurrecting one) are orphans like any other.
  for (const std::string& name : fs_->List(options_.name + "/")) {
    if (name == wal_name || manifest_log_->IsLogFile(name) ||
        keep.count(name) > 0) {
      continue;
    }
    (void)fs_->Delete(name);
  }
}

Status ElsmDb::ReplayWal(const manifest::StoreState& sealed) {
  // The sealed digest must cover the WAL's persisted prefix exactly
  // (w1/§5.6.1); anything beyond extends the digest.
  auto wal = engine_->ReadWalRecords();
  if (!wal.ok()) return wal.status();
  const auto& records = wal.value().records;
  if (records.size() < sealed.wal_count) {
    return Status::RollbackDetected("WAL shorter than sealed digest covers");
  }
  wal_digest_.Reset();
  for (size_t i = 0; i < records.size(); ++i) {
    enclave_->ChargeHash(records[i].size() + 32);
    wal_digest_.Append(records[i]);
    if (i + 1 == sealed.wal_count &&
        wal_digest_.digest() != sealed.wal_digest) {
      return Status::AuthFailure("WAL digest mismatch on recovery");
    }
    std::string_view record_cursor(records[i]);
    auto record = lsm::Record::DecodeCore(&record_cursor);
    if (!record.ok()) return record.status();
    last_ts_ = std::max<uint64_t>(last_ts_, record.value().ts);
    if (record.value().ts <= sealed.flushed_ts) {
      // Leftover of a flush that persisted its manifest but crashed before
      // truncating the WAL: the record is already in the level stack, so
      // re-inserting it would duplicate an internal key across runs.
      continue;
    }
    Status s = engine_->ReinsertFromWal(std::move(record).value());
    if (!s.ok()) return s;
  }
  // Tail repair (after the digest checks accepted the well-formed prefix):
  // drop any torn bytes past it so post-recovery appends never land behind
  // garbage — a frame appended there would be unreachable to the next
  // replay and silently lose the acknowledged write. Also primes the
  // engine's committed-offset tracking for its write-path repair.
  return engine_->TruncateWalTail(wal.value().valid_bytes);
}

Status ElsmDb::PersistManifest(const crypto::Hash256& wal_dig,
                               uint64_t wal_count) {
  ++flush_count_;
  const bool bump =
      flush_count_ % std::max<uint32_t>(1, options_.counter_sync_period) == 0;
  const manifest::StoreState state{last_ts_.load(), flushed_ts_, wal_dig,
                                   wal_count};
  uint64_t newest_edit_seq = 0;
  manifest::ManifestLog::Written written;
  common::RetryStats rstats;
  Status s = manifest_log_->Persist(
      bump,
      [&](bool snapshot, std::string* payload) {
        manifest::PutStoreState(payload, state);
        if (snapshot) {
          // The snapshot captures the whole stack and the engine edit
          // sequence it covers atomically; older edits become redundant.
          PutLengthPrefixed(payload,
                            engine_->EncodeManifest(&newest_edit_seq));
          return;
        }
        const std::vector<std::string> edits =
            engine_->EditsSince(persisted_edit_seq_, &newest_edit_seq);
        PutVarint32(payload, static_cast<uint32_t>(edits.size()));
        for (const std::string& edit : edits) PutLengthPrefixed(payload, edit);
      },
      &written, &rstats);
  engine_->NoteRetry(rstats);
  if (!s.ok()) return s;
  engine_->NoteManifestWrite(written.snapshot, written.bytes);
  persisted_edit_seq_ = newest_edit_seq;
  engine_->TrimEditsThrough(newest_edit_seq);
  return Status::Ok();
}

std::string ElsmDb::TransformKey(std::string_view key) const {
  if (options_.order_preserving_keys) {
    enclave_->ChargeCipher(key.size() * 2);
    return crypto::OpeCipher(options_.data_key).Encrypt(key);
  }
  if (!options_.deterministic_key_encryption) return std::string(key);
  enclave_->ChargeCipher(key.size());
  return crypto::DeterministicEncrypt(options_.data_key, key);
}

std::string ElsmDb::TransformValue(std::string_view value, uint64_t ts) const {
  if (!options_.encrypt_values) return std::string(value);
  enclave_->ChargeCipher(value.size());
  return crypto::StreamEncrypt(options_.data_key, ts, value);
}

Status ElsmDb::UntransformRecord(lsm::Record* record) const {
  if (options_.encrypt_values && !record->deleted()) {
    enclave_->ChargeCipher(record->value.size());
    record->value =
        crypto::StreamDecrypt(options_.data_key, record->ts, record->value);
  }
  if (options_.deterministic_key_encryption) {
    enclave_->ChargeCipher(record->key.size());
    auto key = crypto::DeterministicDecrypt(options_.data_key, record->key);
    if (!key.ok()) return key.status();
    record->key = std::move(key).value();
  } else if (options_.order_preserving_keys) {
    enclave_->ChargeCipher(record->key.size());
    auto key = crypto::OpeCipher(options_.data_key).Decrypt(record->key);
    if (!key.ok()) return key.status();
    record->key = std::move(key).value();
  }
  return Status::Ok();
}

bool ElsmDb::FlushDue() const {
  return engine_->memtable_bytes() >= options_.memtable_bytes ||
         engine_->wal_bytes() >= wal_bound();
}

Status ElsmDb::FlushInternal(bool only_if_full) {
  std::lock_guard<std::mutex> flush_lock(flush_mu_);
  // Early-out BEFORE demanding the exclusive db lock. Every writer in the
  // cohort that filled the memtable sees need_flush and lands here; they
  // serialize on flush_mu_ behind the one doing the work, and once it is
  // done they must leave without touching db_mu_ — an exclusive acquire
  // starves under continuous shared-holder (writer) traffic, and a convoy
  // of them collapses write concurrency to whatever two threads slip
  // through. Atomic reads suffice here; RunFlush repeats the check under
  // the exclusive lock before anything irreversible.
  if (only_if_full && !FlushDue()) return Status::Ok();
  return RunFlush(only_if_full ? FlushKind::kIfFull : FlushKind::kSync);
}

Status ElsmDb::RunFlush(FlushKind kind) {
  // Truncating kinds keep writers quiesced from the seal through ResetWal;
  // the async kind lets them proceed into the fresh memtable while the
  // sealed one merges.
  const bool truncate = kind != FlushKind::kAsync;
  // Drain the compaction job before taking db_mu_, so readers only ever
  // wait behind the bounded memtable->L1 merge, never a deep ripple.
  compaction_job_.WaitIdle();
  std::unique_lock<std::shared_mutex> lock(db_mu_);
  if (closed_) return Status::Ok();
  if (kind == FlushKind::kIfFull && !FlushDue()) {
    return Status::Ok();  // flushed between the fast-path check and here
  }
  // Seal: quiescing writers (they hold db_mu_ shared across their whole
  // commit) makes the seal a clean cut — every assigned timestamp has been
  // committed or failed, so seal_ts covers exactly the sealed records and
  // nothing the fresh active memtable will ever hold.
  Status s;
  if (truncate) {
    s = engine_->Flush();  // drains an earlier seal, then seals and merges
  } else if (!engine_->SealMemtable() && !engine_->HasImm()) {
    return Status::Ok();  // nothing to flush
  }
  const uint64_t seal_ts = last_ts_.load(std::memory_order_relaxed);
  if (!truncate) {
    lock.unlock();  // the sealed memtable merges with no facade lock held
    s = engine_->FlushImm();
  }
  if (s.ok() && kind == FlushKind::kCompactAll) {
    s = engine_->CompactAll();
  } else if (s.ok() && !options_.background_compaction) {
    s = engine_->MaybeCompact();
  }
  if (!s.ok()) return NoteWriteResult(std::move(s));
  if (!truncate) {
    lock.lock();
    if (closed_) return Status::Ok();
  }
  // Crash ordering: every record at/below seal_ts is now in the level
  // stack. A truncating flush persists a manifest recording the
  // post-truncation WAL state (empty digest, flushed_ts_ high water)
  // *before* truncating the WAL; a crash in between leaves stale frames
  // behind that ReplayWal skips. The live wal_digest_ resets only once both
  // steps succeeded, so a transient persist/truncate failure leaves digest
  // and WAL still in agreement. The async flush persists the *live* digest
  // instead: concurrent writers appended past the sealed prefix, so the
  // whole WAL stays; recovery skips frames at/below flushed_ts and replays
  // only the newer ones. Its growth is bounded by the forced truncating
  // flush in MaybeScheduleFlush once it exceeds wal_bound().
  if (seal_ts > flushed_ts_) flushed_ts_ = seal_ts;
  if (kind == FlushKind::kCompactAll || options_.persist_manifest_on_flush) {
    s = truncate ? PersistManifest(crypto::kZeroHash, 0) : PersistManifest();
    if (!s.ok()) return NoteWriteResult(std::move(s));
  }
  if (truncate) {
    s = engine_->ResetWal();
    if (!s.ok()) {
      // The unlink may have landed before a later barrier of the reset
      // failed; the live digest must keep matching the on-disk WAL either
      // way, or a later Close() would seal coverage of vanished frames.
      if (!fs_->Exists(options_.name + "/wal")) wal_digest_.Reset();
      return NoteWriteResult(std::move(s));
    }
    wal_digest_.Reset();
  }
  engine_->PurgeObsoleteFiles();
  lock.unlock();
  if (options_.background_compaction && kind != FlushKind::kCompactAll) {
    compaction_job_.Schedule();
  }
  return Status::Ok();
}

Status ElsmDb::MaybeScheduleFlush() {
  if (!options_.async_flush) return FlushInternal(/*only_if_full=*/true);
  flush_job_.Schedule();
  // Back-pressure: fall back to a synchronous flush when the job cannot
  // keep up (the active memtable has blown far past its limit) or when the
  // WAL has outgrown its bound and needs the truncating full flush only
  // the synchronous path performs.
  if (engine_->memtable_bytes() >= 4 * options_.memtable_bytes ||
      engine_->wal_bytes() >= wal_bound()) {
    return FlushInternal(/*only_if_full=*/true);
  }
  return Status::Ok();
}

Status ElsmDb::AsyncFlushOnce() {
  std::lock_guard<std::mutex> flush_lock(flush_mu_);
  return RunFlush(FlushKind::kAsync);
}

Status ElsmDb::WaitForFlush() {
  flush_job_.WaitIdle();
  return flush_job_.TakeStatus();
}

Status ElsmDb::CompactOnce() {
  Status s = engine_->MaybeCompact();
  // Durability catch-up: a background ripple changed the level stack after
  // the flush-time manifest. An inline ripple (the option off) leaves it to
  // the next flush or Close(), and so does a store that skips flush-time
  // persistence (the bench configuration).
  if (!options_.background_compaction || !options_.persist_manifest_on_flush) {
    return s;
  }
  std::unique_lock<std::shared_mutex> lock(db_mu_);
  if (closed_) return s;
  Status persisted = PersistManifest();
  if (persisted.ok()) engine_->PurgeObsoleteFiles();
  persisted = NoteWriteResult(std::move(persisted));
  return s.ok() ? persisted : s;
}

Status ElsmDb::NoteWriteResult(Status s) {
  // ENOSPC-class exhaustion flips the store into read-only degraded mode:
  // the failed op left memtable, WAL, and digest consistent (op-level
  // atomicity), so verified reads keep serving while writes fail fast
  // until TryResume() finds space again.
  if (s.IsCapacityExceeded()) {
    degraded_.store(true, std::memory_order_release);
  }
  return s;
}

Status ElsmDb::TryResume() {
  std::unique_lock<std::shared_mutex> lock(db_mu_);
  if (closed_) return Status::IOError("store is closed");
  if (!degraded_.load(std::memory_order_acquire)) return Status::Ok();
  // Probe the disk the way the write path uses it: create, sync, and
  // delete a scratch file under the store's namespace. A crash mid-probe
  // strands a file GcOrphanFiles removes on the next open.
  const std::string probe = options_.name + "/RESUME.probe";
  Status s = fs_->Write(probe, "resume-probe");
  if (s.ok() && options_.sync_writes) s = fs_->Sync(probe);
  if (fs_->Exists(probe)) (void)fs_->Delete(probe);
  if (!s.ok()) return s;  // still degraded
  degraded_.store(false, std::memory_order_release);
  // Pending memtable records (and their WAL frames) survived degradation
  // untouched; the next flush drains them normally.
  return Status::Ok();
}

void ElsmDb::RecordOpStat(Histogram OpStats::*h, uint64_t latency_ns,
                          uint64_t samples, uint64_t proof_bytes,
                          uint64_t verified_ops) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  for (uint64_t i = 0; i < samples; ++i) (op_stats_.*h).Add(latency_ns);
  op_stats_.proof_bytes += proof_bytes;
  op_stats_.verified_ops += verified_ops;
}

Status ElsmDb::Put(std::string_view key, std::string_view value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(batch);
}

Status ElsmDb::Delete(std::string_view key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(batch);
}

Status ElsmDb::Write(const WriteBatch& batch) {
  const uint64_t start = enclave_->now_ns();
  bool need_flush = false;
  {
    // Shared, not exclusive: concurrent writers serialize on the engine's
    // commit queue (leader/follower group commit), not on the facade lock.
    // Exclusive sections (flush/seal/persist/close) still quiesce every
    // in-flight writer. The WAL digest is maintained by the commit hook
    // (see the constructor) after the cohort is durable, so a failed
    // append never leaves the in-enclave digest ahead of the real WAL.
    std::shared_lock<std::shared_mutex> lock(db_mu_);
    enclave_->ChargeEcall();
    if (degraded()) {
      return Status::CapacityExceeded(
          "store is in read-only degraded mode (call TryResume)");
    }
    // The whole batch rides one commit-queue request, so it lands as a
    // single WAL append (one world switch) and one contiguous digest run.
    std::vector<lsm::Record> records;
    records.reserve(batch.entries.size());
    for (const WriteBatch::Entry& entry : batch.entries) {
      lsm::Record record;
      record.ts = ++last_ts_;
      record.key = TransformKey(entry.key);
      if (entry.is_delete) {
        record.type = lsm::RecordType::kTombstone;
      } else {
        record.value = TransformValue(entry.value, record.ts);
      }
      records.push_back(std::move(record));
    }
    Status s = engine_->PutBatch(std::move(records));
    if (!s.ok()) return NoteWriteResult(std::move(s));
    need_flush = engine_->memtable_bytes() >= options_.memtable_bytes ||
                 (options_.async_flush && engine_->wal_bytes() >= wal_bound());
  }
  Status s = need_flush ? MaybeScheduleFlush() : Status::Ok();
  RecordOpStat(&OpStats::put, enclave_->now_ns() - start);
  return s;
}

std::optional<lsm::Record> ElsmDb::UnverifiedResult(
    const lsm::GetResponse& resp) {
  if (resp.memtable_hit.has_value()) return resp.memtable_hit;
  for (const lsm::LevelGetResult& lr : resp.levels) {
    if (lr.found) return lr.chain.back().record;
  }
  return std::nullopt;
}

Result<ElsmDb::VerifiedRecord> ElsmDb::GetVerified(std::string_view key,
                                                   uint64_t ts_max) {
  return std::move(MultiGetVerified({std::string(key)}, ts_max).front());
}

std::vector<Result<ElsmDb::VerifiedRecord>> ElsmDb::MultiGetVerified(
    const std::vector<std::string>& keys, uint64_t ts_max) {
  std::vector<Result<VerifiedRecord>> out;
  out.reserve(keys.size());
  if (keys.empty()) return out;
  std::shared_lock<std::shared_mutex> lock(db_mu_);
  const uint64_t start = enclave_->now_ns();
  // One ECall covers the whole batch: the boundary crossing is the part a
  // batched API genuinely amortizes.
  enclave_->ChargeEcall();
  std::vector<std::string> lookup_keys;
  lookup_keys.reserve(keys.size());
  for (const std::string& key : keys) {
    lookup_keys.push_back(TransformKey(key));
  }

  auto items = engine_->MultiGet(lookup_keys, ts_max);
  const bool verify = options_.mode == Mode::kP2 &&
                      options_.authenticate_data && options_.verify_reads;
  uint64_t proof_bytes = 0;
  uint64_t verified_ops = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    if (!items[i].status.ok()) {
      out.push_back(items[i].status);
      continue;
    }
    VerifiedRecord rec;
    if (verify) {
      // Every response carries the same snapshot; each key is assembled
      // and verified independently against it — never against the live
      // stack, which may already belong to a newer version mid-compaction.
      const std::vector<lsm::LevelMeta>& levels =
          items[i].response.snapshot->levels();
      auto assembled = assembler_->AssembleGet(items[i].response, levels);
      if (!assembled.ok()) {
        out.push_back(assembled.status());
        continue;
      }
      rec.proof_bytes = assembled.value().proof_bytes;
      auto verified = verifier_.VerifyGet(lookup_keys[i], ts_max,
                                          assembled.value(), levels);
      if (!verified.ok()) {
        out.push_back(verified.status());
        continue;
      }
      rec.record = std::move(verified).value();
      rec.verified = true;
      proof_bytes += rec.proof_bytes;
      ++verified_ops;
    } else {
      rec.record = UnverifiedResult(items[i].response);
    }
    if (rec.record.has_value()) {
      Status s = UntransformRecord(&*rec.record);
      if (!s.ok()) {
        out.push_back(s);
        continue;
      }
    }
    out.push_back(std::move(rec));
  }
  // One histogram sample per key, sharing the batch's wall time evenly —
  // keeps get-latency sample counts comparable with sequential callers.
  const uint64_t elapsed = enclave_->now_ns() - start;
  RecordOpStat(&OpStats::get, elapsed / keys.size(), keys.size(), proof_bytes,
               verified_ops);
  return out;
}

Result<std::vector<std::optional<std::string>>> ElsmDb::MultiGet(
    const std::vector<std::string>& keys) {
  auto verified = MultiGetVerified(keys, kLatest);
  std::vector<std::optional<std::string>> out;
  out.reserve(verified.size());
  for (auto& result : verified) {
    if (!result.ok()) return result.status();  // fail closed in aggregate
    auto& record = result.value().record;
    if (!record.has_value() || record->deleted()) {
      out.emplace_back(std::nullopt);
    } else {
      out.emplace_back(std::move(record->value));
    }
  }
  return out;
}

Result<std::optional<std::string>> ElsmDb::Get(std::string_view key) {
  auto values = MultiGet({std::string(key)});
  if (!values.ok()) return values.status();
  return std::move(values.value().front());
}

Result<std::vector<lsm::Record>> ElsmDb::Scan(std::string_view k1,
                                              std::string_view k2) {
  if (options_.deterministic_key_encryption) {
    return Status::NotSupported(
        "range queries over DE keys require order-preserving encryption");
  }
  std::shared_lock<std::shared_mutex> lock(db_mu_);
  const uint64_t start = enclave_->now_ns();
  enclave_->ChargeEcall();
  std::string lo(k1);
  std::string hi(k2);
  if (options_.order_preserving_keys) {
    lo = TransformKey(k1);
    hi = TransformKey(k2);
  }
  auto resp = engine_->Scan(lo, hi);
  if (!resp.ok()) return resp.status();

  std::vector<lsm::Record> records;
  uint64_t proof_bytes = 0;
  uint64_t verified_ops = 0;
  if (options_.mode == Mode::kP2 && options_.authenticate_data &&
      options_.verify_reads) {
    const std::vector<lsm::LevelMeta>& levels =
        resp.value().snapshot->levels();
    auto assembled = assembler_->AssembleScan(resp.value(), levels);
    if (!assembled.ok()) return assembled.status();
    auto verified = verifier_.VerifyScan(lo, hi, assembled.value(), levels);
    if (!verified.ok()) return verified.status();
    records = std::move(verified).value();
    proof_bytes = assembled.value().proof_bytes;
    verified_ops = 1;
  } else {
    std::map<std::string, lsm::Record> merged;
    for (const lsm::Record& r : resp.value().memtable_records) {
      merged.emplace(r.key, r);
    }
    for (const lsm::LevelScanResult& lr : resp.value().levels) {
      for (const lsm::RawEntry& e : lr.heads) merged.emplace(e.record.key, e.record);
    }
    for (auto& [k, r] : merged) {
      if (!r.deleted()) records.push_back(std::move(r));
    }
  }

  for (lsm::Record& r : records) {
    Status s = UntransformRecord(&r);
    if (!s.ok()) return s;
  }
  RecordOpStat(&OpStats::scan, enclave_->now_ns() - start, 1, proof_bytes,
               verified_ops);
  return records;
}

Status ElsmDb::Flush() { return FlushInternal(/*only_if_full=*/false); }

Status ElsmDb::CompactAll() {
  std::lock_guard<std::mutex> flush_lock(flush_mu_);
  return RunFlush(FlushKind::kCompactAll);
}

void ElsmDb::ScheduleCompaction() { compaction_job_.Schedule(); }

Status ElsmDb::WaitForCompaction() {
  compaction_job_.WaitIdle();
  return compaction_job_.TakeStatus();
}

Status ElsmDb::Close() {
  {
    std::unique_lock<std::shared_mutex> lock(db_mu_);
    if (closed_) return Status::Ok();
  }
  // Stop the flush job first: a flush requested before Close still runs
  // (it takes flush_mu_, so it must be done before we hold that lock
  // across the final persist) and lands before the final manifest.
  flush_job_.Stop();
  // Serialize with in-flight flushes, then stop the compaction job before
  // the final manifest: a requested ripple still runs, and none (a racing
  // flusher's schedule included) can run after the manifest is written,
  // which would orphan its files on disk.
  std::lock_guard<std::mutex> flush_lock(flush_mu_);
  compaction_job_.Stop();
  std::unique_lock<std::shared_mutex> lock(db_mu_);
  if (closed_) return Status::Ok();
  closed_ = true;
  // Persist the manifest *without* flushing the memtable: pending records
  // stay in the WAL and replay on reopen (that is the recovery test path).
  Status s = PersistManifest();
  if (s.ok()) engine_->PurgeObsoleteFiles();
  return s;
}

}  // namespace elsm
