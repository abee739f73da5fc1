#include "elsm/sharded_db.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/coding.h"
#include "elsm/manifest_log.h"
#include "lsm/merge_iter.h"

namespace elsm {
namespace {

constexpr uint32_t kMaxShards = 4096;

// One row of the super-manifest table: a shard's log digest and its
// last_ts floor. Readers check the body size up front, so rows never run
// short.
void PutShardEntry(std::string* dst, const crypto::Hash256& digest,
                   uint64_t floor) {
  dst->append(reinterpret_cast<const char*>(digest.data()), 32);
  PutFixed64(dst, floor);
}

bool GetShardEntry(std::string_view* input, crypto::Hash256* digest,
                   uint64_t* floor) {
  if (input->size() < 32) return false;
  std::memcpy(digest->data(), input->data(), 32);
  input->remove_prefix(32);
  return GetFixed64(input, floor);
}

}  // namespace

uint32_t ShardForKey(std::string_view key, uint32_t num_shards) {
  // FNV-1a 64: stable across platforms/processes, so keys keep landing on
  // the same shard for the lifetime of the store (the sealed shard count
  // pins the modulus).
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return static_cast<uint32_t>(h % num_shards);
}

std::string ShardedDb::ShardName(const std::string& base_name,
                                 uint32_t shard) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "/shard-%03u", shard);
  return base_name + buf;
}

ShardedDb::ShardedDb(const Options& base, uint32_t num_shards,
                     std::shared_ptr<ShardEnv> env)
    : options_(base),
      num_shards_(num_shards),
      env_(std::move(env)),
      meta_enclave_(std::make_shared<sgx::Enclave>(
          base.cost_model, base.mode != Mode::kUnsecured)),
      recorded_digests_(num_shards, crypto::kZeroHash),
      recorded_last_ts_(num_shards, 0) {
  if (options_.fanout_pool != nullptr) {
    pool_ = options_.fanout_pool;
  } else if (options_.fanout_threads > 0) {
    pool_ = std::make_shared<common::ThreadPool>(options_.fanout_threads);
  }
  if (env_->meta_platform == nullptr) {
    env_->meta_platform = std::make_shared<TrustedPlatform>();
  }
  if (env_->meta_fs == nullptr) {
    env_->meta_fs =
        storage::MakeFs(options_.backend, options_.backend_dir, meta_enclave_);
  } else {
    env_->meta_fs->set_enclave(meta_enclave_);
  }
  env_->shard_fs.resize(num_shards_);
  env_->shard_platforms.resize(num_shards_);
  for (uint32_t i = 0; i < num_shards_; ++i) {
    if (env_->shard_platforms[i] == nullptr) {
      auto platform = std::make_shared<TrustedPlatform>();
      // Derived per-shard sealing keys: a shard's manifest cannot be
      // unsealed under another shard's key, so swapping shard directories
      // surfaces as AuthFailure instead of silently re-homing data.
      platform->sealing_key =
          env_->meta_platform->sealing_key + ShardName("", i);
      env_->shard_platforms[i] = std::move(platform);
    }
    if (env_->shard_fs[i] == nullptr) {
      // Posix shards share one --dir root; their names are disjoint by the
      // per-shard directory prefix. Separate instances keep each shard's
      // I/O charged on its own enclave once ElsmDb re-homes them.
      env_->shard_fs[i] =
          storage::MakeFs(options_.backend, options_.backend_dir, meta_enclave_);
    }
  }
  super_log_ = std::make_unique<manifest::ManifestLog>(
      manifest::ManifestLog::Config{
          env_->meta_fs.get(), meta_enclave_.get(),
          &env_->meta_platform->counter, env_->meta_platform->sealing_key,
          options_.name + "/SUPER", options_.name + "/SUPER-EDITS",
          "super-manifest"},
      options_);
}

ShardedDb::~ShardedDb() {
  if (!closed_) (void)Close();
}

Result<std::unique_ptr<ShardedDb>> ShardedDb::Open(
    const Options& base, uint32_t num_shards, std::shared_ptr<ShardEnv> env) {
  if (num_shards == 0 || num_shards > kMaxShards) {
    return Status::InvalidArgument("num_shards must be in [1, " +
                                   std::to_string(kMaxShards) + "]");
  }
  if (base.backend == storage::BackendKind::kPosix &&
      base.backend_dir.empty() &&
      (env == nullptr || env->meta_fs == nullptr)) {
    return Status::InvalidArgument(
        "the posix backend needs Options::backend_dir");
  }
  if (env == nullptr) env = std::make_shared<ShardEnv>();
  if (!env->shard_fs.empty() && env->shard_fs.size() != num_shards) {
    return Status::InvalidArgument(
        "ShardEnv holds " + std::to_string(env->shard_fs.size()) +
        " shard filesystems but " + std::to_string(num_shards) +
        " shards were requested");
  }
  std::unique_ptr<ShardedDb> db(new ShardedDb(base, num_shards, env));
  Status s = db->OpenShards();
  if (!s.ok()) {
    // A failed open must not let the destructor's Close() refresh the
    // super-manifest over the very state verification just rejected.
    db->closed_ = true;
    return s;
  }
  return db;
}

Result<std::unique_ptr<ShardedDb>> ShardedDb::Create(const Options& base,
                                                     uint32_t num_shards) {
  return Open(base, num_shards, nullptr);
}

Status ShardedDb::OpenShards() {
  bool found = false;
  std::vector<crypto::Hash256> digests(num_shards_, crypto::kZeroHash);
  std::vector<uint64_t> floors(num_shards_, 0);
  Status s = VerifySuperManifest(&found, &digests, &floors);
  if (!s.ok()) return s;
  if (!found) {
    // No super-manifest (and, checked by the log, no meta counter bump):
    // acceptable only for a genuinely fresh store. Any shard with sealed
    // state means the host deleted the cross-shard binding.
    for (uint32_t i = 0; i < num_shards_; ++i) {
      if (env_->shard_fs[i]->Exists(shard_manifest_name(i)) ||
          env_->shard_platforms[i]->counter.Read() > 0) {
        return Status::RollbackDetected(
            "super-manifest vanished but shard " + std::to_string(i) +
            " has sealed state");
      }
    }
  }
  // A crash between a SUPER snapshot install and the old tail's deletion
  // strands a tail file that recovery already ignored by name.
  super_log_->DropStaleTails();
  shards_.reserve(num_shards_);
  health_.clear();
  for (uint32_t i = 0; i < num_shards_; ++i) {
    health_.push_back(std::make_unique<ShardHealthState>());
  }
  for (uint32_t i = 0; i < num_shards_; ++i) {
    Options shard_options = options_;
    shard_options.name = ShardName(options_.name, i);
    auto db =
        ElsmDb::Open(shard_options, env_->shard_fs[i], env_->shard_platforms[i]);
    if (!db.ok()) return db.status();
    shards_.push_back(std::move(db).value());
  }
  // Record the post-recovery shard digests (also seals the shard count the
  // first time through). Opening a shard writes no byte of its log, so the
  // states verification read are the ones to record.
  return PersistSuperManifest(std::move(digests), std::move(floors));
}

Status ShardedDb::ShardManifestState(uint32_t shard, crypto::Hash256* digest,
                                     uint64_t* last_ts) const {
  *digest = crypto::kZeroHash;
  *last_ts = 0;
  // Chain/sequence validation is the shard's own recovery job; here every
  // record just has to carry the shard's seal and its position's kind.
  const std::string shard_name = ShardName(options_.name, shard);
  manifest::LogImage image;
  Status s = manifest::ReadLogImage(
      *env_->shard_fs[shard], env_->shard_platforms[shard]->sealing_key,
      shard_name + "/MANIFEST", shard_name + "/EDITS",
      "shard " + std::to_string(shard) + " manifest", &image);
  if (!s.ok() || image.snapshot == nullptr) return s;
  for (std::string_view body : image.bodies) {
    manifest::StoreState state;
    if (!manifest::GetStoreState(&body, &state)) {
      return Status::Corruption("bad shard manifest payload");
    }
    *last_ts = std::max(*last_ts, state.last_ts);
  }
  crypto::Sha256 hasher;
  hasher.Update(*image.snapshot);
  uint64_t hashed_bytes = image.snapshot->size();
  if (image.tail != nullptr) {
    hasher.Update(*image.tail);
    hashed_bytes += image.tail->size();
  }
  meta_enclave_->ChargeHash(hashed_bytes);
  *digest = hasher.Finalize();
  return Status::Ok();
}

Status ShardedDb::VerifySuperManifest(bool* found,
                                      std::vector<crypto::Hash256>* digests,
                                      std::vector<uint64_t>* last_ts) {
  manifest::ManifestLog::Replay replay;
  Status s = super_log_->Recover(&replay);
  *found = replay.found;
  if (!s.ok() || !replay.found) return s;

  // Snapshot body: shard count | table. Delta body: count | (shard, entry)*
  // for the shards that changed.
  std::string_view cursor(replay.snapshot);
  uint64_t shard_count = 0;
  if (!GetFixed64(&cursor, &shard_count)) {
    return Status::Corruption("bad super-manifest payload");
  }
  if (shard_count != num_shards_) {
    return Status::InvalidArgument(
        "sharded store was sealed with " + std::to_string(shard_count) +
        " shards but opened with " + std::to_string(num_shards_) +
        " — the shard count (and thus key routing) is fixed at creation");
  }
  if (cursor.size() != size_t(shard_count) * 40) {
    return Status::Corruption("bad super-manifest digest block");
  }
  std::vector<crypto::Hash256> table(num_shards_, crypto::kZeroHash);
  std::vector<uint64_t> floors(num_shards_, 0);
  for (uint32_t i = 0; i < num_shards_; ++i) {
    GetShardEntry(&cursor, &table[i], &floors[i]);
  }
  for (std::string_view delta : replay.deltas) {
    uint32_t changed = 0;
    if (!GetVarint32(&delta, &changed) || delta.size() != size_t(changed) * 44) {
      return Status::Corruption("bad super-manifest edit record");
    }
    for (uint32_t i = 0; i < changed; ++i) {
      uint32_t shard = 0;
      GetFixed32(&delta, &shard);
      if (shard >= num_shards_) {
        return Status::Corruption(
            "super-manifest edit record names shard " +
            std::to_string(shard) + " of " + std::to_string(num_shards_));
      }
      GetShardEntry(&delta, &table[shard], &floors[shard]);
    }
  }

  for (uint32_t i = 0; i < num_shards_; ++i) {
    if (table[i] == crypto::kZeroHash) continue;  // shard fresh at record time
    if (!env_->shard_fs[i]->Exists(shard_manifest_name(i))) {
      return Status::AuthFailure(
          "shard " + std::to_string(i) +
          " had sealed state but its manifest vanished from the untrusted "
          "disk");
    }
    crypto::Hash256& current = (*digests)[i];
    uint64_t& current_last_ts = (*last_ts)[i];
    s = ShardManifestState(i, &current, &current_last_ts);
    if (!s.ok()) return s;
    if (current == table[i]) continue;  // exact content the super sealed
    // Content differs: legal only when the shard moved *forward* (its
    // manifest records persist between super refreshes). last_ts is
    // monotone across a shard's manifest persists, so an
    // older-but-validly-sealed manifest (single-shard rollback inside a
    // counter-sync window) lands below the recorded floor.
    if (current_last_ts < floors[i]) {
      return Status::AuthFailure(
          "shard " + std::to_string(i) + " manifest (last_ts " +
          std::to_string(current_last_ts) +
          ") rolled back behind the super-manifest floor (" +
          std::to_string(floors[i]) + ")");
    }
  }
  recorded_digests_ = std::move(table);
  recorded_last_ts_ = std::move(floors);
  return Status::Ok();
}

Status ShardedDb::PersistSuperManifest(std::vector<crypto::Hash256> digests,
                                       std::vector<uint64_t> floors) {
  // Snapshot every shard's current manifest-log state; the diff against
  // the table the durable log already encodes decides what (if anything)
  // the next record must carry.
  digests.resize(num_shards_, crypto::kZeroHash);
  floors.resize(num_shards_, 0);
  std::vector<uint32_t> changed;
  for (uint32_t i = 0; i < num_shards_; ++i) {
    if (digests[i] == crypto::kZeroHash) {
      Status s = ShardManifestState(i, &digests[i], &floors[i]);
      if (!s.ok()) return s;
    }
    if (digests[i] != recorded_digests_[i] ||
        floors[i] != recorded_last_ts_[i]) {
      changed.push_back(i);
    }
  }
  if (changed.empty() && super_log_->clean()) {
    // The durable log already pins exactly this state; a record would only
    // burn a counter bump.
    return Status::Ok();
  }
  Status s = super_log_->Persist(
      /*bump=*/true,
      [&](bool snapshot, std::string* payload) {
        if (snapshot) {
          PutFixed64(payload, num_shards_);
          for (uint32_t i = 0; i < num_shards_; ++i) {
            PutShardEntry(payload, digests[i], floors[i]);
          }
          return;
        }
        PutVarint32(payload, static_cast<uint32_t>(changed.size()));
        for (uint32_t i : changed) {
          PutFixed32(payload, i);
          PutShardEntry(payload, digests[i], floors[i]);
        }
      });
  if (!s.ok()) return s;
  recorded_digests_ = std::move(digests);
  recorded_last_ts_ = std::move(floors);
  return Status::Ok();
}

Status ShardedDb::Put(std::string_view key, std::string_view value) {
  return shards_[ShardOf(key)]->Put(key, value);
}

Status ShardedDb::Delete(std::string_view key) {
  return shards_[ShardOf(key)]->Delete(key);
}

Result<std::optional<std::string>> ShardedDb::Get(std::string_view key) {
  return shards_[ShardOf(key)]->Get(key);
}

Result<ElsmDb::VerifiedRecord> ShardedDb::GetVerified(std::string_view key,
                                                      uint64_t ts_max) {
  return shards_[ShardOf(key)]->GetVerified(key, ts_max);
}

Status ShardedDb::FanOut(const std::vector<uint32_t>& targets,
                         const std::function<Status(size_t, uint32_t)>& fn) {
  if (targets.empty()) return Status::Ok();
  std::vector<Status> statuses(targets.size());
  if (pool_ != nullptr && pool_->size() > 0 && targets.size() > 1) {
    fanout_stats_.parallel_dispatches.fetch_add(1, std::memory_order_relaxed);
    pool_->ParallelFor(targets.size(),
                       [&](size_t i) { statuses[i] = fn(i, targets[i]); });
  } else {
    for (size_t i = 0; i < targets.size(); ++i) {
      statuses[i] = fn(i, targets[i]);
    }
  }
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status ShardedDb::Write(const ElsmDb::WriteBatch& batch) {
  fanout_stats_.batch_writes.fetch_add(1, std::memory_order_relaxed);
  std::vector<ElsmDb::WriteBatch> parts(num_shards_);
  for (const ElsmDb::WriteBatch::Entry& entry : batch.entries) {
    parts[ShardOf(entry.key)].entries.push_back(entry);
  }
  std::vector<uint32_t> targets;
  targets.reserve(num_shards_);
  for (uint32_t i = 0; i < num_shards_; ++i) {
    if (!parts[i].entries.empty()) targets.push_back(i);
  }
  // Each sub-batch is one shard group commit (own WAL append + memtable
  // pass + any auto-flush it triggers); shards share no locks, so the
  // sub-batches proceed fully independently on the pool. Per-shard commit
  // queues compose with the fan-out: every shard runs its own
  // leader/follower cohort over its own WAL, so concurrent ShardedDb
  // writers amortize fsyncs within each shard while different shards sync
  // in parallel (Options::wal_sync_interval_us applies per shard).
  return FanOut(targets, [&](size_t, uint32_t shard) {
    return shards_[shard]->Write(parts[shard]);
  });
}

Result<std::vector<std::optional<std::string>>> ShardedDb::MultiGet(
    const std::vector<std::string>& keys) {
  fanout_stats_.multigets.fetch_add(1, std::memory_order_relaxed);
  // Group key *positions* by owning shard so duplicates each keep their own
  // slot and the output preserves input order by construction.
  std::vector<std::vector<size_t>> groups(num_shards_);
  for (size_t i = 0; i < keys.size(); ++i) {
    groups[ShardOf(keys[i])].push_back(i);
  }
  std::vector<uint32_t> targets;
  targets.reserve(num_shards_);
  for (uint32_t i = 0; i < num_shards_; ++i) {
    if (!groups[i].empty()) targets.push_back(i);
  }
  std::vector<std::optional<std::string>> out(keys.size());
  // Tasks write disjoint slots of `out` (each position belongs to exactly
  // one shard group), so no synchronization beyond the fork-join is needed.
  // Each shard answers its whole key group with ONE batched MultiGet: one
  // snapshot, one ECall, and cache-missing blocks coalesced into
  // Fs::MultiRead batches — instead of a sequential Get per key.
  Status s = FanOut(targets, [&](size_t, uint32_t shard) {
    std::vector<std::string> sub;
    sub.reserve(groups[shard].size());
    for (size_t idx : groups[shard]) sub.push_back(keys[idx]);
    auto got = shards_[shard]->MultiGet(sub);
    if (!got.ok()) return got.status();
    for (size_t k = 0; k < groups[shard].size(); ++k) {
      out[groups[shard][k]] = std::move(got.value()[k]);
    }
    return Status::Ok();
  });
  if (!s.ok()) return s;
  return out;
}

Result<std::vector<lsm::Record>> ShardedDb::Scan(std::string_view k1,
                                                 std::string_view k2) {
  fanout_stats_.scans.fetch_add(1, std::memory_order_relaxed);
  if (options_.deterministic_key_encryption) {
    // Match ElsmDb::Scan: a misconfigured store must surface the error for
    // every range — including ones the short-circuits below would answer
    // without ever consulting a shard.
    return Status::NotSupported(
        "range queries over DE keys require order-preserving encryption");
  }
  // Short-circuit shards that provably cannot intersect the inclusive
  // range [k1, k2] under hash routing: an empty range touches no shard,
  // a single-key range only the key's owner. (Any wider range can hash
  // anywhere, so no other pruning is sound.)
  if (k1 > k2) {
    fanout_stats_.scan_shards_skipped.fetch_add(num_shards_,
                                                std::memory_order_relaxed);
    return std::vector<lsm::Record>();
  }
  std::vector<uint32_t> targets;
  if (k1 == k2) {
    targets.push_back(ShardOf(k1));
    fanout_stats_.scan_shards_skipped.fetch_add(num_shards_ - 1,
                                                std::memory_order_relaxed);
  } else {
    targets.reserve(num_shards_);
    for (uint32_t i = 0; i < num_shards_; ++i) targets.push_back(i);
  }
  fanout_stats_.scan_shard_invocations.fetch_add(targets.size(),
                                                 std::memory_order_relaxed);

  // Fan out: each shard's Scan is completeness-verified against that
  // shard's own trusted digests (inside ElsmDb). The hash partition makes
  // shard key sets disjoint, so merging the verified per-shard results
  // yields a complete, duplicate-free global range.
  std::vector<std::vector<lsm::Record>> results(targets.size());
  Status s = FanOut(targets, [&](size_t slot, uint32_t shard) {
    auto records = shards_[shard]->Scan(k1, k2);
    if (!records.ok()) return records.status();
    results[slot] = std::move(records).value();
    return Status::Ok();
  });
  if (!s.ok()) return s;

  std::vector<std::unique_ptr<lsm::RunIterator>> runs;
  runs.reserve(results.size());
  for (std::vector<lsm::Record>& records : results) {
    std::vector<lsm::RawEntry> run;
    run.reserve(records.size());
    for (lsm::Record& r : records) {
      run.push_back({std::move(r), {}, {}});
    }
    runs.push_back(std::make_unique<lsm::VectorRunIterator>(std::move(run)));
  }

  lsm::MergeIterator merge(std::move(runs), nullptr, nullptr);
  s = merge.Init();
  if (!s.ok()) return s;
  std::vector<lsm::Record> out;
  while (merge.Valid()) {
    meta_enclave_->Copy(merge.record().ByteSize(), /*cross_boundary=*/false);
    out.push_back(merge.TakeAndAdvance());
  }
  if (!merge.status().ok()) return merge.status();
  return out;
}

Status ShardedDb::AllShards(const std::function<Status(ElsmDb&)>& fn) {
  std::vector<uint32_t> targets(num_shards_);
  for (uint32_t i = 0; i < num_shards_; ++i) targets[i] = i;
  return FanOut(targets,
                [&](size_t, uint32_t shard) { return fn(*shards_[shard]); });
}

bool ShardedDb::ShardSick(uint32_t shard) const {
  return shards_[shard]->degraded() ||
         health_[shard]->quarantined.load(std::memory_order_acquire);
}

void ShardedDb::NoteShardResult(uint32_t shard, const Status& s) {
  ShardHealthState& h = *health_[shard];
  if (s.ok()) {
    h.consecutive_failures.store(0, std::memory_order_relaxed);
    h.quarantined.store(false, std::memory_order_release);
    return;
  }
  h.total_failures.fetch_add(1, std::memory_order_relaxed);
  const uint64_t consecutive =
      h.consecutive_failures.fetch_add(1, std::memory_order_relaxed) + 1;
  if (consecutive >= kQuarantineAfter) {
    h.quarantined.store(true, std::memory_order_release);
  }
}

Status ShardedDb::MaintenanceFanOut(const std::function<Status(ElsmDb&)>& fn) {
  // Sick shards are skipped, not failed: their error is already known (and
  // point writes to them fail fast inside the shard), while the healthy
  // shards must keep flushing/compacting. TryResume re-admits them.
  std::vector<uint32_t> targets;
  targets.reserve(num_shards_);
  uint32_t skipped = 0;
  for (uint32_t i = 0; i < num_shards_; ++i) {
    if (ShardSick(i)) {
      ++skipped;
      continue;
    }
    targets.push_back(i);
  }
  if (skipped > 0) {
    fanout_stats_.maintenance_shards_skipped.fetch_add(
        skipped, std::memory_order_relaxed);
  }
  return FanOut(targets, [&](size_t, uint32_t shard) {
    Status s = fn(*shards_[shard]);
    NoteShardResult(shard, s);
    return s;
  });
}

ShardedDb::ShardHealthInfo ShardedDb::shard_health(uint32_t shard) const {
  ShardHealthInfo info;
  const ShardHealthState& h = *health_[shard];
  info.consecutive_failures =
      h.consecutive_failures.load(std::memory_order_relaxed);
  info.total_failures = h.total_failures.load(std::memory_order_relaxed);
  if (h.quarantined.load(std::memory_order_acquire)) {
    info.state = ShardHealth::kQuarantined;
  } else if (shards_[shard]->degraded()) {
    info.state = ShardHealth::kDegraded;
  }
  return info;
}

uint32_t ShardedDb::sick_shards() const {
  uint32_t n = 0;
  for (uint32_t i = 0; i < num_shards_; ++i) {
    if (ShardSick(i)) ++n;
  }
  return n;
}

Status ShardedDb::TryResume() {
  std::lock_guard<std::mutex> lock(super_mu_);
  std::vector<uint32_t> targets;
  for (uint32_t i = 0; i < num_shards_; ++i) {
    if (ShardSick(i)) targets.push_back(i);
  }
  // A quarantined-but-not-degraded shard (repeated transient exhaustion)
  // answers its TryResume with Ok, which clears the quarantine through
  // NoteShardResult; a degraded shard must pass its disk probe first.
  return FanOut(targets, [&](size_t, uint32_t shard) {
    Status s = shards_[shard]->TryResume();
    NoteShardResult(shard, s);
    return s;
  });
}

Status ShardedDb::Flush() {
  // Maintenance fans out like the query paths: shards flush concurrently
  // on the pool (each under its own locks), with the same deterministic
  // error selection — the lowest failing shard's status wins, every shard
  // still runs. The super-manifest refresh stays serialized on super_mu_
  // and only happens once every shard's manifest is durable.
  std::lock_guard<std::mutex> lock(super_mu_);
  Status s = MaintenanceFanOut([](ElsmDb& shard) { return shard.Flush(); });
  if (!s.ok()) return s;
  return PersistSuperManifest();
}

Status ShardedDb::CompactAll() {
  std::lock_guard<std::mutex> lock(super_mu_);
  Status s =
      MaintenanceFanOut([](ElsmDb& shard) { return shard.CompactAll(); });
  if (!s.ok()) return s;
  return PersistSuperManifest();
}

void ShardedDb::ScheduleCompaction() {
  for (auto& shard : shards_) shard->ScheduleCompaction();
}

Status ShardedDb::WaitForCompaction() {
  Status first = Status::Ok();
  for (auto& shard : shards_) {
    Status s = shard->WaitForCompaction();
    if (first.ok() && !s.ok()) first = s;
  }
  return first;
}

Status ShardedDb::Close() {
  std::lock_guard<std::mutex> lock(super_mu_);
  if (closed_) return Status::Ok();
  closed_ = true;
  Status first = Status::Ok();
  for (auto& shard : shards_) {
    Status s = shard->Close();
    if (first.ok() && !s.ok()) first = s;
  }
  if (!first.ok()) return first;
  return PersistSuperManifest();
}

uint64_t ShardedDb::now_ns() const {
  uint64_t total = meta_enclave_->now_ns();
  for (const auto& shard : shards_) total += shard->enclave().now_ns();
  return total;
}

}  // namespace elsm
