#include "lsm/engine.h"

#include <algorithm>

#include "common/coding.h"
#include "crypto/sha256.h"
#include "storage/mmap.h"

namespace elsm::lsm {
namespace {

// Append-order locality probe for memtable charging.
uint64_t KeyProbe(std::string_view key) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (char c : key) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// The two locate steps every level search shares. FindFile: the first file
// whose largest key is >= `key` (files.size() when none). FindBlock: the
// last block of `file` whose first key is <= `key` (0 when none).
size_t FindFile(const std::vector<FileMeta>& files, std::string_view key) {
  return std::partition_point(
             files.begin(), files.end(),
             [key](const FileMeta& f) { return f.largest < key; }) -
         files.begin();
}

size_t FindBlock(const FileMeta& file, std::string_view key) {
  const size_t after = std::partition_point(
                           file.blocks.begin(), file.blocks.end(),
                           [key](const BlockHandle& b) {
                             return b.first_key <= key;
                           }) -
                       file.blocks.begin();
  return after == 0 ? 0 : after - 1;
}

}  // namespace

LsmEngine::LsmEngine(LsmOptions options, std::shared_ptr<sgx::Enclave> enclave,
                     std::shared_ptr<storage::Fs> fs)
    : options_(std::move(options)),
      enclave_(std::move(enclave)),
      fs_(std::move(fs)),
      memtable_(std::make_unique<SkipList>()),
      tracker_(std::make_shared<FileTracker>(fs_)),
      version_(std::make_shared<Version>(std::vector<LevelMeta>{}, tracker_)),
      wal_(fs_.get(), options_.name + "/wal") {
  memtable_region_ = enclave_->RegisterRegion(options_.memtable_bytes);
  metadata_region_ = enclave_->RegisterRegion(64 * 1024);
  if (options_.read_path == ReadPathKind::kBuffer) {
    read_buffer_ = std::make_unique<storage::ReadBuffer>(
        enclave_, options_.read_buffer_bytes, options_.buffer_placement,
        options_.read_cache_shards);
  }
}

LsmEngine::~LsmEngine() {
  enclave_->FreeRegion(memtable_region_);
  enclave_->FreeRegion(metadata_region_);
}

uint64_t LsmEngine::LevelCapacity(size_t pos) const {
  uint64_t cap = options_.level1_bytes;
  for (size_t i = 0; i < pos; ++i) cap *= options_.level_ratio;
  return cap;
}

std::string LsmEngine::NewFileName(const char* suffix) {
  char buf[32];
  const uint64_t no = next_file_no_.fetch_add(1, std::memory_order_relaxed);
  std::snprintf(buf, sizeof(buf), "/%06llu%s",
                static_cast<unsigned long long>(no), suffix);
  return options_.name + buf;
}

void LsmEngine::ChargeMetadataAccess(size_t level_pos) const {
  enclave_->AccessRegion(metadata_region_, (level_pos * 4096) % (256 * 1024),
                         64);
}

void LsmEngine::RefreshMetadataFootprint(const std::vector<LevelMeta>& levels) {
  uint64_t bytes = 4096;
  for (const LevelMeta& level : levels) bytes += level.MetadataBytes();
  enclave_->ResizeRegion(metadata_region_, bytes);
}

std::shared_ptr<const Version> LsmEngine::SnapshotVersion() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return version_;
}

std::shared_ptr<const Version> LsmEngine::current_version() const {
  return SnapshotVersion();
}

Status LsmEngine::SyncWal() {
  Status s = wal_.Sync();
  if (!s.ok()) return s;
  // fsync of a freshly created file does not make its directory entry
  // durable (fs.h contract) — a crash could drop the whole WAL and with
  // it every acknowledged write since the last flush. Pay one SyncDir on
  // the first commit of each WAL generation.
  if (!wal_dir_synced_.load(std::memory_order_relaxed)) {
    s = fs_->SyncDir();
    if (!s.ok()) return s;
    wal_dir_synced_.store(true, std::memory_order_relaxed);
  }
  return Status::Ok();
}

Status LsmEngine::RetryIo(const std::function<Status()>& op) {
  common::RetryStats rs;
  Status s = common::RunWithRetry(
      options_.io_retry, op,
      [this](uint64_t ns) { enclave_->Advance(ns); }, &rs);
  NoteRetry(rs);
  return s;
}

void LsmEngine::NoteRetry(const common::RetryStats& stats) {
  if (stats.attempts != 0) {
    stats_.retry_attempts.fetch_add(stats.attempts,
                                    std::memory_order_relaxed);
  }
  if (stats.absorbed != 0) {
    stats_.retries_absorbed.fetch_add(stats.absorbed,
                                      std::memory_order_relaxed);
  }
  if (stats.exhausted != 0) {
    stats_.retries_exhausted.fetch_add(stats.exhausted,
                                       std::memory_order_relaxed);
  }
}

Status LsmEngine::RepairWalTailLocked() {
  if (!wal_dirty_) return Status::Ok();
  const std::string& name = wal_.name();
  if (fs_->Exists(name)) {
    auto size = fs_->FileSize(name);
    if (!size.ok()) return size.status();
    if (size.value() > wal_committed_bytes_) {
      Status s = fs_->Truncate(name, wal_committed_bytes_);
      if (!s.ok()) return s;
      stats_.wal_tail_repairs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  wal_dirty_ = false;
  return Status::Ok();
}

Status LsmEngine::TruncateWalTail(uint64_t committed_bytes) {
  const std::string& name = wal_.name();
  if (fs_->Exists(name)) {
    auto size = fs_->FileSize(name);
    if (!size.ok()) return size.status();
    if (size.value() > committed_bytes) {
      Status s = RetryIo(
          [&] { return fs_->Truncate(name, committed_bytes); });
      if (!s.ok()) return s;
      stats_.wal_tail_repairs.fetch_add(1, std::memory_order_relaxed);
      if (options_.sync_writes) {
        s = RetryIo([&] { return fs_->Sync(name); });
        if (!s.ok()) return s;
      }
    }
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  wal_committed_bytes_ = committed_bytes;
  wal_dirty_ = false;
  return Status::Ok();
}

Status LsmEngine::Put(Record record) {
  std::vector<Record> one;
  one.push_back(std::move(record));
  return CommitGroup(&one);
}

Status LsmEngine::PutBatch(std::vector<Record> records) {
  if (records.empty()) return Status::Ok();
  return CommitGroup(&records);
}

namespace {
// Cohort size cap: a lingering leader stops absorbing stragglers here so a
// single fsync never covers an unbounded queue (bounds both latency for the
// earliest waiter and the repair truncation span on failure).
constexpr size_t kMaxCommitCohort = 128;
}  // namespace

Status LsmEngine::CommitGroup(std::vector<Record>* records) {
  CommitRequest req;
  req.records = records;
  req.cores.reserve(records->size());
  for (const Record& record : *records) {
    req.cores.push_back(record.EncodeCore());
    req.framed_bytes += req.cores.back().size() + storage::kWalFrameOverhead;
  }

  std::unique_lock<std::mutex> queue_lock(commit_mu_);
  commit_queue_.push_back(&req);
  commit_join_cv_.notify_one();  // a lingering leader absorbs this arrival
  while (!req.done && commit_queue_.front() != &req) {
    req.cv.wait(queue_lock);
  }
  if (req.done) return req.status;  // a leader carried this request

  // This writer leads the cohort. With a linger window, wait for stragglers
  // before the barrier: each joiner rides the same fsync for free.
  if (options_.wal_sync_interval_us > 0 && options_.sync_writes) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(options_.wal_sync_interval_us);
    while (commit_queue_.size() < kMaxCommitCohort &&
           commit_join_cv_.wait_until(queue_lock, deadline) !=
               std::cv_status::timeout) {
    }
  }
  const size_t cohort_size = std::min(commit_queue_.size(), kMaxCommitCohort);
  std::vector<CommitRequest*> cohort(commit_queue_.begin(),
                                     commit_queue_.begin() + cohort_size);
  // The cohort stays in the queue while its I/O runs: arrivals line up
  // behind it (front != them, so they wait) and form the next cohort.
  queue_lock.unlock();

  const Status s = CommitCohort(cohort);

  queue_lock.lock();
  for (size_t i = 0; i < cohort_size; ++i) {
    CommitRequest* follower = commit_queue_.front();
    commit_queue_.pop_front();
    if (follower != &req) {
      follower->status = s;
      follower->done = true;
      follower->cv.notify_one();
    }
  }
  if (!commit_queue_.empty()) commit_queue_.front()->cv.notify_one();
  return s;
}

Status LsmEngine::CommitCohort(const std::vector<CommitRequest*>& cohort) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string_view> payloads;
  uint64_t framed_bytes = 0;
  for (const CommitRequest* member : cohort) {
    for (const std::string& core : member->cores) payloads.push_back(core);
    framed_bytes += member->framed_bytes;
  }
  // w3: append the whole cohort to the WAL outside the enclave as one frame
  // group (the world switch and the fsync are group-committed across
  // writers), then make it durable before acknowledging anyone (Fs::Sync
  // contract). A transient fault anywhere in the sequence marks the tail
  // dirty — the unacknowledged frames may sit there torn or unsynced — and
  // the retry truncates back to the committed boundary before appending
  // again, so the WAL never accretes garbage mid-stream. A clean error
  // after exhaustion leaves every cohort record out of both WAL and
  // memtable: the cohort failed atomically and a later attempt starts from
  // the repaired tail.
  Status s = RetryIo([&]() -> Status {
    Status rs = RepairWalTailLocked();
    if (!rs.ok()) return rs;
    rs = wal_.AppendBatch(payloads);
    if (!rs.ok()) {
      wal_dirty_ = true;
      return rs;
    }
    if (options_.sync_writes) {
      rs = SyncWal();  // ONE fsync acknowledges the whole cohort
      if (!rs.ok()) {
        wal_dirty_ = true;
        return rs;
      }
    }
    wal_committed_bytes_ += framed_bytes;
    return Status::Ok();
  });
  if (!s.ok()) {
    for (const CommitRequest* member : cohort) {
      for (const Record& record : *member->records) {
        if (record.type == RecordType::kTombstone) {
          ++stats_.failed_deletes;
        } else {
          ++stats_.failed_puts;
        }
      }
    }
    return s;
  }
  ++stats_.group_commits;
  stats_.group_commit_records += payloads.size();
  // w1: insert into the L0 write buffer inside the enclave, in WAL order.
  // The commit hook fires here too — after durability, before any ack —
  // so the facade's digest chain follows the WAL byte order exactly.
  for (CommitRequest* member : cohort) {
    size_t core_idx = 0;
    for (Record& record : *member->records) {
      if (commit_hook_) commit_hook_(member->cores[core_idx]);
      ++core_idx;
      const uint64_t size = record.ByteSize() + kMemtableEntryOverhead;
      enclave_->AccessRegion(
          memtable_region_,
          memtable_used_.load(std::memory_order_relaxed) %
              options_.memtable_bytes,
          size);
      memtable_used_.fetch_add(size, std::memory_order_relaxed);
      if (record.type == RecordType::kTombstone) {
        ++stats_.deletes;
      } else {
        ++stats_.puts;
      }
      memtable_->Insert(std::move(record));
    }
  }
  return Status::Ok();
}

Result<GetResponse> LsmEngine::Get(std::string_view key, uint64_t ts_max) {
  std::vector<MultiGetItem> items = MultiGet({std::string(key)}, ts_max);
  if (!items[0].status.ok()) return items[0].status;
  return std::move(items[0].response);
}

Status LsmEngine::CheckBlock(const FileMeta& file, const BlockHandle& block,
                             std::string_view bytes, bool admission) const {
  if (options_.protect_blocks) {
    enclave_->ChargeCipher(bytes.size());
  } else if (options_.verify_blocks && admission) {
    enclave_->ChargeHash(bytes.size());
  } else {
    return Status::Ok();
  }
  if (crypto::Sha256::Digest(bytes) != block.digest) {
    return Status::AuthFailure("block digest mismatch: " + file.name);
  }
  return Status::Ok();
}

std::vector<Result<std::shared_ptr<const std::string>>>
LsmEngine::FetchBlocks(std::span<const BlockRef> blocks, bool batched) const {
  std::vector<storage::ReadBuffer::BlockRequest> requests;
  requests.reserve(blocks.size());
  for (const auto& [file, block] : blocks) {
    requests.push_back({file->name, block->offset});
  }
  auto load = [this, blocks, batched](const std::vector<size_t>& indices,
                                      std::vector<Result<std::string>>& out) {
    std::vector<storage::ReadRequest> io;
    io.reserve(indices.size());
    for (size_t i : indices) {
      io.push_back(storage::ReadRequest{blocks[i].first->name,
                                        blocks[i].second->offset,
                                        blocks[i].second->size});
    }
    std::vector<Result<std::string>> got;
    if (batched) {
      got = fs_->MultiRead(io);
    } else {
      for (const storage::ReadRequest& r : io) {
        got.push_back(fs_->Read(r.name, r.offset, r.len));
      }
    }
    for (size_t k = 0; k < indices.size(); ++k) {
      const auto& [file, block] = blocks[indices[k]];
      if (got[k].ok()) {
        Status s = CheckBlock(*file, *block, got[k].value(), true);
        if (!s.ok()) got[k] = s;
      }
      out[indices[k]] = std::move(got[k]);
    }
  };
  return read_buffer_->GetBatch(requests, load);
}

Result<std::shared_ptr<const std::string>> LsmEngine::ReadBlock(
    const FileMeta& file, const BlockHandle& block,
    const PrefetchedBlocks* prefetched) const {
  if (prefetched != nullptr) {
    auto it = prefetched->find(storage::BlockKey(file.name, block.offset));
    if (it != prefetched->end()) {
      // The batch already paid this block's canonical charges (hit, or
      // ocall + load + check + install) and a stored failure must replay
      // as-is — a fresh load here would diverge from the batched I/O the
      // fault model already observed.
      stats_.readahead_hits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  if (options_.read_path == ReadPathKind::kMmap) {
    // Mapped once per file: the region hangs on the FileMeta that every
    // snapshot carrying the file shares.
    auto region = file.mmap->GetOrMake<storage::MmapRegion>(
        [&] { return storage::MmapRegion::Open(*fs_, file.name); });
    if (!region.ok()) return region.status();
    auto view = region.value()->Read(block.offset, block.size);
    if (!view.ok()) return view.status();
    auto bytes = std::make_shared<const std::string>(view.value());
    Status s = CheckBlock(file, block, *bytes, /*admission=*/false);
    if (!s.ok()) return s;
    return bytes;
  }
  // Buffer path: the buffer holds checked blocks, so a hit neither re-reads
  // nor re-checks, and the check's cost is paid once per miss.
  const BlockRef one{&file, &block};
  return std::move(FetchBlocks({&one, 1}, /*batched=*/false)[0]);
}

Result<LsmEngine::ParsedBlock> LsmEngine::ReadParsedBlock(
    const FileMeta& file, const BlockHandle& block,
    const PrefetchedBlocks* prefetched) const {
  auto bytes = ReadBlock(file, block, prefetched);
  if (!bytes.ok()) return bytes.status();
  ParsedBlock out;
  out.backing = std::move(bytes).value();
  Status s = ParseBlockInto(*out.backing, block.num_entries, &out.entries);
  if (!s.ok()) return s;
  return out;
}

Result<RawEntry> LsmEngine::FirstHead(const FileMeta& file,
                                      const PrefetchedBlocks* prefetched)
    const {
  auto parsed = ReadParsedBlock(file, file.blocks.front(), prefetched);
  if (!parsed.ok()) return parsed.status();
  if (parsed.value().entries.empty()) return Status::Corruption("empty block");
  return MaterializeEntry(parsed.value().entries.front());
}

Result<RawEntry> LsmEngine::LastHead(const FileMeta& file,
                                     const PrefetchedBlocks* prefetched)
    const {
  auto parsed = ReadParsedBlock(file, file.blocks.back(), prefetched);
  if (!parsed.ok()) return parsed.status();
  const auto& v = parsed.value().entries;
  if (v.empty()) return Status::Corruption("empty block");
  // Walk back from the last entry to its group head (groups never straddle
  // blocks, so the head is in this block).
  size_t i = v.size() - 1;
  while (i > 0 && v[i - 1].record.key == v[i].record.key) --i;
  return MaterializeEntry(v[i]);
}

size_t LsmEngine::ReadBlockBatch(const std::vector<BlockRef>& blocks,
                                 PrefetchedBlocks* out) const {
  if (read_buffer_ == nullptr || blocks.empty()) return 0;
  // Dedup within the batch and against earlier windows: each distinct block
  // is read, checked, and admitted at most once per operation.
  std::vector<BlockRef> todo;
  std::vector<std::string> todo_keys;
  for (const auto& [file, block] : blocks) {
    std::string key = storage::BlockKey(file->name, block->offset);
    if (out->count(key) > 0) continue;
    out->emplace(key, Result<std::shared_ptr<const std::string>>(
                          Status::IOError("prefetch pending")));
    todo.emplace_back(file, block);
    todo_keys.push_back(std::move(key));
  }
  if (todo.empty()) return 0;
  auto results = FetchBlocks(todo, /*batched=*/true);
  for (size_t k = 0; k < todo.size(); ++k) {
    out->at(todo_keys[k]) = std::move(results[k]);
  }
  return todo.size();
}

void LsmEngine::PlanLookupBlocks(const LevelMeta& level, std::string_view key,
                                 std::vector<BlockRef>* out) const {
  // Same locate steps as LookupInLevel: the first block the lookup
  // touches is the key's candidate block, or the boundary-witness blocks
  // (LastHead/FirstHead of the bracketing files) when the key misses every
  // file range. Follow-up singleton reads (succ in the next block) stay on
  // the sequential path — they are rare and data-dependent.
  const auto& files = level.files;
  if (files.empty()) return;
  const size_t fi = FindFile(files, key);
  if (fi == files.size()) {
    if (!files.back().blocks.empty()) {
      out->emplace_back(&files.back(), &files.back().blocks.back());
    }
    return;
  }
  if (key < files[fi].smallest) {
    if (!files[fi].blocks.empty()) {
      out->emplace_back(&files[fi], &files[fi].blocks.front());
    }
    if (fi > 0 && !files[fi - 1].blocks.empty()) {
      out->emplace_back(&files[fi - 1], &files[fi - 1].blocks.back());
    }
    return;
  }
  const FileMeta& file = files[fi];
  if (file.blocks.empty()) return;
  out->emplace_back(&file, &file.blocks[FindBlock(file, key)]);
}

std::vector<LsmEngine::MultiGetItem> LsmEngine::MultiGet(
    const std::vector<std::string>& keys, uint64_t ts_max) {
  std::vector<MultiGetItem> out(keys.size());
  if (keys.empty()) return out;
  stats_.gets.fetch_add(keys.size(), std::memory_order_relaxed);
  std::vector<bool> done(keys.size(), false);
  std::shared_ptr<const Version> snapshot;
  {
    // L0: the in-enclave memtables are trusted; a hit stops the key's
    // search. The active memtable is probed first, then the sealed (imm)
    // one — every imm record is strictly older than every active record
    // (the seal is a quiesced watermark), so an active hit is always the
    // newest visible version. One shared-lock pass probes them for every
    // key and grabs a single version snapshot; the level walk below runs
    // lock-free against it, so all keys see the same level stack.
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (size_t i = 0; i < keys.size(); ++i) {
      enclave_->AccessRegion(memtable_region_,
                             KeyProbe(keys[i]) % options_.memtable_bytes, 128);
      if (const Record* r = memtable_->Find(keys[i], ts_max)) {
        out[i].response.memtable_hit = *r;
        done[i] = true;
        continue;
      }
      if (imm_ != nullptr) {
        enclave_->AccessRegion(
            memtable_region_, KeyProbe(keys[i]) % options_.memtable_bytes,
            128);
        if (const Record* r = imm_->Find(keys[i], ts_max)) {
          out[i].response.memtable_hit = *r;
          done[i] = true;
        }
      }
    }
    snapshot = version_;
  }
  for (MultiGetItem& item : out) item.response.snapshot = snapshot;

  const bool batching = options_.multiget_batching &&
                        options_.read_path == ReadPathKind::kBuffer &&
                        read_buffer_ != nullptr;
  const std::vector<LevelMeta>& levels = snapshot->levels();
  for (size_t li = 0; li < levels.size() ; ++li) {
    std::vector<size_t> active;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (!done[i]) active.push_back(i);
    }
    if (active.empty()) break;
    // Pass 1: per-key metadata charge + trusted bloom skip (the filter
    // lives in the enclave); collects the keys that must consult the level.
    std::vector<size_t> consult;
    for (size_t i : active) {
      ChargeMetadataAccess(li);
      if (levels[li].files.empty() ||
          (options_.use_bloom && !levels[li].bloom.MayContain(keys[i]))) {
        LevelGetResult lr;
        lr.level_pos = li;
        lr.bloom_negative = true;
        out[i].response.levels.push_back(std::move(lr));
        continue;
      }
      consult.push_back(i);
    }
    // With two or more consulting keys, one MultiRead covers every
    // cache-missing candidate block of this level; per-key lookups then
    // consume the results. A lone key reads through ReadBlock directly.
    PrefetchedBlocks prefetched;
    if (batching && consult.size() >= 2) {
      std::vector<BlockRef> plan;
      for (size_t i : consult) PlanLookupBlocks(levels[li], keys[i], &plan);
      const size_t fetched = ReadBlockBatch(plan, &prefetched);
      if (fetched > 0) {
        stats_.multiget_batches.fetch_add(1, std::memory_order_relaxed);
        stats_.multiget_batched_blocks.fetch_add(fetched,
                                                 std::memory_order_relaxed);
      }
    }
    for (size_t i : consult) {
      LevelGetResult lr;
      lr.level_pos = li;
      Status s = LookupInLevel(levels[li], keys[i], ts_max, &lr,
                               prefetched.empty() ? nullptr : &prefetched);
      if (!s.ok()) {
        // Per-key isolation: a failed block fails only the keys that need
        // it; the other keys' lookups keep their own results.
        out[i].status = s;
        done[i] = true;
        continue;
      }
      const bool stop = lr.found;
      out[i].response.levels.push_back(std::move(lr));
      // Early stop, per key (§5.3): deeper levels are provably older.
      if (stop) done[i] = true;
    }
  }
  return out;
}

Status LsmEngine::LookupInLevel(const LevelMeta& level, std::string_view key,
                                uint64_t ts_max, LevelGetResult* out,
                                const PrefetchedBlocks* prefetched) const {
  const auto& files = level.files;
  const size_t fi = FindFile(files, key);  // first file that may hold `key`
  if (fi == files.size()) {  // key beyond the whole level
    auto pred = LastHead(files.back(), prefetched);
    if (!pred.ok()) return pred.status();
    out->pred = std::move(pred).value();
    return Status::Ok();
  }
  if (key < files[fi].smallest) {  // key falls in a gap before file fi
    auto succ = FirstHead(files[fi], prefetched);
    if (!succ.ok()) return succ.status();
    out->succ = std::move(succ).value();
    if (fi > 0) {
      auto pred = LastHead(files[fi - 1], prefetched);
      if (!pred.ok()) return pred.status();
      out->pred = std::move(pred).value();
    }
    return Status::Ok();
  }

  const FileMeta& file = files[fi];
  const size_t bi = FindBlock(file, key);
  auto parsed = ReadParsedBlock(file, file.blocks[bi], prefetched);
  if (!parsed.ok()) return parsed.status();
  const std::vector<BlockEntry>& entries = parsed.value().entries;

  // Find the key's group.
  size_t g = 0;
  while (g < entries.size() && entries[g].record.key < key) ++g;
  if (g < entries.size() && entries[g].record.key == key) {
    // Collect the chain prefix: records newer than ts_max, then the result.
    size_t i = g;
    while (i < entries.size() && entries[i].record.key == key &&
           entries[i].record.ts > ts_max) {
      out->chain.push_back(MaterializeEntry(entries[i]));
      ++i;
    }
    if (i < entries.size() && entries[i].record.key == key) {
      out->chain.push_back(MaterializeEntry(entries[i]));
      out->found = true;  // visible version located
    }
    return Status::Ok();
  }

  // Non-membership: bracket the key.
  if (g > 0) {
    // Group head of the last key below `key` (head is in this block).
    size_t j = g - 1;
    while (j > 0 && entries[j - 1].record.key == entries[j].record.key) --j;
    out->pred = MaterializeEntry(entries[j]);
  } else {
    // key < every entry although first_key <= key cannot happen; guard
    // against corrupted metadata by bracketing with the previous file.
    if (fi > 0) {
      auto pred = LastHead(files[fi - 1], prefetched);
      if (!pred.ok()) return pred.status();
      out->pred = std::move(pred).value();
    }
  }
  if (g < entries.size()) {
    out->succ = MaterializeEntry(entries[g]);  // first entry above `key`
  } else if (bi + 1 < file.blocks.size()) {
    auto next = ReadParsedBlock(file, file.blocks[bi + 1], prefetched);
    if (!next.ok()) return next.status();
    if (next.value().entries.empty()) return Status::Corruption("empty block");
    out->succ = MaterializeEntry(next.value().entries.front());
  } else if (fi + 1 < files.size()) {
    auto succ = FirstHead(files[fi + 1], prefetched);
    if (!succ.ok()) return succ.status();
    out->succ = std::move(succ).value();
  }
  return Status::Ok();
}

Result<ScanResponse> LsmEngine::Scan(std::string_view k1,
                                     std::string_view k2) {
  stats_.scans.fetch_add(1, std::memory_order_relaxed);
  ScanResponse resp;
  {
    // L0: trusted scan of the memtables (newest visible version per key) —
    // active first, then the sealed one for keys the active table does not
    // hold (active versions are strictly newer per key, see Get); the
    // level walk below is lock-free against the snapshot.
    std::shared_lock<std::shared_mutex> lock(mu_);
    enclave_->AccessRegion(memtable_region_, 0, options_.memtable_bytes / 4);
    std::string last_key;
    bool have_last = false;
    for (auto it = memtable_->NewIterator(); it.Valid(); it.Next()) {
      const Record& r = it.record();
      if (r.key < k1 || (have_last && r.key == last_key)) continue;
      if (r.key > k2) break;
      resp.memtable_records.push_back(r);
      last_key = r.key;
      have_last = true;
    }
    if (imm_ != nullptr) {
      std::vector<Record> merged;
      merged.reserve(resp.memtable_records.size());
      auto active_it = resp.memtable_records.begin();
      last_key.clear();
      have_last = false;
      for (auto it = imm_->NewIterator(); it.Valid(); it.Next()) {
        const Record& r = it.record();
        if (r.key < k1 || (have_last && r.key == last_key)) continue;
        if (r.key > k2) break;
        while (active_it != resp.memtable_records.end() &&
               active_it->key < r.key) {
          merged.push_back(std::move(*active_it++));
        }
        if (active_it != resp.memtable_records.end() &&
            active_it->key == r.key) {
          merged.push_back(std::move(*active_it++));  // active wins the key
        } else {
          merged.push_back(r);
        }
        last_key = r.key;
        have_last = true;
      }
      while (active_it != resp.memtable_records.end()) {
        merged.push_back(std::move(*active_it++));
      }
      resp.memtable_records = std::move(merged);
    }
    resp.snapshot = version_;
  }

  const std::vector<LevelMeta>& levels = resp.snapshot->levels();
  for (size_t i = 0; i < levels.size(); ++i) {
    ChargeMetadataAccess(i);
    LevelScanResult lr;
    lr.level_pos = i;
    if (!levels[i].files.empty()) {
      Status s = ScanInLevel(levels[i], k1, k2, &lr);
      if (!s.ok()) return s;
    }
    resp.levels.push_back(std::move(lr));
  }
  return resp;
}

Status LsmEngine::ScanInLevel(const LevelMeta& level, std::string_view k1,
                              std::string_view k2,
                              LevelScanResult* out) const {
  const auto& files = level.files;
  const size_t fi = FindFile(files, k1);
  if (fi == files.size()) {  // whole level below the range
    auto pred = LastHead(files.back());
    if (!pred.ok()) return pred.status();
    out->pred = std::move(pred).value();
    return Status::Ok();
  }
  size_t bi = 0;
  if (k1 >= files[fi].smallest) {
    bi = FindBlock(files[fi], k1);
    if (files[fi].blocks[bi].first_key == k1) {
      // The start block holds nothing below k1; the left-boundary witness
      // lives in the previous block/file.
      if (bi > 0) {
        --bi;
      } else if (fi > 0) {
        auto pred = LastHead(files[fi - 1]);
        if (!pred.ok()) return pred.status();
        out->pred = std::move(pred).value();
      }
    }
  } else if (fi > 0) {
    auto pred = LastHead(files[fi - 1]);
    if (!pred.ok()) return pred.status();
    out->pred = std::move(pred).value();
  }

  // Walk blocks forward collecting group heads until we pass k2. With
  // readahead on, each block the walk is about to touch triggers one
  // MultiRead over the next scan_readahead_blocks blocks of the run — but
  // only blocks with first_key <= k2, which the walk provably visits (a
  // stop block's successors all start above k2), so the batch performs
  // exactly the reads the sequential walk would and charges are identical.
  const bool readahead = read_buffer_ != nullptr &&
                         options_.read_path == ReadPathKind::kBuffer &&
                         options_.scan_readahead_blocks > 0;
  PrefetchedBlocks prefetched;
  std::string prev_key;
  bool have_prev = false;
  for (size_t f = fi; f < files.size(); ++f) {
    for (size_t b = (f == fi ? bi : 0); b < files[f].blocks.size(); ++b) {
      const BlockHandle& block = files[f].blocks[b];
      if (readahead && prefetched.count(storage::BlockKey(
                           files[f].name, block.offset)) == 0) {
        std::vector<BlockRef> window;
        window.emplace_back(&files[f], &block);
        size_t wf = f, wb = b + 1;
        while (window.size() < options_.scan_readahead_blocks &&
               wf < files.size()) {
          if (wb >= files[wf].blocks.size()) {
            ++wf;
            wb = 0;
            continue;
          }
          const BlockHandle& h = files[wf].blocks[wb];
          if (h.first_key > k2) break;
          window.emplace_back(&files[wf], &h);
          ++wb;
        }
        stats_.readahead_blocks.fetch_add(ReadBlockBatch(window, &prefetched),
                                          std::memory_order_relaxed);
      }
      auto parsed = ReadParsedBlock(files[f], block,
                                    readahead ? &prefetched : nullptr);
      if (!parsed.ok()) return parsed.status();
      for (const BlockEntry& e : parsed.value().entries) {
        const bool is_head = !have_prev || e.record.key != prev_key;
        prev_key = e.record.key;
        have_prev = true;
        if (!is_head) continue;
        if (e.record.key < k1) {
          out->pred = MaterializeEntry(e);
        } else if (e.record.key <= k2) {
          out->heads.push_back(MaterializeEntry(e));
        } else {
          out->succ = MaterializeEntry(e);
          return Status::Ok();
        }
      }
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Compaction.
// ---------------------------------------------------------------------------

Status LsmEngine::Flush() {
  std::lock_guard<std::mutex> cl(compaction_mu_);
  // Drain an earlier seal first: its records are older than the active
  // ones, and flushing it as its own run keeps the newest-first level
  // order intact.
  Status s = FlushImmInternal();
  if (!s.ok()) return s;
  if (!SealMemtable()) return Status::Ok();  // nothing to flush
  return FlushImmInternal();
}

bool LsmEngine::SealMemtable() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (imm_ != nullptr || memtable_->empty()) return false;
  imm_ = std::move(memtable_);
  imm_used_ = memtable_used_.exchange(0, std::memory_order_relaxed);
  memtable_ = std::make_unique<SkipList>();
  return true;
}

Status LsmEngine::FlushImm() {
  std::lock_guard<std::mutex> cl(compaction_mu_);
  return FlushImmInternal();
}

bool LsmEngine::HasImm() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return imm_ != nullptr;
}

Status LsmEngine::FlushImmInternal() {
  std::vector<RawEntry> run;
  {
    // Writers keep committing into the fresh active memtable throughout;
    // the sealed one is immutable, so the shared lock only fences the
    // pointer read against a concurrent RestoreManifest.
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (imm_ == nullptr) return Status::Ok();
    run.reserve(imm_->size());
    for (auto it = imm_->NewIterator(); it.Valid(); it.Next()) {
      RawEntry e;
      e.record = it.record();
      e.core = e.record.EncodeCore();
      run.push_back(std::move(e));
    }
  }
  stats_.flushes.fetch_add(1, std::memory_order_relaxed);
  // w2: stream the sorted buffer out of the enclave.
  enclave_->AccessRegion(memtable_region_, 0, imm_used_);

  MergeSource source;
  source.depth = -1;
  source.run = std::move(run);
  std::vector<MergeSource> sources;
  sources.push_back(std::move(source));
  const bool as_new_level = !options_.compaction_enabled;
  return CompactStep(std::move(sources), /*target_pos=*/0, as_new_level,
                     MemtableReset::kImm);
}

Status LsmEngine::MaybeCompact() {
  if (!options_.compaction_enabled) return Status::Ok();
  std::lock_guard<std::mutex> cl(compaction_mu_);
  return MaybeCompactInternal();
}

Status LsmEngine::CompactAll() {
  std::lock_guard<std::mutex> cl(compaction_mu_);
  return CompactAllInternal();
}

Status LsmEngine::MaybeCompactInternal() {
  for (size_t i = 0;; ++i) {
    auto base = SnapshotVersion();
    if (i >= base->levels().size()) break;
    if (base->levels()[i].bytes <= LevelCapacity(i)) continue;
    std::vector<MergeSource> sources(1);
    sources[0].depth = static_cast<int>(i);
    Status s = CompactStep(std::move(sources), i + 1, /*insert_as_new=*/false,
                           MemtableReset::kNone);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status LsmEngine::CompactAllInternal() {
  while (true) {
    auto base = SnapshotVersion();
    const auto& levels = base->levels();
    // Find the shallowest non-empty level with something below it.
    size_t first = levels.size();
    for (size_t i = 0; i < levels.size(); ++i) {
      if (!levels[i].files.empty()) {
        first = i;
        break;
      }
    }
    if (first >= levels.size()) return Status::Ok();
    bool deeper = false;
    for (size_t j = first + 1; j < levels.size(); ++j) {
      if (!levels[j].files.empty()) {
        deeper = true;
        break;
      }
    }
    if (!deeper) return Status::Ok();
    // Merge into the next non-empty level.
    size_t target = first + 1;
    while (target < levels.size() && levels[target].files.empty()) ++target;
    std::vector<MergeSource> sources(1);
    sources[0].depth = static_cast<int>(first);
    Status s = CompactStep(std::move(sources), target, /*insert_as_new=*/false,
                           MemtableReset::kNone);
    if (!s.ok()) return s;
  }
}

std::unique_ptr<RunIterator> LsmEngine::MakeSourceIterator(
    const Version& base, MergeSource source) const {
  if (source.depth < 0) {
    return std::make_unique<VectorRunIterator>(std::move(source.run));
  }
  auto opener = [this](const FileMeta& file)
      -> Result<std::shared_ptr<const std::string>> {
    // m1: OCall + map the input file; the enclave then streams its blocks
    // straight from untrusted memory — no whole-level copy.
    enclave_->ChargeOcall();
    enclave_->ChargeMmapSetup();
    auto blob = fs_->Blob(file.name);
    if (blob == nullptr) {
      return Status::IOError("no such file: " + file.name);
    }
    return blob;
  };
  auto check = [this](const FileMeta& file, const BlockHandle& block,
                      std::string_view bytes) -> Status {
    enclave_->UntrustedRead(bytes.size());
    return CheckBlock(file, block, bytes, /*admission=*/false);
  };
  return std::make_unique<LevelRunIterator>(
      &base.levels()[static_cast<size_t>(source.depth)], std::move(opener),
      std::move(check));
}

void LsmEngine::UpdatePeakResident(uint64_t resident_bytes) {
  uint64_t cur =
      stats_.compaction_peak_resident_bytes.load(std::memory_order_relaxed);
  while (resident_bytes > cur &&
         !stats_.compaction_peak_resident_bytes.compare_exchange_weak(
             cur, resident_bytes, std::memory_order_relaxed)) {
  }
}

Status LsmEngine::StreamCompaction(const Version& base,
                                   std::vector<MergeSource> sources,
                                   std::vector<int> depths, bool to_bottom,
                                   LevelBuild* build, CompactionSeal* seal) {
  CompactionListener* listener = listener_;
  if (listener != nullptr) {
    Status s = listener->OnCompactionBegin(sources.size());
    if (!s.ok()) return s;
    for (size_t i = 0; i < sources.size(); ++i) {
      const LevelMeta* meta =
          depths[i] >= 0 ? &base.levels()[static_cast<size_t>(depths[i])]
                         : nullptr;
      s = listener->OnInputRunBegin(i, depths[i], meta);
      if (!s.ok()) return s;
    }
  }

  MergeIterator::EntryTap tap;
  MergeIterator::RunEnd run_end;
  if (listener != nullptr) {
    tap = [listener](size_t idx, const Record& record, std::string_view core) {
      return listener->OnInputEntry(idx, record, core);
    };
    run_end = [listener](size_t idx) { return listener->OnInputRunEnd(idx); };
  }

  std::vector<std::unique_ptr<RunIterator>> runs;
  runs.reserve(sources.size());
  for (MergeSource& source : sources) {
    runs.push_back(MakeSourceIterator(base, std::move(source)));
  }
  MergeIterator merge(std::move(runs), std::move(tap), std::move(run_end));
  Status s = merge.Init();
  if (!s.ok()) return s;

  // m2: merge groupwise — the resident state is the parsed blocks at the
  // head of each run plus one key group, never a whole level. Only a
  // listener that defers its proofs makes the output wait for the seal.
  const bool defer = listener != nullptr && listener->defers_proofs();
  std::vector<Record> held;
  uint64_t held_bytes = 0;
  std::vector<Record> group;
  std::vector<std::string> blobs;
  while (merge.Valid()) {
    group.clear();
    const std::string group_key = merge.record().key;
    uint64_t group_bytes = 0;
    while (merge.Valid() && merge.record().key == group_key) {
      Record r = merge.TakeAndAdvance();
      group_bytes += r.ByteSize();
      group.push_back(std::move(r));
    }
    if (!merge.status().ok()) return merge.status();
    UpdatePeakResident(merge.resident_bytes() + held_bytes + group_bytes);

    // Drop policy (§5.4): every version is kept (eLSM chains serve
    // time-travel GETs), but at the bottom a tombstone-led group vanishes.
    if (to_bottom && group.front().deleted()) continue;

    enclave_->Copy(group.size() * 128, /*cross_boundary=*/false);
    blobs.clear();
    if (listener != nullptr) {
      s = listener->OnOutputGroup(group, &blobs);
      if (!s.ok()) return s;
      if (!blobs.empty() && blobs.size() != group.size()) {
        return Status::InvalidArgument("group proof count mismatch");
      }
    }
    if (defer) {
      for (Record& r : group) {
        held_bytes += r.ByteSize();
        held.push_back(std::move(r));
      }
      continue;
    }
    for (size_t j = 0; j < group.size(); ++j) {
      s = AppendOutput(build, group[j],
                       blobs.empty() ? std::string_view() : blobs[j]);
      if (!s.ok()) return s;
    }
  }
  if (!merge.status().ok()) return merge.status();

  if (listener != nullptr) {
    auto sealed = listener->OnOutputEnd();
    if (!sealed.ok()) return sealed.status();
    *seal = std::move(sealed).value();
  }
  if (defer) {
    if (seal->proof_blobs.size() != held.size()) {
      return Status::InvalidArgument("seal proof count mismatch");
    }
    for (size_t i = 0; i < held.size(); ++i) {
      s = AppendOutput(build, held[i], seal->proof_blobs[i]);
      if (!s.ok()) return s;
    }
  }
  return Status::Ok();
}

Status LsmEngine::CompactStep(std::vector<MergeSource> sources,
                              size_t target_pos, bool insert_as_new,
                              MemtableReset reset) {
  stats_.compactions.fetch_add(1, std::memory_order_relaxed);
  auto base = SnapshotVersion();
  const std::vector<LevelMeta>& levels = base->levels();
  const bool target_exists = !insert_as_new && target_pos < levels.size();

  std::vector<int> upper_depths;
  std::vector<int> depths;
  uint64_t input_entries = 0;
  for (const MergeSource& source : sources) {
    depths.push_back(source.depth);
    if (source.depth >= 0) {
      upper_depths.push_back(source.depth);
      input_entries += levels[static_cast<size_t>(source.depth)].num_records;
    } else {
      input_entries += source.run.size();
    }
  }
  if (target_exists) {
    MergeSource target;
    target.depth = static_cast<int>(target_pos);
    depths.push_back(target.depth);
    input_entries += levels[target_pos].num_records;
    sources.push_back(std::move(target));
  }
  stats_.compaction_bytes_in.fetch_add(input_entries,
                                       std::memory_order_relaxed);

  // Drop policy applies when the output is (or becomes) the deepest data.
  const bool to_bottom =
      insert_as_new ? levels.empty()
                    : (target_pos + 1 >= levels.size() ||
                       [&] {
                         for (size_t j = target_pos + 1; j < levels.size();
                              ++j) {
                           if (!levels[j].files.empty()) return false;
                         }
                         return true;
                       }());

  LevelBuild build(options_.block_bytes,
                   options_.protect_blocks || options_.verify_blocks);
  build.level.bloom =
      BloomFilter(/*bits_per_key=*/10,
                  std::max<uint64_t>(input_entries, 16));  // upper bound
  CompactionSeal seal;
  Status s = StreamCompaction(*base, std::move(sources), depths, to_bottom,
                              &build, &seal);
  if (s.ok()) s = FinalizeLevel(&build, seal);
  if (!s.ok()) {
    AbortLevel(&build);
    return s;
  }
  stats_.compaction_bytes_out.fetch_add(build.records_out,
                                        std::memory_order_relaxed);

  // m3: publish the new version; inputs retire through the file tracker
  // once the last snapshot reading them dies.
  std::vector<LevelMeta> new_levels = levels;
  std::vector<std::string> obsolete;
  auto retire = [&obsolete](const LevelMeta& level) {
    for (const FileMeta& file : level.files) obsolete.push_back(file.name);
    if (!level.tree_file.empty()) obsolete.push_back(level.tree_file);
  };
  if (target_exists) retire(levels[target_pos]);
  for (int depth : upper_depths) {
    retire(levels[static_cast<size_t>(depth)]);
    new_levels[static_cast<size_t>(depth)] = LevelMeta();  // now empty
  }
  const size_t output_pos = insert_as_new ? 0 : target_pos;
  if (insert_as_new) {
    new_levels.insert(new_levels.begin(), std::move(build.level));
  } else if (target_exists) {
    new_levels[target_pos] = std::move(build.level);
  } else {
    new_levels.insert(new_levels.begin() + target_pos, std::move(build.level));
  }
  RefreshMetadataFootprint(new_levels);
  // Mirror the mutation above as a VersionEdit: the cleared upper slots at
  // their original indices first, then the output level (the clears all sit
  // above output_pos, so the insert never shifts them). Replaying these ops
  // over the previous stack reproduces new_levels exactly.
  VersionEdit edit;
  edit.next_file_no = next_file_no_.load(std::memory_order_relaxed);
  for (int depth : upper_depths) {
    VersionEdit::LevelOp clear;
    clear.kind = VersionEdit::OpKind::kSet;
    clear.pos = static_cast<uint32_t>(depth);
    edit.ops.push_back(std::move(clear));
  }
  VersionEdit::LevelOp out_op;
  out_op.kind = (insert_as_new || !target_exists)
                    ? VersionEdit::OpKind::kInsert
                    : VersionEdit::OpKind::kSet;
  out_op.pos = static_cast<uint32_t>(output_pos);
  out_op.level = new_levels[output_pos];
  edit.ops.push_back(std::move(out_op));
  InstallVersion(std::move(new_levels), reset, obsolete, edit.Encode());
  return Status::Ok();
}

Status LsmEngine::AppendOutput(LevelBuild* build, const Record& record,
                               std::string_view proof_blob) {
  if (build->builder.pending_bytes() >= options_.file_bytes &&
      record.key != build->prev_key) {
    Status s = FinishOutputFile(build);
    if (!s.ok()) return s;
  }
  if (record.key != build->prev_key) build->level.bloom.Add(record.key);
  build->builder.Add(record, proof_blob);
  build->prev_key = record.key;
  ++build->records_out;
  return Status::Ok();
}

Status LsmEngine::FinishOutputFile(LevelBuild* build) {
  FileMeta meta;
  std::string contents = build->builder.Finish(&meta);
  if (contents.empty()) return Status::Ok();
  meta.name = NewFileName(".sst");
  if (options_.protect_blocks) {
    // SDK-style whole-file encrypt + MAC (one-pass AES-GCM).
    enclave_->ChargeCipher(contents.size());
  }
  enclave_->ChargeOcall();
  enclave_->Copy(contents.size(), /*cross_boundary=*/true);
  // Retry-safe: Fs::Write is an atomic whole-file replace, so a failed
  // attempt left either nothing or a complete file the next attempt
  // rewrites. The manifest that references this file may persist right
  // after the version swap; the file must already be durable by then.
  Status s = RetryIo([&]() -> Status {
    Status ws = fs_->Write(meta.name, contents);
    if (!ws.ok()) return ws;
    return options_.sync_writes ? fs_->Sync(meta.name) : Status::Ok();
  });
  if (!s.ok()) return s;
  build->level.bytes += meta.size;
  build->level.num_records += meta.num_records;
  if (listener_ != nullptr) listener_->OnTableFileCreated(meta);
  build->level.files.push_back(std::move(meta));
  return Status::Ok();
}

Status LsmEngine::FinalizeLevel(LevelBuild* build, const CompactionSeal& seal) {
  Status s = FinishOutputFile(build);
  if (!s.ok()) return s;
  build->level.root = seal.root;
  build->level.leaf_count = seal.leaf_count;
  if (seal.tree_payload != nullptr) {
    build->level.tree_file = NewFileName(".tree");
    enclave_->ChargeOcall();
    s = RetryIo([&]() -> Status {
      Status ws = fs_->Write(build->level.tree_file, *seal.tree_payload);
      if (!ws.ok()) return ws;
      return options_.sync_writes ? fs_->Sync(build->level.tree_file)
                                  : Status::Ok();
    });
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

void LsmEngine::AbortLevel(LevelBuild* build) {
  // Never-installed outputs are unreferenced: delete them directly.
  for (const FileMeta& file : build->level.files) (void)fs_->Delete(file.name);
  if (!build->level.tree_file.empty()) {
    (void)fs_->Delete(build->level.tree_file);
  }
}

void LsmEngine::InstallVersion(std::vector<LevelMeta> levels,
                               MemtableReset reset,
                               const std::vector<std::string>& obsolete_files,
                               std::string encoded_edit) {
  std::shared_ptr<const Version> next =
      std::make_shared<Version>(std::move(levels), tracker_);
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    version_.swap(next);
    if (reset == MemtableReset::kImm) {
      imm_.reset();
      imm_used_ = 0;
    }
    if (!encoded_edit.empty()) {
      edit_log_.emplace_back(++edit_seq_, std::move(encoded_edit));
    }
  }
  // Release the retired version outside the lock: if it was the last
  // snapshot, its files' mmap regions and levels' sidecars are freed with
  // it.
  next.reset();
  for (const std::string& name : obsolete_files) tracker_->MarkObsolete(name);
}

// ---------------------------------------------------------------------------
// Manifest & recovery.
// ---------------------------------------------------------------------------

std::string LsmEngine::EncodeManifest(uint64_t* covered_edit_seq) const {
  std::shared_ptr<const Version> snapshot;
  {
    // Capture the stack and the edit sequence under one lock: the snapshot
    // covers exactly the edits logged so far, so trimming through the
    // returned sequence after the snapshot persists never drops an edit the
    // snapshot missed.
    std::shared_lock<std::shared_mutex> lock(mu_);
    snapshot = version_;
    if (covered_edit_seq != nullptr) *covered_edit_seq = edit_seq_;
  }
  std::string out;
  PutVarint64(&out, next_file_no_.load(std::memory_order_relaxed));
  out += EncodeLevels(snapshot->levels());
  return out;
}

Status LsmEngine::RestoreManifest(std::string_view manifest) {
  std::lock_guard<std::mutex> cl(compaction_mu_);
  uint64_t next_no = 0;
  if (!GetVarint64(&manifest, &next_no)) {
    return Status::Corruption("bad manifest header");
  }
  auto levels = DecodeLevels(manifest);
  if (!levels.ok()) return levels.status();
  RefreshMetadataFootprint(levels.value());
  next_file_no_.store(next_no, std::memory_order_relaxed);
  auto next = std::make_shared<Version>(std::move(levels).value(), tracker_);
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    version_ = std::move(next);
    memtable_ = std::make_unique<SkipList>();
    memtable_used_.store(0, std::memory_order_relaxed);
    imm_.reset();
    imm_used_ = 0;
    edit_seq_ = 0;
    edit_log_.clear();
  }
  // The restored stack may reuse file names with different contents (a
  // crash can lose files numbered past the restored high-water mark), and
  // the buffer keys blocks on (file, offset): drop every cached block. The
  // restored FileMetas map their files afresh.
  if (read_buffer_ != nullptr) read_buffer_->Clear();
  return Status::Ok();
}

std::vector<std::string> LsmEngine::EditsSince(uint64_t since,
                                               uint64_t* newest_seq) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  *newest_seq = edit_seq_;
  std::vector<std::string> out;
  for (const auto& [seq, encoded] : edit_log_) {
    if (seq > since) out.push_back(encoded);
  }
  return out;
}

void LsmEngine::TrimEditsThrough(uint64_t seq) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  size_t keep = 0;
  while (keep < edit_log_.size() && edit_log_[keep].first <= seq) ++keep;
  edit_log_.erase(edit_log_.begin(), edit_log_.begin() + keep);
}

Status LsmEngine::ApplyEdit(std::string_view encoded) {
  std::lock_guard<std::mutex> cl(compaction_mu_);
  auto edit = VersionEdit::Decode(encoded);
  if (!edit.ok()) return edit.status();
  std::vector<LevelMeta> levels = SnapshotVersion()->levels();
  Status s = edit.value().ApplyTo(&levels);
  if (!s.ok()) return s;
  RefreshMetadataFootprint(levels);
  // File numbers only grow across edits; keep the high water monotone even
  // if a replayed record carries a stale snapshot of the atomic.
  uint64_t prev_no = next_file_no_.load(std::memory_order_relaxed);
  if (edit.value().next_file_no > prev_no) {
    next_file_no_.store(edit.value().next_file_no, std::memory_order_relaxed);
  }
  auto next = std::make_shared<Version>(std::move(levels), tracker_);
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    version_ = std::move(next);
  }
  return Status::Ok();
}

void LsmEngine::NoteManifestWrite(bool snapshot, uint64_t bytes) {
  if (snapshot) {
    stats_.manifest_snapshots_written.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.manifest_edits_appended.fetch_add(1, std::memory_order_relaxed);
  }
  stats_.manifest_bytes_written.fetch_add(bytes, std::memory_order_relaxed);
}

Result<storage::WalContents> LsmEngine::ReadWalRecords() const {
  return storage::ReadWal(*fs_, options_.name + "/wal");
}

Status LsmEngine::ReinsertFromWal(Record record) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  const uint64_t size = record.ByteSize() + kMemtableEntryOverhead;
  enclave_->AccessRegion(
      memtable_region_,
      memtable_used_.load(std::memory_order_relaxed) % options_.memtable_bytes,
      size);
  memtable_used_.fetch_add(size, std::memory_order_relaxed);
  memtable_->Insert(std::move(record));
  return Status::Ok();
}

void LsmEngine::PurgeObsoleteFiles() {
  const std::vector<std::string> deleted = tracker_->PurgeParked();
  if (read_buffer_ == nullptr) return;
  for (const std::string& name : deleted) read_buffer_->Invalidate(name);
}

Status LsmEngine::ResetWal() {
  const std::string name = options_.name + "/wal";
  wal_dir_synced_.store(false, std::memory_order_relaxed);
  Status result = Status::Ok();
  if (fs_->Exists(name)) {
    // Retry-safe: an injected transient fault means the unlink did not
    // happen; the vanished-between-attempts check covers a real POSIX
    // EINTR whose unlink may have landed before the interruption.
    result = RetryIo([&]() -> Status {
      Status ds = fs_->Delete(name);
      if (!ds.ok() && !fs_->Exists(name)) return Status::Ok();
      return ds;
    });
    // Make the truncation durable: a crash must not resurrect frames the
    // manifest already claims are flushed (ReplayWal would skip them via
    // flushed_ts, but an honest namespace keeps recovery simple).
    if (result.ok() && options_.sync_writes) {
      result = RetryIo([&] { return fs_->SyncDir(); });
    }
  }
  // A failed *delete* leaves the old offsets valid. But once the file is
  // really gone, tracking must restart with the next WAL generation even
  // when a post-delete SyncDir exhausted its retries — the vanished file's
  // offsets must not leak into the one the next append creates.
  if (fs_->Exists(name)) return result;
  std::unique_lock<std::shared_mutex> lock(mu_);
  wal_committed_bytes_ = 0;
  wal_dirty_ = false;
  return result;
}


}  // namespace elsm::lsm
