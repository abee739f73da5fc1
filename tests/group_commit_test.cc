// Group-commit failure semantics (the tentpole of this PR): concurrent
// writers share one WAL append + one fsync per commit cohort, so these
// tests pin the invariants the amortization must not bend:
//   (a) no writer is ever acknowledged unless its frame is durable — a
//       transient storm or crash mid-cohort may fail writes, but every
//       *acked* write survives recovery on both backends, torn and
//       unsynced-loss modes alike;
//   (b) a failed leader sync fails the whole cohort (shared Status, no
//       partial acks) and the tail-repair discipline truncates the
//       unsynced frames back to the committed boundary;
//   (c) recovery replays at least the acked prefix and nothing that was
//       never attempted — and a parallel-writer run recovers to the same
//       logical state as a sequential replay of the same operations.
// Plus the write-path accounting audits that ride along: stats_.puts /
// stats_.deletes count only acknowledged records (failed_* twins count
// exhausted retries), and the memtable charge/occupancy constants agree
// (kMemtableEntryOverhead).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/retry.h"
#include "elsm/elsm_db.h"
#include "lsm/engine.h"
#include "lsm/record.h"
#include "storage/fault_fs.h"
#include "storage/posix_fs.h"
#include "storage/simfs.h"
#include "temp_dir.h"
#include "str_cat.h"

namespace elsm {
namespace {

using storage::FaultFs;
using TransientKind = storage::FaultFs::TransientKind;

constexpr int kWriters = 8;

std::shared_ptr<sgx::Enclave> MakeEnclave() {
  return std::make_shared<sgx::Enclave>(sgx::CostModel{}, true);
}

std::string Key(int thread, int i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "t%02d-key%05d", thread, i);
  return buf;
}

std::string Value(int thread, int i) {
  return test_util::Cat("value-", thread, "-", i);
}

lsm::Record MakeRecord(const std::string& key, const std::string& value,
                       uint64_t ts,
                       lsm::RecordType type = lsm::RecordType::kValue) {
  lsm::Record r;
  r.key = key;
  r.value = value;
  r.ts = ts;
  r.type = type;
  return r;
}

std::shared_ptr<storage::Fs> MakeBase(const std::string& backend,
                                      std::shared_ptr<sgx::Enclave> enclave,
                                      const test_util::TempDir& dir) {
  if (backend == "posix") {
    EXPECT_TRUE(dir.ok());
    return std::make_shared<storage::PosixFs>(std::move(enclave), dir.path());
  }
  return std::make_shared<storage::SimFs>(std::move(enclave));
}

Options SmallOptions() {
  Options o;
  o.mode = Mode::kP2;
  o.memtable_bytes = 4 << 10;
  o.level1_bytes = 16 << 10;
  o.level_ratio = 4;
  o.block_bytes = 1024;
  o.file_bytes = 4 << 10;
  o.manifest_snapshot_edits = 4;
  return o;
}

// Decodes every WAL frame into its record key set.
std::set<std::string> WalKeys(lsm::LsmEngine& engine) {
  auto wal = engine.ReadWalRecords();
  EXPECT_TRUE(wal.ok()) << wal.status().ToString();
  std::set<std::string> keys;
  for (const std::string& core : wal.value().records) {
    std::string_view cursor(core);
    auto record = lsm::Record::DecodeCore(&cursor);
    EXPECT_TRUE(record.ok());
    keys.insert(record.value().key);
  }
  return keys;
}

// --- write-path accounting audits -------------------------------------------

TEST(GroupCommitTest, MemtableChargeMatchesOccupancy) {
  // Regression for the charge/occupancy mismatch: AccessRegion used to be
  // charged ByteSize()+64 while memtable_used_ advanced ByteSize()+32.
  // Both sides now use kMemtableEntryOverhead; the engine's accounted
  // occupancy must be exactly the sum of per-record footprints.
  auto enclave = MakeEnclave();
  auto fs = std::make_shared<storage::SimFs>(enclave);
  lsm::LsmOptions o;
  o.name = "acct";
  o.memtable_bytes = 1 << 20;  // never flush during the test
  lsm::LsmEngine engine(o, enclave, fs);

  uint64_t expected = 0;
  for (int i = 0; i < 100; ++i) {
    lsm::Record r = MakeRecord(Key(0, i), Value(0, i), uint64_t(i) + 1);
    expected += r.ByteSize() + lsm::kMemtableEntryOverhead;
    ASSERT_TRUE(engine.Put(std::move(r)).ok());
  }
  EXPECT_EQ(engine.memtable_bytes(), expected);

  // Replay-path inserts use the same constant.
  lsm::Record replayed = MakeRecord("replayed", "value", 1000);
  expected += replayed.ByteSize() + lsm::kMemtableEntryOverhead;
  ASSERT_TRUE(engine.ReinsertFromWal(std::move(replayed)).ok());
  EXPECT_EQ(engine.memtable_bytes(), expected);
}

TEST(GroupCommitTest, StatsCountOnlyAcknowledgedWrites) {
  auto enclave = MakeEnclave();
  auto fs = std::make_shared<FaultFs>(enclave);
  lsm::LsmOptions o;
  o.name = "stats";
  o.memtable_bytes = 1 << 20;
  o.sync_writes = true;
  o.io_retry.max_attempts = 1;  // no retry: transient faults surface
  lsm::LsmEngine engine(o, enclave, fs);

  ASSERT_TRUE(engine.Put(MakeRecord("a", "v", 1)).ok());
  ASSERT_TRUE(
      engine.Put(MakeRecord("b", "", 2, lsm::RecordType::kTombstone)).ok());
  EXPECT_EQ(engine.stats().puts, 1u);
  EXPECT_EQ(engine.stats().deletes, 1u);
  EXPECT_EQ(engine.stats().failed_puts, 0u);
  EXPECT_EQ(engine.stats().failed_deletes, 0u);

  // Fail the next WAL append outright: neither counter may move, the
  // failed twins must.
  fs->ScheduleTransient(1, TransientKind::kEIO);
  EXPECT_FALSE(engine.Put(MakeRecord("c", "v", 3)).ok());
  fs->ScheduleTransient(1, TransientKind::kEIO);
  EXPECT_FALSE(
      engine.Put(MakeRecord("d", "", 4, lsm::RecordType::kTombstone)).ok());
  EXPECT_EQ(engine.stats().puts, 1u);
  EXPECT_EQ(engine.stats().deletes, 1u);
  EXPECT_EQ(engine.stats().failed_puts, 1u);
  EXPECT_EQ(engine.stats().failed_deletes, 1u);
}

// --- cohort atomicity (invariant b) -----------------------------------------

TEST(GroupCommitTest, FailedLeaderSyncFailsWholeCohortAndRepairsTail) {
  auto enclave = MakeEnclave();
  auto fs = std::make_shared<FaultFs>(enclave);
  lsm::LsmOptions o;
  o.name = "cohort";
  o.memtable_bytes = 1 << 20;
  o.sync_writes = true;
  o.io_retry.max_attempts = 1;
  lsm::LsmEngine engine(o, enclave, fs);

  // Prime two records (also performs the one-time WAL SyncDir), so every
  // later commit is exactly Append + Sync on the fault-op counter.
  ASSERT_TRUE(engine.Put(MakeRecord("p1", "v", 1)).ok());
  ASSERT_TRUE(engine.Put(MakeRecord("p2", "v", 2)).ok());

  // A batch commits through the same cohort path as queued concurrent
  // writers (one AppendBatch frame group, one Sync). Fault the Sync: the
  // append landed, the barrier did not — the whole cohort must fail and
  // none of its records may be acked.
  fs->ScheduleTransient(2, TransientKind::kEIO);  // op1=Append, op2=Sync
  std::vector<lsm::Record> batch;
  batch.push_back(MakeRecord("c1", "v", 3));
  batch.push_back(MakeRecord("c2", "v", 4));
  batch.push_back(MakeRecord("c3", "v", 5));
  Status s = engine.PutBatch(std::move(batch));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(engine.stats().puts, 2u);
  EXPECT_EQ(engine.stats().failed_puts, 3u);
  for (const char* key : {"c1", "c2", "c3"}) {
    auto resp = engine.Get(key, UINT64_MAX);
    ASSERT_TRUE(resp.ok());
    EXPECT_FALSE(resp.value().memtable_hit.has_value())
        << key << " acked out of a failed cohort";
  }

  // The next write repairs the tail first: the unsynced cohort's frames
  // are truncated back to the committed boundary before the new frame
  // lands, so no acknowledged frame ever sits behind orphan bytes.
  ASSERT_TRUE(engine.Put(MakeRecord("after", "v", 6)).ok());
  EXPECT_GE(engine.stats().wal_tail_repairs.load(), 1u);
  const std::set<std::string> keys = WalKeys(engine);
  EXPECT_EQ(keys, (std::set<std::string>{"p1", "p2", "after"}));
}

// --- concurrent writers, engine level (invariant a) -------------------------

TEST(GroupCommitTest, ConcurrentWritersSurviveTransientStorm) {
  auto enclave = MakeEnclave();
  auto fs = std::make_shared<FaultFs>(enclave);
  lsm::LsmOptions o;
  o.name = "storm";
  o.memtable_bytes = 8 << 20;  // keep everything in the WAL + memtable
  o.sync_writes = true;
  o.wal_sync_interval_us = 100;
  o.io_retry.max_attempts = 1;  // every injected blip surfaces as a failure
  lsm::LsmEngine engine(o, enclave, fs);
  fs->SetTransientRate(0.05, /*seed=*/0xC0FFEE);

  constexpr int kPerThread = 64;
  std::mutex acked_mu;
  std::set<std::string> acked;
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string key = Key(t, i);
        const uint64_t ts = uint64_t(t) * kPerThread + i + 1;
        if (engine.Put(MakeRecord(key, Value(t, i), ts)).ok()) {
          std::lock_guard<std::mutex> lock(acked_mu);
          acked.insert(key);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  fs->SetTransientRate(0.0, 0);

  // One clean commit repairs any dirty tail left by a failed final cohort.
  ASSERT_TRUE(engine.Put(MakeRecord("zz-final", "v", 100000)).ok());

  // Every acknowledged write has a durable WAL frame; nothing that was
  // never attempted appears.
  const std::set<std::string> wal_keys = WalKeys(engine);
  for (const std::string& key : acked) {
    EXPECT_TRUE(wal_keys.count(key)) << "acked write lost from WAL: " << key;
  }
  for (const std::string& key : wal_keys) {
    if (key == "zz-final") continue;
    EXPECT_EQ(key.size(), Key(0, 0).size()) << "foreign WAL frame: " << key;
  }
  // Acked-only accounting holds under concurrency + failures.
  EXPECT_EQ(engine.stats().puts, acked.size() + 1);
  EXPECT_EQ(engine.stats().puts + engine.stats().failed_puts,
            uint64_t(kWriters) * kPerThread + 1);
}

// --- facade: parallel writers vs sequential replay (invariant c) ------------

class GroupCommitBackendTest : public ::testing::TestWithParam<std::string> {};

TEST_P(GroupCommitBackendTest, ParallelWritersMatchSequentialReplay) {
  const std::string backend = GetParam();
  constexpr int kPerThread = 40;

  // Parallel store: 8 writer threads, lingering leader.
  test_util::TempDir par_dir;
  Options o = SmallOptions();
  o.wal_sync_interval_us = 200;
  auto platform = std::make_shared<TrustedPlatform>();
  auto fs = std::make_shared<FaultFs>(
      MakeBase(backend, MakeEnclave(), par_dir));
  auto db = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kWriters; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          ASSERT_TRUE(db.value()->Put(Key(t, i), Value(t, i)).ok());
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  ASSERT_TRUE(db.value()->Close().ok());

  // Sequential store: the same logical operations, one thread.
  test_util::TempDir seq_dir;
  auto seq_platform = std::make_shared<TrustedPlatform>();
  auto seq_fs = std::make_shared<FaultFs>(
      MakeBase(backend, MakeEnclave(), seq_dir));
  auto seq = ElsmDb::Open(SmallOptions(), seq_fs, seq_platform);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  for (int t = 0; t < kWriters; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      ASSERT_TRUE(seq.value()->Put(Key(t, i), Value(t, i)).ok());
    }
  }
  ASSERT_TRUE(seq.value()->Close().ok());

  // Both recover; the recovered logical state (key and value bytes of a
  // full verified scan) must be identical.
  auto par_again = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(par_again.ok()) << par_again.status().ToString();
  auto seq_again = ElsmDb::Open(SmallOptions(), seq_fs, seq_platform);
  ASSERT_TRUE(seq_again.ok()) << seq_again.status().ToString();
  auto par_scan = par_again.value()->Scan(Key(0, 0), "t99");
  auto seq_scan = seq_again.value()->Scan(Key(0, 0), "t99");
  ASSERT_TRUE(par_scan.ok()) << par_scan.status().ToString();
  ASSERT_TRUE(seq_scan.ok()) << seq_scan.status().ToString();
  ASSERT_EQ(par_scan.value().size(), seq_scan.value().size());
  ASSERT_EQ(par_scan.value().size(), size_t(kWriters) * kPerThread);
  for (size_t i = 0; i < par_scan.value().size(); ++i) {
    EXPECT_EQ(par_scan.value()[i].key, seq_scan.value()[i].key);
    EXPECT_EQ(par_scan.value()[i].value, seq_scan.value()[i].value);
  }
  ASSERT_TRUE(par_again.value()->Close().ok());
  ASSERT_TRUE(seq_again.value()->Close().ok());
}

TEST_P(GroupCommitBackendTest, TransientStormNeverLosesAcknowledgedWrites) {
  const std::string backend = GetParam();
  constexpr int kPerThread = 32;
  test_util::TempDir dir;
  Options o = SmallOptions();
  o.wal_sync_interval_us = 100;
  auto platform = std::make_shared<TrustedPlatform>();
  auto fs = std::make_shared<FaultFs>(MakeBase(backend, MakeEnclave(), dir));
  auto db = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  fs->SetTransientRate(0.03, /*seed=*/0xFEED + (backend == "posix"));
  std::mutex acked_mu;
  std::map<std::string, std::string> acked;
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Writes may fail mid-storm (the default retry policy is bypassed
        // by raising the blip rate above what it can always absorb); only
        // acknowledged ones enter the shadow.
        if (db.value()->Put(Key(t, i), Value(t, i)).ok()) {
          std::lock_guard<std::mutex> lock(acked_mu);
          acked.emplace(Key(t, i), Value(t, i));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  fs->SetTransientRate(0.0, 0);

  // Every acknowledged write must read back verified, live...
  for (const auto& [key, value] : acked) {
    auto got = db.value()->GetVerified(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    ASSERT_TRUE(got.value().record.has_value()) << "lost acked key " << key;
    EXPECT_EQ(got.value().record->value, value);
  }
  ASSERT_TRUE(db.value()->Close().ok());

  // ...and across recovery.
  auto again = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  for (const auto& [key, value] : acked) {
    auto got = again.value()->GetVerified(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    ASSERT_TRUE(got.value().record.has_value())
        << "acked key lost across recovery: " << key;
    EXPECT_EQ(got.value().record->value, value);
  }
  ASSERT_TRUE(again.value()->Close().ok());
}

TEST_P(GroupCommitBackendTest, CrashWalkRecoversAckedPrefix) {
  const std::string backend = GetParam();
  // Enough records that the fs-op walk always reaches the deepest crash
  // point: group commit packs ~8 records per 2 fs ops (append + sync), so
  // 8x96 records still guarantee >127 ops even with perfect cohorts.
  constexpr int kPerThread = 96;
  // Sweep the crash point through the concurrent commit path, in both
  // battery-backed (torn-op only) and strict unsynced-loss modes.
  for (const bool unsynced_loss : {false, true}) {
    for (const uint64_t crash_at : {7u, 23u, 61u, 127u}) {
      test_util::TempDir dir;
      Options o = SmallOptions();
      o.wal_sync_interval_us = 100;
      auto platform = std::make_shared<TrustedPlatform>();
      auto fs =
          std::make_shared<FaultFs>(MakeBase(backend, MakeEnclave(), dir));
      if (unsynced_loss) fs->EnableUnsyncedLoss();
      {
        auto db = ElsmDb::Open(o, fs, platform);
        ASSERT_TRUE(db.ok()) << db.status().ToString();
        fs->ScheduleCrash(crash_at, /*keep_fraction=*/0.5);
        std::mutex acked_mu;
        std::map<std::string, std::string> acked;
        std::vector<std::thread> threads;
        for (int t = 0; t < kWriters; ++t) {
          threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
              if (db.value()->Put(Key(t, i), Value(t, i)).ok()) {
                std::lock_guard<std::mutex> lock(acked_mu);
                acked.emplace(Key(t, i), Value(t, i));
              }
            }
          });
        }
        for (auto& th : threads) th.join();
        EXPECT_TRUE(fs->crashed());

        // Power back on over the (torn) image: every write acknowledged
        // before the crash must be there, verified.
        fs->ClearCrash();
        auto again = ElsmDb::Open(o, fs, platform);
        ASSERT_TRUE(again.ok())
            << backend << " unsynced=" << unsynced_loss
            << " crash_at=" << crash_at
            << ": recovery rejected a benign crash image: "
            << again.status().ToString();
        for (const auto& [key, value] : acked) {
          auto got = again.value()->GetVerified(key);
          ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
          ASSERT_TRUE(got.value().record.has_value())
              << backend << " unsynced=" << unsynced_loss
              << " crash_at=" << crash_at
              << ": lost acknowledged key " << key;
          EXPECT_EQ(got.value().record->value, value);
        }
        // Nothing the workload never wrote may appear.
        auto scanned = again.value()->Scan(Key(0, 0), "t99");
        ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
        for (const auto& r : scanned.value()) {
          EXPECT_EQ(r.value, test_util::Cat("value-", r.key[2] - '0', "-",
                                            std::stoi(r.key.substr(7))))
              << "foreign record " << r.key;
        }
        ASSERT_TRUE(again.value()->Close().ok());
      }
    }
  }
}

TEST_P(GroupCommitBackendTest, AsyncFlushKeepsWritersOffTheFlushPath) {
  const std::string backend = GetParam();
  constexpr int kPerThread = 64;
  test_util::TempDir dir;
  Options o = SmallOptions();
  o.memtable_bytes = 2 << 10;  // force many seals during the workload
  o.max_wal_bytes = 32 << 10;  // and at least one truncating full flush
  o.async_flush = true;
  o.wal_sync_interval_us = 100;
  auto platform = std::make_shared<TrustedPlatform>();
  auto fs = std::make_shared<FaultFs>(MakeBase(backend, MakeEnclave(), dir));
  auto db = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(db.value()->Put(Key(t, i), Value(t, i)).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(db.value()->WaitForFlush().ok());

  // Reads see every write while part of the data sits in the sealed /
  // flushed runs and part in the active memtable.
  for (int t = 0; t < kWriters; ++t) {
    for (int i = 0; i < kPerThread; i += 7) {
      auto got = db.value()->GetVerified(Key(t, i));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(got.value().record.has_value()) << Key(t, i);
      EXPECT_EQ(got.value().record->value, Value(t, i));
    }
  }
  ASSERT_TRUE(db.value()->Close().ok());

  // Async-flushed manifests persist the *live* WAL digest; recovery must
  // accept the chain and replay the un-flushed suffix.
  auto again = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  for (int t = 0; t < kWriters; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      auto got = again.value()->GetVerified(Key(t, i));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(got.value().record.has_value())
          << "lost across async-flush recovery: " << Key(t, i);
      EXPECT_EQ(got.value().record->value, Value(t, i));
    }
  }
  ASSERT_TRUE(again.value()->Close().ok());
}

// A SimFs whose next SSTable write, once armed, blocks until Release().
class GatedSstFs : public storage::SimFs {
 public:
  using storage::SimFs::SimFs;

  void Arm() { armed_ = true; }
  // True once the armed write is blocked (false after `timeout`).
  bool WaitBlocked(std::chrono::seconds timeout) {
    return blocked_.wait_for(timeout) == std::future_status::ready;
  }
  void Release() {
    if (!released_.exchange(true)) release_.set_value();
  }

  Status Write(const std::string& name, std::string contents) override {
    if (name.ends_with(".sst") && armed_.exchange(false)) {
      entered_.set_value();
      gate_.wait();
    }
    return storage::SimFs::Write(name, std::move(contents));
  }

 private:
  std::atomic<bool> armed_{false};
  std::atomic<bool> released_{false};
  std::promise<void> entered_;
  std::future<void> blocked_ = entered_.get_future();
  std::promise<void> release_;
  std::shared_future<void> gate_ = release_.get_future().share();
};

// Releases the gate on every exit path, so a failed assertion cannot leave
// the store's Close() waiting on a blocked flush.
struct ReleaseOnExit {
  GatedSstFs& fs;
  ~ReleaseOnExit() { fs.Release(); }
};

TEST(GroupCommitTest, AsyncFlushRequestedBeforeCloseLandsInLevels) {
  Options o = SmallOptions();
  o.async_flush = true;
  o.max_wal_bytes = 1 << 20;  // no forced synchronous flush
  auto platform = std::make_shared<TrustedPlatform>();
  auto fs = std::make_shared<GatedSstFs>(MakeEnclave());
  auto db = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ReleaseOnExit unblock{*fs};

  // Flush 1: the write that fills the memtable schedules it, and it seals
  // the memtable and blocks writing its SSTable.
  lsm::LsmEngine& engine = db.value()->engine();
  fs->Arm();
  int written = 0;
  while (engine.memtable_bytes() < o.memtable_bytes && !engine.HasImm()) {
    ASSERT_TRUE(db.value()->Put(Key(0, written), Value(0, written)).ok());
    ++written;
  }
  ASSERT_TRUE(fs->WaitBlocked(std::chrono::seconds(60)));
  // Flush 2: the fresh memtable fills while flush 1 is stuck, so its
  // request waits in the queue.
  while (engine.memtable_bytes() < o.memtable_bytes) {
    ASSERT_TRUE(db.value()->Put(Key(0, written), Value(0, written)).ok());
    ++written;
  }

  // Close while flush 2 is still queued; flush 1 resumes once Close has
  // (almost certainly) begun. The stop rule runs flush 2 before the final
  // manifest, so the second memtable reaches the level stack.
  std::thread closer([&] { EXPECT_TRUE(db.value()->Close().ok()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  fs->Release();
  closer.join();
  db.value().reset();

  auto again = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value()->engine().memtable_entries(), 0u)
      << "the queued flush was left in the WAL";
  for (int i = 0; i < written; ++i) {
    auto got = again.value()->GetVerified(Key(0, i));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got.value().record.has_value()) << Key(0, i);
    EXPECT_EQ(got.value().record->value, Value(0, i));
  }
  ASSERT_TRUE(again.value()->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(Backends, GroupCommitBackendTest,
                         ::testing::Values("sim", "posix"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace elsm
