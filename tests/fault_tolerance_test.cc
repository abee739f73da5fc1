// Transient I/O fault tolerance (the robustness core of this PR): unlike
// the crash suites — where the disk dies and the store reopens — these
// tests keep the store *running* through injected fault blips and verify
// the three tolerance layers end to end:
//   * bounded retry: a one-shot EIO / short-write on any write-path fs op
//     is absorbed (the op succeeds, stats count the retry) and never
//     surfaces as AuthFailure — the cardinal sin would be a benign blip
//     read as tampering;
//   * clean exhaustion: a fault the policy cannot absorb (ENOSPC is never
//     retried) fails the one op with a typed Status while the store stays
//     consistent and serving — verified reads still pass, a later retry or
//     reopen succeeds;
//   * graceful degradation: capacity exhaustion flips the store into
//     verified read-only degraded mode; TryResume() re-probes the disk;
//     ShardedDb quarantines repeatedly failing shards and keeps
//     maintaining the healthy ones.
// The error-point walk sweeps a one-shot fault through every eligible fs
// op index of a mixed put/flush/compact workload, on both backends, so no
// write-path op ordering escapes coverage.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "common/retry.h"
#include "elsm/elsm_db.h"
#include "elsm/sharded_db.h"
#include "storage/fault_fs.h"
#include "storage/posix_fs.h"
#include "storage/simfs.h"
#include "temp_dir.h"
#include "str_cat.h"

namespace elsm {
namespace {

using storage::FaultFs;
using TransientKind = storage::FaultFs::TransientKind;

Options FaultOptions() {
  Options o;
  o.mode = Mode::kP2;
  o.memtable_bytes = 2 << 10;  // flush every ~15 records
  o.level1_bytes = 8 << 10;
  o.level_ratio = 4;
  o.block_bytes = 1024;
  o.file_bytes = 4 << 10;
  // Snapshot the manifest log every 2 delta records so the walk crosses
  // delta-append and snapshot-install persists many times per sweep.
  o.manifest_snapshot_edits = 2;
  return o;
}

std::string Key(uint64_t i) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "key%06llu", (unsigned long long)i);
  return buf;
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

// Sum of stored file sizes — what the FaultFs capacity budget admits
// against. Computed through the decorator (no faults are armed when the
// tests call this).
uint64_t UsedBytes(storage::Fs& fs) {
  uint64_t used = 0;
  for (const std::string& name : fs.List("")) {
    auto size = fs.FileSize(name);
    if (size.ok()) used += size.value();
  }
  return used;
}

// Verifies every shadow key against the store and that a full verified
// scan returns exactly the shadow keys.
void VerifyShadow(ElsmDb& db, const std::map<std::string, std::string>& shadow) {
  for (const auto& [key, value] : shadow) {
    auto got = db.GetVerified(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    ASSERT_TRUE(got.value().record.has_value()) << key;
    EXPECT_EQ(got.value().record->value, value) << key;
  }
  auto scanned = db.Scan(Key(0), Key(999999));
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  std::set<std::string> scanned_keys;
  for (const auto& r : scanned.value()) scanned_keys.insert(r.key);
  for (const auto& [key, value] : shadow) {
    EXPECT_TRUE(scanned_keys.count(key)) << "lost acknowledged key " << key;
  }
  for (const auto& key : scanned_keys) {
    EXPECT_TRUE(shadow.count(key)) << "resurrected key " << key;
  }
}

// --- FaultFs transient-injection unit behavior ------------------------------

TEST(FaultToleranceTest, TransientInjectionTaxonomyAndAutoDisarm) {
  auto enclave = std::make_shared<sgx::Enclave>(sgx::CostModel{}, true);
  auto fs = std::make_shared<FaultFs>(enclave);

  // One-shot EIO: the next op fails Unavailable, nothing lands, disarms.
  fs->ScheduleTransient(1, TransientKind::kEIO);
  Status s = fs->Write("a", "payload");
  EXPECT_TRUE(s.IsTransient()) << s.ToString();
  EXPECT_FALSE(fs->Exists("a"));
  EXPECT_EQ(fs->injected_faults(), 1u);
  EXPECT_EQ(fs->transient_op(), "write");
  ASSERT_TRUE(fs->Write("a", "payload").ok());  // blip has passed

  // One-shot ENOSPC maps to CapacityExceeded (the non-retryable class).
  fs->ScheduleTransient(1, TransientKind::kENOSPC);
  s = fs->Append("a", "more");
  EXPECT_TRUE(s.IsCapacityExceeded()) << s.ToString();
  EXPECT_FALSE(s.IsTransient());

  // Short write: the prefix really lands before the op reports failure —
  // a retrying caller must cope with the partial state.
  fs->ScheduleTransient(1, TransientKind::kShortWrite, /*keep_fraction=*/0.5);
  s = fs->Write("torn", "0123456789");
  EXPECT_TRUE(s.IsTransient()) << s.ToString();
  auto torn = fs->ReadAll("torn");
  ASSERT_TRUE(torn.ok());
  EXPECT_EQ(torn.value(), "01234");

  // Capacity budget: admission keeps the stored byte sum at or under the
  // budget; freeing space stays admissible on a "full disk".
  const uint64_t used = UsedBytes(*fs);
  fs->SetCapacityBudget(used);
  EXPECT_TRUE(fs->Append("a", "x").IsCapacityExceeded());
  EXPECT_TRUE(fs->Write("b", "x").IsCapacityExceeded());
  EXPECT_TRUE(fs->Delete("torn").ok());
  // The freed bytes are admissible again.
  EXPECT_TRUE(fs->Write("b", "x").ok());
  fs->SetCapacityBudget(0);
  EXPECT_TRUE(fs->Write("c", std::string(1024, 'c')).ok());

  // Seeded probabilistic mode is deterministic per seed.
  fs->SetTransientRate(1.0, 7);
  EXPECT_TRUE(fs->Sync("a").IsTransient());
  fs->SetTransientRate(0.0, 7);
  EXPECT_TRUE(fs->Sync("a").ok());
}

TEST(FaultToleranceTest, StatusTransientTaxonomy) {
  EXPECT_TRUE(Status::Unavailable("blip").IsTransient());
  EXPECT_TRUE(Status::Unavailable("blip").IsUnavailable());
  EXPECT_FALSE(Status::Unavailable("blip").ok());
  EXPECT_FALSE(Status::IOError("dead").IsTransient());
  EXPECT_FALSE(Status::CapacityExceeded("full").IsTransient());
  EXPECT_TRUE(Status::CapacityExceeded("full").IsCapacityExceeded());
  EXPECT_FALSE(Status::AuthFailure("tamper").IsTransient());
  EXPECT_FALSE(Status::Ok().IsTransient());
}

// --- bounded retry on the write path ----------------------------------------

TEST(FaultToleranceTest, RetryAbsorbsSingleWalAppendFault) {
  auto enclave = std::make_shared<sgx::Enclave>(sgx::CostModel{}, true);
  auto fs = std::make_shared<FaultFs>(enclave);
  auto platform = std::make_shared<TrustedPlatform>();
  Options o = FaultOptions();
  o.memtable_bytes = 256 << 10;  // keep the workload in the WAL

  auto db = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db.value()->Put(Key(0), "clean").ok());

  // The very next fs op is the WAL append of this Put: one EIO blip, and
  // the op must still be acknowledged.
  fs->ScheduleTransient(1, TransientKind::kEIO);
  ASSERT_TRUE(db.value()->Put(Key(1), "absorbed").ok());
  EXPECT_EQ(fs->injected_faults(), 1u);
  const auto& stats = db.value()->engine().stats();
  EXPECT_GE(stats.retry_attempts.load(), 1u);
  EXPECT_GE(stats.retries_absorbed.load(), 1u);
  EXPECT_EQ(stats.retries_exhausted.load(), 0u);

  // Short write on the append: a torn frame lands, the retry must repair
  // the WAL tail (truncate back to the committed offset) before it
  // re-appends — otherwise recovery would strand acknowledged frames
  // behind the mid-stream garbage and read as data loss or tampering.
  fs->ScheduleTransient(1, TransientKind::kShortWrite, 0.5);
  ASSERT_TRUE(db.value()->Put(Key(2), "repaired").ok());
  EXPECT_GE(stats.wal_tail_repairs.load(), 1u);

  ASSERT_TRUE(db.value()->Close().ok());
  auto again = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(again.ok()) << "retried WAL read as attack: "
                          << again.status().ToString();
  for (int i = 0; i < 3; ++i) {
    auto got = again.value()->GetVerified(Key(i));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got.value().record.has_value()) << Key(i);
  }
}

TEST(FaultToleranceTest, ExhaustedRetriesFailCleanlyAndLaterOpsSucceed) {
  auto enclave = std::make_shared<sgx::Enclave>(sgx::CostModel{}, true);
  auto fs = std::make_shared<FaultFs>(enclave);
  auto platform = std::make_shared<TrustedPlatform>();
  Options o = FaultOptions();
  o.memtable_bytes = 256 << 10;
  o.io_retry.max_attempts = 2;  // exhaust with a 100% fault rate

  auto db = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db.value()->Put(Key(0), "committed").ok());

  fs->SetTransientRate(1.0, 11);
  Status s = db.value()->Put(Key(1), "doomed");
  EXPECT_TRUE(s.IsTransient()) << s.ToString();
  EXPECT_GE(db.value()->engine().stats().retries_exhausted.load(), 1u);
  EXPECT_FALSE(db.value()->degraded());  // transient exhaustion: not ENOSPC
  fs->SetTransientRate(0.0, 11);

  // The failed op left the store consistent: the committed key verifies,
  // the doomed key is absent, and the same op now succeeds.
  auto got = db.value()->GetVerified(Key(0));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(got.value().record.has_value());
  auto miss = db.value()->Get(Key(1));
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss.value().has_value());
  ASSERT_TRUE(db.value()->Put(Key(1), "landed").ok());
  ASSERT_TRUE(db.value()->Flush().ok());
  ASSERT_TRUE(db.value()->Close().ok());
  auto again = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
}

// --- deterministic error-point walk -----------------------------------------

// Sweeps a one-shot fault of `kind` through eligible fs-op indices
// 1..max_k of a mixed put/flush/compact workload. At every index the store
// must either absorb the fault (bounded retry) or fail exactly one op with
// a clean typed error — never AuthFailure, never a bricked store — and the
// final state must match the shadow map exactly, survive a reopen, and
// keep accepting writes.
void RunErrorPointWalk(const std::string& backend, TransientKind kind,
                       uint64_t max_k) {
  uint64_t fired_points = 0;
  for (uint64_t k = 1; k <= max_k; ++k) {
    SCOPED_TRACE(test_util::Cat("fault at eligible op ", k));
    auto enclave = std::make_shared<sgx::Enclave>(sgx::CostModel{}, true);
    test_util::TempDir dir;
    auto fs = std::make_shared<FaultFs>(MakeBase(backend, enclave, dir));
    auto platform = std::make_shared<TrustedPlatform>();
    Options o = FaultOptions();

    std::map<std::string, std::string> shadow;
    auto db = ElsmDb::Open(o, fs, platform);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    // Clean warm-up so the armed window starts inside an existing log
    // generation rather than at first-ever-manifest special cases.
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), "warm").ok());
      shadow[Key(i)] = "warm";
    }
    ASSERT_TRUE(db.value()->Flush().ok());

    fs->ScheduleTransient(k, kind, /*keep_fraction=*/0.5);
    auto handle_failure = [&](const Status& s) {
      // A clean, typed failure — never an auth/corruption verdict.
      EXPECT_TRUE(s.IsTransient() || s.IsCapacityExceeded())
          << "fault leaked as wrong class: " << s.ToString();
      if (db.value()->degraded()) {
        // ENOSPC exhaustion flipped the store read-only; the blip has
        // passed (one-shot), so the resume probe must re-admit writes.
        ASSERT_TRUE(db.value()->TryResume().ok());
        EXPECT_FALSE(db.value()->degraded());
      }
    };
    for (uint64_t op = 0; op < 140; ++op) {
      const std::string key = Key(op % 40);
      const std::string value = test_util::Cat("walk", op);
      Status s = db.value()->Put(key, value);
      if (s.ok()) {
        shadow[key] = value;
      } else {
        handle_failure(s);
        // The failed op was never acknowledged; retried now, it must land.
        ASSERT_TRUE(db.value()->Put(key, value).ok()) << "op " << op;
        shadow[key] = value;
      }
      if (op % 7 == 6) {
        s = db.value()->Flush();
        if (!s.ok()) handle_failure(s);
      }
      if (op == 20) {
        s = db.value()->CompactAll();
        if (!s.ok()) handle_failure(s);
      }
    }
    if (fs->injected_faults() == 0) {
      // The workload has fewer than k eligible ops — sweep exhausted.
      break;
    }
    ++fired_points;
    // One-shot: exactly one fault fired, nothing leaked into later ops.
    EXPECT_EQ(fs->injected_faults(), 1u);
    EXPECT_FALSE(db.value()->degraded());

    VerifyShadow(*db.value(), shadow);
    ASSERT_TRUE(db.value()->Close().ok());
    auto again = ElsmDb::Open(o, fs, platform);
    ASSERT_TRUE(again.ok()) << "walk image at op " << k
                            << " read as attack: " << again.status().ToString();
    auto got = again.value()->GetVerified(Key(7));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got.value().record.has_value());
    ASSERT_TRUE(again.value()->Put("post-walk", "alive").ok());
    ASSERT_TRUE(again.value()->Flush().ok());
    ASSERT_TRUE(again.value()->Close().ok());
  }
  // The sweep must have exercised a real fault surface, not no-op'd.
  EXPECT_EQ(fired_points, max_k);
}

TEST(FaultToleranceTest, ErrorPointWalkEioOnSim) {
  RunErrorPointWalk("sim", TransientKind::kEIO, 90);
}

TEST(FaultToleranceTest, ErrorPointWalkEnospcOnSim) {
  RunErrorPointWalk("sim", TransientKind::kENOSPC, 90);
}

TEST(FaultToleranceTest, ErrorPointWalkShortWriteOnSim) {
  RunErrorPointWalk("sim", TransientKind::kShortWrite, 90);
}

TEST(FaultToleranceTest, ErrorPointWalkEioOnPosix) {
  RunErrorPointWalk("posix", TransientKind::kEIO, 36);
}

TEST(FaultToleranceTest, ErrorPointWalkEnospcOnPosix) {
  RunErrorPointWalk("posix", TransientKind::kENOSPC, 36);
}

TEST(FaultToleranceTest, ErrorPointWalkShortWriteOnPosix) {
  RunErrorPointWalk("posix", TransientKind::kShortWrite, 24);
}

// --- ENOSPC during growth: degraded mode and resume -------------------------

// The disk fills while the WAL grows: the failing Put returns
// CapacityExceeded, the store degrades to verified read-only, the resume
// probe fails while the disk is still full and succeeds once space is
// back, and the pending data drains on the next flush.
void RunWalGrowthEnospc(const std::string& backend) {
  auto enclave = std::make_shared<sgx::Enclave>(sgx::CostModel{}, true);
  test_util::TempDir dir;
  auto fs = std::make_shared<FaultFs>(MakeBase(backend, enclave, dir));
  auto platform = std::make_shared<TrustedPlatform>();
  Options o = FaultOptions();
  o.memtable_bytes = 256 << 10;  // growth happens in the WAL

  std::map<std::string, std::string> shadow;
  auto db = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(db.value()->Put(Key(i), "acknowledged").ok());
    shadow[Key(i)] = "acknowledged";
  }

  fs->SetCapacityBudget(UsedBytes(*fs));  // the disk is now exactly full
  Status s = db.value()->Put(Key(100), "doomed");
  ASSERT_TRUE(s.IsCapacityExceeded()) << s.ToString();
  EXPECT_TRUE(db.value()->degraded());

  // Writes fail fast without touching the disk; verified reads serve.
  EXPECT_TRUE(db.value()->Put(Key(101), "x").IsCapacityExceeded());
  EXPECT_TRUE(db.value()->Delete(Key(0)).IsCapacityExceeded());
  ElsmDb::WriteBatch batch;
  batch.Put(Key(102), "x");
  EXPECT_TRUE(db.value()->Write(batch).IsCapacityExceeded());
  VerifyShadow(*db.value(), shadow);
  auto miss = db.value()->Get(Key(100));
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss.value().has_value()) << "unacknowledged key visible";

  // Still full: the probe fails and the store stays degraded.
  EXPECT_TRUE(db.value()->TryResume().IsCapacityExceeded());
  EXPECT_TRUE(db.value()->degraded());

  // Space comes back: resume, drain, verify, survive a reopen.
  fs->SetCapacityBudget(0);
  ASSERT_TRUE(db.value()->TryResume().ok());
  EXPECT_FALSE(db.value()->degraded());
  ASSERT_TRUE(db.value()->Put(Key(100), "resumed").ok());
  shadow[Key(100)] = "resumed";
  ASSERT_TRUE(db.value()->Flush().ok());
  VerifyShadow(*db.value(), shadow);
  ASSERT_TRUE(db.value()->Close().ok());
  auto again = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  VerifyShadow(*again.value(), shadow);
}

TEST(FaultToleranceTest, WalGrowthEnospcDegradesAndResumesOnSim) {
  RunWalGrowthEnospc("sim");
}

TEST(FaultToleranceTest, WalGrowthEnospcDegradesAndResumesOnPosix) {
  RunWalGrowthEnospc("posix");
}

// The disk fills while a flush writes its SSTable: the flush fails with
// CapacityExceeded, the memtable and WAL stay intact (every acknowledged
// key still verifies), and after resume the same flush drains cleanly.
void RunFlushEnospc(const std::string& backend) {
  auto enclave = std::make_shared<sgx::Enclave>(sgx::CostModel{}, true);
  test_util::TempDir dir;
  auto fs = std::make_shared<FaultFs>(MakeBase(backend, enclave, dir));
  auto platform = std::make_shared<TrustedPlatform>();
  Options o = FaultOptions();
  o.memtable_bytes = 64 << 10;  // no auto-flush: the test drives it

  std::map<std::string, std::string> shadow;
  auto db = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(db.value()->Put(Key(i), "pending").ok());
    shadow[Key(i)] = "pending";
  }

  fs->SetCapacityBudget(UsedBytes(*fs));
  Status s = db.value()->Flush();
  ASSERT_TRUE(s.IsCapacityExceeded()) << s.ToString();
  EXPECT_TRUE(db.value()->degraded());
  VerifyShadow(*db.value(), shadow);

  fs->SetCapacityBudget(0);
  ASSERT_TRUE(db.value()->TryResume().ok());
  ASSERT_TRUE(db.value()->Flush().ok());
  VerifyShadow(*db.value(), shadow);
  ASSERT_TRUE(db.value()->Close().ok());
  auto again = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  VerifyShadow(*again.value(), shadow);
}

TEST(FaultToleranceTest, FlushEnospcDegradesAndResumesOnSim) {
  RunFlushEnospc("sim");
}

TEST(FaultToleranceTest, FlushEnospcDegradesAndResumesOnPosix) {
  RunFlushEnospc("posix");
}

// The disk fills while compaction writes its outputs: the pass fails with
// CapacityExceeded and degrades the store, but the pre-compaction file set
// is untouched — every key verifies — and after resume the same compaction
// completes. The budget leaves slack for small appends but not for an
// SSTable-sized output, so the rejection lands on the compaction write.
void RunCompactionEnospc(const std::string& backend) {
  auto enclave = std::make_shared<sgx::Enclave>(sgx::CostModel{}, true);
  test_util::TempDir dir;
  auto fs = std::make_shared<FaultFs>(MakeBase(backend, enclave, dir));
  auto platform = std::make_shared<TrustedPlatform>();
  Options o = FaultOptions();
  // Stack each flush as its own level: without the fill-time ripple the
  // explicit CompactAll below has real multi-level merge work, so the
  // budget rejection provably lands on a compaction output write.
  o.compaction_enabled = false;

  std::map<std::string, std::string> shadow;
  auto db = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(db.value()->Put(Key(i), "level-data").ok());
    shadow[Key(i)] = "level-data";
  }
  ASSERT_TRUE(db.value()->Flush().ok());

  fs->SetCapacityBudget(UsedBytes(*fs) + 600);
  Status s = db.value()->CompactAll();
  ASSERT_TRUE(s.IsCapacityExceeded()) << s.ToString();
  EXPECT_TRUE(db.value()->degraded());
  VerifyShadow(*db.value(), shadow);

  fs->SetCapacityBudget(0);
  ASSERT_TRUE(db.value()->TryResume().ok());
  ASSERT_TRUE(db.value()->CompactAll().ok());
  VerifyShadow(*db.value(), shadow);
  ASSERT_TRUE(db.value()->Close().ok());
  auto again = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  VerifyShadow(*again.value(), shadow);
}

TEST(FaultToleranceTest, CompactionEnospcDegradesAndResumesOnSim) {
  RunCompactionEnospc("sim");
}

TEST(FaultToleranceTest, CompactionEnospcDegradesAndResumesOnPosix) {
  RunCompactionEnospc("posix");
}

TEST(FaultToleranceTest, CrashWhileDegradedReopensCleanly) {
  // Power fails while the store sits in degraded mode (full disk). The
  // reopen — with space back — must read as a benign crash and recover
  // every acknowledged key; the degraded flag does not outlive the
  // instance (it re-derives from the disk on the next exhaustion).
  auto enclave = std::make_shared<sgx::Enclave>(sgx::CostModel{}, true);
  auto fs = std::make_shared<FaultFs>(enclave);
  auto platform = std::make_shared<TrustedPlatform>();
  Options o = FaultOptions();
  o.memtable_bytes = 256 << 10;

  std::map<std::string, std::string> shadow;
  {
    auto db = ElsmDb::Open(o, fs, platform);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), "acknowledged").ok());
      shadow[Key(i)] = "acknowledged";
    }
    fs->SetCapacityBudget(UsedBytes(*fs));
    ASSERT_TRUE(db.value()->Put(Key(100), "doomed").IsCapacityExceeded());
    ASSERT_TRUE(db.value()->degraded());
    fs->CrashNow();
    // Power loss: drop without Close().
  }

  fs->ClearCrash();
  fs->SetCapacityBudget(0);
  auto db = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(db.ok()) << "crash-while-degraded read as attack: "
                       << db.status().ToString();
  EXPECT_FALSE(db.value()->degraded());
  VerifyShadow(*db.value(), shadow);
  ASSERT_TRUE(db.value()->Put(Key(100), "post-crash").ok());
  ASSERT_TRUE(db.value()->Flush().ok());
  ASSERT_TRUE(db.value()->Close().ok());
}

// --- ShardedDb per-shard health ---------------------------------------------

TEST(FaultToleranceTest, ShardedDegradedShardIsSkippedAndResumed) {
  constexpr uint32_t kShards = 3;
  auto env = std::make_shared<ShardEnv>();
  std::vector<std::shared_ptr<FaultFs>> faults;
  for (uint32_t i = 0; i < kShards; ++i) {
    auto enclave = std::make_shared<sgx::Enclave>(sgx::CostModel{}, true);
    faults.push_back(std::make_shared<FaultFs>(enclave));
    env->shard_fs.push_back(faults.back());
  }
  Options o = FaultOptions();
  o.fanout_threads = 2;

  std::map<std::string, std::string> shadow;
  auto db = ShardedDb::Open(o, kShards, env);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(db.value()->Put(Key(i), "seed").ok());
    shadow[Key(i)] = "seed";
  }
  ASSERT_TRUE(db.value()->Flush().ok());
  ASSERT_EQ(db.value()->sick_shards(), 0u);

  // Fill shard 0's disk exactly and push a routed write into it.
  const uint32_t victim = 0;
  faults[victim]->SetCapacityBudget(UsedBytes(*faults[victim]));
  std::string victim_key, healthy_key;
  for (int i = 0; victim_key.empty() || healthy_key.empty(); ++i) {
    const std::string key = Key(1000 + i);
    if (db.value()->ShardOf(key) == victim) {
      if (victim_key.empty()) victim_key = key;
    } else if (healthy_key.empty()) {
      healthy_key = key;
    }
  }
  ASSERT_TRUE(db.value()->Put(victim_key, "doomed").IsCapacityExceeded());
  EXPECT_TRUE(db.value()->shard(victim).degraded());
  EXPECT_EQ(db.value()->shard_health(victim).state,
            ShardedDb::ShardHealth::kDegraded);
  EXPECT_EQ(db.value()->sick_shards(), 1u);

  // Maintenance skips the sick shard and keeps succeeding for the rest.
  const uint64_t skipped_before =
      db.value()->fanout_stats().maintenance_shards_skipped.load();
  ASSERT_TRUE(db.value()->Flush().ok());
  EXPECT_GT(db.value()->fanout_stats().maintenance_shards_skipped.load(),
            skipped_before);

  // Healthy shards accept writes; the sick shard still serves verified
  // reads (fail-closed, not fail-dark).
  ASSERT_TRUE(db.value()->Put(healthy_key, "healthy").ok());
  shadow[healthy_key] = "healthy";
  for (const auto& [key, value] : shadow) {
    if (db.value()->ShardOf(key) != victim) continue;
    auto got = db.value()->GetVerified(key);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got.value().record.has_value());
    EXPECT_EQ(got.value().record->value, value);
  }

  // Space returns: TryResume re-admits the shard to maintenance.
  faults[victim]->SetCapacityBudget(0);
  ASSERT_TRUE(db.value()->TryResume().ok());
  EXPECT_EQ(db.value()->sick_shards(), 0u);
  EXPECT_EQ(db.value()->shard_health(victim).state,
            ShardedDb::ShardHealth::kHealthy);
  ASSERT_TRUE(db.value()->Put(victim_key, "resumed").ok());
  shadow[victim_key] = "resumed";
  ASSERT_TRUE(db.value()->Flush().ok());
  ASSERT_TRUE(db.value()->Close().ok());

  auto again = ShardedDb::Open(o, kShards, env);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  for (const auto& [key, value] : shadow) {
    auto got = again.value()->GetVerified(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    ASSERT_TRUE(got.value().record.has_value()) << key;
    EXPECT_EQ(got.value().record->value, value) << key;
  }
  ASSERT_TRUE(again.value()->Close().ok());
}

TEST(FaultToleranceTest, ShardedQuarantineAfterRepeatedMaintenanceFailures) {
  constexpr uint32_t kShards = 2;
  auto env = std::make_shared<ShardEnv>();
  std::vector<std::shared_ptr<FaultFs>> faults;
  for (uint32_t i = 0; i < kShards; ++i) {
    auto enclave = std::make_shared<sgx::Enclave>(sgx::CostModel{}, true);
    faults.push_back(std::make_shared<FaultFs>(enclave));
    env->shard_fs.push_back(faults.back());
  }
  Options o = FaultOptions();
  o.memtable_bytes = 256 << 10;  // flushes happen only when driven

  auto db = ShardedDb::Open(o, kShards, env);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Seed every shard with pending data so each driven flush has work.
  std::vector<std::string> shard_keys(kShards);
  for (int i = 0; i < 64; ++i) {
    const std::string key = Key(i);
    ASSERT_TRUE(db.value()->Put(key, "pending").ok());
    shard_keys[db.value()->ShardOf(key)] = key;
  }
  for (uint32_t i = 0; i < kShards; ++i) ASSERT_FALSE(shard_keys[i].empty());

  // Shard 0's disk develops a persistent transient storm: every op fails
  // Unavailable, so each maintenance pass exhausts its retries. Not an
  // ENOSPC, so the shard never self-degrades — quarantine is what takes
  // it out of the maintenance rotation.
  const uint32_t victim = 0;
  faults[victim]->SetTransientRate(1.0, 42);
  for (uint64_t i = 1; i <= 3; ++i) {
    Status s = db.value()->Flush();
    ASSERT_TRUE(s.IsTransient()) << s.ToString();
    EXPECT_EQ(db.value()->shard_health(victim).consecutive_failures, i);
  }
  EXPECT_EQ(db.value()->shard_health(victim).state,
            ShardedDb::ShardHealth::kQuarantined);
  EXPECT_EQ(db.value()->sick_shards(), 1u);
  EXPECT_FALSE(db.value()->shard(victim).degraded());

  // The next pass skips the quarantined shard and succeeds: the healthy
  // shard's flush runs, and the super-manifest refresh still records the
  // sick shard's last-known-good state (its manifest never advanced — the
  // quarantined flushes all failed before touching it).
  const uint64_t skipped_before =
      db.value()->fanout_stats().maintenance_shards_skipped.load();
  Status s = db.value()->Flush();
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(db.value()->fanout_stats().maintenance_shards_skipped.load(),
            skipped_before);

  // The storm passes: TryResume clears the quarantine (the shard is not
  // degraded, so its probe is a no-op Ok) and maintenance drains it.
  faults[victim]->SetTransientRate(0.0, 42);
  ASSERT_TRUE(db.value()->TryResume().ok());
  EXPECT_EQ(db.value()->sick_shards(), 0u);
  EXPECT_EQ(db.value()->shard_health(victim).state,
            ShardedDb::ShardHealth::kHealthy);
  ASSERT_TRUE(db.value()->Flush().ok());
  for (uint32_t i = 0; i < kShards; ++i) {
    auto got = db.value()->GetVerified(shard_keys[i]);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got.value().record.has_value());
    EXPECT_EQ(got.value().record->value, "pending");
  }
  ASSERT_TRUE(db.value()->Close().ok());

  auto again = ShardedDb::Open(o, kShards, env);
  ASSERT_TRUE(again.ok()) << "quarantine history read as attack: "
                          << again.status().ToString();
  ASSERT_TRUE(again.value()->Close().ok());
}

}  // namespace
}  // namespace elsm
