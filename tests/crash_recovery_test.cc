// Randomized crash-recovery torture tests over FaultFs (the test-archetype
// core of this PR): run a workload, kill the "disk" at a random mutating
// op — mid-WAL-append, mid-SSTable-write, mid-manifest-rename, anywhere —
// reopen on the surviving image and require that
//   * recovery succeeds (a benign crash must never read as an attack:
//     no AuthFailure, no RollbackDetected),
//   * every acknowledged op is present and every Get still verifies
//     (compared against a shadow std::map; the single in-flight op at the
//     crash point is indeterminate and may have either value),
//   * a full verified Scan agrees with the shadow map.
// Loops over many seeds so the crash lands on every op kind.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "common/random.h"
#include "elsm/elsm_db.h"
#include "elsm/sharded_db.h"
#include "storage/fault_fs.h"
#include "storage/posix_fs.h"
#include "storage/simfs.h"
#include "temp_dir.h"
#include "str_cat.h"

namespace elsm {
namespace {

Options CrashOptions() {
  Options o;
  o.mode = Mode::kP2;
  o.memtable_bytes = 2 << 10;  // flush every ~15 records: many crash points
  o.level1_bytes = 8 << 10;
  o.level_ratio = 4;
  o.block_bytes = 1024;
  o.file_bytes = 4 << 10;
  // Snapshot the manifest log every 3 delta records so the random torture
  // crosses append -> snapshot-install -> stale-tail-truncation boundaries
  // many times per seed instead of staying inside one delta generation.
  o.manifest_snapshot_edits = 3;
  return o;
}

std::string Key(uint64_t i) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "key%06llu", (unsigned long long)i);
  return buf;
}

// One workload op attempted against both the store and the shadow map.
struct PendingOp {
  std::string key;
  std::optional<std::string> value;  // nullopt = delete
};

// Drives `max_ops` random puts/deletes/flushes until the scheduled crash
// fires. Returns the op that was in flight when the crash hit (or nullopt
// if everything succeeded before the fault — the caller retries with a
// tighter fuse).
std::optional<PendingOp> RunUntilCrash(
    ElsmDb& db, storage::FaultFs& fs, Rng& rng, uint64_t max_ops,
    std::map<std::string, std::string>* shadow) {
  for (uint64_t op = 0; op < max_ops; ++op) {
    PendingOp pending;
    pending.key = Key(rng.Uniform(120));
    Status s;
    if (rng.Bernoulli(0.15) && shadow->count(pending.key) > 0) {
      pending.value = std::nullopt;
      s = db.Delete(pending.key);
    } else {
      pending.value = test_util::Cat("v", op, "-", pending.key);
      s = db.Put(pending.key, *pending.value);
    }
    if (!s.ok()) {
      EXPECT_TRUE(fs.crashed()) << "non-crash failure: " << s.ToString();
      return pending;
    }
    // Acknowledged: the shadow map commits the op.
    if (pending.value.has_value()) {
      (*shadow)[pending.key] = *pending.value;
    } else {
      shadow->erase(pending.key);
    }
    if (rng.Bernoulli(0.02)) {
      s = db.Flush();
      if (!s.ok()) {
        EXPECT_TRUE(fs.crashed()) << "non-crash failure: " << s.ToString();
        // The flush moved acknowledged state around but acknowledged ops
        // themselves are all durable-or-replayable; nothing is in flight.
        return PendingOp{};
      }
    }
  }
  return std::nullopt;
}

void CheckRecovered(ElsmDb& db, const std::map<std::string, std::string>& shadow,
                    const PendingOp& in_flight) {
  // Every shadow key must be present with the committed value — except the
  // in-flight key, which may hold either the old or the attempted value.
  for (const auto& [key, value] : shadow) {
    auto got = db.GetVerified(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    if (key == in_flight.key) continue;
    ASSERT_TRUE(got.value().record.has_value()) << key;
    ASSERT_FALSE(got.value().record->deleted()) << key;
    EXPECT_EQ(got.value().record->value, value) << key;
  }
  // Scan completeness: the recovered store holds exactly the shadow keys
  // (modulo the indeterminate one).
  auto scanned = db.Scan(Key(0), Key(999999));
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  std::set<std::string> scanned_keys;
  for (const auto& r : scanned.value()) scanned_keys.insert(r.key);
  for (const auto& [key, value] : shadow) {
    if (key == in_flight.key) continue;
    EXPECT_TRUE(scanned_keys.count(key)) << "lost acknowledged key " << key;
  }
  for (const auto& key : scanned_keys) {
    if (key == in_flight.key) continue;
    EXPECT_TRUE(shadow.count(key)) << "resurrected key " << key;
  }
  // The in-flight op: old value, attempted value, or (for a fresh key)
  // absence are all legal — but whatever is there must have verified above.
  if (!in_flight.key.empty()) {
    auto got = db.GetVerified(in_flight.key);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
  }
}

// The torture loop, shared by every (backend, loss-model) combination:
// `backend` picks the base Fs under the FaultFs decorator ("sim" or
// "posix" — the latter on a throwaway real directory per seed);
// `unsynced_loss` additionally drops everything not fsynced at the crash,
// which is what proves the engine's Sync ordering and not just its
// torn-op tolerance.
void RunCrashTorture(const std::string& backend, bool unsynced_loss,
                     uint64_t seeds) {
  int crashes_seen = 0;
  std::map<std::string, int> crash_ops;  // op kind -> count (coverage)
  for (uint64_t seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE(test_util::Cat("seed ", seed));
    Rng rng(0x9000 + seed);
    auto enclave = std::make_shared<sgx::Enclave>(sgx::CostModel{}, true);
    test_util::TempDir dir;  // per-seed scratch root (posix only)
    std::shared_ptr<storage::Fs> base;
    if (backend == "posix") {
      ASSERT_TRUE(dir.ok());
      base = std::make_shared<storage::PosixFs>(enclave, dir.path());
    } else {
      base = std::make_shared<storage::SimFs>(enclave);
    }
    auto fs = std::make_shared<storage::FaultFs>(base);
    if (unsynced_loss) fs->EnableUnsyncedLoss();
    auto platform = std::make_shared<TrustedPlatform>();
    std::map<std::string, std::string> shadow;

    // Warm up uncrashed so some seeds crash into a multi-level store.
    PendingOp in_flight;
    {
      auto db = ElsmDb::Open(CrashOptions(), fs, platform);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      const uint64_t warm = rng.Uniform(150);
      for (uint64_t i = 0; i < warm; ++i) {
        const std::string key = Key(rng.Uniform(120));
        const std::string value = test_util::Cat("warm", i);
        ASSERT_TRUE(db.value()->Put(key, value).ok());
        shadow[key] = value;
      }
      // Arm the fault: a crash a few dozen fs-ops out, tearing the payload
      // of the op it lands on at a random fraction.
      const double keep = double(rng.Uniform(11)) / 10.0;
      fs->ScheduleCrash(1 + rng.Uniform(60), keep);
      auto crashed_op =
          RunUntilCrash(*db.value(), *fs, rng, /*max_ops=*/2000, &shadow);
      if (!crashed_op.has_value()) {
        // The fuse outlived the workload (rare); nothing crashed — close
        // cleanly and verify trivially below.
        fs->ClearCrash();
        ASSERT_TRUE(db.value()->Close().ok());
      } else {
        ++crashes_seen;
        ++crash_ops[fs->crash_op()];
        in_flight = *crashed_op;
        // Simulated power loss: drop the instance without Close(); the
        // destructor's best-effort persist fails against the dead disk.
      }
    }

    // Power back on: same (torn) disk image, same trusted platform.
    fs->ClearCrash();
    auto db = ElsmDb::Open(CrashOptions(), fs, platform);
    ASSERT_TRUE(db.ok()) << "recovery rejected a benign crash image: "
                         << db.status().ToString();
    CheckRecovered(*db.value(), shadow, in_flight);

    // The recovered store must be fully usable: write, flush, reopen again.
    ASSERT_TRUE(db.value()->Put("post-crash", "alive").ok());
    ASSERT_TRUE(db.value()->Flush().ok());
    ASSERT_TRUE(db.value()->Close().ok());
    auto again = ElsmDb::Open(CrashOptions(), fs, platform);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    auto got = again.value()->Get("post-crash");
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got.value().has_value());
    EXPECT_EQ(*got.value(), "alive");
  }
  // Most seeds must actually crash, and across several op kinds: WAL
  // appends (append), SSTable/manifest writes (write), the manifest's
  // atomic install (rename) and — with sync_writes — the durability
  // barriers themselves (sync/syncdir).
  EXPECT_GE(crashes_seen, int(seeds * 3 / 5));
  EXPECT_GE(crash_ops.size(), 2u) << "crash landed on too few op kinds";
}

TEST(CrashRecoveryTest, RandomCrashPointsRecoverToShadowState) {
  RunCrashTorture("sim", /*unsynced_loss=*/false, /*seeds=*/50);
}

TEST(CrashRecoveryTest, RandomCrashPointsRecoverWithUnsyncedLoss) {
  // Same torture, but the crash also drops every write the store never
  // fsynced — any missing Sync/SyncDir in the write path shows up here as
  // lost acknowledged data or a false attack on reopen.
  RunCrashTorture("sim", /*unsynced_loss=*/true, /*seeds=*/30);
}

TEST(CrashRecoveryTest, RandomCrashPointsRecoverOnPosixBackend) {
  RunCrashTorture("posix", /*unsynced_loss=*/false, /*seeds=*/20);
}

TEST(CrashRecoveryTest, RandomCrashPointsRecoverOnPosixWithUnsyncedLoss) {
  RunCrashTorture("posix", /*unsynced_loss=*/true, /*seeds=*/15);
}

TEST(CrashRecoveryTest, TornWalTailLosesOnlyUnacknowledgedOps) {
  auto enclave = std::make_shared<sgx::Enclave>(sgx::CostModel{}, true);
  auto fs = std::make_shared<storage::FaultFs>(enclave);
  auto platform = std::make_shared<TrustedPlatform>();
  Options o = CrashOptions();
  o.memtable_bytes = 256 << 10;  // keep everything in the WAL

  std::map<std::string, std::string> shadow;
  {
    auto db = ElsmDb::Open(o, fs, platform);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), "committed").ok());
      shadow[Key(i)] = "committed";
    }
    // The very next WAL append tears mid-frame.
    fs->ScheduleCrash(1, /*keep_fraction=*/0.5);
    EXPECT_FALSE(db.value()->Put(Key(40), "torn").ok());
  }

  fs->ClearCrash();
  auto db = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (const auto& [key, value] : shadow) {
    auto got = db.value()->GetVerified(key);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got.value().record.has_value());
    EXPECT_EQ(got.value().record->value, value);
  }
  // The torn op was never acknowledged; it must not have survived.
  auto got = db.value()->Get(Key(40));
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value().has_value());
}

TEST(CrashRecoveryTest, CrashBeforeFirstManifestReplaysWal) {
  // Regression: a crash before any flush used to lose every acknowledged
  // write, because recovery only replayed the WAL when a manifest existed.
  auto enclave = std::make_shared<sgx::Enclave>(sgx::CostModel{}, true);
  auto fs = std::make_shared<storage::FaultFs>(enclave);
  auto platform = std::make_shared<TrustedPlatform>();
  Options o = CrashOptions();
  o.memtable_bytes = 256 << 10;

  {
    auto db = ElsmDb::Open(o, fs, platform);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 25; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), "pre-manifest").ok());
    }
    fs->CrashNow();  // power loss before any flush/Close persisted state
  }

  fs->ClearCrash();
  auto db = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (int i = 0; i < 25; ++i) {
    auto got = db.value()->Get(Key(i));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got.value().has_value()) << Key(i);
    EXPECT_EQ(*got.value(), "pre-manifest");
  }
}

TEST(CrashRecoveryTest, OrphanFilesCollectedOnRecovery) {
  // A crash can strand files no manifest references (compaction outputs
  // whose manifest persist never landed, parked inputs whose purge never
  // ran). Recovery garbage-collects them instead of leaking across
  // crash/recover cycles — without touching live files.
  auto enclave = std::make_shared<sgx::Enclave>(sgx::CostModel{}, true);
  auto fs = std::make_shared<storage::FaultFs>(enclave);
  auto platform = std::make_shared<TrustedPlatform>();
  Options o = CrashOptions();
  {
    auto db = ElsmDb::Open(o, fs, platform);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), "live").ok());
    }
    ASSERT_TRUE(db.value()->Close().ok());
  }
  const std::string orphan_sst = o.name + "/999999.sst";
  const std::string orphan_tree = o.name + "/999999.tree";
  ASSERT_TRUE(fs->Write(orphan_sst, "stranded by a simulated crash").ok());
  ASSERT_TRUE(fs->Write(orphan_tree, "stranded sidecar").ok());
  const size_t live_files = fs->List(o.name + "/").size() - 2;

  auto db = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_FALSE(fs->Exists(orphan_sst));
  EXPECT_FALSE(fs->Exists(orphan_tree));
  EXPECT_EQ(fs->List(o.name + "/").size(), live_files);
  for (int i = 0; i < 100; i += 7) {
    auto got = db.value()->GetVerified(Key(i));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got.value().record.has_value());
    EXPECT_EQ(got.value().record->value, "live");
  }
}

TEST(CrashRecoveryTest, ParallelPutBatchCrashRecoversToConsistentShadowState) {
  // A power failure landing on one shard's disk while a *parallel* PutBatch
  // is in flight on the fan-out pool: sub-batches on healthy shards may
  // have committed, the crashed shard's sub-batch may be torn mid-WAL-
  // append. Reopen must read as a benign crash (never an attack), every
  // acknowledged batch must be intact, and each key of the one in-flight
  // batch must hold either its old or its attempted value — nothing else.
  for (uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE(test_util::Cat("seed ", seed));
    Rng rng(0xba7c + seed);
    constexpr uint32_t kShards = 3;
    auto env = std::make_shared<ShardEnv>();
    env->shard_fs.resize(kShards);
    auto enclave = std::make_shared<sgx::Enclave>(sgx::CostModel{}, true);
    auto fault = std::make_shared<storage::FaultFs>(enclave);
    const uint32_t victim_shard = uint32_t(seed % kShards);
    env->shard_fs[victim_shard] = fault;

    Options o = CrashOptions();
    o.fanout_threads = 4;

    std::map<std::string, std::string> shadow;
    std::set<std::string> in_flight;  // keys of the one unacknowledged batch
    std::map<std::string, std::string> attempted;  // their racing values
    {
      auto db = ShardedDb::Open(o, kShards, env);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      // Acknowledged warm-up batches across all shards.
      for (int round = 0; round < 4; ++round) {
        ElsmDb::WriteBatch batch;
        for (int i = 0; i < 30; ++i) {
          const std::string key = Key(rng.Uniform(120));
          batch.Put(key, test_util::Cat("warm", round));
        }
        ASSERT_TRUE(db.value()->Write(batch).ok());
        for (const auto& e : batch.entries) shadow[e.key] = e.value;
      }
      fault->ScheduleCrash(1 + rng.Uniform(40),
                           double(rng.Uniform(11)) / 10.0);
      bool crashed = false;
      for (int round = 0; round < 400 && !crashed; ++round) {
        ElsmDb::WriteBatch batch;
        for (int i = 0; i < 20; ++i) {
          const std::string key = Key(rng.Uniform(120));
          batch.Put(key, test_util::Cat("racing", round, "-", key));
        }
        Status s = db.value()->Write(batch);
        if (!s.ok()) {
          EXPECT_TRUE(fault->crashed()) << "non-crash failure: " << s.ToString();
          // The whole batch is unacknowledged: healthy shards' sub-batches
          // may have landed, the victim's may be torn — every key of the
          // batch is indeterminate between old and attempted value.
          for (const auto& e : batch.entries) {
            in_flight.insert(e.key);
            attempted[e.key] = e.value;
          }
          crashed = true;
        } else {
          for (const auto& e : batch.entries) shadow[e.key] = e.value;
        }
      }
      ASSERT_TRUE(crashed) << "crash never fired";
      // Power loss: no Close(); the destructor's persist fails on the
      // victim shard and the super-manifest lags — recovery must cope.
    }

    fault->ClearCrash();
    auto db = ShardedDb::Open(o, kShards, env);
    ASSERT_TRUE(db.ok()) << "benign parallel-batch crash read as attack: "
                         << db.status().ToString();
    // Acknowledged state: every shadow key outside the in-flight batch
    // verifies with exactly its committed value.
    for (const auto& [key, value] : shadow) {
      auto got = db.value()->GetVerified(key);
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
      if (in_flight.count(key)) continue;
      ASSERT_TRUE(got.value().record.has_value()) << key;
      EXPECT_EQ(got.value().record->value, value) << key;
    }
    // In-flight keys: old committed value, attempted value, or (for a key
    // never acknowledged before) absence — anything else is corruption.
    for (const auto& key : in_flight) {
      auto got = db.value()->GetVerified(key);
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
      if (got.value().record.has_value() && !got.value().record->deleted()) {
        const std::string& v = got.value().record->value;
        const auto it = shadow.find(key);
        EXPECT_TRUE((it != shadow.end() && v == it->second) ||
                    v == attempted[key])
            << key << " holds neither old nor attempted value: " << v;
      } else {
        EXPECT_EQ(shadow.count(key), 0u)
            << key << " was acknowledged but vanished";
      }
    }
    // A full verified cross-shard scan (on the same fan-out pool) agrees
    // with the shadow map modulo the in-flight batch.
    auto scanned = db.value()->Scan(Key(0), Key(999999));
    ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
    std::set<std::string> scanned_keys;
    for (const auto& r : scanned.value()) scanned_keys.insert(r.key);
    for (const auto& [key, value] : shadow) {
      if (in_flight.count(key)) continue;
      EXPECT_TRUE(scanned_keys.count(key)) << "lost acknowledged key " << key;
    }
    for (const auto& key : scanned_keys) {
      EXPECT_TRUE(shadow.count(key) || in_flight.count(key))
          << "resurrected key " << key;
    }
    // The recovered store stays fully usable on the parallel path.
    ElsmDb::WriteBatch post;
    for (int i = 0; i < 30; ++i) post.Put(Key(200 + i), "post-crash");
    ASSERT_TRUE(db.value()->Write(post).ok());
    auto got = db.value()->MultiGet({Key(200), Key(229), Key(215)});
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    for (const auto& v : got.value()) {
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, "post-crash");
    }
    ASSERT_TRUE(db.value()->Close().ok());
  }
}

// Deterministic crash-point walk over the manifest-log maintenance path.
// With a 2-edit snapshot cadence every other flush upgrades its persist
// from delta append to snapshot install, so sweeping the crash one
// mutating fs-op at a time marches through every ordering window the
// incremental log added: the pre-append namespace SyncDir, the record
// append and its fsync, the tmp-write/Sync/Rename/SyncDir install, and
// the stale-tail deletion after it. Each crash image must reopen as a
// benign crash with all acknowledged keys intact.
void RunManifestMaintenanceWalk(const std::string& backend,
                                bool unsynced_loss) {
  for (uint64_t k = 1; k <= 36; ++k) {
    SCOPED_TRACE(test_util::Cat("crash at mutating op ", k));
    auto enclave = std::make_shared<sgx::Enclave>(sgx::CostModel{}, true);
    test_util::TempDir dir;
    std::shared_ptr<storage::Fs> base;
    if (backend == "posix") {
      ASSERT_TRUE(dir.ok());
      base = std::make_shared<storage::PosixFs>(enclave, dir.path());
    } else {
      base = std::make_shared<storage::SimFs>(enclave);
    }
    auto fs = std::make_shared<storage::FaultFs>(base);
    if (unsynced_loss) fs->EnableUnsyncedLoss();
    auto platform = std::make_shared<TrustedPlatform>();
    Options o = CrashOptions();
    o.manifest_snapshot_edits = 2;

    std::map<std::string, std::string> shadow;
    std::string in_flight_key;
    bool crashed = false;
    {
      auto db = ElsmDb::Open(o, fs, platform);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      // Clean warm-up so the armed window starts inside an existing log
      // generation rather than at first-ever-manifest special cases.
      for (int i = 0; i < 20; ++i) {
        const std::string key = Key(i);
        ASSERT_TRUE(db.value()->Put(key, "warm").ok());
        shadow[key] = "warm";
      }
      ASSERT_TRUE(db.value()->Flush().ok());
      fs->ScheduleCrash(k, /*keep_fraction=*/0.5);
      for (uint64_t op = 0; op < 400 && !crashed; ++op) {
        const std::string key = Key(op % 50);
        const std::string value = test_util::Cat("walk", op);
        Status s = db.value()->Put(key, value);
        if (!s.ok()) {
          EXPECT_TRUE(fs->crashed()) << "non-crash failure: " << s.ToString();
          in_flight_key = key;  // indeterminate: old or attempted value
          crashed = true;
          break;
        }
        shadow[key] = value;
        if (op % 6 == 5) {
          s = db.value()->Flush();
          if (!s.ok()) {
            EXPECT_TRUE(fs->crashed())
                << "non-crash failure: " << s.ToString();
            crashed = true;  // acknowledged ops stay durable-or-replayable
          }
        }
      }
      ASSERT_TRUE(crashed) << "crash fuse " << k << " never fired";
      // Power loss: drop without Close().
    }

    fs->ClearCrash();
    auto db = ElsmDb::Open(o, fs, platform);
    ASSERT_TRUE(db.ok()) << "manifest-maintenance crash at op " << k
                         << " read as attack: " << db.status().ToString();
    for (const auto& [key, value] : shadow) {
      auto got = db.value()->GetVerified(key);
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
      if (key == in_flight_key) continue;
      ASSERT_TRUE(got.value().record.has_value()) << key;
      EXPECT_EQ(got.value().record->value, value) << key;
    }
    // The recovered log must keep extending: write across another
    // snapshot boundary, then reopen once more.
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(db.value()->Put("post-crash", "alive").ok());
      ASSERT_TRUE(db.value()->Flush().ok());
    }
    ASSERT_TRUE(db.value()->Close().ok());
    auto again = ElsmDb::Open(o, fs, platform);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    auto got = again.value()->Get("post-crash");
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got.value().has_value());
    EXPECT_EQ(*got.value(), "alive");
  }
}

TEST(CrashRecoveryTest, ManifestMaintenanceCrashWalk) {
  RunManifestMaintenanceWalk("sim", /*unsynced_loss=*/false);
}

TEST(CrashRecoveryTest, ManifestMaintenanceCrashWalkWithUnsyncedLoss) {
  RunManifestMaintenanceWalk("sim", /*unsynced_loss=*/true);
}

TEST(CrashRecoveryTest, ManifestMaintenanceCrashWalkOnPosixBackend) {
  RunManifestMaintenanceWalk("posix", /*unsynced_loss=*/false);
}

TEST(CrashRecoveryTest, ManifestMaintenanceCrashWalkOnPosixWithUnsyncedLoss) {
  RunManifestMaintenanceWalk("posix", /*unsynced_loss=*/true);
}

TEST(CrashRecoveryTest, SuperManifestCrashWalkRecoversBenignly) {
  // Crash-point walk isolated to the super-manifest's own disk: shards
  // live on healthy SimFs instances while meta_fs gets the FaultFs, so
  // every crash in the sweep lands inside PersistSuperManifest — the
  // delta append/fsync, the snapshot's tmp-write/Sync/Rename/SyncDir, or
  // the stale super-tail deletion. Data is acknowledged on shard disks
  // throughout; reopen must never read the lagging/torn super log as an
  // attack and must serve every acknowledged key.
  constexpr uint32_t kShards = 2;
  for (int unsynced = 0; unsynced < 2; ++unsynced) {
    for (uint64_t k = 1; k <= 14; ++k) {
      SCOPED_TRACE(test_util::Cat(
          "unsynced_loss=", unsynced, " crash at meta op ", k));
      auto enclave = std::make_shared<sgx::Enclave>(sgx::CostModel{}, true);
      auto env = std::make_shared<ShardEnv>();
      auto meta_fault = std::make_shared<storage::FaultFs>(
          std::make_shared<storage::SimFs>(enclave));
      if (unsynced) meta_fault->EnableUnsyncedLoss();
      env->meta_fs = meta_fault;

      Options o = CrashOptions();
      o.manifest_snapshot_edits = 2;

      std::map<std::string, std::string> shadow;
      bool crashed = false;
      {
        auto db = ShardedDb::Open(o, kShards, env);
        ASSERT_TRUE(db.ok()) << db.status().ToString();
        for (int i = 0; i < 40; ++i) {
          const std::string key = Key(i);
          ASSERT_TRUE(db.value()->Put(key, "warm").ok());
          shadow[key] = "warm";
        }
        ASSERT_TRUE(db.value()->Flush().ok());
        meta_fault->ScheduleCrash(k, /*keep_fraction=*/0.5);
        for (int round = 0; round < 12 && !crashed; ++round) {
          for (int i = 0; i < 10; ++i) {
            // Puts touch only shard disks; they must keep succeeding.
            const std::string key = Key(100 + (round * 10 + i) % 60);
            const std::string value = test_util::Cat("super", round);
            ASSERT_TRUE(db.value()->Put(key, value).ok());
            shadow[key] = value;
          }
          Status s = db.value()->Flush();
          if (!s.ok()) {
            EXPECT_TRUE(meta_fault->crashed())
                << "non-crash failure: " << s.ToString();
            crashed = true;
          }
        }
        ASSERT_TRUE(crashed) << "meta crash fuse " << k << " never fired";
        // Power loss without Close(): the super log lags the shards.
      }

      meta_fault->ClearCrash();
      auto db = ShardedDb::Open(o, kShards, env);
      ASSERT_TRUE(db.ok()) << "benign super-manifest crash at meta op " << k
                           << " read as attack: " << db.status().ToString();
      for (const auto& [key, value] : shadow) {
        auto got = db.value()->GetVerified(key);
        ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
        ASSERT_TRUE(got.value().record.has_value()) << key;
        EXPECT_EQ(got.value().record->value, value) << key;
      }
      // The super log must keep extending across another cadence cycle.
      for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(db.value()->Put("post-crash", "alive").ok());
        ASSERT_TRUE(db.value()->Flush().ok());
      }
      ASSERT_TRUE(db.value()->Close().ok());
      auto again = ShardedDb::Open(o, kShards, env);
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      auto got = again.value()->Get("post-crash");
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(got.value().has_value());
      EXPECT_EQ(*got.value(), "alive");
    }
  }
}

TEST(CrashRecoveryTest, ManifestVanishingIsStillAnAttack) {
  // Crash tolerance must not have weakened the rollback defence: deleting
  // the manifest outright (not a torn write — the file is *gone* while the
  // trusted counter advanced) is detected on reopen.
  auto enclave = std::make_shared<sgx::Enclave>(sgx::CostModel{}, true);
  auto fs = std::make_shared<storage::FaultFs>(enclave);
  auto platform = std::make_shared<TrustedPlatform>();
  Options o = CrashOptions();
  {
    auto db = ElsmDb::Open(o, fs, platform);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), "v").ok());
    }
    ASSERT_TRUE(db.value()->Close().ok());
  }
  ASSERT_TRUE(fs->Delete(o.name + "/MANIFEST").ok());
  auto db = ElsmDb::Open(o, fs, platform);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsRollbackDetected()) << db.status().ToString();
}

}  // namespace
}  // namespace elsm
