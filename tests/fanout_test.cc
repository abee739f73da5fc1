// Fan-out stress/property suite (the test-archetype core of this PR): the
// parallel cross-shard paths (Scan / MultiGet / PutBatch on the shared
// common::ThreadPool) must be *equivalent* to the sequential fallback —
// byte-identical results (keys, values, timestamps), identical verification
// behavior, identical errors — across randomized key distributions, shard
// counts (1–8) and pool sizes (0–8), including empty ranges, all-keys-on-
// one-shard skew and duplicate keys in a MultiGet. Plus:
//   * a scan-invocation stats regression for the short-circuit of provably
//     empty per-shard scans (empty and single-key ranges),
//   * adversary coverage: a shard returning tampered state mid-fan-out
//     fails the WHOLE parallel operation (no partial success),
//   * a tsan-targeted stress test racing PutBatch writers against parallel
//     Scan/MultiGet readers with background compaction on every shard.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "auth/adversary.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "elsm/sharded_db.h"
#include "str_cat.h"

namespace elsm {
namespace {

Options FanoutOptions(uint32_t fanout_threads) {
  Options o;
  o.mode = Mode::kP2;
  o.memtable_bytes = 4 << 10;
  o.level1_bytes = 16 << 10;
  o.level_ratio = 4;
  o.block_bytes = 1024;
  o.file_bytes = 8 << 10;
  o.fanout_threads = fanout_threads;
  return o;
}

std::string Key(uint64_t i) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "key%06llu", (unsigned long long)i);
  return buf;
}

// A key from `space` that routes to shard 0 of `shards` (for the all-keys-
// one-shard skew distribution).
std::string SkewedKey(Rng& rng, uint64_t space, uint32_t shards) {
  for (;;) {
    const std::string key = Key(rng.Uniform(space));
    if (ShardForKey(key, shards) == 0) return key;
  }
}

void ExpectRecordsEqual(const std::vector<lsm::Record>& seq,
                        const std::vector<lsm::Record>& par,
                        const std::string& what) {
  ASSERT_EQ(seq.size(), par.size()) << what;
  for (size_t i = 0; i < seq.size(); ++i) {
    // operator== covers key, value, ts and type — byte-identical results.
    EXPECT_TRUE(seq[i] == par[i])
        << what << " diverged at " << i << ": " << seq[i].key << "@"
        << seq[i].ts << " vs " << par[i].key << "@" << par[i].ts;
  }
}

// --- property tests ---------------------------------------------------------

TEST(FanoutPropertyTest, ParallelMatchesSequentialAcrossRandomizedWorkloads) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE(test_util::Cat("seed ", seed));
    Rng rng(0xfa40 + seed);
    const uint32_t shards = 1 + uint32_t(rng.Uniform(8));      // 1..8
    const uint32_t pool_size = uint32_t(rng.Uniform(9));       // 0..8
    const bool skew = seed % 3 == 2;  // every third seed: one-shard pile-up
    SCOPED_TRACE(test_util::Cat("shards=", shards, " pool=", pool_size,
                                skew ? " skew" : ""));

    auto seq = ShardedDb::Create(FanoutOptions(0), shards);
    auto par = ShardedDb::Create(FanoutOptions(pool_size), shards);
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    ASSERT_TRUE(par.ok()) << par.status().ToString();

    // Identical op sequence against both stores: per-shard timestamp
    // sequences depend only on the per-shard op order, so even the
    // timestamps must come out byte-identical.
    constexpr uint64_t kSpace = 300;
    std::vector<std::string> touched;
    for (int round = 0; round < 4; ++round) {
      ElsmDb::WriteBatch batch;
      const uint64_t batch_size = 20 + rng.Uniform(60);
      for (uint64_t i = 0; i < batch_size; ++i) {
        const std::string key = skew ? SkewedKey(rng, kSpace, shards)
                                     : Key(rng.Uniform(kSpace));
        touched.push_back(key);
        if (rng.Bernoulli(0.15)) {
          batch.Delete(key);
        } else {
          batch.Put(key, test_util::Cat("r", round, "-", key));
        }
      }
      ASSERT_TRUE(seq.value()->Write(batch).ok());
      ASSERT_TRUE(par.value()->Write(batch).ok());
      // Interleave point writes so memtables/flush boundaries move too.
      for (int i = 0; i < 10; ++i) {
        const std::string key = Key(rng.Uniform(kSpace));
        const std::string value = test_util::Cat("p", round * 10 + i);
        touched.push_back(key);
        ASSERT_TRUE(seq.value()->Put(key, value).ok());
        ASSERT_TRUE(par.value()->Put(key, value).ok());
      }
    }
    ASSERT_TRUE(seq.value()->Flush().ok());
    ASSERT_TRUE(par.value()->Flush().ok());

    // Scans: full space, random interior ranges, inverted (empty) range,
    // single-key ranges (short-circuited on the parallel path).
    const auto check_scan = [&](const std::string& lo, const std::string& hi) {
      auto a = seq.value()->Scan(lo, hi);
      auto b = par.value()->Scan(lo, hi);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      ExpectRecordsEqual(a.value(), b.value(),
                         "scan [" + lo + ", " + hi + "]");
    };
    check_scan(Key(0), Key(kSpace));
    for (int i = 0; i < 4; ++i) {
      const uint64_t lo = rng.Uniform(kSpace);
      const uint64_t hi = lo + rng.Uniform(kSpace - lo);
      check_scan(Key(lo), Key(hi));
    }
    check_scan(Key(200), Key(100));  // inverted: provably empty
    check_scan(touched.front(), touched.front());
    check_scan(Key(kSpace + 1), Key(kSpace + 1));  // single key, absent

    // MultiGet: shuffled mix of present, absent and duplicated keys. The
    // parallel result must match both the sequential MultiGet and a plain
    // per-key Get loop, slot for slot.
    std::vector<std::string> keys;
    for (int i = 0; i < 60; ++i) keys.push_back(Key(rng.Uniform(kSpace * 2)));
    for (int i = 0; i < 10; ++i) keys.push_back(keys[size_t(rng.Uniform(keys.size()))]);
    auto a = seq.value()->MultiGet(keys);
    auto b = par.value()->MultiGet(keys);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_EQ(a.value().size(), keys.size());
    ASSERT_EQ(b.value().size(), keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      auto got = seq.value()->Get(keys[i]);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(a.value()[i], got.value()) << keys[i];
      EXPECT_EQ(b.value()[i], got.value()) << keys[i];
    }
  }
}

TEST(FanoutPropertyTest, SharedPoolServesMultipleStores) {
  // Many ShardedDbs in one process share one pool via Options::fanout_pool
  // instead of each spawning workers.
  auto pool = std::make_shared<common::ThreadPool>(4);
  Options o = FanoutOptions(0);
  o.fanout_pool = pool;
  auto a = ShardedDb::Create(o, 4);
  auto b = ShardedDb::Create(o, 8);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value()->fanout_pool().get(), pool.get());
  EXPECT_EQ(b.value()->fanout_pool().get(), pool.get());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(a.value()->Put(Key(i), test_util::Cat("a", i)).ok());
    ASSERT_TRUE(b.value()->Put(Key(i), test_util::Cat("b", i)).ok());
  }
  auto sa = a.value()->Scan(Key(0), Key(199));
  auto sb = b.value()->Scan(Key(0), Key(199));
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ(sa.value().size(), 200u);
  EXPECT_EQ(sb.value().size(), 200u);
  EXPECT_EQ(sa.value()[0].value, "a0");
  EXPECT_EQ(sb.value()[0].value, "b0");
  EXPECT_GE(a.value()->fanout_stats().parallel_dispatches.load(), 1u);
  EXPECT_GE(b.value()->fanout_stats().parallel_dispatches.load(), 1u);
}

TEST(FanoutPropertyTest, MaintenancePathsFanOutAcrossShards) {
  // Flush/CompactAll route through the same FanOut machinery as the query
  // paths (ROADMAP item: they used to visit shards sequentially under
  // super_mu_): with a pool they dispatch in parallel, the super-manifest
  // still refreshes once at the end, and the store stays verifiable and
  // reopenable afterwards.
  auto env = std::make_shared<ShardEnv>();
  auto db = ShardedDb::Open(FanoutOptions(/*fanout_threads=*/4), 4, env);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (uint64_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(db.value()->Put(Key(i), test_util::Cat("v", i)).ok());
  }
  const uint64_t dispatches_before =
      db.value()->fanout_stats().parallel_dispatches.load();
  ASSERT_TRUE(db.value()->Flush().ok());
  ASSERT_TRUE(db.value()->CompactAll().ok());
  EXPECT_GE(db.value()->fanout_stats().parallel_dispatches.load(),
            dispatches_before + 2)
      << "maintenance did not dispatch on the fan-out pool";
  for (uint64_t i = 0; i < 400; i += 37) {
    auto got = db.value()->GetVerified(Key(i));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got.value().record.has_value());
    EXPECT_EQ(got.value().record->value, test_util::Cat("v", i));
  }
  ASSERT_TRUE(db.value()->Close().ok());
  // The super-manifest recorded post-maintenance shard digests: reopen.
  auto again = ShardedDb::Open(FanoutOptions(4), 4, env);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  auto got = again.value()->Get(Key(0));
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got.value().has_value());
  EXPECT_EQ(*got.value(), "v0");
}

TEST(FanoutPropertyTest, DeterministicKeyEncryptionRejectsEveryScanRange) {
  // The short-circuits must not mask the DE-keys configuration error: a
  // provably empty or single-key range errors exactly like a genuine one
  // (and like ElsmDb::Scan), instead of silently answering empty.
  Options o = FanoutOptions(2);
  o.deterministic_key_encryption = true;
  auto db = ShardedDb::Create(o, 4);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(db.value()->Put(Key(1), "v").ok());
  for (const auto& [lo, hi] : std::vector<std::pair<std::string, std::string>>{
           {Key(0), Key(9)}, {Key(9), Key(0)}, {Key(1), Key(1)}}) {
    auto got = db.value()->Scan(lo, hi);
    ASSERT_FALSE(got.ok()) << "[" << lo << ", " << hi << "]";
    EXPECT_EQ(got.status().code(), StatusCode::kNotSupported)
        << got.status().ToString();
  }
}

// --- scan short-circuit stats (regression) ----------------------------------

TEST(FanoutScanStatsTest, ShortCircuitSkipsProvablyEmptyShardScans) {
  constexpr uint32_t kShards = 4;
  auto db = ShardedDb::Create(FanoutOptions(2), kShards);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.value()->Put(Key(i), "v").ok());
  }
  const auto& stats = db.value()->fanout_stats();
  const auto engine_scans = [&] {
    uint64_t total = 0;
    for (uint32_t s = 0; s < kShards; ++s) {
      total += db.value()->shard(s).engine().stats().scans.load();
    }
    return total;
  };

  // A genuine range must consult every shard (hash routing scatters it).
  uint64_t invocations = stats.scan_shard_invocations.load();
  uint64_t engines = engine_scans();
  auto got = db.value()->Scan(Key(10), Key(90));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(stats.scan_shard_invocations.load(), invocations + kShards);
  EXPECT_EQ(engine_scans(), engines + kShards);

  // Inverted range: provably empty — no shard opens an iterator.
  invocations = stats.scan_shard_invocations.load();
  engines = engine_scans();
  uint64_t skipped = stats.scan_shards_skipped.load();
  got = db.value()->Scan(Key(90), Key(10));
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().empty());
  EXPECT_EQ(stats.scan_shard_invocations.load(), invocations);
  EXPECT_EQ(engine_scans(), engines) << "empty range still opened iterators";
  EXPECT_EQ(stats.scan_shards_skipped.load(), skipped + kShards);

  // Single-key range: only the owning shard runs, and it returns exactly
  // that key.
  invocations = stats.scan_shard_invocations.load();
  engines = engine_scans();
  skipped = stats.scan_shards_skipped.load();
  got = db.value()->Scan(Key(42), Key(42));
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value().size(), 1u);
  EXPECT_EQ(got.value()[0].key, Key(42));
  EXPECT_EQ(stats.scan_shard_invocations.load(), invocations + 1);
  EXPECT_EQ(engine_scans(), engines + 1)
      << "single-key range consulted more than the owning shard";
  EXPECT_EQ(stats.scan_shards_skipped.load(), skipped + kShards - 1);
}

// --- adversary: no partial success mid-fan-out ------------------------------

class FanoutAdversaryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = std::make_shared<ShardEnv>();
    auto db = ShardedDb::Open(FanoutOptions(4), kShards, env_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    for (int i = 0; i < 400; ++i) {
      keys_.push_back(Key(i));
      ASSERT_TRUE(db_->Put(keys_.back(), test_util::Cat("genuine", i)).ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
  }

  // Corrupts one SSTable of `shard` so reads touching it fail verification.
  void TamperShard(uint32_t shard) {
    std::string victim;
    for (const auto& name : env_->shard_fs[shard]->List("")) {
      if (name.ends_with(".sst")) {
        victim = name;
        break;
      }
    }
    ASSERT_FALSE(victim.empty());
    ASSERT_TRUE(
        auth::Adversary::CorruptFile(*env_->shard_fs[shard], victim, 100));
  }

  static constexpr uint32_t kShards = 4;
  std::shared_ptr<ShardEnv> env_;
  std::unique_ptr<ShardedDb> db_;
  std::vector<std::string> keys_;
};

TEST_F(FanoutAdversaryTest, TamperedShardFailsWholeParallelMultiGet) {
  TamperShard(1);
  // The MultiGet spans all shards; three answer honestly, one is tampered.
  // The whole call must fail closed — Result carries no value on error, so
  // partial success is impossible by construction; assert the status class.
  auto got = db_->MultiGet(keys_);
  ASSERT_FALSE(got.ok()) << "tampered shard went unnoticed mid-fan-out";
  EXPECT_TRUE(got.status().IsAuthFailure() || got.status().IsCorruption())
      << got.status().ToString();
  // Keys routed to intact shards still answer individually — the failure
  // above is the *cross-shard operation* failing closed, not collateral
  // damage on the healthy shards.
  for (const auto& key : keys_) {
    if (db_->ShardOf(key) == 1) continue;
    auto single = db_->Get(key);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    ASSERT_TRUE(single.value().has_value());
  }
}

TEST_F(FanoutAdversaryTest, TamperedShardFailsWholeParallelScan) {
  TamperShard(2);
  auto scanned = db_->Scan(Key(0), Key(399));
  ASSERT_FALSE(scanned.ok());
  EXPECT_TRUE(scanned.status().IsAuthFailure() ||
              scanned.status().IsCorruption())
      << scanned.status().ToString();
  // The single-key short-circuit must not widen the blast radius: a range
  // owned by an intact shard still verifies.
  std::string intact_key;
  for (const auto& key : keys_) {
    if (db_->ShardOf(key) != 2) {
      intact_key = key;
      break;
    }
  }
  auto ok_scan = db_->Scan(intact_key, intact_key);
  ASSERT_TRUE(ok_scan.ok()) << ok_scan.status().ToString();
  ASSERT_EQ(ok_scan.value().size(), 1u);
}

TEST_F(FanoutAdversaryTest, StaleShardManifestDetectedDespitePool) {
  // Roll one shard's sealed manifest *log* (snapshot file plus its delta
  // tail) back to an older, validly-sealed capture — stale freshness, not
  // byte corruption — and reopen: the super-manifest's last_ts floor must
  // reject it no matter how many fan-out threads the reopened instance is
  // configured with.
  const uint32_t victim = 3;
  const std::string shard_prefix =
      ShardedDb::ShardName(FanoutOptions(0).name, victim);
  auto capture_log = [&](std::map<std::string, std::string>* files) {
    files->clear();
    for (const std::string& name : env_->shard_fs[victim]->List("")) {
      if (name == shard_prefix + "/MANIFEST" ||
          name.starts_with(shard_prefix + "/EDITS-")) {
        auto bytes = env_->shard_fs[victim]->ReadAll(name);
        ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
        (*files)[name] = std::move(bytes).value();
      }
    }
  };
  std::map<std::string, std::string> stale;
  ASSERT_NO_FATAL_FAILURE(capture_log(&stale));
  ASSERT_FALSE(stale.empty());
  for (int i = 400; i < 800; ++i) {
    ASSERT_TRUE(db_->Put(Key(i), "epoch2").ok());
  }
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();
  std::map<std::string, std::string> current;
  ASSERT_NO_FATAL_FAILURE(capture_log(&current));
  for (const auto& [name, _] : current) {
    if (!stale.count(name)) {
      ASSERT_TRUE(env_->shard_fs[victim]->Delete(name).ok());
    }
  }
  for (const auto& [name, bytes] : stale) {
    ASSERT_TRUE(env_->shard_fs[victim]->Write(name, bytes).ok());
  }
  auto reopened = ShardedDb::Open(FanoutOptions(4), kShards, env_);
  ASSERT_FALSE(reopened.ok()) << "stale shard manifest accepted";
  EXPECT_TRUE(reopened.status().IsAuthFailure())
      << reopened.status().ToString();
}

// --- tsan-targeted stress ----------------------------------------------------

TEST(FanoutStressTest, PutBatchWritersRaceParallelScanAndMultiGetReaders) {
  // N writer threads issue cross-shard PutBatches while M reader threads
  // run parallel Scans and MultiGets, every shard compacting on its own
  // background thread and every cross-shard op fanning out on the shared
  // pool. Run under the tsan preset alongside the sharded concurrency test.
  constexpr uint32_t kShards = 4;
  constexpr int kKeys = 240;
  constexpr int kWriters = 2;
  Options o = FanoutOptions(4);
  o.memtable_bytes = 16 << 10;
  o.level1_bytes = 64 << 10;
  o.background_compaction = true;
  auto db = ShardedDb::Create(o, kShards);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db.value()->Put(Key(i), "round0000").ok());
  }
  ASSERT_TRUE(db.value()->Flush().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::atomic<int> auth_failures{0};

  // Each writer owns a disjoint key range; every batch scatters across all
  // shards, so the parallel sub-batch commits constantly overlap with the
  // other writer's and with the readers' fan-outs.
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const int lo = w * (kKeys / kWriters);
      const int hi = lo + kKeys / kWriters;
      char value[16];
      for (int round = 1; round <= 10; ++round) {
        std::snprintf(value, sizeof(value), "round%04d", round);
        for (int base = lo; base < hi; base += 24) {
          ElsmDb::WriteBatch batch;
          for (int i = base; i < std::min(base + 24, hi); ++i) {
            batch.Put(Key(i), value);
          }
          if (!db.value()->Write(batch).ok()) ++errors;
        }
      }
    });
  }

  std::thread multigetter([&] {
    uint64_t ops = 0;
    while (!stop.load() || ops < 200) {
      std::vector<std::string> keys;
      for (int i = 0; i < 16; ++i) {
        keys.push_back(Key((ops * 31 + uint64_t(i) * 7) % kKeys));
      }
      keys.push_back(keys[0]);  // duplicate slot under race, too
      auto got = db.value()->MultiGet(keys);
      if (!got.ok()) {
        ++errors;
        if (got.status().IsAuthFailure()) ++auth_failures;
      } else {
        for (const auto& v : got.value()) {
          if (!v.has_value()) ++errors;  // every key was seeded
        }
      }
      if (++ops > 100000) break;
    }
  });

  std::thread scanner([&] {
    uint64_t scans = 0;
    while (!stop.load() || scans < 30) {
      const int base = static_cast<int>((scans * 17) % (kKeys - 20));
      auto got = db.value()->Scan(Key(base), Key(base + 10));
      if (!got.ok()) {
        ++errors;
        if (got.status().IsAuthFailure()) ++auth_failures;
      } else if (got.value().empty()) {
        ++errors;
      }
      if (++scans > 20000) break;
    }
  });

  for (auto& t : writers) t.join();
  stop = true;
  multigetter.join();
  scanner.join();
  EXPECT_TRUE(db.value()->WaitForCompaction().ok());

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(auth_failures.load(), 0);
  EXPECT_GT(db.value()->fanout_stats().parallel_dispatches.load(), 0u);

  // Quiesced end state: the final round won on every key.
  for (int i = 0; i < kKeys; i += 11) {
    auto got = db.value()->GetVerified(Key(i));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got.value().record.has_value());
    EXPECT_EQ(got.value().record->value, "round0010");
  }
}

}  // namespace
}  // namespace elsm
