// ShardedDb router tests: stable key routing, verified cross-shard scans
// (ordering + completeness vs a shadow map), persistence across reopen,
// and the cross-shard trust argument — tampering with one shard, dropping
// a whole shard's directory, swapping shard directories, re-partitioning
// under a different shard count, and deleting the super-manifest must all
// surface as errors (AuthFailure & friends), never as wrong answers.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "auth/adversary.h"
#include "common/coding.h"
#include "common/random.h"
#include "elsm/sharded_db.h"
#include "storage/fault_fs.h"
#include "str_cat.h"

namespace elsm {
namespace {

Options ShardOptions() {
  Options o;
  o.mode = Mode::kP2;
  o.memtable_bytes = 4 << 10;
  o.level1_bytes = 16 << 10;
  o.level_ratio = 4;
  o.block_bytes = 1024;
  o.file_bytes = 8 << 10;
  return o;
}

std::string Key(int i) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

// The one file under `prefix` (a manifest log's live tail).
std::string OnlyFile(storage::Fs& fs, const std::string& prefix) {
  auto names = fs.List(prefix);
  EXPECT_EQ(names.size(), 1u) << "expected exactly one " << prefix << "*";
  return names.empty() ? std::string() : names[0];
}

// Splits a manifest-log tail into self-contained frames (Fixed32 length +
// sealed record each), so attacks can drop, reorder or duplicate whole
// records and write the file back as a plain concatenation.
std::vector<std::string> ReadFrames(storage::Fs& fs, const std::string& name) {
  auto raw = fs.ReadAll(name);
  EXPECT_TRUE(raw.ok()) << raw.status().ToString();
  std::vector<std::string> frames;
  if (!raw.ok()) return frames;
  std::string_view cursor(raw.value());
  while (cursor.size() >= 4) {
    std::string_view peek = cursor;
    uint32_t len = 0;
    EXPECT_TRUE(GetFixed32(&peek, &len));
    if (peek.size() < len) break;
    frames.emplace_back(cursor.substr(0, 4 + len));
    cursor.remove_prefix(4 + len);
  }
  EXPECT_TRUE(cursor.empty()) << "torn tail in a cleanly closed store";
  return frames;
}

void WriteFrames(storage::Fs& fs, const std::string& name,
                 const std::vector<std::string>& frames) {
  std::string raw;
  for (const std::string& frame : frames) raw += frame;
  ASSERT_TRUE(fs.Write(name, raw).ok());
}

// `sealed` framed as one tail record.
std::string Frame(const std::string& sealed) {
  std::string frame;
  PutFixed32(&frame, static_cast<uint32_t>(sealed.size()));
  return frame + sealed;
}

TEST(ShardedDbTest, RoutingIsStableAndCoversAllShards) {
  constexpr uint32_t kShards = 8;
  auto db = ShardedDb::Create(ShardOptions(), kShards);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  std::set<uint32_t> used;
  for (int i = 0; i < 500; ++i) {
    const std::string key = Key(i);
    const uint32_t shard = db.value()->ShardOf(key);
    ASSERT_LT(shard, kShards);
    // The free router function and the instance agree (tests/benches use
    // the former to predict placement).
    EXPECT_EQ(shard, ShardForKey(key, kShards));
    used.insert(shard);
    ASSERT_TRUE(db.value()->Put(key, test_util::Cat("v", i)).ok());
  }
  EXPECT_EQ(used.size(), kShards) << "hash router left shards empty";

  // The record actually lives on the owning shard and nowhere else.
  for (int i = 0; i < 500; i += 37) {
    const std::string key = Key(i);
    const uint32_t owner = db.value()->ShardOf(key);
    for (uint32_t s = 0; s < kShards; ++s) {
      auto got = db.value()->shard(s).Get(key);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value().has_value(), s == owner) << key << " shard " << s;
    }
  }
}

TEST(ShardedDbTest, CrossShardScanIsOrderedAndComplete) {
  auto db = ShardedDb::Create(ShardOptions(), 4);
  ASSERT_TRUE(db.ok());
  std::map<std::string, std::string> shadow;
  Rng rng(0x5ca9);
  for (int i = 0; i < 600; ++i) {
    const std::string key = Key(int(rng.Uniform(400)));
    const std::string value = test_util::Cat("v", i);
    ASSERT_TRUE(db.value()->Put(key, value).ok());
    shadow[key] = value;
  }
  // Sprinkle deletes so tombstones cross the merge too.
  for (int i = 0; i < 400; i += 13) {
    ASSERT_TRUE(db.value()->Delete(Key(i)).ok());
    shadow.erase(Key(i));
  }
  ASSERT_TRUE(db.value()->Flush().ok());

  const auto check_range = [&](int lo, int hi) {
    auto got = db.value()->Scan(Key(lo), Key(hi));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto it = shadow.lower_bound(Key(lo));
    size_t n = 0;
    std::string prev;
    for (const auto& r : got.value()) {
      ASSERT_TRUE(prev.empty() || prev < r.key)
          << "merge broke global key order";
      prev = r.key;
      ASSERT_NE(it, shadow.end()) << "scan produced extra key " << r.key;
      EXPECT_EQ(r.key, it->first);
      EXPECT_EQ(r.value, it->second);
      ++it;
      ++n;
    }
    // The shadow iterator must also be exhausted within the range.
    EXPECT_TRUE(it == shadow.end() || it->first > Key(hi))
        << "scan dropped key " << it->first;
    (void)n;
  };
  check_range(0, 399);    // whole space
  check_range(37, 180);   // interior range
  check_range(390, 999);  // tail
}

TEST(ShardedDbTest, PersistsAcrossReopenViaSharedEnv) {
  auto env = std::make_shared<ShardEnv>();
  std::map<std::string, std::string> shadow;
  {
    auto db = ShardedDb::Open(ShardOptions(), 4, env);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), test_util::Cat("gen", i)).ok());
      shadow[Key(i)] = test_util::Cat("gen", i);
    }
    ASSERT_TRUE(db.value()->Close().ok());
  }
  auto db = ShardedDb::Open(ShardOptions(), 4, env);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (const auto& [key, value] : shadow) {
    auto got = db.value()->GetVerified(key);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got.value().record.has_value()) << key;
    EXPECT_EQ(got.value().record->value, value);
  }
  auto scanned = db.value()->Scan(Key(0), Key(299));
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned.value().size(), shadow.size());
}

TEST(ShardedDbTest, ReopenHashesEachShardLogOnce) {
  constexpr uint32_t kShards = 4;
  const Options o = ShardOptions();
  auto env = std::make_shared<ShardEnv>();
  {
    auto db = ShardedDb::Open(o, kShards, env);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (int i = 0; i < 600; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), test_util::Cat("v", i)).ok());
    }
    ASSERT_TRUE(db.value()->Close().ok());
  }
  auto bytes_under = [](storage::Fs& fs, const std::string& prefix) {
    uint64_t total = 0;
    for (const std::string& name : fs.List(prefix)) {
      total += fs.FileSize(name).value();
    }
    return total;
  };
  uint64_t shard_log_bytes = 0;
  for (uint32_t i = 0; i < kShards; ++i) {
    const std::string shard = ShardedDb::ShardName(o.name, i);
    shard_log_bytes += bytes_under(*env->shard_fs[i], shard + "/MANIFEST") +
                       bytes_under(*env->shard_fs[i], shard + "/EDITS-");
  }
  const uint64_t super_log_bytes =
      bytes_under(*env->meta_fs, o.name + "/SUPER");
  ASSERT_GT(shard_log_bytes, super_log_bytes);

  auto db = ShardedDb::Open(o, kShards, env);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Verification hashes each shard log once; the open-time persist records
  // the states it checked instead of reading the logs again.
  const uint64_t hashed = db.value()->meta_enclave().counters().bytes_hashed;
  EXPECT_GE(hashed, shard_log_bytes);
  EXPECT_LE(hashed, shard_log_bytes + super_log_bytes);
}

TEST(ShardedDbTest, WriteBatchRoutesAcrossShards) {
  auto db = ShardedDb::Create(ShardOptions(), 4);
  ASSERT_TRUE(db.ok());
  ElsmDb::WriteBatch batch;
  for (int i = 0; i < 200; ++i) batch.Put(Key(i), "batched");
  ASSERT_TRUE(db.value()->Write(batch).ok());
  for (int i = 0; i < 200; ++i) {
    auto got = db.value()->Get(Key(i));
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got.value().has_value()) << Key(i);
    EXPECT_EQ(*got.value(), "batched");
  }
  ElsmDb::WriteBatch deletes;
  for (int i = 0; i < 200; i += 2) deletes.Delete(Key(i));
  ASSERT_TRUE(db.value()->Write(deletes).ok());
  for (int i = 0; i < 200; ++i) {
    auto got = db.value()->Get(Key(i));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().has_value(), i % 2 == 1) << Key(i);
  }
}

// --- adversary cases --------------------------------------------------------

class ShardedAdversaryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = std::make_shared<ShardEnv>();
    auto db = ShardedDb::Open(ShardOptions(), kShards, env_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(db_->Put(Key(i), test_util::Cat("genuine", i)).ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
  }

  static constexpr uint32_t kShards = 4;
  std::shared_ptr<ShardEnv> env_;
  std::unique_ptr<ShardedDb> db_;
};

TEST_F(ShardedAdversaryTest, TamperedShardSstableDetectedNotMisreturned) {
  // Corrupt one SSTable of shard 1; reads routed there must fail closed,
  // while the untouched shards keep answering.
  const uint32_t victim_shard = 1;
  std::string victim;
  for (const auto& name : env_->shard_fs[victim_shard]->List("")) {
    if (name.ends_with(".sst")) {
      victim = name;
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  ASSERT_TRUE(auth::Adversary::CorruptFile(*env_->shard_fs[victim_shard],
                                           victim, 100));

  int failures = 0;
  for (int i = 0; i < 400; ++i) {
    auto got = db_->GetVerified(Key(i));
    if (db_->ShardOf(Key(i)) == victim_shard) {
      if (!got.ok()) {
        EXPECT_TRUE(got.status().IsAuthFailure() ||
                    got.status().IsCorruption())
            << got.status().ToString();
        ++failures;
      } else if (got.value().record.has_value()) {
        // A hit that did come back must still be the genuine value.
        EXPECT_EQ(got.value().record->value, test_util::Cat("genuine", i));
      }
    } else {
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(got.value().record.has_value());
      EXPECT_EQ(got.value().record->value, test_util::Cat("genuine", i));
    }
  }
  EXPECT_GT(failures, 0) << "tampering went unnoticed";

  // The cross-shard scan merges the victim shard — it must fail closed too.
  auto scanned = db_->Scan(Key(0), Key(399));
  ASSERT_FALSE(scanned.ok());
  EXPECT_TRUE(scanned.status().IsAuthFailure() ||
              scanned.status().IsCorruption())
      << scanned.status().ToString();
}

TEST_F(ShardedAdversaryTest, DroppedShardDirectoryDetectedOnReopen) {
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();
  // The host silently deletes everything shard 2 ever stored.
  for (const auto& name : env_->shard_fs[2]->List("")) {
    ASSERT_TRUE(env_->shard_fs[2]->Delete(name).ok());
  }
  auto reopened = ShardedDb::Open(ShardOptions(), kShards, env_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsAuthFailure())
      << reopened.status().ToString();
}

TEST_F(ShardedAdversaryTest, SwappedShardDirectoriesDetectedOnReopen) {
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();
  // The host re-homes shard 0's directory as shard 3 and vice versa. The
  // per-shard derived sealing keys make either manifest unreadable in its
  // new home.
  std::swap(env_->shard_fs[0], env_->shard_fs[3]);
  auto reopened = ShardedDb::Open(ShardOptions(), kShards, env_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsAuthFailure())
      << reopened.status().ToString();
}

TEST_F(ShardedAdversaryTest, ShardCountIsSealedAgainstRepartitioning) {
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();
  // Re-opening the 4-shard store as 2 shards would re-route half the keys
  // into silent misses; the sealed shard count refuses.
  env_->shard_fs.resize(2);
  env_->shard_platforms.resize(2);
  auto reopened = ShardedDb::Open(ShardOptions(), 2, env_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument)
      << reopened.status().ToString();
}

TEST_F(ShardedAdversaryTest, DeletedSuperManifestDetectedOnReopen) {
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();
  ASSERT_TRUE(env_->meta_fs->Delete(ShardOptions().name + "/SUPER").ok());
  auto reopened = ShardedDb::Open(ShardOptions(), kShards, env_);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsRollbackDetected())
      << reopened.status().ToString();
}

// A shard's own log is read by the super-manifest check before the shard
// opens; a record moved between the snapshot and tail positions must read
// as tampering there, exactly as on a single store.
TEST_F(ShardedAdversaryTest, ShardDeltaRecordAsSnapshotDetected) {
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();
  storage::Fs& fs = *env_->shard_fs[1];
  const std::string shard = ShardedDb::ShardName(ShardOptions().name, 1);
  auto frames = ReadFrames(fs, OnlyFile(fs, shard + "/EDITS-"));
  ASSERT_GE(frames.size(), 1u);
  ASSERT_TRUE(fs.Write(shard + "/MANIFEST", frames.back().substr(4)).ok());
  auto reopened = ShardedDb::Open(ShardOptions(), kShards, env_);
  ASSERT_FALSE(reopened.ok()) << "shard delta record accepted as snapshot";
  EXPECT_TRUE(reopened.status().IsAuthFailure())
      << reopened.status().ToString();
}

TEST_F(ShardedAdversaryTest, ShardSnapshotSplicedIntoTailDetected) {
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();
  storage::Fs& fs = *env_->shard_fs[1];
  const std::string shard = ShardedDb::ShardName(ShardOptions().name, 1);
  const std::string tail = OnlyFile(fs, shard + "/EDITS-");
  auto frames = ReadFrames(fs, tail);
  auto snapshot = fs.ReadAll(shard + "/MANIFEST");
  ASSERT_TRUE(snapshot.ok());
  frames.push_back(Frame(snapshot.value()));
  WriteFrames(fs, tail, frames);
  auto reopened = ShardedDb::Open(ShardOptions(), kShards, env_);
  ASSERT_FALSE(reopened.ok()) << "shard snapshot accepted inside its tail";
  EXPECT_TRUE(reopened.status().IsAuthFailure())
      << reopened.status().ToString();
}

// --- super-manifest edit-log adversary --------------------------------------
//
// The super-manifest is the same sealed log class as the per-shard
// manifests: a SUPER snapshot plus a hash-chained SUPER-EDITS tail of
// delta records. Structural attacks on that log (truncate, reorder,
// duplicate, stale replay, dropped snapshot, splices between the snapshot
// and tail positions, a counter gap wider than one) must fail closed
// exactly like their single-store counterparts in security_test.cc.
class SuperLogAdversaryTest : public ShardedAdversaryTest {
 protected:
  // Another write+flush round so the super tail gains one more sealed
  // delta record (per-shard digests change, so the refresh appends).
  void AdvanceEpoch(const std::string& value) {
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(db_->Put(Key(i), value).ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
  }

  void CloseDb() {
    ASSERT_TRUE(db_->Close().ok());
    db_.reset();
  }

  std::string SuperTailName() {
    return OnlyFile(*env_->meta_fs, ShardOptions().name + "/SUPER-EDITS-");
  }

  std::vector<std::string> SuperTailFrames() {
    return ReadFrames(*env_->meta_fs, SuperTailName());
  }

  void WriteSuperTail(const std::vector<std::string>& frames) {
    WriteFrames(*env_->meta_fs, SuperTailName(), frames);
  }
};

TEST_F(SuperLogAdversaryTest, TruncatedSuperTailDetectedAsRollback) {
  AdvanceEpoch("epoch2");
  CloseDb();
  auto frames = SuperTailFrames();
  ASSERT_GE(frames.size(), 2u);
  frames.pop_back();
  WriteSuperTail(frames);
  auto reopened = ShardedDb::Open(ShardOptions(), kShards, env_);
  ASSERT_FALSE(reopened.ok()) << "truncated super tail accepted";
  EXPECT_TRUE(reopened.status().IsRollbackDetected())
      << reopened.status().ToString();
}

TEST_F(SuperLogAdversaryTest, ReorderedSuperTailRecordsDetected) {
  AdvanceEpoch("epoch2");
  CloseDb();
  auto frames = SuperTailFrames();
  ASSERT_GE(frames.size(), 2u);
  std::swap(frames[0], frames[1]);
  WriteSuperTail(frames);
  auto reopened = ShardedDb::Open(ShardOptions(), kShards, env_);
  ASSERT_FALSE(reopened.ok()) << "reordered super tail accepted";
  EXPECT_TRUE(reopened.status().IsAuthFailure())
      << reopened.status().ToString();
}

TEST_F(SuperLogAdversaryTest, StaleSuperLogReplayDetected) {
  // Capture the super log (snapshot + tail), advance every layer, then
  // roll only the super log back to the authentic-but-stale capture. The
  // newest surviving record's sealed meta counter is behind the hardware.
  CloseDb();
  std::map<std::string, std::string> capture;
  for (const std::string& name :
       {std::string(ShardOptions().name + "/SUPER"), SuperTailName()}) {
    auto bytes = env_->meta_fs->ReadAll(name);
    ASSERT_TRUE(bytes.ok());
    capture[name] = std::move(bytes).value();
  }
  {
    auto db = ShardedDb::Open(ShardOptions(), kShards, env_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), "fresher").ok());
    }
    ASSERT_TRUE(db.value()->Flush().ok());
    ASSERT_TRUE(db.value()->Close().ok());
  }
  for (const auto& [name, bytes] : capture) {
    ASSERT_TRUE(env_->meta_fs->Write(name, bytes).ok());
  }
  auto reopened = ShardedDb::Open(ShardOptions(), kShards, env_);
  ASSERT_FALSE(reopened.ok()) << "stale super log accepted";
  EXPECT_TRUE(reopened.status().IsRollbackDetected())
      << reopened.status().ToString();
}

TEST_F(SuperLogAdversaryTest, DroppedSuperSnapshotUnderTailFailsClosed) {
  CloseDb();
  ASSERT_TRUE(env_->meta_fs->Delete(ShardOptions().name + "/SUPER").ok());
  ASSERT_TRUE(env_->meta_fs->Exists(SuperTailName()));
  auto reopened = ShardedDb::Open(ShardOptions(), kShards, env_);
  ASSERT_FALSE(reopened.ok()) << "super tail without its snapshot accepted";
  EXPECT_TRUE(reopened.status().IsRollbackDetected() ||
              reopened.status().IsAuthFailure())
      << reopened.status().ToString();
}

TEST_F(SuperLogAdversaryTest, DuplicatedSuperTailRecordDetected) {
  // A legitimate record replayed at a second position breaks seq + 1 even
  // though its seal verifies.
  CloseDb();
  auto frames = SuperTailFrames();
  ASSERT_GE(frames.size(), 1u);
  frames.push_back(frames.back());
  WriteSuperTail(frames);
  auto reopened = ShardedDb::Open(ShardOptions(), kShards, env_);
  ASSERT_FALSE(reopened.ok()) << "duplicated super record accepted";
  EXPECT_TRUE(reopened.status().IsAuthFailure())
      << reopened.status().ToString();
}

TEST_F(SuperLogAdversaryTest, SnapshotSplicedIntoSuperTailDetected) {
  CloseDb();
  auto snapshot = env_->meta_fs->ReadAll(ShardOptions().name + "/SUPER");
  ASSERT_TRUE(snapshot.ok());
  auto frames = SuperTailFrames();
  frames.push_back(Frame(snapshot.value()));
  WriteSuperTail(frames);
  auto reopened = ShardedDb::Open(ShardOptions(), kShards, env_);
  ASSERT_FALSE(reopened.ok()) << "SUPER snapshot accepted inside the tail";
  EXPECT_TRUE(reopened.status().IsAuthFailure())
      << reopened.status().ToString();
}

TEST_F(SuperLogAdversaryTest, DeltaRecordAsSuperSnapshotDetected) {
  CloseDb();
  auto frames = SuperTailFrames();
  ASSERT_GE(frames.size(), 1u);
  ASSERT_TRUE(env_->meta_fs
                  ->Write(ShardOptions().name + "/SUPER",
                          frames.back().substr(4))
                  .ok());
  auto reopened = ShardedDb::Open(ShardOptions(), kShards, env_);
  ASSERT_FALSE(reopened.ok()) << "super delta record accepted as SUPER";
  EXPECT_TRUE(reopened.status().IsAuthFailure())
      << reopened.status().ToString();
}

TEST_F(SuperLogAdversaryTest, MetaCounterOneAheadWindowIsExactlyOne) {
  // The newest super record may be exactly one ahead of the meta counter
  // (crash between record and bump); recovery syncs the hardware up for
  // that gap and fails closed for any wider one.
  CloseDb();
  const uint64_t hw = env_->meta_platform->counter.Read();
  ASSERT_GE(hw, 2u);
  auto behind = [&](uint64_t gap) {
    auto platform = std::make_shared<TrustedPlatform>();
    platform->sealing_key = env_->meta_platform->sealing_key;
    for (uint64_t i = 0; i + gap < hw; ++i) platform->counter.Increment();
    return platform;
  };

  env_->meta_platform = behind(2);
  auto rejected = ShardedDb::Open(ShardOptions(), kShards, env_);
  ASSERT_FALSE(rejected.ok()) << "two-ahead sealed meta counter accepted";
  EXPECT_TRUE(rejected.status().IsCorruption())
      << rejected.status().ToString();

  env_->meta_platform = behind(1);
  auto reopened = ShardedDb::Open(ShardOptions(), kShards, env_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(env_->meta_platform->counter.Read(), hw)
      << "recovery must sync the meta counter to the sealed value";
  ASSERT_TRUE(reopened.value()->Close().ok());
}

TEST(ShardedRollbackTest, SingleShardRollbackInsideCounterWindowDetected) {
  // With a long counter-sync period a shard's monotonic counter never
  // bumps, so rolling that one shard back to an older-but-validly-sealed
  // snapshot passes the shard's own counter check. The super-manifest's
  // per-shard last_ts floor must still catch it.
  Options o = ShardOptions();
  o.counter_sync_period = 1000;  // no counter bumps within this test
  auto env = std::make_shared<ShardEnv>();
  constexpr uint32_t kShards = 4;
  {
    auto db = ShardedDb::Open(o, kShards, env);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), "epoch1").ok());
    }
    ASSERT_TRUE(db.value()->Close().ok());
  }
  // Snapshot shard 1's whole (authentic) epoch-1 disk.
  std::map<std::string, std::string> snapshot;
  for (const auto& name : env->shard_fs[1]->List("")) {
    snapshot[name] = *env->shard_fs[1]->Blob(name);
  }
  {
    auto db = ShardedDb::Open(o, kShards, env);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), "epoch2").ok());
    }
    ASSERT_TRUE(db.value()->Close().ok());
  }
  // Adversary restores only shard 1 to the epoch-1 state.
  for (const auto& name : env->shard_fs[1]->List("")) {
    if (!snapshot.count(name)) {
      ASSERT_TRUE(env->shard_fs[1]->Delete(name).ok());
    }
  }
  for (const auto& [name, bytes] : snapshot) {
    ASSERT_TRUE(env->shard_fs[1]->Write(name, bytes).ok());
  }
  auto reopened = ShardedDb::Open(o, kShards, env);
  ASSERT_FALSE(reopened.ok()) << "single-shard rollback went unnoticed";
  EXPECT_TRUE(reopened.status().IsAuthFailure())
      << reopened.status().ToString();
}

TEST(ShardedRollbackTest, CrossShardManifestReplayDetected) {
  // The host copies shard 3's (validly sealed) manifest bytes over shard
  // 0's manifest. The derived per-shard sealing keys make it unreadable in
  // its new home.
  auto env = std::make_shared<ShardEnv>();
  constexpr uint32_t kShards = 4;
  {
    auto db = ShardedDb::Open(ShardOptions(), kShards, env);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), "v").ok());
    }
    ASSERT_TRUE(db.value()->Close().ok());
  }
  const std::string base = ShardOptions().name;
  auto donor = env->shard_fs[3]->Blob(
      ShardedDb::ShardName(base, 3) + "/MANIFEST");
  ASSERT_NE(donor, nullptr);
  ASSERT_TRUE(env->shard_fs[0]
                  ->Write(ShardedDb::ShardName(base, 0) + "/MANIFEST", *donor)
                  .ok());
  auto reopened = ShardedDb::Open(ShardOptions(), kShards, env);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsAuthFailure())
      << reopened.status().ToString();
}

TEST(ShardedCrashTest, SingleShardCrashRecoversWithoutAuthFailure) {
  // A benign crash on ONE shard's disk must not read as an attack on the
  // sharded store: reopen recovers the torn shard from its WAL and the
  // other shards untouched.
  auto env = std::make_shared<ShardEnv>();
  env->shard_fs.resize(3);
  auto enclave = std::make_shared<sgx::Enclave>(sgx::CostModel{}, true);
  auto fault = std::make_shared<storage::FaultFs>(enclave);
  env->shard_fs[1] = fault;

  std::map<std::string, std::string> shadow;
  std::string in_flight_key;
  {
    auto db = ShardedDb::Open(ShardOptions(), 3, env);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), "stable").ok());
      shadow[Key(i)] = "stable";
    }
    ASSERT_TRUE(db.value()->Flush().ok());
    fault->ScheduleCrash(3, /*keep_fraction=*/0.4);
    for (int i = 200; i < 400; ++i) {
      Status s = db.value()->Put(Key(i), "racing");
      if (!s.ok()) {
        EXPECT_TRUE(fault->crashed());
        in_flight_key = Key(i);
        break;
      }
      shadow[Key(i)] = "racing";
    }
    ASSERT_TRUE(fault->crashed()) << "crash never fired";
    // Power loss: no Close(). The destructor's persist fails on shard 1.
  }

  fault->ClearCrash();
  auto db = ShardedDb::Open(ShardOptions(), 3, env);
  ASSERT_TRUE(db.ok()) << "benign shard crash read as attack: "
                       << db.status().ToString();
  for (const auto& [key, value] : shadow) {
    if (key == in_flight_key) continue;
    auto got = db.value()->GetVerified(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    ASSERT_TRUE(got.value().record.has_value()) << key;
    EXPECT_EQ(got.value().record->value, value) << key;
  }
}

}  // namespace
}  // namespace elsm
