// LSM substrate tests: record codec, skiplist ordering/visibility, bloom
// filter properties, SSTable build/parse, level metadata codec, and engine
// behaviours (flush, ripple compaction, tombstone purge, listener hooks).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/random.h"
#include "lsm/bloom.h"
#include "lsm/engine.h"
#include "lsm/record.h"
#include "lsm/skiplist.h"
#include "lsm/sstable.h"
#include "lsm/version.h"
#include "storage/simfs.h"
#include "str_cat.h"

namespace elsm::lsm {
namespace {

std::shared_ptr<sgx::Enclave> MakeEnclave() {
  return std::make_shared<sgx::Enclave>(sgx::CostModel{}, true);
}

Record MakeRecord(const std::string& key, const std::string& value,
                  uint64_t ts, RecordType type = RecordType::kValue) {
  Record r;
  r.key = key;
  r.value = value;
  r.ts = ts;
  r.type = type;
  return r;
}

TEST(RecordTest, EncodeDecodeRoundTrip) {
  const Record r = MakeRecord("key\x00with-nul", std::string(300, 'v'), 42);
  std::string encoded = r.EncodeCore();
  std::string_view cursor(encoded);
  auto decoded = Record::DecodeCore(&cursor);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(cursor.empty());
  EXPECT_EQ(decoded.value(), r);
}

TEST(RecordTest, TombstoneRoundTrip) {
  const Record r = MakeRecord("k", "", 7, RecordType::kTombstone);
  std::string encoded = r.EncodeCore();
  std::string_view cursor(encoded);
  auto decoded = Record::DecodeCore(&cursor);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().deleted());
}

TEST(RecordTest, DecodeRejectsGarbage) {
  std::string_view garbage("\xff\xff\xff\xff");
  EXPECT_FALSE(Record::DecodeCore(&garbage).ok());
  std::string_view empty;
  EXPECT_FALSE(Record::DecodeCore(&empty).ok());
}

TEST(RecordTest, InternalOrderingKeyAscTsDesc) {
  InternalKeyLess less;
  EXPECT_TRUE(less(MakeRecord("a", "", 1), MakeRecord("b", "", 9)));
  EXPECT_TRUE(less(MakeRecord("a", "", 9), MakeRecord("a", "", 1)));
  EXPECT_FALSE(less(MakeRecord("a", "", 1), MakeRecord("a", "", 9)));
}

TEST(SkipListTest, InsertAndFindNewest) {
  SkipList list;
  list.Insert(MakeRecord("k", "v1", 1));
  list.Insert(MakeRecord("k", "v2", 2));
  list.Insert(MakeRecord("k", "v3", 3));
  const Record* r = list.Find("k", UINT64_MAX);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->value, "v3");
}

TEST(SkipListTest, TimeTravelVisibility) {
  SkipList list;
  for (uint64_t ts = 1; ts <= 10; ++ts) {
    list.Insert(MakeRecord("k", test_util::Cat("v", ts), ts));
  }
  for (uint64_t ts = 1; ts <= 10; ++ts) {
    const Record* r = list.Find("k", ts);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->value, test_util::Cat("v", ts));
  }
  EXPECT_EQ(list.Find("k", 0), nullptr);
}

TEST(SkipListTest, IteratorYieldsSortedOrder) {
  SkipList list;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    list.Insert(MakeRecord(test_util::Cat("key", rng.Uniform(100)), "v",
                           uint64_t(i + 1)));
  }
  InternalKeyLess less;
  int count = 0;
  const Record* prev = nullptr;
  for (auto it = list.NewIterator(); it.Valid(); it.Next()) {
    if (prev != nullptr) {
      EXPECT_TRUE(less(*prev, it.record()));
    }
    prev = &it.record();
    ++count;
  }
  EXPECT_EQ(count, 500);
}

TEST(SkipListTest, FindMissingKey) {
  SkipList list;
  list.Insert(MakeRecord("b", "v", 1));
  EXPECT_EQ(list.Find("a", UINT64_MAX), nullptr);
  EXPECT_EQ(list.Find("c", UINT64_MAX), nullptr);
}

TEST(BloomTest, NoFalseNegatives) {
  BloomFilter bloom(10, 2000);
  for (int i = 0; i < 2000; ++i) bloom.Add(test_util::Cat("key", i));
  for (int i = 0; i < 2000; ++i) {
    EXPECT_TRUE(bloom.MayContain(test_util::Cat("key", i))) << i;
  }
}

TEST(BloomTest, LowFalsePositiveRate) {
  BloomFilter bloom(10, 2000);
  for (int i = 0; i < 2000; ++i) bloom.Add(test_util::Cat("key", i));
  int fps = 0;
  for (int i = 0; i < 10000; ++i) {
    if (bloom.MayContain(test_util::Cat("absent", i))) ++fps;
  }
  EXPECT_LT(fps, 300);  // ~1% expected at 10 bits/key; generous bound
}

TEST(BloomTest, EmptyFilterRejectsEverything) {
  BloomFilter bloom;
  EXPECT_FALSE(bloom.MayContain("anything"));
}

TEST(BloomTest, EncodeDecodeRoundTrip) {
  BloomFilter bloom(10, 100);
  for (int i = 0; i < 100; ++i) bloom.Add(test_util::Cat("k", i));
  BloomFilter decoded = BloomFilter::Decode(bloom.Encode());
  EXPECT_EQ(decoded.key_count(), bloom.key_count());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(decoded.MayContain(test_util::Cat("k", i)));
  }
}

TEST(SSTableTest, BuildAndParseBlocks) {
  SSTableBuilder builder(256);
  for (int i = 0; i < 100; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%04d", i);
    builder.Add(MakeRecord(key, test_util::Cat("value", i), uint64_t(i + 1)),
                test_util::Cat("proof", i));
  }
  FileMeta meta;
  const std::string image = builder.Finish(&meta);
  EXPECT_EQ(meta.num_records, 100u);
  EXPECT_GT(meta.blocks.size(), 1u);
  EXPECT_EQ(meta.smallest, "k0000");
  EXPECT_EQ(meta.largest, "k0099");

  size_t total = 0;
  for (const BlockHandle& block : meta.blocks) {
    auto entries = ParseBlock(
        std::string_view(image).substr(block.offset, block.size));
    ASSERT_TRUE(entries.ok());
    EXPECT_EQ(entries.value().size(), block.num_entries);
    EXPECT_EQ(entries.value().front().record.key, block.first_key);
    total += entries.value().size();
  }
  EXPECT_EQ(total, 100u);
}

TEST(SSTableTest, GroupsNeverStraddleBlocks) {
  SSTableBuilder builder(128);  // tiny blocks force splits
  for (int g = 0; g < 30; ++g) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%04d", g);
    for (int v = 5; v >= 1; --v) {  // 5 versions, newest first
      builder.Add(MakeRecord(key, std::string(20, 'v'), uint64_t(v)), "");
    }
  }
  FileMeta meta;
  const std::string image = builder.Finish(&meta);
  for (const BlockHandle& block : meta.blocks) {
    auto entries = ParseBlock(
        std::string_view(image).substr(block.offset, block.size));
    ASSERT_TRUE(entries.ok());
    // Each block must start at a group head: first entry's key differs from
    // the previous block's last key (checked via first_key monotonicity)
    // and contains all 5 versions of every key it includes.
    std::map<std::string, int> counts;
    for (const RawEntry& e : entries.value()) ++counts[e.record.key];
    for (const auto& [k, c] : counts) EXPECT_EQ(c, 5) << k;
  }
}

TEST(SSTableTest, BlockDigestDetectsTamper) {
  // Each block's one tag is the SHA-256 of its bytes, computed only when
  // the builder is asked to (a store that checks its blocks); a flipped
  // byte no longer matches it.
  auto build = [](bool digest_blocks, FileMeta* meta) {
    SSTableBuilder builder(256, digest_blocks);
    for (int i = 0; i < 40; ++i) {
      char key[16];
      std::snprintf(key, sizeof(key), "k%04d", i);
      builder.Add(MakeRecord(key, "value", uint64_t(i + 1)), "");
    }
    return builder.Finish(meta);
  };
  FileMeta meta;
  std::string image = build(true, &meta);
  ASSERT_GT(meta.blocks.size(), 1u);
  for (const BlockHandle& block : meta.blocks) {
    EXPECT_EQ(block.digest,
              crypto::Sha256::Digest(
                  std::string_view(image).substr(block.offset, block.size)));
  }
  const BlockHandle& first = meta.blocks[0];
  image[first.offset + 3] ^= 1;
  EXPECT_NE(first.digest,
            crypto::Sha256::Digest(
                std::string_view(image).substr(first.offset, first.size)));

  FileMeta untagged;
  EXPECT_EQ(build(false, &untagged), build(true, &meta));
  for (const BlockHandle& block : untagged.blocks) {
    EXPECT_EQ(block.digest, crypto::kZeroHash);
  }
}

TEST(SSTableTest, ParseRejectsTruncatedBlock) {
  SSTableBuilder builder(4096);
  builder.Add(MakeRecord("a", "value", 1), "proof");
  FileMeta meta;
  const std::string image = builder.Finish(&meta);
  EXPECT_FALSE(ParseBlock(std::string_view(image).substr(0, 5)).ok());
}

TEST(VersionTest, LevelMetaEncodeDecodeRoundTrip) {
  LevelMeta level;
  level.num_records = 1234;
  level.bytes = 99999;
  level.leaf_count = 777;
  level.root = crypto::Sha256::Digest("root");
  level.tree_file = "db/000009.tree";
  level.bloom = BloomFilter(10, 100);
  level.bloom.Add("hello");
  FileMeta f;
  f.name = "db/000007.sst";
  f.smallest = "aaa";
  f.largest = "zzz";
  f.size = 4096;
  f.num_records = 10;
  BlockHandle b;
  b.offset = 0;
  b.size = 4096;
  b.num_entries = 10;
  b.first_key = "aaa";
  b.digest = crypto::Sha256::Digest("block");
  f.blocks.push_back(b);
  level.files.push_back(f);

  const std::string encoded = EncodeLevels({level});
  auto decoded = DecodeLevels(encoded);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().size(), 1u);
  const LevelMeta& out = decoded.value()[0];
  EXPECT_EQ(out.num_records, 1234u);
  EXPECT_EQ(out.leaf_count, 777u);
  EXPECT_EQ(out.root, level.root);
  EXPECT_EQ(out.tree_file, "db/000009.tree");
  ASSERT_EQ(out.files.size(), 1u);
  EXPECT_EQ(out.files[0].name, "db/000007.sst");
  ASSERT_EQ(out.files[0].blocks.size(), 1u);
  EXPECT_EQ(out.files[0].blocks[0].first_key, "aaa");
  EXPECT_EQ(out.files[0].blocks[0].digest, b.digest);
  EXPECT_TRUE(out.bloom.MayContain("hello"));
  // One 32-byte tag per block: a second block grows the encoding by its
  // offset, size and entry count varints, its first key and one digest.
  const size_t one_block = level.Encode().size();
  level.files[0].blocks.push_back(b);
  EXPECT_EQ(level.Encode().size(),
            one_block + 1 + 2 + 1 + 1 + b.first_key.size() + 32);
}

TEST(VersionTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(DecodeLevels("nonsense-bytes").ok());
}

// ---------------------------------------------------------------------------
// Engine-level behaviour.
// ---------------------------------------------------------------------------

LsmOptions SmallEngineOptions() {
  LsmOptions o;
  o.name = "t";
  o.memtable_bytes = 2 << 10;
  o.level1_bytes = 8 << 10;
  o.level_ratio = 4;
  o.block_bytes = 1024;
  o.file_bytes = 4 << 10;
  return o;
}

struct EngineHarness {
  std::shared_ptr<sgx::Enclave> enclave = MakeEnclave();
  std::shared_ptr<storage::SimFs> fs =
      std::make_shared<storage::SimFs>(enclave);
  LsmEngine engine;

  explicit EngineHarness(LsmOptions o = SmallEngineOptions())
      : engine(o, enclave, fs) {}

  void Fill(int n, uint64_t ts_base = 1, const char* tag = "v") {
    for (int i = 0; i < n; ++i) {
      char key[16];
      std::snprintf(key, sizeof(key), "k%05d", i);
      ASSERT_TRUE(engine
                      .Put(MakeRecord(key, tag + std::to_string(i),
                                      ts_base + uint64_t(i)))
                      .ok());
    }
  }
};

TEST(EngineTest, FlushCreatesLevelAndGetFinds) {
  EngineHarness h;
  h.Fill(100);
  ASSERT_TRUE(h.engine.Flush().ok());
  EXPECT_EQ(h.engine.memtable_entries(), 0u);
  ASSERT_EQ(h.engine.levels().size(), 1u);
  auto resp = h.engine.Get("k00042", UINT64_MAX);
  ASSERT_TRUE(resp.ok());
  ASSERT_FALSE(resp.value().levels.empty());
  EXPECT_TRUE(resp.value().levels.back().found);
  EXPECT_EQ(resp.value().levels.back().chain.back().record.value, "v42");
}

TEST(EngineTest, MemtableHitStopsSearch) {
  EngineHarness h;
  h.Fill(10);
  auto resp = h.engine.Get("k00003", UINT64_MAX);
  ASSERT_TRUE(resp.ok());
  ASSERT_TRUE(resp.value().memtable_hit.has_value());
  EXPECT_TRUE(resp.value().levels.empty());
}

TEST(EngineTest, RippleCompactionRespectsCapacities) {
  EngineHarness h;
  // Push enough data through flush+compact cycles to build several levels.
  for (int round = 0; round < 30; ++round) {
    h.Fill(20, uint64_t(round) * 1000 + 1, test_util::Cat("r", round).c_str());
    ASSERT_TRUE(h.engine.Flush().ok());
    ASSERT_TRUE(h.engine.MaybeCompact().ok());
  }
  ASSERT_GE(h.engine.levels().size(), 2u);
  // No level (except possibly the deepest) exceeds its capacity.
  for (size_t i = 0; i + 1 < h.engine.levels().size(); ++i) {
    uint64_t cap = SmallEngineOptions().level1_bytes;
    for (size_t j = 0; j < i; ++j) cap *= SmallEngineOptions().level_ratio;
    EXPECT_LE(h.engine.levels()[i].bytes, cap) << "level " << i;
  }
  // Newest round's data wins.
  auto resp = h.engine.Get("k00007", UINT64_MAX);
  ASSERT_TRUE(resp.ok());
  bool found = resp.value().memtable_hit.has_value();
  std::string value = found ? resp.value().memtable_hit->value : "";
  for (const auto& lr : resp.value().levels) {
    if (lr.found) {
      found = true;
      value = lr.chain.back().record.value;
    }
  }
  ASSERT_TRUE(found);
  EXPECT_EQ(value, "r297");
}

TEST(EngineTest, TombstonePurgedAtBottomOnly) {
  EngineHarness h;
  h.Fill(50);
  ASSERT_TRUE(h.engine.Flush().ok());
  ASSERT_TRUE(h.engine.Put(MakeRecord("k00010", "", 1000,
                                      RecordType::kTombstone))
                  .ok());
  ASSERT_TRUE(h.engine.Flush().ok());
  ASSERT_TRUE(h.engine.CompactAll().ok());
  // After merging to the bottom, neither the tombstone nor the old record
  // remains.
  uint64_t total = 0;
  for (const auto& level : h.engine.levels()) total += level.num_records;
  EXPECT_EQ(total, 49u);
}

TEST(EngineTest, ScanCoversRangeAndBoundaries) {
  EngineHarness h;
  h.Fill(100);
  ASSERT_TRUE(h.engine.Flush().ok());
  auto resp = h.engine.Scan("k00010", "k00020");
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp.value().levels.size(), 1u);
  const LevelScanResult& lr = resp.value().levels[0];
  EXPECT_EQ(lr.heads.size(), 11u);
  ASSERT_TRUE(lr.pred.has_value());
  EXPECT_EQ(lr.pred->record.key, "k00009");
  ASSERT_TRUE(lr.succ.has_value());
  EXPECT_EQ(lr.succ->record.key, "k00021");
}

TEST(EngineTest, ScanAtEdgesOmitsBoundaries) {
  EngineHarness h;
  h.Fill(20);
  ASSERT_TRUE(h.engine.Flush().ok());
  auto resp = h.engine.Scan("k00000", "k00019");
  ASSERT_TRUE(resp.ok());
  const LevelScanResult& lr = resp.value().levels[0];
  EXPECT_EQ(lr.heads.size(), 20u);
  EXPECT_FALSE(lr.pred.has_value());
  EXPECT_FALSE(lr.succ.has_value());
}

TEST(EngineTest, NonMembershipBracketsGap) {
  EngineHarness h;
  // Keys k00000, k00002, ... even only.
  for (int i = 0; i < 50; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", 2 * i);
    ASSERT_TRUE(h.engine.Put(MakeRecord(key, "v", uint64_t(i + 1))).ok());
  }
  ASSERT_TRUE(h.engine.Flush().ok());
  auto resp = h.engine.Get("k00013", UINT64_MAX);
  ASSERT_TRUE(resp.ok());
  const LevelGetResult& lr = resp.value().levels.back();
  EXPECT_FALSE(lr.found);
  if (!lr.bloom_negative) {
    ASSERT_TRUE(lr.pred.has_value());
    EXPECT_EQ(lr.pred->record.key, "k00012");
    ASSERT_TRUE(lr.succ.has_value());
    EXPECT_EQ(lr.succ->record.key, "k00014");
  }
}

TEST(EngineTest, ListenerSealInstalledOnLevels) {
  struct CountingListener : CompactionListener {
    int input_runs = 0;
    int outputs = 0;
    uint64_t output_records = 0;
    Status OnInputRunBegin(size_t, int, const LevelMeta*) override {
      ++input_runs;
      return Status::Ok();
    }
    Status OnOutputGroup(const std::vector<Record>& group,
                         std::vector<std::string>*) override {
      output_records += group.size();
      return Status::Ok();
    }
    Result<CompactionSeal> OnOutputEnd() override {
      ++outputs;
      CompactionSeal seal;
      seal.root = crypto::Sha256::Digest("sealed");
      seal.leaf_count = output_records;
      return seal;
    }
  };
  EngineHarness h;
  CountingListener listener;
  h.engine.SetListener(&listener);
  h.Fill(50);
  ASSERT_TRUE(h.engine.Flush().ok());
  EXPECT_GE(listener.input_runs, 1);
  EXPECT_EQ(listener.outputs, 1);
  EXPECT_EQ(h.engine.levels()[0].root, crypto::Sha256::Digest("sealed"));
  EXPECT_EQ(h.engine.levels()[0].leaf_count,
            h.engine.levels()[0].num_records);
}

TEST(EngineTest, ListenerFailureAbortsCompaction) {
  struct RejectingListener : CompactionListener {
    Result<CompactionSeal> OnOutputEnd() override {
      return Status::AuthFailure("no");
    }
  };
  EngineHarness h;
  RejectingListener listener;
  h.engine.SetListener(&listener);
  h.Fill(10);
  EXPECT_TRUE(h.engine.Flush().IsAuthFailure());
}

TEST(EngineTest, ManifestRoundTripRestoresLevels) {
  EngineHarness h;
  h.Fill(200);
  ASSERT_TRUE(h.engine.Flush().ok());
  ASSERT_TRUE(h.engine.MaybeCompact().ok());
  const std::string manifest = h.engine.EncodeManifest();

  LsmEngine restored(SmallEngineOptions(), h.enclave, h.fs);
  ASSERT_TRUE(restored.RestoreManifest(manifest).ok());
  ASSERT_EQ(restored.levels().size(), h.engine.levels().size());
  auto resp = restored.Get("k00123", UINT64_MAX);
  ASSERT_TRUE(resp.ok());
  bool found = false;
  for (const auto& lr : resp.value().levels) found |= lr.found;
  EXPECT_TRUE(found);
}

TEST(EngineTest, BufferReadPathWorks) {
  LsmOptions o = SmallEngineOptions();
  o.read_path = ReadPathKind::kBuffer;
  o.read_buffer_bytes = 16 << 10;
  EngineHarness h(o);
  h.Fill(200);
  ASSERT_TRUE(h.engine.Flush().ok());
  for (int i = 0; i < 200; i += 13) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i);
    auto resp = h.engine.Get(key, UINT64_MAX);
    ASSERT_TRUE(resp.ok());
    bool found = false;
    for (const auto& lr : resp.value().levels) found |= lr.found;
    EXPECT_TRUE(found) << key;
  }
}

TEST(EngineTest, StatsAccumulate) {
  EngineHarness h;
  h.Fill(50);
  ASSERT_TRUE(h.engine.Flush().ok());
  (void)h.engine.Get("k00001", UINT64_MAX);
  (void)h.engine.Scan("k00001", "k00005");
  EXPECT_EQ(h.engine.stats().puts, 50u);
  EXPECT_EQ(h.engine.stats().flushes, 1u);
  EXPECT_EQ(h.engine.stats().gets, 1u);
  EXPECT_EQ(h.engine.stats().scans, 1u);
}

}  // namespace
}  // namespace elsm::lsm
