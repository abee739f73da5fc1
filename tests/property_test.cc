// Property-based tests: randomized operation sequences (puts, deletes,
// batches, gets, multigets, scans, flushes, compactions and reopens on the
// same disk) checked against a std::map reference model in every mode and
// across the options that select between code paths, plus protocol
// invariants —
// verification always succeeds for an honest host (Definition 5.2,
// protocol correctness), proofs stop at the hit level (Lemma 5.4), and
// timestamps strictly decrease down the level stack.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "elsm/elsm_db.h"
#include "storage/fs.h"
#include "str_cat.h"
#include "temp_dir.h"

namespace elsm {
namespace {

Options FuzzOptions(Mode mode, uint64_t seed) {
  Options o;
  o.mode = mode;
  // Vary geometry with the seed so different shapes are exercised.
  o.memtable_bytes = 1 << (10 + seed % 3);        // 1-4 KiB
  o.level1_bytes = o.memtable_bytes * 4;
  o.level_ratio = 2 + uint32_t(seed % 3);
  o.block_bytes = 512 << (seed % 2);
  o.file_bytes = 4 << 10;
  o.read_path = (seed % 2 == 0) ? lsm::ReadPathKind::kMmap
                                : lsm::ReadPathKind::kBuffer;
  return o;
}

// Option variants layered on a seed's geometry, one or two at a time.
enum Variant : uint32_t {
  kAsyncFlush = 1u << 0,
  kBackgroundCompaction = 1u << 1,
  kNoMultiGetBatching = 1u << 2,
  kEmbedFullPaths = 1u << 3,
  kUnauthenticated = 1u << 4,
  kNoScanReadahead = 1u << 5,
  kEncrypted = 1u << 6,  // encrypted values + order-preserving keys
  // A read buffer a few blocks large, so blocks are evicted and re-admitted
  // (and re-checked) throughout the run.
  kSmallReadBuffer = 1u << 7,
  kPosix = 1u << 8,  // PosixFs under a temporary directory
};

struct ModelCase {
  Mode mode;
  uint32_t variants;  // Variant bits; 0 = the seed's plain options
  uint64_t seed;
};

Options CaseOptions(const ModelCase& c) {
  Options o = FuzzOptions(c.mode, c.seed);
  o.async_flush = (c.variants & kAsyncFlush) != 0;
  o.background_compaction = (c.variants & kBackgroundCompaction) != 0;
  o.multiget_batching = (c.variants & kNoMultiGetBatching) == 0;
  o.embed_full_paths = (c.variants & kEmbedFullPaths) != 0;
  o.authenticate_data = (c.variants & kUnauthenticated) == 0;
  if (c.variants & kNoScanReadahead) o.scan_readahead_blocks = 0;
  o.encrypt_values = (c.variants & kEncrypted) != 0;
  o.order_preserving_keys = (c.variants & kEncrypted) != 0;
  if (c.variants & kSmallReadBuffer) {
    o.read_buffer_bytes = 4 * o.block_bytes;
    o.read_cache_shards = 2;
  }
  if (c.variants & kPosix) o.backend = storage::BackendKind::kPosix;
  return o;
}

std::string CaseName(const ModelCase& c) {
  std::string name = c.mode == Mode::kP2
                         ? "P2"
                         : (c.mode == Mode::kP1 ? "P1" : "Raw");
  if (c.variants & kAsyncFlush) name += "AsyncFlush";
  if (c.variants & kBackgroundCompaction) name += "BgCompaction";
  if (c.variants & kNoMultiGetBatching) name += "NoBatching";
  if (c.variants & kEmbedFullPaths) name += "EmbedPaths";
  if (c.variants & kUnauthenticated) name += "Unauthenticated";
  if (c.variants & kNoScanReadahead) name += "NoReadahead";
  if (c.variants & kEncrypted) name += "Encrypted";
  if (c.variants & kSmallReadBuffer) name += "SmallBuffer";
  if (c.variants & kPosix) name += "Posix";
  return test_util::Cat(name, "Seed", c.seed);
}

class RandomOpsTest : public ::testing::TestWithParam<ModelCase> {};

TEST_P(RandomOpsTest, MatchesReferenceModel) {
  const ModelCase& param = GetParam();
  test_util::TempDir dir;
  ASSERT_TRUE(dir.ok());
  Options options = CaseOptions(param);
  options.backend_dir = dir.path();
  // Reopens reuse the untrusted disk and the trusted platform, like a
  // power cycle.
  auto platform = std::make_shared<TrustedPlatform>();
  const std::shared_ptr<storage::Fs> fs = storage::MakeFs(
      options.backend, options.backend_dir,
      std::make_shared<sgx::Enclave>(options.cost_model, true));
  auto opened = ElsmDb::Open(options, fs, platform);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<ElsmDb> db = std::move(opened).value();
  std::map<std::string, std::optional<std::string>> model;
  Rng rng(param.seed);
  uint64_t evictions = 0;  // summed over every opening of the store
  const storage::IoStats io_before = storage::GlobalIoStats();

  auto key_of = [](uint64_t i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%05llu",
                  static_cast<unsigned long long>(i));
    return std::string(buf);
  };
  auto value_of = [](int op, uint64_t part) {
    return test_util::Cat("v", op, ".", part);
  };
  auto expect_value = [&](const std::string& key,
                          const std::optional<std::string>& got, int op) {
    auto it = model.find(key);
    const bool expect_present = it != model.end() && it->second.has_value();
    ASSERT_EQ(got.has_value(), expect_present)
        << "op=" << op << " key=" << key;
    if (expect_present) {
      EXPECT_EQ(*got, *it->second) << "op=" << op << " key=" << key;
    }
  };

  for (int op = 0; op < 2000; ++op) {
    const uint64_t which = rng.Uniform(100);
    const std::string key = key_of(rng.Uniform(150));
    if (which < 45) {  // put
      const std::string value = value_of(op, 0);
      ASSERT_TRUE(db->Put(key, value).ok());
      model[key] = value;
    } else if (which < 55) {  // delete
      ASSERT_TRUE(db->Delete(key).ok());
      model[key] = std::nullopt;
    } else if (which < 60) {  // write batch (later entries win a key)
      ElsmDb::WriteBatch batch;
      const uint64_t n = 1 + rng.Uniform(8);
      for (uint64_t i = 0; i < n; ++i) {
        const std::string k = key_of(rng.Uniform(150));
        if (rng.Uniform(4) == 0) {
          batch.Delete(k);
          model[k] = std::nullopt;
        } else {
          batch.Put(k, value_of(op, i));
          model[k] = value_of(op, i);
        }
      }
      ASSERT_TRUE(db->Write(batch).ok()) << "op=" << op;
    } else if (which < 85) {  // get
      auto got = db->Get(key);
      ASSERT_TRUE(got.ok()) << got.status().ToString() << " op=" << op;
      expect_value(key, got.value(), op);
    } else if (which < 90) {  // multiget (duplicates allowed)
      std::vector<std::string> keys{key};
      const uint64_t n = rng.Uniform(8);
      for (uint64_t i = 0; i < n; ++i) keys.push_back(key_of(rng.Uniform(150)));
      auto got = db->MultiGet(keys);
      ASSERT_TRUE(got.ok()) << got.status().ToString() << " op=" << op;
      ASSERT_EQ(got.value().size(), keys.size());
      for (size_t i = 0; i < keys.size(); ++i) {
        expect_value(keys[i], got.value()[i], op);
      }
    } else if (which < 96) {  // scan
      const std::string hi = key_of(rng.Uniform(150));
      const std::string lo = std::min(key, hi);
      const std::string hi2 = std::max(key, hi);
      auto scan = db->Scan(lo, hi2);
      ASSERT_TRUE(scan.ok()) << scan.status().ToString() << " op=" << op;
      std::map<std::string, std::string> expect;
      for (auto it2 = model.lower_bound(lo);
           it2 != model.end() && it2->first <= hi2; ++it2) {
        if (it2->second.has_value()) expect[it2->first] = *it2->second;
      }
      ASSERT_EQ(scan.value().size(), expect.size()) << "op=" << op;
      for (const auto& r : scan.value()) {
        auto it2 = expect.find(r.key);
        ASSERT_NE(it2, expect.end()) << r.key;
        EXPECT_EQ(r.value, it2->second);
      }
    } else if (which < 98) {  // flush
      ASSERT_TRUE(db->Flush().ok()) << "op=" << op;
    } else if (which == 98) {  // full compaction
      ASSERT_TRUE(db->CompactAll().ok()) << "op=" << op;
    } else {  // close, then reopen on the same disk and platform
      ASSERT_TRUE(db->WaitForFlush().ok()) << "op=" << op;
      ASSERT_TRUE(db->WaitForCompaction().ok()) << "op=" << op;
      ASSERT_TRUE(db->Close().ok()) << "op=" << op;
      evictions += db->read_cache_stats().evictions;
      db.reset();
      auto reopened = ElsmDb::Open(options, fs, platform);
      ASSERT_TRUE(reopened.ok())
          << reopened.status().ToString() << " op=" << op;
      db = std::move(reopened).value();
    }
  }
  EXPECT_TRUE(db->WaitForFlush().ok());
  EXPECT_TRUE(db->WaitForCompaction().ok());
  if (param.variants & kSmallReadBuffer) {
    EXPECT_GT(evictions + db->read_cache_stats().evictions, 0u);
  }
  if (param.variants & kPosix) {
    const storage::IoStats io = storage::GlobalIoStats();
    EXPECT_GT(io.pread_batches + io.uring_batches,
              io_before.pread_batches + io_before.uring_batches);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, RandomOpsTest,
    ::testing::Values(ModelCase{Mode::kP2, 0, 1}, ModelCase{Mode::kP2, 0, 2},
                      ModelCase{Mode::kP2, 0, 3}, ModelCase{Mode::kP2, 0, 4},
                      ModelCase{Mode::kP1, 0, 5}, ModelCase{Mode::kP1, 0, 6},
                      ModelCase{Mode::kUnsecured, 0, 7},
                      ModelCase{Mode::kP2, 0, 8}, ModelCase{Mode::kP2, 0, 9},
                      ModelCase{Mode::kP2, 0, 10}),
    [](const auto& info) { return CaseName(info.param); });

// The same model check across the options that select between code paths.
// Odd seeds use the buffer read path (see FuzzOptions), where MultiGet
// batching, scan readahead and verified block admission apply.
INSTANTIATE_TEST_SUITE_P(
    OptionMatrix, RandomOpsTest,
    ::testing::Values(
        ModelCase{Mode::kP2, kAsyncFlush, 11},
        ModelCase{Mode::kP2, kBackgroundCompaction, 12},
        ModelCase{Mode::kP2, kAsyncFlush | kBackgroundCompaction, 13},
        ModelCase{Mode::kP2, kNoMultiGetBatching, 15},
        ModelCase{Mode::kP2, kEmbedFullPaths, 16},
        ModelCase{Mode::kP2, kEmbedFullPaths | kBackgroundCompaction, 17},
        ModelCase{Mode::kP2, kUnauthenticated, 19},
        ModelCase{Mode::kP2, kUnauthenticated | kAsyncFlush, 20},
        ModelCase{Mode::kP1, kAsyncFlush, 21},
        ModelCase{Mode::kUnsecured, kBackgroundCompaction, 23},
        ModelCase{Mode::kP2, kNoScanReadahead, 25},
        ModelCase{Mode::kP2, kEncrypted, 26},
        ModelCase{Mode::kP1, kEncrypted, 27},
        // Both background jobs at once outside P2.
        ModelCase{Mode::kP1, kAsyncFlush | kBackgroundCompaction, 29},
        ModelCase{Mode::kUnsecured, kAsyncFlush | kBackgroundCompaction, 31},
        // A read buffer a few blocks large churns evictions, re-admissions
        // and invalidations on the checked path (P1 always reads through
        // its buffer).
        ModelCase{Mode::kP2, kSmallReadBuffer, 33},
        ModelCase{Mode::kP1, kSmallReadBuffer, 34},
        // MultiGet and readahead batches into PosixFs's native MultiRead.
        ModelCase{Mode::kP2, kPosix, 35}),
    [](const auto& info) { return CaseName(info.param); });

TEST(ProtocolInvariants, EarlyStopOmitsDeeperLevels) {
  // Lemma 5.4 consequence: the proof for a found key ends at the hit level.
  Options o = FuzzOptions(Mode::kP2, 1);
  auto db = ElsmDb::Create(o);
  ASSERT_TRUE(db.ok());
  // Three generations spread across three levels.
  for (int gen = 0; gen < 3; ++gen) {
    for (int i = 0; i < 100; ++i) {
      char key[16];
      std::snprintf(key, sizeof(key), "k%05d", i);
      ASSERT_TRUE(db.value()->Put(key, test_util::Cat("gen", gen)).ok());
    }
    ASSERT_TRUE(gen == 0 ? db.value()->CompactAll().ok()
                         : db.value()->Flush().ok());
  }
  auto resp = db.value()->engine().Get("k00050", kLatest);
  ASSERT_TRUE(resp.ok());
  ASSERT_FALSE(resp.value().levels.empty());
  EXPECT_TRUE(resp.value().levels.back().found);
  EXPECT_LT(resp.value().levels.size(), db.value()->engine().levels().size())
      << "proof should stop before the deepest level";
}

TEST(ProtocolInvariants, TimestampsDecreaseDownTheStack) {
  // Lemma 5.4 itself: for any key, versions at shallower levels are newer.
  Options o = FuzzOptions(Mode::kP2, 2);
  auto db = ElsmDb::Create(o);
  ASSERT_TRUE(db.ok());
  Rng rng(99);
  for (int op = 0; op < 3000; ++op) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05llu",
                  static_cast<unsigned long long>(rng.Uniform(200)));
    ASSERT_TRUE(db.value()->Put(key, test_util::Cat("v", op)).ok());
  }
  ASSERT_TRUE(db.value()->Flush().ok());

  for (int i = 0; i < 200; i += 11) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i);
    auto resp = db.value()->engine().Get(key, 0);  // forces full descent
    ASSERT_TRUE(resp.ok());
    uint64_t shallowest_newer = UINT64_MAX;
    for (const auto& lr : resp.value().levels) {
      for (const auto& e : lr.chain) {
        EXPECT_LT(e.record.ts, shallowest_newer)
            << key << " level " << lr.level_pos;
      }
      if (!lr.chain.empty()) {
        shallowest_newer = lr.chain.back().record.ts;
      }
    }
  }
}

TEST(ProtocolInvariants, VerifiedAndUnverifiedAgree) {
  // verify_reads=false must return the same data as the verified path.
  Options verified_opts = FuzzOptions(Mode::kP2, 3);
  Options raw_opts = verified_opts;
  raw_opts.verify_reads = false;
  auto db1 = ElsmDb::Create(verified_opts);
  auto db2 = ElsmDb::Create(raw_opts);
  ASSERT_TRUE(db1.ok());
  ASSERT_TRUE(db2.ok());
  Rng rng(17);
  for (int op = 0; op < 1500; ++op) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05llu",
                  static_cast<unsigned long long>(rng.Uniform(100)));
    const std::string value = test_util::Cat("v", op);
    ASSERT_TRUE(db1.value()->Put(key, value).ok());
    ASSERT_TRUE(db2.value()->Put(key, value).ok());
  }
  for (int i = 0; i < 100; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i);
    auto a = db1.value()->Get(key);
    auto b = db2.value()->Get(key);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value(), b.value()) << key;
  }
}

}  // namespace
}  // namespace elsm
