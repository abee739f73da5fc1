// End-to-end tests of the ElsmDb facade in all three modes: basic CRUD,
// flush/compaction behaviour, verified reads, time-travel gets, recovery,
// and persistence across reopen.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "elsm/elsm_db.h"
#include "storage/fault_fs.h"
#include "storage/simfs.h"
#include "str_cat.h"

namespace elsm {
namespace {

Options SmallOptions(Mode mode) {
  Options o;
  o.mode = mode;
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

std::string Value(int i, int version = 0) {
  return test_util::Cat("value-", i, "-v", version);
}

class ElsmDbModeTest : public ::testing::TestWithParam<Mode> {};

TEST_P(ElsmDbModeTest, PutGetRoundTrip) {
  auto db = ElsmDb::Create(SmallOptions(GetParam()));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.value()->Put(Key(i), Value(i)).ok());
  }
  for (int i = 0; i < 200; ++i) {
    auto got = db.value()->Get(Key(i));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got.value().has_value()) << Key(i);
    EXPECT_EQ(*got.value(), Value(i));
  }
}

TEST_P(ElsmDbModeTest, MissingKeyReturnsAuthenticatedAbsence) {
  auto db = ElsmDb::Create(SmallOptions(GetParam()));
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.value()->Put(Key(2 * i), Value(i)).ok());
  }
  ASSERT_TRUE(db.value()->Flush().ok());
  for (int i = 0; i < 100; ++i) {
    auto got = db.value()->Get(Key(2 * i + 1));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_FALSE(got.value().has_value());
  }
  // Keys below and above the stored range.
  EXPECT_FALSE(db.value()->Get("aaa").value().has_value());
  EXPECT_FALSE(db.value()->Get("zzz").value().has_value());
}

TEST_P(ElsmDbModeTest, OverwritesReturnNewestValue) {
  auto db = ElsmDb::Create(SmallOptions(GetParam()));
  ASSERT_TRUE(db.ok());
  for (int version = 0; version < 5; ++version) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), Value(i, version)).ok());
    }
    ASSERT_TRUE(db.value()->Flush().ok());
  }
  for (int i = 0; i < 50; ++i) {
    auto got = db.value()->Get(Key(i));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got.value().has_value());
    EXPECT_EQ(*got.value(), Value(i, 4));
  }
}

TEST_P(ElsmDbModeTest, DeleteHidesKey) {
  auto db = ElsmDb::Create(SmallOptions(GetParam()));
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(db.value()->Put(Key(i), Value(i)).ok());
  }
  ASSERT_TRUE(db.value()->Flush().ok());
  for (int i = 0; i < 60; i += 2) {
    ASSERT_TRUE(db.value()->Delete(Key(i)).ok());
  }
  ASSERT_TRUE(db.value()->Flush().ok());
  for (int i = 0; i < 60; ++i) {
    auto got = db.value()->Get(Key(i));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value().has_value(), i % 2 == 1) << Key(i);
  }
}

TEST_P(ElsmDbModeTest, ScanReturnsSortedVisibleRange) {
  auto db = ElsmDb::Create(SmallOptions(GetParam()));
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(db.value()->Put(Key(i), Value(i)).ok());
  }
  ASSERT_TRUE(db.value()->Delete(Key(25)).ok());
  ASSERT_TRUE(db.value()->Flush().ok());

  auto scan = db.value()->Scan(Key(20), Key(40));
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  std::set<std::string> keys;
  for (const auto& r : scan.value()) keys.insert(r.key);
  EXPECT_EQ(keys.size(), 20u);  // 21 keys in range minus deleted key 25
  EXPECT_EQ(keys.count(Key(25)), 0u);
  EXPECT_EQ(keys.count(Key(20)), 1u);
  EXPECT_EQ(keys.count(Key(40)), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllModes, ElsmDbModeTest,
                         ::testing::Values(Mode::kP2, Mode::kP1,
                                           Mode::kUnsecured),
                         [](const auto& info) {
                           switch (info.param) {
                             case Mode::kP2:
                               return "P2";
                             case Mode::kP1:
                               return "P1";
                             default:
                               return "Unsecured";
                           }
                         });

TEST(ElsmDbRecovery, ReopenRestoresFlushedAndWalData) {
  Options options = SmallOptions(Mode::kP2);
  auto platform = std::make_shared<TrustedPlatform>();
  auto enclave = std::make_shared<sgx::Enclave>(options.cost_model, true);
  auto fs = std::make_shared<storage::SimFs>(enclave);
  {
    auto db = ElsmDb::Open(options, fs, platform);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (int i = 0; i < 120; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), Value(i)).ok());
    }
    ASSERT_TRUE(db.value()->Flush().ok());
    for (int i = 120; i < 140; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), Value(i)).ok());
    }
    ASSERT_TRUE(db.value()->Close().ok());
  }
  {
    auto db = ElsmDb::Open(options, fs, platform);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (int i = 0; i < 140; ++i) {
      auto got = db.value()->Get(Key(i));
      ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
      ASSERT_TRUE(got.value().has_value()) << Key(i);
      EXPECT_EQ(*got.value(), Value(i));
    }
    // Timestamps continue monotonically after recovery.
    const uint64_t ts_before = db.value()->last_ts();
    ASSERT_TRUE(db.value()->Put("post-recovery", "x").ok());
    EXPECT_GT(db.value()->last_ts(), ts_before);
  }
}

TEST(ElsmDbTimeTravel, GetAtOldTimestampSeesOldVersion) {
  auto db = ElsmDb::Create(SmallOptions(Mode::kP2));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db.value()->Put("k", "v1").ok());
  const uint64_t ts1 = db.value()->last_ts();
  ASSERT_TRUE(db.value()->Flush().ok());
  ASSERT_TRUE(db.value()->Put("k", "v2").ok());
  const uint64_t ts2 = db.value()->last_ts();
  ASSERT_TRUE(db.value()->Flush().ok());
  ASSERT_TRUE(db.value()->Put("k", "v3").ok());
  ASSERT_TRUE(db.value()->CompactAll().ok());

  auto at = [&](uint64_t ts) {
    auto r = db.value()->GetVerified("k", ts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value().record.has_value());
    return r.value().record->value;
  };
  EXPECT_EQ(at(ts1), "v1");
  EXPECT_EQ(at(ts2), "v2");
  EXPECT_EQ(at(kLatest), "v3");
}

TEST(ElsmDbVerification, ProofBytesReportedForVerifiedGets) {
  auto db = ElsmDb::Create(SmallOptions(Mode::kP2));
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(db.value()->Put(Key(i), Value(i)).ok());
  }
  ASSERT_TRUE(db.value()->CompactAll().ok());
  auto r = db.value()->GetVerified(Key(42));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().verified);
  EXPECT_GT(r.value().proof_bytes, 0u);
  ASSERT_TRUE(r.value().record.has_value());
  EXPECT_EQ(r.value().record->value, Value(42));
}

TEST(ElsmDbConfidentiality, EncryptedValuesRoundTrip) {
  Options o = SmallOptions(Mode::kP2);
  o.encrypt_values = true;
  auto db = ElsmDb::Create(o);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(db.value()->Put(Key(i), Value(i)).ok());
  }
  ASSERT_TRUE(db.value()->Flush().ok());
  for (int i = 0; i < 80; ++i) {
    auto got = db.value()->Get(Key(i));
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got.value().has_value());
    EXPECT_EQ(*got.value(), Value(i));
  }
  // Ciphertext must not appear in plaintext on "disk".
  bool found_plain = false;
  for (const auto& name : db.value()->fs().List(o.name)) {
    auto blob = db.value()->fs().Blob(name);
    if (blob && blob->find("value-7-v0") != std::string::npos) {
      found_plain = true;
    }
  }
  EXPECT_FALSE(found_plain);
}

TEST(ElsmDbConfidentiality, DeterministicKeysStillSearchable) {
  Options o = SmallOptions(Mode::kP2);
  o.deterministic_key_encryption = true;
  auto db = ElsmDb::Create(o);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db.value()->Put(Key(i), Value(i)).ok());
  }
  ASSERT_TRUE(db.value()->Flush().ok());
  auto got = db.value()->Get(Key(7));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(got.value().has_value());
  EXPECT_EQ(*got.value(), Value(7));
  // Range queries need OPE; DE mode reports NotSupported.
  auto scan = db.value()->Scan(Key(0), Key(10));
  EXPECT_EQ(scan.status().code(), StatusCode::kNotSupported);
}

TEST(ElsmDbCompaction, CompactionDisabledStacksRuns) {
  Options o = SmallOptions(Mode::kP2);
  o.compaction_enabled = false;
  auto db = ElsmDb::Create(o);
  ASSERT_TRUE(db.ok());
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), Value(i, round)).ok());
    }
    ASSERT_TRUE(db.value()->Flush().ok());
  }
  EXPECT_EQ(db.value()->engine().levels().size(), 4u);
  auto got = db.value()->Get(Key(3));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got.value(), Value(3, 3));
}

TEST(ElsmDbCompaction, InlineScheduledRippleReportsItsErrorOnce) {
  // With background_compaction off, ScheduleCompaction() runs the ripple
  // on the caller, and a failed pass surfaces once via WaitForCompaction().
  Options o = SmallOptions(Mode::kP2);
  auto platform = std::make_shared<TrustedPlatform>();
  auto fs = std::make_shared<storage::FaultFs>(
      std::make_shared<sgx::Enclave>(o.cost_model, true));
  {
    auto db = ElsmDb::Open(o, fs, platform);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (int i = 0; i < 600; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), Value(i)).ok());
    }
    ASSERT_TRUE(db.value()->CompactAll().ok());
    ASSERT_TRUE(db.value()->Close().ok());
  }
  Options small = o;
  small.level1_bytes = 1 << 10;  // a cascade of merges is now pending
  auto db = ElsmDb::Open(small, fs, platform);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const size_t depth = db.value()->engine().levels().size();

  fs->CrashNow();
  db.value()->ScheduleCompaction();
  const Status failed = db.value()->WaitForCompaction();
  EXPECT_FALSE(failed.ok());
  EXPECT_TRUE(db.value()->WaitForCompaction().ok()) << "reported twice";

  fs->ClearCrash();
  db.value()->ScheduleCompaction();
  EXPECT_GT(db.value()->engine().levels().size(), depth)
      << "the ripple did not run before ScheduleCompaction returned";
  EXPECT_TRUE(db.value()->WaitForCompaction().ok());
  for (int i = 0; i < 600; i += 37) {
    auto got = db.value()->GetVerified(Key(i));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got.value().record.has_value()) << Key(i);
    EXPECT_EQ(got.value().record->value, Value(i));
  }
}

TEST(ElsmDbModes, EmbeddedFullPathsVerifyIdentically) {
  Options o = SmallOptions(Mode::kP2);
  o.embed_full_paths = true;
  auto db = ElsmDb::Create(o);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.value()->Put(Key(i), Value(i)).ok());
  }
  ASSERT_TRUE(db.value()->CompactAll().ok());
  for (int i = 0; i < 200; i += 7) {
    auto got = db.value()->Get(Key(i));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got.value(), Value(i));
  }
  EXPECT_FALSE(db.value()->Get("nope").value().has_value());
}

}  // namespace
}  // namespace elsm
