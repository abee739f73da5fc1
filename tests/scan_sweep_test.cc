// Exhaustive verified-scan boundary sweep: every (lo, hi) grid pair over a
// multi-level store is scanned with completeness verification and checked
// against a reference model. This is the test class that catches
// block/file/leaf boundary-alignment bugs in range-proof assembly.
#include <gtest/gtest.h>

#include <map>

#include "elsm/elsm_db.h"
#include "str_cat.h"

namespace elsm {
namespace {

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%05d", i);
  return buf;
}

class ScanSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ScanSweepTest, AllGridRangesMatchReference) {
  const int stride = GetParam();  // keys are multiples of the stride
  Options o;
  o.mode = Mode::kP2;
  o.memtable_bytes = 2 << 10;
  o.level1_bytes = 8 << 10;
  o.block_bytes = 512;  // tiny blocks: many boundaries
  o.file_bytes = 2 << 10;
  auto db = ElsmDb::Create(o);
  ASSERT_TRUE(db.ok());

  std::map<std::string, std::string> model;
  // Two generations spread across levels, sparse keys (gaps exercise
  // non-membership edges), a few deletions.
  for (int gen = 0; gen < 2; ++gen) {
    for (int i = 0; i < 120; ++i) {
      const std::string key = Key(i * stride);
      const std::string value = test_util::Cat("g", gen, "-", key);
      ASSERT_TRUE(db.value()->Put(key, value).ok());
      model[key] = value;
    }
    ASSERT_TRUE(gen == 0 ? db.value()->CompactAll().ok()
                         : db.value()->Flush().ok());
  }
  for (int i = 10; i < 30; i += 3) {
    const std::string key = Key(i * stride);
    ASSERT_TRUE(db.value()->Delete(key).ok());
    model.erase(key);
  }
  ASSERT_TRUE(db.value()->Flush().ok());

  // Grid sweep, including ranges aligned exactly on keys, off-key ranges,
  // empty ranges, and ranges beyond both ends.
  for (int lo = -2; lo < 125 * stride; lo += 7) {
    for (int span : {0, 1, 3, 17, 400}) {
      const std::string k1 = lo < 0 ? "a" : Key(lo);
      const std::string k2 = Key(lo + span);
      auto scan = db.value()->Scan(k1, k2);
      ASSERT_TRUE(scan.ok())
          << scan.status().ToString() << " [" << k1 << "," << k2 << "]";
      std::map<std::string, std::string> expect;
      for (auto it = model.lower_bound(k1);
           it != model.end() && it->first <= k2; ++it) {
        expect[it->first] = it->second;
      }
      ASSERT_EQ(scan.value().size(), expect.size())
          << "[" << k1 << "," << k2 << "]";
      for (const auto& r : scan.value()) {
        auto it = expect.find(r.key);
        ASSERT_NE(it, expect.end()) << r.key;
        EXPECT_EQ(r.value, it->second);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Strides, ScanSweepTest, ::testing::Values(1, 2, 5),
                         [](const auto& info) {
                           return test_util::Cat("Stride", info.param);
                         });

}  // namespace
}  // namespace elsm
