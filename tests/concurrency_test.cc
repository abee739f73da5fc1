// Multi-threading tests (paper §5.5.2 "Multi-threading"): concurrent
// readers against a quiesced store, readers racing flush/compaction through
// the engine's reader/writer locking, and verified reads under concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "elsm/elsm_db.h"
#include "str_cat.h"

namespace elsm {
namespace {

Options ConcurrencyOptions() {
  Options o;
  o.mode = Mode::kP2;
  o.memtable_bytes = 16 << 10;
  o.level1_bytes = 64 << 10;
  return o;
}

std::string Key(int i) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

TEST(ConcurrencyTest, ParallelVerifiedReaders) {
  auto db = ElsmDb::Create(ConcurrencyOptions());
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(db.value()->Put(Key(i), test_util::Cat("v", i)).ok());
  }
  ASSERT_TRUE(db.value()->CompactAll().ok());

  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int i = t; i < 500; i += 4) {
        auto got = db.value()->GetVerified(Key(i));
        if (!got.ok() || !got.value().record.has_value() ||
            got.value().record->value != test_util::Cat("v", i)) {
          ++errors;
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST(ConcurrencyTest, ReadersDuringWritesSeeConsistentValues) {
  auto db = ElsmDb::Create(ConcurrencyOptions());
  ASSERT_TRUE(db.ok());
  // Seed every key so readers always find something.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.value()->Put(Key(i), "seed").ok());
  }
  ASSERT_TRUE(db.value()->Flush().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::thread writer([&] {
    // The facade's Put path triggers flushes and compactions internally;
    // the engine's reader/writer lock must keep readers consistent.
    for (int round = 0; round < 10 && !stop; ++round) {
      for (int i = 0; i < 200; ++i) {
        if (!db.value()->Put(Key(i), test_util::Cat("round", round)).ok()) {
          ++errors;
        }
      }
    }
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      uint64_t reads = 0;
      while (!stop.load() || reads < 100) {
        const int i = (int(reads) * 7 + t) % 200;
        auto got = db.value()->Get(Key(i));
        if (!got.ok() || !got.value().has_value()) ++errors;
        ++reads;
        if (reads > 100000) break;
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST(ConcurrencyTest, ParallelScansAndGets) {
  auto db = ElsmDb::Create(ConcurrencyOptions());
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(db.value()->Put(Key(i), "v").ok());
  }
  ASSERT_TRUE(db.value()->Flush().ok());

  std::atomic<int> errors{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        if (t % 2 == 0) {
          auto scan = db.value()->Scan(Key(i * 4), Key(i * 4 + 20));
          if (!scan.ok() || scan.value().empty()) ++errors;
        } else {
          auto got = db.value()->Get(Key((i * 13) % 400));
          if (!got.ok() || !got.value().has_value()) ++errors;
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(errors.load(), 0);
}

}  // namespace
}  // namespace elsm
