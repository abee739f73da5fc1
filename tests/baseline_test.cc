// Baseline tests: Eleos-like in-enclave store (ops, slack behaviour,
// capacity cap) and the update-in-place Merkle B+-tree ADS (ops, proofs,
// tamper detection, write-amplification shape).
#include <gtest/gtest.h>

#include <set>

#include "baseline/eleos_store.h"
#include "baseline/merkle_btree.h"
#include "common/random.h"
#include "str_cat.h"

namespace elsm::baseline {
namespace {

std::shared_ptr<sgx::Enclave> MakeEnclave(uint64_t epc_bytes = 2 << 20) {
  sgx::CostModel m;
  m.epc_bytes = epc_bytes;
  return std::make_shared<sgx::Enclave>(m, true);
}

std::string Key(int i) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

TEST(EleosTest, PutGetRoundTrip) {
  EleosStore store(EleosOptions{}, MakeEnclave());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(store.Put(Key(i), test_util::Cat("v", i)).ok());
  }
  for (int i = 0; i < 500; ++i) {
    auto got = store.Get(Key(i));
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got.value().has_value()) << Key(i);
    EXPECT_EQ(*got.value(), test_util::Cat("v", i));
  }
  EXPECT_FALSE(store.Get("missing").value().has_value());
}

TEST(EleosTest, RandomInsertionOrderStaysSorted) {
  EleosStore store(EleosOptions{}, MakeEnclave());
  Rng rng(3);
  std::set<int> inserted;
  for (int n = 0; n < 400; ++n) {
    const int i = int(rng.Uniform(10000));
    inserted.insert(i);
    ASSERT_TRUE(store.Put(Key(i), test_util::Cat("v", i)).ok());
  }
  EXPECT_EQ(store.size(), inserted.size());
  for (int i : inserted) {
    auto got = store.Get(Key(i));
    ASSERT_TRUE(got.value().has_value()) << Key(i);
  }
}

TEST(EleosTest, OverwriteInPlace) {
  EleosStore store(EleosOptions{}, MakeEnclave());
  ASSERT_TRUE(store.Put("k", "v1").ok());
  const size_t size_before = store.size();
  ASSERT_TRUE(store.Put("k", "v2").ok());
  EXPECT_EQ(store.size(), size_before);
  EXPECT_EQ(*store.Get("k").value(), "v2");
}

TEST(EleosTest, ScanReturnsRangeInOrder) {
  EleosStore store(EleosOptions{}, MakeEnclave());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Put(Key(i), "v").ok());
  }
  auto scan = store.Scan(Key(10), Key(19));
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan.value().size(), 10u);
  EXPECT_EQ(scan.value().front().first, Key(10));
  EXPECT_EQ(scan.value().back().first, Key(19));
}

TEST(EleosTest, CapacityCapEnforced) {
  EleosOptions o;
  o.capacity_bytes = 4 << 10;  // tiny cap for the test
  EleosStore store(o, MakeEnclave());
  Status last = Status::Ok();
  for (int i = 0; i < 10000 && last.ok(); ++i) {
    last = store.Put(Key(i), std::string(100, 'v'));
  }
  EXPECT_TRUE(last.IsCapacityExceeded());
}

TEST(EleosTest, LargeStoreThrashesEpc) {
  // Working set >> EPC: uniform reads must incur paging (the Fig. 6a Eleos
  // growth), unlike a store that fits.
  auto small_enclave = MakeEnclave(1 << 20);
  EleosOptions o;
  o.capacity_bytes = 32 << 20;
  EleosStore store(o, small_enclave);
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(store.Put(Key(int(rng.Uniform(1000000))),
                          std::string(100, 'v'))
                    .ok());
  }
  const uint64_t faults_before = small_enclave->counters().epc_faults;
  for (int i = 0; i < 500; ++i) {
    (void)store.Get(Key(int(rng.Uniform(1000000))));
  }
  EXPECT_GT(small_enclave->counters().epc_faults, faults_before + 500);
}

TEST(MerkleBTreeTest, PutGetRoundTrip) {
  MerkleBTree tree(MerkleBTreeOptions{}, MakeEnclave());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree.Put(Key(i), test_util::Cat("v", i)).ok());
  }
  EXPECT_EQ(tree.size(), 2000u);
  for (int i = 0; i < 2000; i += 37) {
    auto got = tree.Get(Key(i));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got.value().has_value());
    EXPECT_EQ(*got.value(), test_util::Cat("v", i));
  }
  EXPECT_FALSE(tree.Get("absent").value().has_value());
}

TEST(MerkleBTreeTest, RootHashChangesOnEveryWrite) {
  MerkleBTree tree(MerkleBTreeOptions{}, MakeEnclave());
  ASSERT_TRUE(tree.Put("a", "1").ok());
  const crypto::Hash256 r1 = tree.root_hash();
  ASSERT_TRUE(tree.Put("b", "2").ok());
  const crypto::Hash256 r2 = tree.root_hash();
  EXPECT_NE(r1, r2);
  ASSERT_TRUE(tree.Put("a", "3").ok());  // overwrite also re-digests
  EXPECT_NE(tree.root_hash(), r2);
}

TEST(MerkleBTreeTest, TamperedLeafDetectedOnGet) {
  MerkleBTree tree(MerkleBTreeOptions{}, MakeEnclave());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree.Put(Key(i), "genuine").ok());
  }
  ASSERT_TRUE(tree.TamperLeafValue(Key(123), "forged"));
  const auto got = tree.Get(Key(123));
  EXPECT_TRUE(got.status().IsAuthFailure()) << got.status().ToString();
  // Untampered keys in other subtrees still verify.
  EXPECT_TRUE(tree.Get(Key(490)).ok());
}

TEST(MerkleBTreeTest, SplitsKeepAllKeysReachable) {
  MerkleBTreeOptions o;
  o.fanout = 4;  // force deep trees
  MerkleBTree tree(o, MakeEnclave());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(tree.Put(Key((i * 7919) % 1000), "v").ok());
  }
  for (int i = 0; i < 300; ++i) {
    EXPECT_TRUE(tree.Get(Key((i * 7919) % 1000)).value().has_value());
  }
  EXPECT_GT(tree.node_count(), 50u);
}

TEST(MerkleBTreeTest, UpdateCostGrowsWithDepth) {
  // The §3.4 argument: update-in-place digests pay O(depth) random IO +
  // re-hash per write; cost per op grows with the dataset.
  auto measure = [&](int n) {
    auto enclave = MakeEnclave();
    MerkleBTreeOptions o;
    o.fanout = 8;
    MerkleBTree tree(o, enclave);
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(tree.Put(Key(i), std::string(100, 'v')).ok());
    }
    const uint64_t before = enclave->now_ns();
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(tree.Put(Key(i * (n / 100 + 1) % n), "update").ok());
    }
    return (enclave->now_ns() - before) / 100;
  };
  EXPECT_GT(measure(8000), measure(200));
}

}  // namespace
}  // namespace elsm::baseline
