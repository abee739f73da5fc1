// Verified read-cache layer tests: the (file, offset)-keyed sharded
// ReadBuffer (accounting, single-flight, invalidation racing readers and
// batches), the engine's check-before-admit (a tampered block fails closed
// and is never cached; which stores tag their blocks), proof-path node
// caching in the verifier, cache lifecycle across compaction's
// obsolete-file purge, and warm-hit enclave-counter budgets.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <map>
#include <random>
#include <thread>
#include <tuple>
#include <vector>

#include "auth/verifier.h"
#include "crypto/sha256.h"
#include "elsm/elsm_db.h"
#include "storage/read_buffer.h"
#include "storage/simfs.h"
#include "block_loader.h"
#include "str_cat.h"

namespace elsm {
namespace {

using storage::BufferPlacement;
using storage::ReadBuffer;
using test_util::EachBlock;

std::shared_ptr<sgx::Enclave> MakeEnclave() {
  return std::make_shared<sgx::Enclave>(sgx::CostModel{}, true);
}

std::string Key(int i) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

Options BufferOptions() {
  Options o;
  o.mode = Mode::kP2;
  o.memtable_bytes = 4 << 10;
  o.level1_bytes = 16 << 10;
  o.block_bytes = 1024;
  o.file_bytes = 8 << 10;
  o.read_path = lsm::ReadPathKind::kBuffer;
  o.read_buffer_bytes = 4 << 20;
  return o;
}

// --- unit: accounting and eviction ---------------------------------------

TEST(ReadCacheTest, OverwriteAccountingStaysExact) {
  auto enclave = MakeEnclave();
  ReadBuffer buffer(enclave, 32 << 10, BufferPlacement::kOutsideEnclave, 2);
  auto loader_of = [](size_t n) {
    return [n]() -> Result<std::string> { return std::string(n, 'x'); };
  };
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        buffer.Get("f", i * 64, EachBlock(loader_of(700 + i))).ok());
  }
  EXPECT_EQ(buffer.bytes_used(), buffer.ResidentBytes());
  buffer.Invalidate("f");
  EXPECT_EQ(buffer.bytes_used(), 0u);
  EXPECT_EQ(buffer.ResidentBytes(), 0u);
  EXPECT_EQ(buffer.stats().invalidations, 16u);
}

TEST(ReadCacheTest, ShardedEvictionRespectsCapacity) {
  auto enclave = MakeEnclave();
  ReadBuffer buffer(enclave, 16 << 10, BufferPlacement::kOutsideEnclave, 4);
  auto loader = []() -> Result<std::string> {
    return std::string(2048, 'e');
  };
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(buffer.Get("f", i * 4096, EachBlock(loader)).ok());
  }
  EXPECT_GT(buffer.stats().evictions, 0u);
  EXPECT_LE(buffer.bytes_used(), 16u << 10);
  EXPECT_EQ(buffer.bytes_used(), buffer.ResidentBytes());
}

// --- engine: one block tag, checked before admission -----------------------

// Flips one bit in the middle of every block of every SSTable on `fs`.
void FlipEveryBlock(ElsmDb& store, storage::SimFs& fs) {
  for (const auto& level : store.engine().levels()) {
    for (const auto& file : level.files) {
      auto blob = fs.MutableBlob(file.name);
      ASSERT_NE(blob, nullptr);
      for (const auto& block : file.blocks) {
        (*blob)[block.offset + block.size / 2] ^= 0x01;
      }
    }
  }
}

TEST(ReadCacheTest, DigestMismatchFailsClosedAndCachesNothing) {
  // A block flipped on disk before its first read fails that read at the
  // engine's block check with AuthFailure, is never admitted to the read
  // buffer, and fails again on the next read, which loads it afresh.
  for (Mode mode : {Mode::kP1, Mode::kP2}) {
    SCOPED_TRACE(mode == Mode::kP1 ? "P1" : "P2");
    Options o = BufferOptions();
    o.mode = mode;
    auto fs = std::make_shared<storage::SimFs>(
        std::make_shared<sgx::Enclave>(o.cost_model, true));
    auto db = ElsmDb::Open(o, fs, std::make_shared<TrustedPlatform>());
    ASSERT_TRUE(db.ok());
    auto& store = *db.value();
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(store.Put(Key(i), test_util::Cat("value-", i)).ok());
    }
    ASSERT_TRUE(store.CompactAll().ok());
    store.ClearReadCache();
    FlipEveryBlock(store, *fs);

    uint64_t misses = store.read_cache_stats().misses;
    for (int attempt = 0; attempt < 2; ++attempt) {
      auto got = store.engine().Get(Key(77), kLatest);
      ASSERT_FALSE(got.ok()) << "attempt " << attempt;
      EXPECT_TRUE(got.status().IsAuthFailure()) << got.status().ToString();
      EXPECT_EQ(store.engine().read_buffer()->bytes_used(), 0u);
      EXPECT_GT(store.read_cache_stats().misses, misses);
      misses = store.read_cache_stats().misses;
    }
  }
}

TEST(BlockTagTest, OnlyStoresThatCheckBlocksDigestThem) {
  // The block digest is the one per-block tag, computed only by a store
  // that checks its blocks: P1 and authenticated P2 seal the SHA-256 of
  // each block's bytes; the unsecured and unauthenticated-P2 baselines
  // hash nothing and carry kZeroHash.
  struct Case {
    Mode mode;
    bool authenticate_data;
    bool tagged;
  };
  for (const Case& c : {Case{Mode::kP1, true, true},
                        Case{Mode::kP2, true, true},
                        Case{Mode::kP2, false, false},
                        Case{Mode::kUnsecured, true, false}}) {
    SCOPED_TRACE(test_util::Cat(int(c.mode), c.authenticate_data ? "" : "u"));
    Options o = BufferOptions();
    o.mode = c.mode;
    o.authenticate_data = c.authenticate_data;
    auto fs = std::make_shared<storage::SimFs>(
        std::make_shared<sgx::Enclave>(o.cost_model, true));
    auto db = ElsmDb::Open(o, fs, std::make_shared<TrustedPlatform>());
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), test_util::Cat("value-", i)).ok());
    }
    ASSERT_TRUE(db.value()->CompactAll().ok());
    size_t blocks = 0;
    for (const auto& level : db.value()->engine().levels()) {
      for (const auto& file : level.files) {
        auto blob = fs->Blob(file.name);
        ASSERT_NE(blob, nullptr);
        for (const auto& block : file.blocks) {
          ++blocks;
          const crypto::Hash256 expected =
              c.tagged ? crypto::Sha256::Digest(
                             std::string_view(*blob).substr(block.offset,
                                                            block.size))
                       : crypto::kZeroHash;
          EXPECT_EQ(block.digest, expected) << file.name << "@" << block.offset;
        }
      }
    }
    EXPECT_GT(blocks, 1u);
  }
}

// --- concurrency (runs under the TSan CI matrix) ---------------------------

TEST(ReadCacheConcurrencyTest, SingleFlightCollapsesDuplicateMisses) {
  auto enclave = MakeEnclave();
  ReadBuffer buffer(enclave, 64 << 10, BufferPlacement::kOutsideEnclave, 4);
  std::atomic<int> loads{0};
  auto slow_loader = [&]() -> Result<std::string> {
    loads.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return std::string(1024, 's');
  };
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto r = buffer.Get("f", 0, EachBlock(slow_loader));
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.value()->size(), 1024u);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(loads.load(), 1);
  const auto stats = buffer.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kThreads - 1u);
}

TEST(ReadCacheConcurrencyTest, ConcurrentMissStressKeepsExactAccounting) {
  // The regression this guards: a duplicate-miss overwrite used to leak the
  // old entry's size into bytes_used_ and strand its LRU node, permanently
  // shrinking effective capacity. After an all-out stress run the byte
  // ledger must equal the sum of resident entries exactly.
  auto enclave = MakeEnclave();
  ReadBuffer buffer(enclave, 48 << 10, BufferPlacement::kOutsideEnclave, 4);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 600;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(1000 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int file = rng() % 3;
        const uint64_t offset = (rng() % 24) * 512;
        const size_t size = 256 + rng() % 1536;
        auto loader = [size]() -> Result<std::string> {
          return std::string(size, 'm');
        };
        const std::string name = test_util::Cat("f", file);
        auto r = buffer.Get(name, offset, EachBlock(loader));
        ASSERT_TRUE(r.ok());
        if (i % 97 == 0) buffer.Invalidate(name);
        if (i % 53 == 0) {
          (void)buffer.stats();
          (void)buffer.bytes_used();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(buffer.bytes_used(), buffer.ResidentBytes());
  EXPECT_LE(buffer.bytes_used(), 48u << 10);
  const auto stats = buffer.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            uint64_t(kThreads) * uint64_t(kOpsPerThread));
}

TEST(ReadCacheConcurrencyTest, InvalidateRacesLoadersWithoutStaleInstall) {
  // An Invalidate landing while a miss is in flight must not let the flight
  // install its (now dead) block behind the invalidation.
  auto enclave = MakeEnclave();
  ReadBuffer buffer(enclave, 64 << 10, BufferPlacement::kOutsideEnclave, 2);
  std::atomic<bool> stop{false};
  std::thread invalidator([&] {
    while (!stop.load()) {
      buffer.Invalidate("f0");
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937 rng(t);
      for (int i = 0; i < 400; ++i) {
        const uint64_t offset = (rng() % 8) * 512;
        auto loader = []() -> Result<std::string> {
          return std::string(512, 'r');
        };
        auto r = buffer.Get("f0", offset, EachBlock(loader));
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r.value()->size(), 512u);
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  invalidator.join();
  buffer.Invalidate("f0");
  EXPECT_EQ(buffer.bytes_used(), buffer.ResidentBytes());
  EXPECT_EQ(buffer.ResidentBytes(), 0u);
}

TEST(ReadCacheConcurrencyTest, BatchesAndSingleReadsShareOneLookupPath) {
  // Four threads issue overlapping multi-block batches (duplicates
  // included) and one-block reads on the same keys of one file, while a
  // fifth keeps invalidating it, through a buffer small enough to evict.
  // The "disk" generation bumps before every Invalidate and each loaded
  // block records the generation it was read at, so:
  //  * every load is one flight's: loads == misses (a hit or a request
  //    that joins a flight never loads);
  //  * a request that starts after an Invalidate returned never sees bytes
  //    loaded before it (nothing is installed behind an invalidation, and
  //    a detached flight is never joined);
  //  * the byte ledger stays exact.
  auto enclave = MakeEnclave();
  ReadBuffer buffer(enclave, 4 << 10, BufferPlacement::kOutsideEnclave, 2);
  constexpr uint64_t kBlock = 512;
  constexpr uint64_t kBlocks = 16;
  std::atomic<uint64_t> generation{0};
  std::atomic<uint64_t> invalidated_through{0};
  std::atomic<uint64_t> loads{0};
  std::atomic<int> wrong{0};
  auto load = [&](const std::vector<ReadBuffer::BlockRequest>& requests) {
    return [&, requests](const std::vector<size_t>& indices,
                         std::vector<Result<std::string>>& out) {
      for (size_t i : indices) {
        if (requests[i].file != "f") ++wrong;
        std::string block = test_util::Cat("gen", generation.load(), ".");
        block.resize(kBlock, '.');
        out[i] = std::move(block);
        loads.fetch_add(1);
      }
    };
  };
  auto gen_of = [](const std::string& block) {
    return std::stoull(block.substr(3));
  };
  std::atomic<bool> stop{false};
  std::thread invalidator([&] {
    while (!stop.load()) {
      const uint64_t g = generation.fetch_add(1) + 1;
      buffer.Invalidate("f");
      invalidated_through.store(g);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937 rng(100 + t);
      // At least 400 reads each, spanning at least 20 invalidations.
      for (int i = 0; i < 400 || invalidated_through.load() < 20; ++i) {
        std::vector<ReadBuffer::BlockRequest> requests;
        const size_t n = (i % 2 == 0) ? 2 + rng() % 4 : 1;
        for (size_t k = 0; k < n; ++k) {
          requests.push_back({"f", (rng() % kBlocks) * kBlock});
        }
        const uint64_t floor = invalidated_through.load();
        auto got = n == 1 ? std::vector<Result<ReadBuffer::Block>>{buffer.Get(
                                "f", requests[0].offset, load(requests))}
                          : buffer.GetBatch(requests, load(requests));
        for (const auto& r : got) {
          if (!r.ok() || r.value()->size() != kBlock ||
              gen_of(*r.value()) < floor) {
            ++wrong;
          }
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  invalidator.join();
  EXPECT_EQ(wrong.load(), 0);
  const auto stats = buffer.stats();
  EXPECT_EQ(loads.load(), stats.misses);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(buffer.bytes_used(), buffer.ResidentBytes());
  EXPECT_LE(buffer.bytes_used(), 4u << 10);
}

TEST(ReadCacheConcurrencyTest, InvalidationDetachesFlightsFromLaterRequests) {
  // Thread A leads a slow load of f#0; thread B's batch {f#0, f#512} joins
  // that flight and leads f#512. The file is then invalidated while A's
  // load still runs, and a later request C for f#0 starts a fresh load
  // instead of joining A's. A and B still get A's bytes, but nothing
  // loaded before the invalidation is installed: only C's block is
  // resident at the end.
  auto enclave = MakeEnclave();
  ReadBuffer buffer(enclave, 64 << 10, BufferPlacement::kOutsideEnclave, 4);
  std::promise<void> a_loading;
  std::promise<void> release_a;
  std::shared_future<void> released = release_a.get_future().share();
  auto slow = [&](const std::vector<size_t>& indices,
                  std::vector<Result<std::string>>& out) {
    a_loading.set_value();
    released.wait();
    for (size_t i : indices) out[i] = std::string(512, 'a');
  };
  Result<ReadBuffer::Block> a_got = Status::IOError("unset");
  std::thread a([&] { a_got = buffer.Get("f", 0, slow); });
  a_loading.get_future().wait();

  std::promise<std::vector<size_t>> b_led;
  auto b_loader = [&](const std::vector<size_t>& indices,
                      std::vector<Result<std::string>>& out) {
    for (size_t i : indices) out[i] = std::string(512, 'b');
    b_led.set_value(indices);
  };
  std::vector<Result<ReadBuffer::Block>> b_got;
  std::thread b([&] {
    const std::vector<ReadBuffer::BlockRequest> requests = {{"f", 0},
                                                            {"f", 512}};
    b_got = buffer.GetBatch(requests, b_loader);
  });
  // B classified its batch: it leads only f#512, so it joined A's flight.
  EXPECT_EQ(b_led.get_future().get(), std::vector<size_t>{1});

  buffer.Invalidate("f");
  std::atomic<int> c_loads{0};
  auto c = std::async(std::launch::async, [&] {
    return buffer.Get("f", 0, EachBlock([&]() -> Result<std::string> {
                        ++c_loads;
                        return std::string(512, 'c');
                      }));
  });
  // C must not wait for A's load (a detached flight is never joined).
  const bool c_first =
      c.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release_a.set_value();
  a.join();
  b.join();
  auto c_got = c.get();

  EXPECT_TRUE(c_first);
  ASSERT_TRUE(c_got.ok());
  EXPECT_EQ(c_loads.load(), 1);
  EXPECT_EQ(*c_got.value(), std::string(512, 'c'));
  ASSERT_TRUE(a_got.ok());
  EXPECT_EQ(*a_got.value(), std::string(512, 'a'));
  ASSERT_EQ(b_got.size(), 2u);
  ASSERT_TRUE(b_got[0].ok());
  EXPECT_EQ(*b_got[0].value(), std::string(512, 'a'));
  ASSERT_TRUE(b_got[1].ok());
  EXPECT_EQ(*b_got[1].value(), std::string(512, 'b'));
  EXPECT_EQ(buffer.ResidentBytes(), 512u);
  EXPECT_EQ(buffer.bytes_used(), buffer.ResidentBytes());
  auto warm = buffer.Get("f", 0, EachBlock([]() -> Result<std::string> {
                           return Status::IOError("must hit");
                         }));
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(*warm.value(), std::string(512, 'c'));
}

TEST(ReadCacheConcurrencyTest, PathCacheChurnUnderParallelVerifiedReaders) {
  // A path cache far smaller than the tree: four readers keep probing,
  // inserting and evicting against one verifier. Every read must verify
  // with the right value, and the cache must stay within its bound.
  Options o = BufferOptions();
  o.proof_path_cache_entries = 24;
  auto db = ElsmDb::Create(o);
  ASSERT_TRUE(db.ok());
  auto& store = *db.value();
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(store.Put(Key(i), test_util::Cat("value-", i)).ok());
  }
  ASSERT_TRUE(store.CompactAll().ok());

  constexpr int kReaders = 4;
  constexpr int kReads = 300;
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937 rng(7 + t);
      for (int i = 0; i < kReads; ++i) {
        // Half the reads go to a hot handful of keys, so some climbs stop
        // at cached nodes while others evict them.
        const int k = (i % 2 == 0) ? int(rng() % 8) : int(rng() % 300);
        auto r = store.GetVerified(Key(k));
        if (!r.ok() || !r.value().verified || !r.value().record.has_value() ||
            r.value().record->value != test_util::Cat("value-", k)) {
          ++wrong;
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(wrong.load(), 0);
  const auto paths = store.proof_path_cache_stats();
  EXPECT_GT(paths.hits, 0u);
  EXPECT_GT(paths.evictions, 0u);
  EXPECT_LE(paths.insertions - paths.evictions, 24u);
}

TEST(ReadCacheConcurrencyTest, OpStatsPollAndResetDuringVerifiedReaders) {
  // A fifth thread snapshots and resets the facade stats while four
  // verified readers update them. Each read's sample, proof bytes and
  // verified count land in one update, so every snapshot is consistent.
  auto db = ElsmDb::Create(BufferOptions());
  ASSERT_TRUE(db.ok());
  auto& store = *db.value();
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(store.Put(Key(i), test_util::Cat("value-", i)).ok());
  }
  ASSERT_TRUE(store.CompactAll().ok());
  store.ResetOpStats();

  std::atomic<bool> done{false};
  std::atomic<int> wrong{0};
  std::thread poller([&] {
    for (uint64_t polls = 1; !done.load(); ++polls) {
      const ElsmDb::OpStats stats = store.op_stats();
      if (stats.get.count() != stats.verified_ops ||
          (stats.verified_ops > 0) != (stats.proof_bytes > 0)) {
        ++wrong;
      }
      if (polls % 16 == 0) store.ResetOpStats();
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const int k = (i * 7 + t * 31) % 300;
        auto r = store.GetVerified(Key(k));
        if (!r.ok() || !r.value().verified) ++wrong;
      }
    });
  }
  for (auto& t : readers) t.join();
  done.store(true);
  poller.join();
  EXPECT_EQ(wrong.load(), 0);
  const ElsmDb::OpStats stats = store.op_stats();
  EXPECT_EQ(stats.get.count(), stats.verified_ops);
}

// --- unit: the verifier's proof-path node store ----------------------------

TEST(PathNodeCacheTest, MatchesReferenceFifoModel) {
  // Random inserts, probes and oldest-first evictions against a map+deque
  // model, through ring wraparound, table growth and backward-shift deletes
  // (few roots, levels and indices, so probe runs collide often).
  auth::PathNodeCache cache(/*max_entries=*/300);
  using Id = std::tuple<int, uint64_t, uint32_t>;
  std::map<Id, crypto::Hash256> model;
  std::deque<Id> fifo;
  std::vector<crypto::Hash256> roots;
  for (int r = 0; r < 3; ++r) {
    roots.push_back(crypto::Sha256::Digest(test_util::Cat("root", r)));
  }
  auto key_of = [&](const Id& id) {
    return auth::PathNodeCache::Key{roots[size_t(std::get<0>(id))],
                                    std::get<1>(id), std::get<2>(id)};
  };
  std::mt19937 rng(42);
  auto random_id = [&] {
    return Id{int(rng() % 3), rng() % 64, uint32_t(rng() % 4)};
  };
  for (int step = 0; step < 20000; ++step) {
    const Id id = random_id();
    crypto::Hash256 node{};
    node[0] = uint8_t(step);
    node[1] = uint8_t(step >> 8);
    const bool fresh = model.count(id) == 0;
    ASSERT_EQ(cache.Insert(key_of(id), node), fresh);
    if (fresh) {
      model[id] = node;
      fifo.push_back(id);
    }
    const size_t cap = 50 + size_t(step / 2000 % 5) * 50;
    while (cache.size() > cap) {
      cache.PopOldest();
      model.erase(fifo.front());
      fifo.pop_front();
    }
    ASSERT_EQ(cache.size(), model.size());
    const Id probe = random_id();
    const crypto::Hash256* found = cache.Find(key_of(probe));
    auto it = model.find(probe);
    ASSERT_EQ(found != nullptr, it != model.end());
    if (found != nullptr) {
      ASSERT_EQ(*found, it->second);
    }
  }
  for (const auto& [id, node] : model) {
    const crypto::Hash256* found = cache.Find(key_of(id));
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, node);
  }
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Find(key_of(fifo.back())), nullptr);
}

// --- lifecycle: compaction's purge must sweep every cache layer ------------

TEST(ReadCacheLifecycleTest, ObsoleteFilePurgeEvictsBufferAndTreeHandles) {
  Options o = BufferOptions();
  auto db = ElsmDb::Create(o);
  ASSERT_TRUE(db.ok());
  auto& store = *db.value();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store.Put(Key(i), test_util::Cat("gen0-", i)).ok());
  }
  ASSERT_TRUE(store.CompactAll().ok());
  // Populate block cache + tree-sidecar handles against generation 0.
  for (int i = 0; i < 200; i += 5) {
    auto r = store.GetVerified(Key(i));
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.value().record.has_value());
  }
  EXPECT_GT(store.read_cache_stats().misses, 0u);
  // Each sidecar handle hangs on its level; watch generation 0's without
  // pinning the snapshot that owns them.
  std::vector<std::weak_ptr<lsm::Attachment>> gen0_sidecars;
  {
    const auto gen0 = store.engine().current_version();
    for (const auto& level : gen0->levels()) {
      if (level.tree_file.empty()) continue;
      EXPECT_TRUE(level.sidecar->attached());
      gen0_sidecars.push_back(level.sidecar);
    }
  }
  ASSERT_FALSE(gen0_sidecars.empty());

  // Generation 1 rewrites the level stack; the old SSTables retire through
  // the tracker purge, which must sweep the block cache, and the old
  // sidecar handles die with the last snapshot that could read them.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store.Put(Key(i), test_util::Cat("gen1-", i)).ok());
  }
  ASSERT_TRUE(store.CompactAll().ok());
  EXPECT_GT(store.read_cache_stats().invalidations, 0u);
  for (const auto& sidecar : gen0_sidecars) EXPECT_TRUE(sidecar.expired());

  // Reads against the new generation verify cleanly (nothing stale served).
  for (int i = 0; i < 200; i += 5) {
    auto r = store.GetVerified(Key(i));
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.value().record.has_value());
    EXPECT_EQ(r.value().record->value, test_util::Cat("gen1-", i));
  }
}

// --- warm-hit budget: zero I/O, zero path re-hashing -----------------------

TEST(ReadCacheCounterTest, WarmVerifiedGetSkipsIoAndPathHashing) {
  Options o = BufferOptions();
  auto db = ElsmDb::Create(o);
  ASSERT_TRUE(db.ok());
  auto& store = *db.value();
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(store.Put(Key(i), test_util::Cat("value-", i)).ok());
  }
  ASSERT_TRUE(store.CompactAll().ok());

  const std::string hot = Key(137);
  auto cold = store.GetVerified(hot);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(cold.value().verified);
  const auto cold_counters = store.enclave().counters();
  const auto cold_paths = store.proof_path_cache_stats();
  EXPECT_GT(cold_paths.path_nodes_hashed, 0u);

  auto warm = store.GetVerified(hot);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm.value().verified);
  ASSERT_TRUE(warm.value().record.has_value());
  EXPECT_EQ(warm.value().record->value, "value-137");
  const auto warm_counters = store.enclave().counters();
  const auto warm_paths = store.proof_path_cache_stats();

  // Warm hit: no filesystem reads, no world switches for block loads, and
  // the Merkle climb short-circuits at the cached leaf — zero path nodes
  // re-hashed. Only the per-record chain hash (a few dozen bytes) remains.
  EXPECT_EQ(warm_counters.file_bytes_read, cold_counters.file_bytes_read);
  EXPECT_EQ(warm_counters.ocalls, cold_counters.ocalls);
  EXPECT_EQ(warm_paths.path_nodes_hashed, cold_paths.path_nodes_hashed);
  EXPECT_GT(warm_paths.hits, cold_paths.hits);
  const uint64_t warm_hashed =
      warm_counters.bytes_hashed - cold_counters.bytes_hashed;
  EXPECT_LT(warm_hashed, 512u);
  const auto cache = store.read_cache_stats();
  EXPECT_GT(cache.hits, 0u);
}

TEST(ReadCacheCounterTest, PathCacheDisabledStillVerifies) {
  Options o = BufferOptions();
  o.proof_path_cache_entries = 0;
  auto db = ElsmDb::Create(o);
  ASSERT_TRUE(db.ok());
  auto& store = *db.value();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Put(Key(i), "v").ok());
  }
  ASSERT_TRUE(store.CompactAll().ok());
  for (int pass = 0; pass < 2; ++pass) {
    auto r = store.GetVerified(Key(42));
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.value().record.has_value());
  }
  EXPECT_EQ(store.proof_path_cache_stats().lookups, 0u);
}

TEST(ReadCacheCounterTest, UnboundedPathCacheStillVerifies) {
  // The largest capacity must not wrap the cache's internal bound: every
  // node stays cached and nothing is evicted.
  Options o = BufferOptions();
  o.proof_path_cache_entries = SIZE_MAX;
  auto db = ElsmDb::Create(o);
  ASSERT_TRUE(db.ok());
  auto& store = *db.value();
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(store.Put(Key(i), test_util::Cat("value-", i)).ok());
  }
  ASSERT_TRUE(store.CompactAll().ok());
  for (int i = 0; i < 300; ++i) {
    auto r = store.GetVerified(Key(i));
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.value().record.has_value());
    EXPECT_EQ(r.value().record->value, test_util::Cat("value-", i));
  }
  const auto paths = store.proof_path_cache_stats();
  EXPECT_GT(paths.insertions, 300u);
  EXPECT_EQ(paths.evictions, 0u);
}

TEST(ReadCacheCounterTest, UnauthenticatedStoreHashesNoBlocks) {
  // The "SGX port without authentication" baseline carries no integrity
  // contract: admitting a cold block to the read buffer must not hash it.
  Options o = BufferOptions();
  o.authenticate_data = false;
  auto db = ElsmDb::Create(o);
  ASSERT_TRUE(db.ok());
  auto& store = *db.value();
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(store.Put(Key(i), "v").ok());
  }
  ASSERT_TRUE(store.CompactAll().ok());
  store.ClearReadCache();
  const auto before = store.enclave().counters();
  for (int i = 0; i < 300; i += 7) {
    auto got = store.Get(Key(i));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got.value().has_value()) << Key(i);
  }
  const auto after = store.enclave().counters();
  EXPECT_GT(store.read_cache_stats().misses, 0u);
  EXPECT_GT(after.file_bytes_read, before.file_bytes_read);
  EXPECT_EQ(after.bytes_hashed, before.bytes_hashed);
}

// --- tamper: cached hits stay safe, dropped caches fail closed -------------

TEST(ReadCacheTamperTest, CorruptedFileFailsClosedOnceCachesDrop) {
  Options o = BufferOptions();
  auto platform = std::make_shared<TrustedPlatform>();
  auto enclave = std::make_shared<sgx::Enclave>(o.cost_model, true);
  auto fs = std::make_shared<storage::SimFs>(enclave);
  auto db = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.value()->Put(Key(i), test_util::Cat("payload-", i)).ok());
  }
  ASSERT_TRUE(db.value()->CompactAll().ok());
  const std::string hot = Key(77);
  ASSERT_TRUE(db.value()->GetVerified(hot).ok());  // warms every cache

  // The host corrupts every data block of every SSTable on "disk".
  for (const auto& level : db.value()->engine().levels()) {
    for (const auto& file : level.files) {
      auto blob = fs->MutableBlob(file.name);
      ASSERT_NE(blob, nullptr);
      for (const auto& block : file.blocks) {
        (*blob)[block.offset] ^= 0x01;
      }
    }
  }

  // A warm hit still serves: its bytes were verified against the sealed
  // digest before admission, and a hit performs no I/O to re-read the
  // now-corrupt file.
  auto warm = db.value()->GetVerified(hot);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.value().record->value, "payload-77");

  // Reopen drops every cache; the same read must now fail closed at the
  // digest check instead of serving corrupt bytes.
  ASSERT_TRUE(db.value()->Close().ok());
  db.value().reset();
  auto reopened = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(reopened.ok());
  auto tampered = reopened.value()->GetVerified(hot);
  ASSERT_FALSE(tampered.ok());
  EXPECT_TRUE(tampered.status().IsAuthFailure());
}

TEST(ReadCacheTamperTest, P1FlippedSstableByteFailsAsAuthFailure) {
  // P1 keeps its buffer inside the enclave and checks every block it loads
  // against the block's sealed digest. With one byte flipped in every
  // SSTable and the buffer cold after a reopen, every Get returns the
  // written value or fails with AuthFailure (never Corruption), and a full
  // compaction, which reads every block, fails with AuthFailure.
  Options o = BufferOptions();
  o.mode = Mode::kP1;
  auto platform = std::make_shared<TrustedPlatform>();
  auto fs = std::make_shared<storage::SimFs>(
      std::make_shared<sgx::Enclave>(o.cost_model, true));
  {
    auto db = ElsmDb::Open(o, fs, platform);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), test_util::Cat("payload-", i)).ok());
    }
    ASSERT_TRUE(db.value()->CompactAll().ok());
    ASSERT_TRUE(db.value()->Close().ok());
  }
  size_t tables = 0;
  for (const std::string& name : fs->List("")) {
    if (name.size() < 4 || name.compare(name.size() - 4, 4, ".sst") != 0) {
      continue;
    }
    auto blob = fs->MutableBlob(name);
    ASSERT_NE(blob, nullptr);
    ASSERT_FALSE(blob->empty());
    (*blob)[blob->size() / 2] ^= 0x01;
    ++tables;
  }
  ASSERT_GT(tables, 0u);

  auto reopened = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& store = *reopened.value();
  int failed = 0;
  for (int i = 0; i < 200; ++i) {
    auto got = store.Get(Key(i));
    if (got.ok()) {
      ASSERT_TRUE(got.value().has_value()) << Key(i);
      EXPECT_EQ(*got.value(), test_util::Cat("payload-", i));
    } else {
      EXPECT_TRUE(got.status().IsAuthFailure()) << got.status().ToString();
      ++failed;
    }
  }
  EXPECT_GT(failed, 0);
  // A fresh key makes the full compaction merge (and so read) every
  // tampered block.
  ASSERT_TRUE(store.Put(Key(200), "fresh").ok());
  Status compact = store.CompactAll();
  EXPECT_TRUE(compact.IsAuthFailure()) << compact.ToString();
}

}  // namespace
}  // namespace elsm
