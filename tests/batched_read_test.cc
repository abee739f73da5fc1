// Batched modern-I/O read path tests: the Fs::MultiRead contract across
// every backend (SimFs / PosixFs / FaultFs, io_uring and pread execution),
// ReadBuffer::GetBatch admission semantics, engine MultiGet / scan
// readahead equivalence with the sequential path, per-key fail-closed
// isolation under tampering and transient faults, and a concurrent
// batched-readers-vs-writers-vs-compaction stress (TSan suite).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "elsm/elsm_db.h"
#include "elsm/sharded_db.h"
#include "storage/fault_fs.h"
#include "storage/posix_fs.h"
#include "storage/read_buffer.h"
#include "storage/simfs.h"
#include "temp_dir.h"
#include "str_cat.h"

namespace elsm {
namespace {

using storage::FaultFs;
using storage::PosixFs;
using storage::ReadRequest;
using storage::SimFs;

std::shared_ptr<sgx::Enclave> MakeEnclave() {
  return std::make_shared<sgx::Enclave>(sgx::CostModel{}, true);
}

std::string Key(int i) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

std::string Value(int i, int version = 0) {
  return test_util::Cat("value-", i, "-v", version);
}

Options BufferOptions(Mode mode = Mode::kP2) {
  Options o;
  o.mode = mode;
  o.memtable_bytes = 4 << 10;
  o.level1_bytes = 16 << 10;
  o.block_bytes = 1024;
  o.file_bytes = 8 << 10;
  o.read_path = lsm::ReadPathKind::kBuffer;
  o.read_buffer_bytes = 4 << 20;
  return o;
}

// --- Fs::MultiRead contract ------------------------------------------------

// Every backend must answer a MultiRead batch byte-identically to the same
// requests issued as sequential Reads, with per-sub-read error isolation:
// a bad request (missing file, offset past EOF) fails only its own slot.
void CheckMultiReadContract(storage::Fs& fs) {
  ASSERT_TRUE(fs.Write("a", "aaaaaaaaaa").ok());      // 10 bytes
  ASSERT_TRUE(fs.Write("b", "0123456789xyz").ok());   // 13 bytes
  std::vector<ReadRequest> reqs = {
      {"a", 0, 10},          // exact
      {"b", 4, 6},           // interior
      {"a", 8, 100},         // clamped to EOF -> "aa"
      {"missing", 0, 4},     // no such file
      {"b", 50, 1},          // offset past EOF
      {"b", 0, 13},          // whole file
      {"a", 0, 10},          // duplicate of slot 0
  };
  auto got = fs.MultiRead(reqs);
  ASSERT_EQ(got.size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    auto seq = fs.Read(reqs[i].name, reqs[i].offset, reqs[i].len);
    ASSERT_EQ(got[i].ok(), seq.ok()) << "slot " << i;
    if (seq.ok()) {
      EXPECT_EQ(got[i].value(), seq.value()) << "slot " << i;
    }
  }
  EXPECT_TRUE(got[0].ok());
  EXPECT_EQ(got[1].value(), "456789");
  EXPECT_EQ(got[2].value(), "aa");
  EXPECT_FALSE(got[3].ok());
  EXPECT_FALSE(got[4].ok());
  EXPECT_EQ(got[5].value(), "0123456789xyz");
  EXPECT_EQ(got[6].value(), got[0].value());
}

TEST(MultiReadContractTest, SimFs) {
  SimFs fs(MakeEnclave());
  CheckMultiReadContract(fs);
}

TEST(MultiReadContractTest, PosixFsAuto) {
  test_util::TempDir dir;
  ASSERT_TRUE(dir.ok());
  storage::SetPosixMultiReadPath(storage::MultiReadPath::kAuto);
  PosixFs fs(MakeEnclave(), dir.path());
  CheckMultiReadContract(fs);
}

TEST(MultiReadContractTest, PosixFsPreadFallback) {
  test_util::TempDir dir;
  ASSERT_TRUE(dir.ok());
  storage::SetPosixMultiReadPath(storage::MultiReadPath::kPread);
  PosixFs fs(MakeEnclave(), dir.path());
  CheckMultiReadContract(fs);
  storage::SetPosixMultiReadPath(storage::MultiReadPath::kAuto);
}

TEST(MultiReadContractTest, PosixFsPageCacheBypass) {
  // PageCachePolicy::kBypass is purely advisory (fadvise hints around the
  // same reads): every result and charge must match the kernel policy.
  test_util::TempDir dir;
  ASSERT_TRUE(dir.ok());
  storage::SetPosixPageCachePolicy(storage::PageCachePolicy::kBypass);
  PosixFs fs(MakeEnclave(), dir.path());
  CheckMultiReadContract(fs);
  storage::SetPosixPageCachePolicy(storage::PageCachePolicy::kKernel);
}

TEST(MultiReadContractTest, FaultFsPassthrough) {
  FaultFs fs(MakeEnclave());
  CheckMultiReadContract(fs);
}

TEST(MultiReadContractTest, UringAndPreadAgreeByteForByte) {
  // Same batch through both execution paths must produce identical results
  // slot for slot (on kernels without io_uring, kAuto silently runs the
  // fallback and this degenerates to pread-vs-pread — still a valid check).
  test_util::TempDir dir;
  ASSERT_TRUE(dir.ok());
  PosixFs fs(MakeEnclave(), dir.path());
  std::string blob;
  for (int i = 0; i < 4096; ++i) blob.push_back(char('a' + i % 26));
  ASSERT_TRUE(fs.Write("f", blob).ok());
  std::vector<ReadRequest> reqs;
  for (uint64_t off = 0; off < 4096; off += 512) {
    reqs.push_back({"f", off, 512});
  }
  reqs.push_back({"f", 4000, 500});  // tail clamp
  storage::SetPosixMultiReadPath(storage::MultiReadPath::kAuto);
  auto fast = fs.MultiRead(reqs);
  storage::SetPosixMultiReadPath(storage::MultiReadPath::kPread);
  auto slow = fs.MultiRead(reqs);
  storage::SetPosixMultiReadPath(storage::MultiReadPath::kAuto);
  ASSERT_EQ(fast.size(), slow.size());
  for (size_t i = 0; i < fast.size(); ++i) {
    ASSERT_TRUE(fast[i].ok());
    ASSERT_TRUE(slow[i].ok());
    EXPECT_EQ(fast[i].value(), slow[i].value()) << "slot " << i;
  }
}

TEST(MultiReadContractTest, SimFsChargesMatchSequential) {
  // The deterministic backend must charge the simulated clock identically
  // for a batch and for the same reads issued one by one.
  auto e1 = MakeEnclave();
  auto e2 = MakeEnclave();
  SimFs batched(e1);
  SimFs sequential(e2);
  for (auto* fs : {&batched, &sequential}) {
    ASSERT_TRUE(fs->Write("f", std::string(8192, 'x')).ok());
  }
  std::vector<ReadRequest> reqs = {{"f", 0, 1024}, {"f", 1024, 1024},
                                   {"f", 4096, 4096}};
  const uint64_t b0 = e1->now_ns();
  auto got = batched.MultiRead(reqs);
  const uint64_t batch_cost = e1->now_ns() - b0;
  const uint64_t s0 = e2->now_ns();
  for (const auto& r : reqs) {
    ASSERT_TRUE(sequential.Read(r.name, r.offset, r.len).ok());
  }
  const uint64_t seq_cost = e2->now_ns() - s0;
  for (const auto& r : got) ASSERT_TRUE(r.ok());
  EXPECT_EQ(batch_cost, seq_cost);
}

TEST(MultiReadContractTest, FaultFsInjectsPerSubRead) {
  // A one-shot transient fault fails exactly one sub-read of the batch;
  // the other requests in the same MultiRead still succeed.
  FaultFs fs(MakeEnclave());
  ASSERT_TRUE(fs.Write("f", std::string(4096, 'x')).ok());
  fs.ScheduleTransient(2, FaultFs::TransientKind::kEIO);
  std::vector<ReadRequest> reqs = {{"f", 0, 64}, {"f", 64, 64},
                                   {"f", 128, 64}};
  auto got = fs.MultiRead(reqs);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_TRUE(got[0].ok());
  EXPECT_FALSE(got[1].ok());
  EXPECT_TRUE(got[1].status().IsUnavailable());
  EXPECT_TRUE(got[2].ok());
  EXPECT_EQ(fs.injected_faults(), 1u);
  // The fault auto-disarmed: a repeat batch is clean.
  for (auto& r : fs.MultiRead(reqs)) EXPECT_TRUE(r.ok());
}

TEST(MultiReadContractTest, ReadAllIsRaceFreeOneShot) {
  // ReadAll must read to EOF in a single call instead of FileSize-then-Read
  // (the old two-step raced concurrent appends). Byte-equality with the
  // current contents is the observable contract.
  SimFs fs(MakeEnclave());
  ASSERT_TRUE(fs.Write("f", "hello world").ok());
  auto got = fs.ReadAll("f");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "hello world");
  ASSERT_TRUE(fs.Append("f", "!").ok());
  EXPECT_EQ(fs.ReadAll("f").value(), "hello world!");
}

// --- ReadBuffer::GetBatch --------------------------------------------------

TEST(GetBatchTest, LeadersLoadOnceAndDuplicatesCollapse) {
  auto enclave = MakeEnclave();
  storage::ReadBuffer buffer(enclave, 1 << 20,
                             storage::BufferPlacement::kOutsideEnclave, 4);
  const std::string block_a(512, 'a');
  const std::string block_b(512, 'b');
  std::atomic<int> loader_calls{0};
  std::atomic<int> blocks_loaded{0};
  std::vector<storage::ReadBuffer::BlockRequest> reqs = {
      {"f", 0}, {"f", 512}, {"f", 0},  // duplicate of slot 0
  };
  auto loader = [&](const std::vector<size_t>& indices,
                    std::vector<Result<std::string>>& out) {
    ++loader_calls;
    for (size_t i : indices) {
      ++blocks_loaded;
      out[i] = i == 1 ? block_b : block_a;
    }
  };
  auto got = buffer.GetBatch(reqs, loader);
  ASSERT_EQ(got.size(), 3u);
  for (auto& r : got) ASSERT_TRUE(r.ok());
  EXPECT_EQ(*got[0].value(), block_a);
  EXPECT_EQ(*got[1].value(), block_b);
  EXPECT_EQ(*got[2].value(), block_a);
  // Two distinct keys -> one loader call covering both leaders; the
  // intra-batch duplicate joined slot 0's flight instead of loading again.
  EXPECT_EQ(loader_calls.load(), 1);
  EXPECT_EQ(blocks_loaded.load(), 2);
  EXPECT_EQ(buffer.stats().misses, 2u);

  // Warm repeat: all hits, no loader runs.
  auto warm = buffer.GetBatch(reqs, loader);
  for (auto& r : warm) ASSERT_TRUE(r.ok());
  EXPECT_EQ(loader_calls.load(), 1);
  EXPECT_EQ(buffer.stats().hits, 3u + 1u);  // 3 warm + 1 intra-batch waiter
}

TEST(GetBatchTest, PerRequestVerifyFailsClosed) {
  // One block of the batch fails its check in the loader (the engine's
  // loader returns AuthFailure for a block whose bytes do not match the
  // sealed digest): only its own slot fails and nothing of it is cached;
  // the good block is admitted normally.
  auto enclave = MakeEnclave();
  storage::ReadBuffer buffer(enclave, 1 << 20,
                             storage::BufferPlacement::kOutsideEnclave, 4);
  const std::string good(512, 'g');
  std::vector<storage::ReadBuffer::BlockRequest> reqs = {
      {"f", 0}, {"f", 512},
  };
  auto loader = [&](const std::vector<size_t>& indices,
                    std::vector<Result<std::string>>& out) {
    for (size_t i : indices) {
      out[i] = i == 0 ? Result<std::string>(good)
                      : Status::AuthFailure("block digest mismatch: f");
    }
  };
  auto got = buffer.GetBatch(reqs, loader);
  ASSERT_TRUE(got[0].ok());
  ASSERT_FALSE(got[1].ok());
  EXPECT_TRUE(got[1].status().IsAuthFailure());
  // Only the checked block is resident.
  EXPECT_EQ(buffer.bytes_used(), 512u);
}

// --- engine MultiGet -------------------------------------------------------

TEST(BatchedMultiGetTest, MatchesSequentialGets) {
  for (storage::BackendKind backend :
       {storage::BackendKind::kSim, storage::BackendKind::kPosix}) {
    test_util::TempDir dir;
    ASSERT_TRUE(dir.ok());
    Options o = BufferOptions();
    o.backend = backend;
    o.backend_dir = dir.path();
    auto db = ElsmDb::Create(o);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), Value(i)).ok());
    }
    ASSERT_TRUE(db.value()->CompactAll().ok());
    // Mix of present keys (cold blocks), absent keys, and duplicates.
    std::vector<std::string> keys;
    for (int i = 0; i < 400; i += 7) keys.push_back(Key(i));
    keys.push_back("nope-x");
    keys.push_back(Key(7));  // duplicate
    db.value()->ClearReadCache();
    auto batched = db.value()->MultiGet(keys);
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    ASSERT_EQ(batched.value().size(), keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      auto seq = db.value()->Get(keys[i]);
      ASSERT_TRUE(seq.ok());
      EXPECT_EQ(batched.value()[i], seq.value()) << keys[i];
    }
    // The cold pass actually exercised the batch machinery.
    const auto& es = db.value()->engine().stats();
    EXPECT_GT(es.multiget_batches.load(), 0u);
    EXPECT_GT(es.multiget_batched_blocks.load(), 0u);
  }
}

TEST(BatchedMultiGetTest, BatchingOffIsEquivalent) {
  Options on = BufferOptions();
  Options off = BufferOptions();
  off.multiget_batching = false;
  auto db_on = ElsmDb::Create(on);
  auto db_off = ElsmDb::Create(off);
  ASSERT_TRUE(db_on.ok());
  ASSERT_TRUE(db_off.ok());
  std::vector<std::string> keys;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(db_on.value()->Put(Key(i), Value(i)).ok());
    ASSERT_TRUE(db_off.value()->Put(Key(i), Value(i)).ok());
    if (i % 5 == 0) keys.push_back(Key(i));
  }
  ASSERT_TRUE(db_on.value()->CompactAll().ok());
  ASSERT_TRUE(db_off.value()->CompactAll().ok());
  auto a = db_on.value()->MultiGet(keys);
  auto b = db_off.value()->MultiGet(keys);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(db_off.value()->engine().stats().multiget_batches.load(), 0u);
}

TEST(BatchedMultiGetTest, TamperedBlockFailsOnlyItsKeys) {
  // P2 verified MultiGet over SimFs: corrupt one on-disk block, then batch-
  // read keys from many blocks. Only the keys resolving through the
  // tampered block fail (fail-closed), every other key still verifies.
  Options o = BufferOptions();
  auto enclave = MakeEnclave();
  auto fs = std::make_shared<SimFs>(enclave);
  auto platform = std::make_shared<TrustedPlatform>();
  auto db = ElsmDb::Open(o, fs, platform);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(db.value()->Put(Key(i), Value(i)).ok());
  }
  ASSERT_TRUE(db.value()->CompactAll().ok());
  // Flip bytes in the middle of one data block of one SSTable.
  const auto& levels = db.value()->engine().levels();
  ASSERT_FALSE(levels.empty());
  ASSERT_FALSE(levels.back().files.empty());
  const auto& victim_file = levels.back().files.front();
  ASSERT_GT(victim_file.blocks.size(), 1u);
  const auto& victim_block = victim_file.blocks[0];
  auto blob = fs->MutableBlob(victim_file.name);
  ASSERT_NE(blob, nullptr);
  (*blob)[victim_block.offset + victim_block.size / 2] ^= 0x5a;

  std::vector<std::string> keys;
  for (int i = 0; i < 400; i += 3) keys.push_back(Key(i));
  db.value()->ClearReadCache();
  auto results = db.value()->MultiGetVerified(keys);
  ASSERT_EQ(results.size(), keys.size());
  size_t failed = 0;
  size_t verified = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i].ok()) {
      EXPECT_TRUE(results[i].value().verified);
      ASSERT_TRUE(results[i].value().record.has_value());
      ++verified;
    } else {
      EXPECT_TRUE(results[i].status().IsAuthFailure())
          << results[i].status().ToString();
      ++failed;
    }
  }
  EXPECT_GT(failed, 0u);    // the tampered block was detected...
  EXPECT_GT(verified, 0u);  // ...without taking down unrelated keys
  // The aggregate value API fails closed on any per-key failure.
  EXPECT_FALSE(db.value()->MultiGet(keys).ok());
}

TEST(BatchedMultiGetTest, TransientFaultIsolatesAndRetires) {
  // A one-shot EIO during the batched load fails only the keys needing the
  // faulted sub-read; the very next MultiGet (fault disarmed) is clean —
  // the stored error was not cached.
  Options o = BufferOptions();
  o.io_retry.max_attempts = 1;  // surface the injected fault, no retries
  auto enclave = MakeEnclave();
  auto fault = std::make_shared<FaultFs>(std::make_shared<SimFs>(enclave));
  auto platform = std::make_shared<TrustedPlatform>();
  auto db = ElsmDb::Open(o, fault, platform);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(db.value()->Put(Key(i), Value(i)).ok());
  }
  ASSERT_TRUE(db.value()->CompactAll().ok());
  std::vector<std::string> keys;
  for (int i = 0; i < 400; i += 3) keys.push_back(Key(i));

  db.value()->ClearReadCache();
  fault->ScheduleTransient(3, FaultFs::TransientKind::kEIO);
  auto results = db.value()->MultiGetVerified(keys);
  size_t failed = 0;
  for (auto& r : results) {
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
      ++failed;
    }
  }
  EXPECT_GT(failed, 0u);
  EXPECT_LT(failed, keys.size());  // isolation: most keys unaffected
  EXPECT_FALSE(db.value()->degraded());  // read faults never degrade writes

  db.value()->ClearReadCache();
  for (auto& r : db.value()->MultiGetVerified(keys)) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
}

TEST(BatchedMultiGetTest, ShardedMultiGetRidesBatchedPath) {
  Options o = BufferOptions();
  o.fanout_threads = 4;
  auto db = ShardedDb::Create(o, 4);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::vector<std::string> keys;
  std::map<std::string, std::string> expect;
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(db.value()->Put(Key(i), Value(i)).ok());
    if (i % 4 == 0) {
      keys.push_back(Key(i));
      expect[Key(i)] = Value(i);
    }
  }
  ASSERT_TRUE(db.value()->CompactAll().ok());
  db.value()->ClearReadCache();
  auto got = db.value()->MultiGet(keys);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(got.value()[i].has_value()) << keys[i];
    EXPECT_EQ(*got.value()[i], expect[keys[i]]);
  }
  uint64_t batches = 0;
  for (uint32_t s = 0; s < db.value()->num_shards(); ++s) {
    batches += db.value()->shard(s).engine().stats().multiget_batches.load();
  }
  EXPECT_GT(batches, 0u);
}

// --- scan readahead --------------------------------------------------------

TEST(ScanReadaheadTest, ResultsMatchNoReadahead) {
  Options with = BufferOptions();
  with.scan_readahead_blocks = 8;
  Options without = BufferOptions();
  without.scan_readahead_blocks = 0;
  auto db_ra = ElsmDb::Create(with);
  auto db_seq = ElsmDb::Create(without);
  ASSERT_TRUE(db_ra.ok());
  ASSERT_TRUE(db_seq.ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(db_ra.value()->Put(Key(i), Value(i)).ok());
    ASSERT_TRUE(db_seq.value()->Put(Key(i), Value(i)).ok());
  }
  ASSERT_TRUE(db_ra.value()->CompactAll().ok());
  ASSERT_TRUE(db_seq.value()->CompactAll().ok());
  for (auto [lo, hi] : std::vector<std::pair<int, int>>{
           {0, 499}, {13, 130}, {250, 260}, {490, 600}}) {
    db_ra.value()->ClearReadCache();
    auto a = db_ra.value()->Scan(Key(lo), Key(hi));
    auto b = db_seq.value()->Scan(Key(lo), Key(hi));
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a.value().size(), b.value().size());
    for (size_t i = 0; i < a.value().size(); ++i) {
      EXPECT_EQ(a.value()[i].key, b.value()[i].key);
      EXPECT_EQ(a.value()[i].value, b.value()[i].value);
    }
  }
  const auto& es = db_ra.value()->engine().stats();
  EXPECT_GT(es.readahead_blocks.load(), 0u);
  EXPECT_GT(es.readahead_hits.load(), 0u);
  EXPECT_EQ(db_seq.value()->engine().stats().readahead_blocks.load(), 0u);
}

TEST(ScanReadaheadTest, ChargesMatchSequentialOnSimFs) {
  // The readahead window only covers blocks the walk provably visits, so
  // the simulated clock must price a cold scan identically with and
  // without readahead.
  auto run_scan = [](uint64_t readahead_blocks) -> uint64_t {
    Options o = BufferOptions();
    o.scan_readahead_blocks = readahead_blocks;
    auto db = ElsmDb::Create(o);
    EXPECT_TRUE(db.ok());
    for (int i = 0; i < 500; ++i) {
      EXPECT_TRUE(db.value()->Put(Key(i), Value(i)).ok());
    }
    EXPECT_TRUE(db.value()->CompactAll().ok());
    db.value()->ClearReadCache();
    const uint64_t t0 = db.value()->enclave().now_ns();
    auto got = db.value()->Scan(Key(50), Key(450));
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(got.value().size(), 401u);
    return db.value()->enclave().now_ns() - t0;
  };
  EXPECT_EQ(run_scan(8), run_scan(0));
}

// --- concurrency (TSan suite) ----------------------------------------------

TEST(BatchedReadConcurrencyTest, MultiGetVsWritersAndCompaction) {
  Options o = BufferOptions();
  o.backend = storage::BackendKind::kPosix;
  test_util::TempDir dir;
  ASSERT_TRUE(dir.ok());
  o.backend_dir = dir.path();
  auto db = ElsmDb::Create(o);
  ASSERT_TRUE(db.ok());
  constexpr int kKeys = 300;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db.value()->Put(Key(i), Value(i)).ok());
  }
  ASSERT_TRUE(db.value()->CompactAll().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> batch_errors{0};
  std::vector<std::thread> threads;
  // Batched readers: every result must be either the seed value or some
  // writer's later version — never torn, never unverified.
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::string> keys;
      for (int i = t; i < kKeys; i += 3) keys.push_back(Key(i));
      while (!stop.load(std::memory_order_relaxed)) {
        auto got = db.value()->MultiGetVerified(keys);
        for (size_t i = 0; i < got.size(); ++i) {
          if (!got[i].ok()) {
            ++batch_errors;
            continue;
          }
          if (!got[i].value().record.has_value()) {
            ++batch_errors;
            continue;
          }
          const std::string& v = got[i].value().record->value;
          if (v.rfind("value-", 0) != 0) ++batch_errors;
        }
      }
    });
  }
  // Scanning reader exercising the readahead path concurrently.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto got = db.value()->Scan(Key(0), Key(kKeys - 1));
      if (!got.ok() || got.value().size() < size_t(kKeys)) ++batch_errors;
    }
  });
  // Writers churning versions, plus periodic flushes driving compaction
  // (which rewrites files and invalidates cached blocks under the readers).
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      int version = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = t; i < kKeys; i += 2) {
          if (!db.value()->Put(Key(i), Value(i, version)).ok()) {
            ++batch_errors;
          }
        }
        ++version;
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)db.value()->Flush();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(batch_errors.load(), 0);
}

}  // namespace
}  // namespace elsm
