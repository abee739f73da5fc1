// Storage-layer tests: SimFs semantics + cost charging, WAL framing and
// crash truncation, read-buffer placement/eviction behaviour, mmap pinning.
#include <gtest/gtest.h>

#include "storage/mmap.h"
#include "storage/read_buffer.h"
#include "storage/simfs.h"
#include "storage/wal.h"
#include "block_loader.h"

namespace elsm::storage {
namespace {

using test_util::EachBlock;

std::shared_ptr<sgx::Enclave> MakeEnclave(bool enabled = true,
                                          uint64_t epc_bytes = 2 << 20) {
  sgx::CostModel m;
  m.epc_bytes = epc_bytes;
  return std::make_shared<sgx::Enclave>(m, enabled);
}

TEST(SimFsTest, WriteReadRoundTrip) {
  SimFs fs(MakeEnclave());
  ASSERT_TRUE(fs.Write("a/file", "hello world").ok());
  auto all = fs.ReadAll("a/file");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value(), "hello world");
  auto part = fs.Read("a/file", 6, 5);
  ASSERT_TRUE(part.ok());
  EXPECT_EQ(part.value(), "world");
}

TEST(SimFsTest, ReadPastEofClampsOrFails) {
  SimFs fs(MakeEnclave());
  ASSERT_TRUE(fs.Write("f", "12345").ok());
  auto tail = fs.Read("f", 3, 100);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail.value(), "45");
  EXPECT_FALSE(fs.Read("f", 6, 1).ok());
  EXPECT_FALSE(fs.Read("missing", 0, 1).ok());
}

TEST(SimFsTest, DeleteRenameListExists) {
  SimFs fs(MakeEnclave());
  ASSERT_TRUE(fs.Write("db/000001.sst", "x").ok());
  ASSERT_TRUE(fs.Write("db/000002.sst", "y").ok());
  ASSERT_TRUE(fs.Write("other/file", "z").ok());
  EXPECT_EQ(fs.List("db/").size(), 2u);
  ASSERT_TRUE(fs.Rename("db/000001.sst", "db/000003.sst").ok());
  EXPECT_FALSE(fs.Exists("db/000001.sst"));
  EXPECT_TRUE(fs.Exists("db/000003.sst"));
  ASSERT_TRUE(fs.Delete("db/000002.sst").ok());
  EXPECT_FALSE(fs.Delete("db/000002.sst").ok());
  EXPECT_EQ(fs.List("db/").size(), 1u);
}

TEST(SimFsTest, ChargesFileCosts) {
  auto enclave = MakeEnclave();
  SimFs fs(enclave);
  const uint64_t t0 = enclave->now_ns();
  ASSERT_TRUE(fs.Write("f", std::string(1000, 'x')).ok());
  const uint64_t after_write = enclave->now_ns();
  EXPECT_GT(after_write, t0);
  ASSERT_TRUE(fs.Read("f", 0, 1000).ok());
  EXPECT_GT(enclave->now_ns(), after_write);
}

TEST(SimFsTest, BlobSurvivesDelete) {
  SimFs fs(MakeEnclave());
  ASSERT_TRUE(fs.Write("f", "pinned-content").ok());
  auto blob = fs.Blob("f");
  ASSERT_TRUE(fs.Delete("f").ok());
  ASSERT_NE(blob, nullptr);
  EXPECT_EQ(*blob, "pinned-content");  // mmap-after-unlink semantics
}

TEST(WalTest, AppendAndReadAll) {
  SimFs fs(MakeEnclave());
  WalWriter wal(&fs, "wal");
  ASSERT_TRUE(wal.Append("one").ok());
  ASSERT_TRUE(wal.Append("two").ok());
  ASSERT_TRUE(wal.Append(std::string(5000, 'z')).ok());
  auto contents = ReadWal(fs, "wal");
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents.value().clean);
  ASSERT_EQ(contents.value().records.size(), 3u);
  EXPECT_EQ(contents.value().records[0], "one");
  EXPECT_EQ(contents.value().records[2].size(), 5000u);
}

TEST(SimFsTest, SyncContract) {
  // SimFs is always durable, so the barriers are free — but Sync of a
  // missing file is still the caller's bug, matching fsync(2) and the
  // posix backend.
  auto enclave = MakeEnclave();
  SimFs fs(enclave);
  const uint64_t before = enclave->now_ns();
  ASSERT_TRUE(fs.Write("f", "data").ok());
  const uint64_t after_write = enclave->now_ns();
  EXPECT_TRUE(fs.Sync("f").ok());
  EXPECT_TRUE(fs.SyncDir().ok());
  EXPECT_EQ(enclave->now_ns(), after_write) << "Sync must charge nothing";
  EXPECT_GT(after_write, before);
  EXPECT_FALSE(fs.Sync("missing").ok());
}

TEST(WalTest, MissingWalIsEmpty) {
  SimFs fs(MakeEnclave());
  auto contents = ReadWal(fs, "nope");
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents.value().records.empty());
}

TEST(WalTest, TornTailStopsCleanly) {
  SimFs fs(MakeEnclave());
  WalWriter wal(&fs, "wal");
  ASSERT_TRUE(wal.Append("complete-record").ok());
  ASSERT_TRUE(wal.Append("to-be-torn").ok());
  auto blob = fs.MutableBlob("wal");
  blob->resize(blob->size() - 4);  // tear the last frame
  auto contents = ReadWal(fs, "wal");
  ASSERT_TRUE(contents.ok());
  EXPECT_FALSE(contents.value().clean);
  ASSERT_EQ(contents.value().records.size(), 1u);
  EXPECT_EQ(contents.value().records[0], "complete-record");
}

TEST(WalTest, CorruptChecksumStopsReplay) {
  SimFs fs(MakeEnclave());
  WalWriter wal(&fs, "wal");
  ASSERT_TRUE(wal.Append("first").ok());
  ASSERT_TRUE(wal.Append("second").ok());
  auto blob = fs.MutableBlob("wal");
  (*blob)[10] ^= 0x01;  // payload byte of frame 0
  auto contents = ReadWal(fs, "wal");
  ASSERT_TRUE(contents.ok());
  EXPECT_FALSE(contents.value().clean);
  EXPECT_TRUE(contents.value().records.empty());
}

TEST(ReadBufferTest, HitAvoidsLoader) {
  auto enclave = MakeEnclave();
  ReadBuffer buffer(enclave, 64 << 10, BufferPlacement::kOutsideEnclave);
  int loads = 0;
  auto loader = [&]() -> Result<std::string> {
    ++loads;
    return std::string(4096, 'b');
  };
  ASSERT_TRUE(buffer.Get("f", 0, EachBlock(loader)).ok());
  ASSERT_TRUE(buffer.Get("f", 0, EachBlock(loader)).ok());
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(buffer.stats().hits, 1u);
  EXPECT_EQ(buffer.stats().misses, 1u);
}

TEST(ReadBufferTest, EvictsWhenFull) {
  auto enclave = MakeEnclave();
  ReadBuffer buffer(enclave, 8 << 10, BufferPlacement::kOutsideEnclave);
  auto loader = []() -> Result<std::string> {
    return std::string(4096, 'b');
  };
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(buffer.Get("f", i * 4096, EachBlock(loader)).ok());
  }
  EXPECT_GT(buffer.stats().evictions, 0u);
  EXPECT_LE(buffer.bytes_used(), 8u << 10);
}

TEST(ReadBufferTest, InvalidateDropsFileBlocks) {
  auto enclave = MakeEnclave();
  ReadBuffer buffer(enclave, 64 << 10, BufferPlacement::kOutsideEnclave);
  auto loader = []() -> Result<std::string> { return std::string(100, 'x'); };
  ASSERT_TRUE(buffer.Get("keep", 0, EachBlock(loader)).ok());
  ASSERT_TRUE(buffer.Get("drop", 0, EachBlock(loader)).ok());
  buffer.Invalidate("drop");
  int loads = 0;
  auto counting = [&]() -> Result<std::string> {
    ++loads;
    return std::string(100, 'x');
  };
  ASSERT_TRUE(buffer.Get("keep", 0, EachBlock(counting)).ok());
  ASSERT_TRUE(buffer.Get("drop", 0, EachBlock(counting)).ok());
  EXPECT_EQ(loads, 1);  // only "drop" reloaded
}

TEST(ReadBufferTest, InsideEnclavePlacementChargesMore) {
  // The Fig. 2 effect in miniature: identical access streams, buffer inside
  // vs outside the enclave; the inside buffer must cost more once it
  // outgrows the EPC.
  const uint64_t kEpc = 16 * 4096;
  auto run = [&](BufferPlacement placement) {
    auto enclave = MakeEnclave(true, kEpc);
    ReadBuffer buffer(enclave, 64 * 4096, placement);
    auto loader = []() -> Result<std::string> {
      return std::string(4096, 'd');
    };
    // Two passes over 64 blocks: pass 2 hits the buffer but thrashes EPC.
    for (int pass = 0; pass < 2; ++pass) {
      for (uint64_t i = 0; i < 64; ++i) {
        EXPECT_TRUE(buffer.Get("f", i * 4096, EachBlock(loader)).ok());
      }
    }
    return enclave->now_ns();
  };
  const uint64_t outside = run(BufferPlacement::kOutsideEnclave);
  const uint64_t inside = run(BufferPlacement::kInsideEnclave);
  EXPECT_GT(inside, 2 * outside);
}

TEST(ReadBufferTest, LoaderFailurePropagates) {
  auto enclave = MakeEnclave();
  ReadBuffer buffer(enclave, 4096, BufferPlacement::kOutsideEnclave);
  auto loader = []() -> Result<std::string> {
    return Status::IOError("disk gone");
  };
  EXPECT_FALSE(buffer.Get("f", 0, EachBlock(loader)).ok());
}

TEST(MmapTest, ReadsAndPins) {
  auto enclave = MakeEnclave();
  SimFs fs(enclave);
  ASSERT_TRUE(fs.Write("f", "0123456789").ok());
  auto region = MmapRegion::Open(fs, "f");
  ASSERT_TRUE(region.ok());
  auto view = region.value().Read(2, 4);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value(), "2345");
  ASSERT_TRUE(fs.Delete("f").ok());
  auto still = region.value().Read(0, 10);
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still.value(), "0123456789");
}

TEST(MmapTest, OpenMissingFileFails) {
  auto enclave = MakeEnclave();
  SimFs fs(enclave);
  EXPECT_FALSE(MmapRegion::Open(fs, "missing").ok());
}

TEST(MmapTest, NoPerReadWorldSwitch) {
  auto enclave = MakeEnclave();
  SimFs fs(enclave);
  ASSERT_TRUE(fs.Write("f", std::string(1 << 16, 'm')).ok());
  auto region = MmapRegion::Open(fs, "f");
  ASSERT_TRUE(region.ok());
  const uint64_t ocalls = enclave->counters().ocalls;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(region.value().Read(uint64_t(i) * 100, 100).ok());
  }
  EXPECT_EQ(enclave->counters().ocalls, ocalls);  // mmap reads are exitless
}

}  // namespace
}  // namespace elsm::storage
