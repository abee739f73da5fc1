// User-space read buffer (block cache) with sharded LRU eviction.
//
// This is the structure whose *placement* the paper studies (Fig. 2, 6c, 8):
//  * placement == kOutsideEnclave — eLSM-P2 / unsecured: hits are plain
//    untrusted-memory reads; misses load from the storage::Fs backend.
//  * placement == kInsideEnclave — eLSM-P1: the buffer occupies an enclave
//    region registered with the EPC simulator. Hits touch EPC pages (page
//    faults once capacity > EPC, the Fig. 2 cliff); misses additionally pay
//    an OCall (file read is a syscall) and a cross-boundary copy.
//
// Entries are keyed by BlockKey(file, offset). The buffer admits whatever
// its loader returns: the engine's loader checks each block against the
// digest sealed in its BlockHandle before returning it
// (LsmEngine::CheckBlock), so a block enters the cache only once checked
// and a hit is already verified. The key needs no digest because the
// engine never writes one file name twice while a buffer lives: file
// numbers are monotone, a deleted file's blocks are invalidated, and a
// manifest restore clears the buffer.
//
// Concurrency: the cache is sharded (per-shard mutex); the loader never
// runs under a lock, and duplicate misses on the same key are collapsed
// into a single flight (one load, waiters reuse the result).
//
// Cached blocks get stable byte offsets inside the region from a per-shard
// ring allocator, so the EPC page-table sees a realistic address stream.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "sgxsim/enclave.h"

namespace elsm::storage {

enum class BufferPlacement { kOutsideEnclave, kInsideEnclave };

// "file#offset": the one name of a block, used as the buffer's cache key
// and by the engine's per-operation prefetch map. File names never contain
// '#', so the prefix file "#" identifies every block of one file.
std::string BlockKey(std::string_view file, uint64_t offset);

struct ReadBufferStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;
};

class ReadBuffer {
 public:
  using Block = std::shared_ptr<const std::string>;

  // One block to fetch.
  struct BlockRequest {
    std::string_view file;
    uint64_t offset = 0;
  };
  // loader(indices, out) reads the requests at `indices` (positions in the
  // GetBatch request list) and fills out[i] for each. It runs with no lock
  // held, "in the untrusted world": the world switch is charged here, not
  // in the loader. A block it returns is admitted as is.
  using Loader = std::function<void(const std::vector<size_t>& indices,
                                    std::vector<Result<std::string>>& out)>;

  ReadBuffer(std::shared_ptr<sgx::Enclave> enclave, uint64_t capacity_bytes,
             BufferPlacement placement, int shards = 1);
  ~ReadBuffer();

  ReadBuffer(const ReadBuffer&) = delete;
  ReadBuffer& operator=(const ReadBuffer&) = delete;

  // The one lookup path. Classifies every request in one pass (cache hit /
  // join a load already in flight / lead a new load), calls `loader` once
  // for all the leaders (one ocall charged per leader), installs each
  // leader's block, then collects the joined flights. Results are in
  // request order with per-request error isolation; a duplicate key joins
  // the first request's load.
  std::vector<Result<Block>> GetBatch(std::span<const BlockRequest> requests,
                                      const Loader& loader);
  // A one-request GetBatch.
  Result<Block> Get(std::string_view file, uint64_t offset,
                    const Loader& loader);

  // Drops every cached block of `file` (called when compaction deletes it)
  // and detaches the file's loads in flight: their bytes still reach the
  // requests that joined them but are never installed, and a later request
  // starts a fresh load.
  void Invalidate(std::string_view file);

  // Drops everything (manifest restore / reopen), detaching every flight.
  void Clear();

  // Aggregated over shards, taken under the shard locks (safe to call from
  // any thread while readers are active).
  ReadBufferStats stats() const;
  uint64_t bytes_used() const;
  uint64_t capacity() const { return capacity_; }
  int shard_count() const { return static_cast<int>(shards_.size()); }

  // Recomputes the sum of resident entry sizes by walking the maps (test
  // support: must always equal bytes_used()).
  uint64_t ResidentBytes() const;

 private:
  struct Entry {
    Block block;
    uint64_t region_offset = 0;
    size_t charged_size = 0;
    std::list<std::string>::iterator lru_it;
  };

  // A single-flight record: the first missing reader becomes the leader and
  // runs the loader; concurrent readers of the same key wait on `done`.
  struct Flight {
    std::condition_variable cv;
    bool done = false;
    bool invalidated = false;
    Status status = Status::Ok();
    Block block;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, Entry> entries;  // key = BlockKey
    std::unordered_map<std::string, std::shared_ptr<Flight>> flights;
    std::list<std::string> lru;  // front = most recent
    uint64_t bytes_used = 0;
    uint64_t ring_base = 0;    // this shard's slice of the enclave region
    uint64_t ring_limit = 0;   // exclusive end of the slice
    uint64_t ring_cursor = 0;  // next offset within [ring_base, ring_limit)
    ReadBufferStats stats;
  };

  Shard& ShardFor(std::string_view file, uint64_t offset);
  void ChargeHit(const Entry& entry) const;
  // Leader tail: admit the loaded bytes (unless the flight was invalidated
  // mid-load), publish the flight result and wake the waiters.
  Result<Block> FinishFlight(Shard& shard, const std::string& key,
                             const std::shared_ptr<Flight>& flight,
                             Result<std::string> loaded);
  // Removes `key` from `shard` if resident, fixing accounting; returns true
  // if an entry was removed.
  static bool RemoveLocked(Shard& shard, const std::string& key);
  void EvictLocked(Shard& shard, uint64_t need_bytes);
  void InstallLocked(Shard& shard, const std::string& key, Block block);

  std::shared_ptr<sgx::Enclave> enclave_;
  uint64_t capacity_;
  BufferPlacement placement_;
  sgx::RegionId region_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace elsm::storage
