#include "storage/read_buffer.h"

#include <algorithm>

namespace elsm::storage {
namespace {

bool KeyMatchesFile(const std::string& key, std::string_view file) {
  return key.size() > file.size() + 1 && key[file.size()] == '#' &&
         key.compare(0, file.size(), file) == 0;
}

uint64_t ShardHash(std::string_view file, uint64_t offset) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (char c : file) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  h ^= offset;
  h *= 1099511628211ull;
  return h;
}

}  // namespace

std::string BlockKey(std::string_view file, uint64_t offset) {
  std::string key;
  key.reserve(file.size() + 1 + 20);
  key += file;
  key += '#';
  key += std::to_string(offset);
  return key;
}

ReadBuffer::ReadBuffer(std::shared_ptr<sgx::Enclave> enclave,
                       uint64_t capacity_bytes, BufferPlacement placement,
                       int shards)
    : enclave_(std::move(enclave)),
      capacity_(capacity_bytes == 0 ? 1 : capacity_bytes),
      placement_(placement) {
  const int n = std::clamp(shards, 1, 64);
  if (placement_ == BufferPlacement::kInsideEnclave) {
    region_ = enclave_->RegisterRegion(capacity_);
  }
  shards_.reserve(n);
  const uint64_t slice = std::max<uint64_t>(capacity_ / n, 1);
  for (int i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->ring_base = slice * i;
    shard->ring_limit = (i + 1 == n) ? capacity_ : slice * (i + 1);
    if (shard->ring_limit <= shard->ring_base) {
      shard->ring_limit = shard->ring_base + 1;
    }
    shard->ring_cursor = shard->ring_base;
    shards_.push_back(std::move(shard));
  }
}

ReadBuffer::~ReadBuffer() {
  if (region_ != 0) enclave_->FreeRegion(region_);
}

ReadBuffer::Shard& ReadBuffer::ShardFor(std::string_view file,
                                        uint64_t offset) {
  return *shards_[ShardHash(file, offset) % shards_.size()];
}

void ReadBuffer::ChargeHit(const Entry& entry) const {
  if (placement_ == BufferPlacement::kInsideEnclave) {
    enclave_->AccessRegion(region_, entry.region_offset,
                           entry.block->size());
  } else {
    enclave_->UntrustedRead(entry.block->size());
  }
}

bool ReadBuffer::RemoveLocked(Shard& shard, const std::string& key) {
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return false;
  shard.bytes_used -= it->second.charged_size;
  shard.lru.erase(it->second.lru_it);
  shard.entries.erase(it);
  return true;
}

void ReadBuffer::EvictLocked(Shard& shard, uint64_t need_bytes) {
  const uint64_t shard_capacity = shard.ring_limit - shard.ring_base;
  while (shard.bytes_used + need_bytes > shard_capacity &&
         !shard.lru.empty()) {
    const std::string victim = shard.lru.back();
    RemoveLocked(shard, victim);
    ++shard.stats.evictions;
  }
}

void ReadBuffer::InstallLocked(Shard& shard, const std::string& key,
                               Block block) {
  // Overwriting a resident entry must retire its accounting and LRU node
  // first, or bytes_used_ drifts up and a stranded node poisons the list.
  RemoveLocked(shard, key);
  EvictLocked(shard, block->size());
  Entry entry;
  entry.charged_size = block->size();
  if (placement_ == BufferPlacement::kInsideEnclave) {
    if (shard.ring_cursor + block->size() > shard.ring_limit) {
      shard.ring_cursor = shard.ring_base;
    }
    entry.region_offset = shard.ring_cursor;
    shard.ring_cursor += block->size();
    enclave_->Copy(block->size(), /*cross_boundary=*/true);
    enclave_->AccessRegion(region_, entry.region_offset, block->size());
  } else {
    enclave_->Copy(block->size(), /*cross_boundary=*/false);
    enclave_->UntrustedRead(block->size());
  }
  shard.lru.push_front(key);
  entry.lru_it = shard.lru.begin();
  shard.bytes_used += block->size();
  entry.block = std::move(block);
  shard.entries[key] = std::move(entry);
}

Result<ReadBuffer::Block> ReadBuffer::Get(std::string_view file,
                                          uint64_t offset,
                                          const Loader& loader) {
  const BlockRequest request{file, offset};
  return std::move(GetBatch({&request, 1}, loader)[0]);
}

std::vector<Result<ReadBuffer::Block>> ReadBuffer::GetBatch(
    std::span<const BlockRequest> requests, const Loader& loader) {
  std::vector<Result<Block>> out(requests.size(),
                                 Result<Block>(Status::IOError("unset")));
  struct Pending {
    size_t index;
    Shard* shard;
    std::string key;
    std::shared_ptr<Flight> flight;
  };
  std::vector<Pending> leaders;
  std::vector<Pending> joined;
  for (size_t i = 0; i < requests.size(); ++i) {
    const BlockRequest& req = requests[i];
    std::string key = BlockKey(req.file, req.offset);
    Shard& shard = ShardFor(req.file, req.offset);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      ++shard.stats.hits;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      ChargeHit(it->second);
      out[i] = it->second.block;
      continue;
    }
    auto fit = shard.flights.find(key);
    if (fit != shard.flights.end()) {
      // Someone (possibly an earlier request of this very call) is already
      // loading these bytes: wait for that load instead of issuing another.
      joined.push_back(Pending{i, &shard, std::string(), fit->second});
      continue;
    }
    ++shard.stats.misses;
    auto flight = std::make_shared<Flight>();
    shard.flights.emplace(key, flight);
    leaders.push_back(Pending{i, &shard, std::move(key), std::move(flight)});
  }

  if (!leaders.empty()) {
    // The file read is a syscall, so enclave code pays one world switch per
    // missed block wherever the buffer lives.
    std::vector<size_t> indices;
    indices.reserve(leaders.size());
    for (const Pending& l : leaders) {
      enclave_->ChargeOcall();
      indices.push_back(l.index);
    }
    std::vector<Result<std::string>> loaded(
        requests.size(), Result<std::string>(Status::IOError("not loaded")));
    loader(indices, loaded);
    for (Pending& l : leaders) {
      out[l.index] =
          FinishFlight(*l.shard, l.key, l.flight, std::move(loaded[l.index]));
    }
  }
  // Joined flights last: every flight this call leads is finished first, so
  // two calls that joined each other's loads cannot wait on each other.
  for (const Pending& j : joined) {
    std::unique_lock<std::mutex> lock(j.shard->mu);
    j.flight->cv.wait(lock, [&j] { return j.flight->done; });
    if (!j.flight->status.ok()) {
      out[j.index] = j.flight->status;
      continue;
    }
    ++j.shard->stats.hits;
    enclave_->Copy(j.flight->block->size(),
                   placement_ == BufferPlacement::kInsideEnclave);
    out[j.index] = j.flight->block;
  }
  return out;
}

Result<ReadBuffer::Block> ReadBuffer::FinishFlight(
    Shard& shard, const std::string& key,
    const std::shared_ptr<Flight>& flight, Result<std::string> loaded) {
  Block block;
  const Status status = loaded.status();
  if (status.ok()) {
    block = std::make_shared<const std::string>(std::move(loaded).value());
  }

  std::unique_lock<std::mutex> lock(shard.mu);
  if (status.ok() && !flight->invalidated) {
    InstallLocked(shard, key, block);
  } else if (status.ok()) {
    // Invalidated mid-flight (the file was deleted): hand the bytes to the
    // requests that joined this load but do not cache them.
    enclave_->Copy(block->size(),
                   placement_ == BufferPlacement::kInsideEnclave);
  }
  flight->status = status;
  flight->block = block;
  flight->done = true;
  auto fit = shard.flights.find(key);
  if (fit != shard.flights.end() && fit->second == flight) {
    shard.flights.erase(fit);
  }
  lock.unlock();
  flight->cv.notify_all();
  if (!status.ok()) return status;
  return block;
}

void ReadBuffer::Invalidate(std::string_view file) {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      if (KeyMatchesFile(it->first, file)) {
        shard.bytes_used -= it->second.charged_size;
        shard.lru.erase(it->second.lru_it);
        it = shard.entries.erase(it);
        ++shard.stats.invalidations;
      } else {
        ++it;
      }
    }
    for (auto it = shard.flights.begin(); it != shard.flights.end();) {
      if (KeyMatchesFile(it->first, file)) {
        it->second->invalidated = true;
        it = shard.flights.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void ReadBuffer::Clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.stats.invalidations += shard.entries.size();
    shard.entries.clear();
    shard.lru.clear();
    shard.bytes_used = 0;
    shard.ring_cursor = shard.ring_base;
    for (auto& [key, flight] : shard.flights) flight->invalidated = true;
    shard.flights.clear();
  }
}

ReadBufferStats ReadBuffer::stats() const {
  ReadBufferStats total;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    total.hits += shard.stats.hits;
    total.misses += shard.stats.misses;
    total.evictions += shard.stats.evictions;
    total.invalidations += shard.stats.invalidations;
  }
  return total;
}

uint64_t ReadBuffer::bytes_used() const {
  uint64_t total = 0;
  for (const auto& shard_ptr : shards_) {
    std::lock_guard<std::mutex> lock(shard_ptr->mu);
    total += shard_ptr->bytes_used;
  }
  return total;
}

uint64_t ReadBuffer::ResidentBytes() const {
  uint64_t total = 0;
  for (const auto& shard_ptr : shards_) {
    std::lock_guard<std::mutex> lock(shard_ptr->mu);
    for (const auto& [key, entry] : shard_ptr->entries) {
      total += entry.block->size();
    }
  }
  return total;
}

}  // namespace elsm::storage
