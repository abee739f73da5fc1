// Verified read caching under a Zipfian (YCSB-C-style) point-read workload.
//
// The paper's read-path figures price where the block buffer lives; this
// bench prices what the verified cache layer *saves*: a warm hit skips the
// file read, the block re-verification, and (via the verifier's proof-path
// node cache) the Merkle climb re-hash. Series, per backend (sim / posix):
//   * <backend>-uncached      — buffer shrunk to one block, so nearly every
//                               read pays ocall + file read + verification
//   * <backend>-cold          — first Zipfian pass on freshly dropped caches
//                               (the hot head warms up mid-pass)
//   * <backend>-warm          — identical key stream, caches warm
//   * <backend>-memtable      — same store, keys resident in the memtable
//                               (the "hot reads approach memtable speed"
//                               reference line)
//   * <backend>-warm-over-uncached — warm/uncached latency ratio (lower is
//                               better; gated so cache effectiveness
//                               cannot rot)
// Latencies are simulated microseconds, so sim and posix rows are directly
// comparable (the posix series proves the cache behaves identically over
// real files).
//
// The sim backend also replays the warm stream from 1 and 4 client
// threads after reopening with a path cache far smaller than the tree
// (see ReportWarmScaling), measured on the wall clock (simulated time is
// a per-op cost and cannot show contention):
//   * sim-warm-threads        — wall-clock us per verified Get at 1 and 4
//                               threads ("us_wall", informational)
//   * sim-warm-4t-over-1t     — 4-thread over 1-thread time per op,
//                               rescaled to an idle 4-core host, median of
//                               9 repetitions (gated; 0.25 is perfect
//                               scaling, 1.0 is none)
// A shared host lends a varying number of cores, so each repetition
// interleaves slices of the 1- and 4-thread Get passes with slices of a
// CPU-only loop (SHA-256 over a fixed buffer) on 1 and 4 threads, and
// divides the Get ratio by the loop's ratio over its idle-host value of
// 0.25: what remains is the scaling the read path itself allows. A
// repetition in which the loop itself scaled less than 2x is skipped.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "crypto/sha256.h"

using namespace elsm;
using namespace elsm::bench;

namespace {

constexpr const char* kBench = "fig_read_cache";
constexpr size_t kChurnPathCacheEntries = 64;

double MeasureZipfUs(ElsmDb& db, const std::vector<uint64_t>& keys) {
  const uint64_t start = db.enclave().now_ns();
  for (uint64_t k : keys) {
    auto got = db.GetVerified(ycsb::MakeKey(k, 16));
    if (!got.ok()) {
      std::fprintf(stderr, "read failed: %s\n",
                   got.status().ToString().c_str());
      std::abort();
    }
  }
  return double(db.enclave().now_ns() - start) / double(keys.size()) / 1000.0;
}

// Wall-clock us while `threads` threads each run `work(thread)`.
template <class Work>
double WallUs(size_t threads, const Work& work) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (size_t t = 0; t < threads; ++t) {
    clients.emplace_back([&work, t] { work(t); });
  }
  for (std::thread& client : clients) client.join();
  const std::chrono::duration<double, std::micro> wall =
      std::chrono::steady_clock::now() - start;
  return wall.count();
}

// Wall-clock us per verified Get while `threads` clients each replay `ops`
// keys of the stream, every client from its own offset into it.
double MeasureWallUs(ElsmDb& db, const std::vector<std::string>& keys,
                     size_t threads, size_t ops) {
  return WallUs(threads,
                [&](size_t t) {
                  const size_t offset = t * keys.size() / threads;
                  for (size_t i = 0; i < ops; ++i) {
                    if (!db.GetVerified(keys[(offset + i) % keys.size()])
                             .ok()) {
                      std::abort();
                    }
                  }
                }) /
         double(threads * ops);
}

// Wall-clock us per op of a CPU-only loop (one SHA-256 of a 2 KiB buffer
// per op, about a warm Get's cost) on `threads` threads, `ops` each.
double MeasureCpuUs(size_t threads, size_t ops) {
  static std::atomic<uint8_t> sink{0};
  return WallUs(threads,
                [ops](size_t t) {
                  std::string buffer(2048, char('a' + t));
                  uint8_t acc = 0;
                  for (size_t i = 0; i < ops; ++i) {
                    buffer[i % buffer.size()] = char(i);
                    acc ^= crypto::Sha256::Digest(buffer)[0];
                  }
                  sink.fetch_xor(acc, std::memory_order_relaxed);
                }) /
         double(threads * ops);
}

// The threads run against a path cache far smaller than the tree, as on a
// large store (perfbench's read-hot-zipf hits 99.4% of climbs yet hashes
// about 3.85 path nodes per Get): every Get hashes, inserts and evicts a
// few nodes, which is the work concurrent verified reads contend on.
void ReportWarmScaling(const std::string& series, Store& store,
                       const Options& options,
                       const std::vector<uint64_t>& key_ids) {
  Options churn = options;
  churn.proof_path_cache_entries = kChurnPathCacheEntries;
  Reopen(store, churn);
  ElsmDb& db = *store.db;
  std::vector<std::string> keys;
  for (uint64_t k : key_ids) keys.push_back(ycsb::MakeKey(k, 16));
  MeasureWallUs(db, keys, 1, keys.size());  // warm the block cache
  const auto before = db.proof_path_cache_stats();
  // Each repetition runs `kSlices` rounds of four slices (Get 1t, CPU 1t,
  // Get 4t, CPU 4t), so a change in host load lands on all four alike.
  const size_t rounds = std::max<size_t>(8, 32 / QuickDivisor());
  constexpr size_t kReps = 9;
  constexpr size_t kSlices = 4;
  const size_t slice_ops = rounds * keys.size() / kSlices;
  std::vector<double> one;
  std::vector<double> four;
  std::vector<double> cpu_ratio;
  std::vector<double> ratio;
  for (size_t rep = 0; rep < kReps; ++rep) {
    double get1 = 0, cpu1 = 0, get4 = 0, cpu4 = 0;
    for (size_t slice = 0; slice < kSlices; ++slice) {
      get1 += MeasureWallUs(db, keys, 1, slice_ops);
      cpu1 += MeasureCpuUs(1, slice_ops);
      get4 += MeasureWallUs(db, keys, 4, slice_ops);
      cpu4 += MeasureCpuUs(4, slice_ops);
    }
    one.push_back(get1 / kSlices);
    four.push_back(get4 / kSlices);
    cpu_ratio.push_back(cpu4 / cpu1);
    // On an idle 4-core host the CPU-only loop scales perfectly (0.25).
    ratio.push_back((get4 / get1) * (0.25 / cpu_ratio.back()));
    std::printf("         rep %zu: get 4t/1t %.3f, cpu 4t/1t %.3f, "
                "rescaled %.3f\n",
                rep, get4 / get1, cpu_ratio.back(), ratio.back());
  }
  // A repetition whose CPU-only loop gained less than 2x from 4 threads
  // ran while the host lent under two cores: it times the host, not the
  // read path, so the row skips it (unless every repetition did).
  std::vector<double> usable;
  for (size_t rep = 0; rep < kReps; ++rep) {
    if (cpu_ratio[rep] <= 0.5) usable.push_back(ratio[rep]);
  }
  const double scaling = Median(usable.empty() ? ratio : usable);
  const auto after = db.proof_path_cache_stats();
  const double gets = double(kReps * kSlices * (1 + 4) * slice_ops);
  std::printf("         warm wall-clock: 1 thread %6.2f us/op, 4 threads "
              "%6.2f us/op (4t/1t %.3f rescaled over %zu of %zu reps, cpu "
              "4t/1t %.3f; %.2f path nodes hashed per get)\n",
              Median(one), Median(four), scaling, usable.size(), kReps,
              Median(cpu_ratio),
              double(after.path_nodes_hashed - before.path_nodes_hashed) /
                  gets);
  ReportRow(kBench, series + "-warm-threads", "threads", 1, Median(one),
            "us_wall");
  ReportRow(kBench, series + "-warm-threads", "threads", 4, Median(four),
            "us_wall");
  ReportRow(kBench, series + "-warm-4t-over-1t", "threads", 4, scaling, "x");
}

void RunBackend(const std::string& series, storage::BackendKind kind) {
  Options o = BaseOptions(Mode::kP2);
  o.name = "readcache";
  o.read_path = lsm::ReadPathKind::kBuffer;
  o.backend = kind;
  std::string dir;
  if (kind == storage::BackendKind::kPosix) {
    char tmpl[] = "/tmp/elsm-readcache-XXXXXX";
    const char* made = mkdtemp(tmpl);
    if (made == nullptr) {
      std::fprintf(stderr, "mkdtemp failed; skipping %s\n", series.c_str());
      return;
    }
    dir = made;
    o.backend_dir = dir;
  }

  const uint64_t records = RecordsFor(64);
  Store store = BuildStore(o, records);

  // One fixed Zipfian key stream, replayed for the cold and warm passes so
  // both measure exactly the same accesses.
  const uint64_t ops = std::max<uint64_t>(4000 / QuickDivisor(), 500);
  Rng rng(0xcafe);
  ScrambledZipfianGenerator zipf(records);
  std::vector<uint64_t> keys;
  keys.reserve(ops);
  for (uint64_t i = 0; i < ops; ++i) keys.push_back(zipf.Next(rng));

  // Uncached baseline: a one-block buffer evicts on almost every install,
  // so the stream pays the full load-and-verify path each time.
  Options uncached = o;
  uncached.read_buffer_bytes = o.block_bytes;
  uncached.read_cache_shards = 1;
  Reopen(store, uncached);
  const double uncached_us = MeasureZipfUs(*store.db, keys);

  // Drop every cache (block buffer, tree handles, proof-path nodes).
  Reopen(store, o);
  const double cold_us = MeasureZipfUs(*store.db, keys);
  const double warm_us = MeasureZipfUs(*store.db, keys);

  // Memtable reference: fresh keys that never left L0.
  const uint64_t kMemKeys = 64;
  std::vector<uint64_t> mem_keys;
  for (uint64_t i = 0; i < kMemKeys; ++i) {
    const uint64_t k = records + i;
    if (!store.db->Put(ycsb::MakeKey(k, 16), ycsb::MakeValue(k, 100)).ok()) {
      std::abort();
    }
    mem_keys.push_back(k);
  }
  const double memtable_us = MeasureZipfUs(*store.db, mem_keys);

  const auto cache = store.db->read_cache_stats();
  const auto paths = store.db->proof_path_cache_stats();
  std::printf("%-8s uncached %8.2f us   cold %8.2f us   warm %8.2f us   "
              "memtable %8.2f us\n         (warm/uncached %.3f, cache hits "
              "%llu/%llu, path hits %llu/%llu)\n",
              series.c_str(), uncached_us, cold_us, warm_us, memtable_us,
              warm_us / uncached_us, (unsigned long long)cache.hits,
              (unsigned long long)(cache.hits + cache.misses),
              (unsigned long long)paths.hits,
              (unsigned long long)paths.lookups);
  ReportRow(kBench, series + "-uncached", "pass", 0, uncached_us);
  ReportRow(kBench, series + "-cold", "pass", 1, cold_us);
  ReportRow(kBench, series + "-warm", "pass", 2, warm_us);
  ReportRow(kBench, series + "-memtable", "pass", 3, memtable_us);
  ReportRow(kBench, series + "-warm-over-uncached", "pass", 2,
            warm_us / uncached_us, "x");
  // Last, so the threads' charges and cache churn touch no row above.
  if (kind == storage::BackendKind::kSim) {
    ReportWarmScaling(series, store, o, keys);
  }

  store.db.reset();
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
}

}  // namespace

int main() {
  std::printf("fig_read_cache: Zipfian verified reads, cold vs warm caches\n");
  RunBackend("sim", storage::BackendKind::kSim);
  RunBackend("posix", storage::BackendKind::kPosix);
  return 0;
}
