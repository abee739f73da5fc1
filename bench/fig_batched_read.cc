// Batched modern-I/O read path: cold MultiGet and cold verified Scan on
// PosixFs, batched (engine MultiGet -> one Fs::MultiRead per level pass,
// scan readahead windows; io_uring when the kernel has it) versus the
// serialized baseline (the identical store with multiget_batching off and
// scan readahead 0, so every cold block pays one blocking open+pread).
//
// Cold means cold: the posix section runs under PageCachePolicy::kBypass
// (posix_fs.h) — the enclave-side verified ReadBuffer is the only read
// cache and the engine's batched readahead the only prefetcher — and
// between passes that buffer is dropped and the backing files fsync'd +
// fadvise(DONTNEED)'d out of the OS page cache. The serialized baseline
// therefore pays one device round-trip per block while the batched path
// keeps the device queue full. These are wall-clock measurements (the
// simulated clock charges both paths identically by design — see
// options.h); the ratio rows, each the median of 5 repetitions, are what
// the gate watches:
//   * posix-multiget-batched-over-serial — batched/serial cold MultiGet
//     wall latency (lower is better; the acceptance bar is <= 0.5)
//   * posix-scan-batched-over-serial    — same for a cold verified scan
//   * sim-multiget-batched-over-serial  — simulated-cost ratio on SimFs
//     (~1.0: batching must not change what the deterministic model
//     charges), after asserting the result bytes are identical.
//
// Geometry note: blocks are 1 KiB here so a cold block is priced by the
// device round-trip rather than by SHA-256 of the block bytes — the regime
// the batching targets (storage-bound cold reads, cf. LSKV).
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "elsm/sharded_db.h"
#include "storage/posix_fs.h"

using namespace elsm;
using namespace elsm::bench;

namespace {

constexpr const char* kBench = "fig_batched_read";
constexpr uint32_t kShards = 8;
// ~1 KiB records: one record per 1 KiB block, so a cold point lookup is
// priced by its device round-trip rather than by per-record verification
// CPU (with the paper's 100 B values this machine's scalar SHA-256 would
// dominate the block cost and mask the I/O effect the figure isolates).
constexpr uint64_t kValueBytes = 1000;

using WallClock = std::chrono::steady_clock;

Options StoreOptions(bool batched) {
  Options o = BaseOptions(Mode::kP2);
  o.name = "batchedread";
  o.read_path = lsm::ReadPathKind::kBuffer;
  o.block_bytes = 1024;
  o.file_bytes = 256 << 10;
  o.multiget_batching = batched;
  o.scan_readahead_blocks = batched ? 32 : 0;
  return o;
}

struct PhaseUsage {
  double cpu_ms = 0;
  double read_mb = 0;
};

PhaseUsage ReadUsage() {
  PhaseUsage u;
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  u.cpu_ms = (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
             (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
  std::FILE* f = std::fopen("/proc/self/io", "r");
  if (f != nullptr) {
    char key[64];
    unsigned long long val = 0;
    while (std::fscanf(f, "%63[^:]: %llu\n", key, &val) == 2) {
      if (std::string(key) == "read_bytes") u.read_mb = double(val) / (1 << 20);
    }
    std::fclose(f);
  }
  return u;
}

// Push every store file out of the OS page cache (clean pages only, hence
// the fsync first). After this, a read is a real device round-trip.
void EvictPageCache(const std::string& dir) {
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (ec || !it->is_regular_file(ec)) continue;
    const int fd = open(it->path().c_str(), O_RDONLY);
    if (fd < 0) continue;
    fsync(fd);
    posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
    close(fd);
  }
}

struct Sharded {
  std::unique_ptr<ShardedDb> db;
  std::string dir;
};

Sharded BuildSharded(Options o, storage::BackendKind backend,
                     uint64_t records) {
  Sharded s;
  o.backend = backend;
  if (backend == storage::BackendKind::kPosix) {
    char tmpl[] = "/tmp/elsm-batchedread-XXXXXX";
    const char* made = mkdtemp(tmpl);
    if (made == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      std::abort();
    }
    s.dir = made;
    o.backend_dir = s.dir;
  }
  auto db = ShardedDb::Create(o, kShards);
  if (!db.ok()) {
    std::fprintf(stderr, "open failed: %s\n", db.status().ToString().c_str());
    std::abort();
  }
  s.db = std::move(db).value();
  ElsmDb::WriteBatch batch;
  for (uint64_t i = 0; i < records; ++i) {
    batch.Put(ycsb::MakeKey(i, 16), ycsb::MakeValue(i, kValueBytes));
    if (batch.entries.size() == 256 || i + 1 == records) {
      if (!s.db->Write(batch).ok()) std::abort();
      batch.entries.clear();
    }
  }
  if (!s.db->CompactAll().ok()) std::abort();
  return s;
}

// Up to 2048 point-lookup keys sampled evenly across the keyspace; with
// ~1 KiB records each sampled key lands in its own data block, so every
// cold lookup is one distinct block read. A pass of a few hundred cold
// reads lasts a few milliseconds, short enough for one burst of host load
// to swing the batched/serial ratio; a few thousand average it out.
std::vector<std::string> SampleKeys(uint64_t records) {
  constexpr uint64_t kMaxKeys = 2048;
  const uint64_t stride = std::max<uint64_t>(1, records / kMaxKeys);
  std::vector<std::string> keys;
  for (uint64_t k = 0; k < records && keys.size() < kMaxKeys; k += stride) {
    keys.push_back(ycsb::MakeKey(k, 16));
  }
  return keys;
}

// One cold pass: drop the verified buffer and the page cache, then time
// `read` per item, in us.
template <class Read>
double ColdPassUs(Sharded& s, double items, const Read& read) {
  s.db->ClearReadCache();
  if (!s.dir.empty()) EvictPageCache(s.dir);
  const auto t0 = WallClock::now();
  read();
  return std::chrono::duration<double, std::micro>(WallClock::now() - t0)
             .count() /
         items;
}

double ColdMultiGetUs(Sharded& s, const std::vector<std::string>& keys) {
  return ColdPassUs(s, double(keys.size()), [&] {
    auto got = s.db->MultiGet(keys);
    if (!got.ok()) {
      std::fprintf(stderr, "multiget failed: %s\n",
                   got.status().ToString().c_str());
      std::abort();
    }
    for (const auto& v : got.value()) {
      if (!v.has_value()) std::abort();
    }
  });
}

double ColdScanUs(Sharded& s, uint64_t records) {
  return ColdPassUs(s, double(records), [&] {
    auto got = s.db->Scan(ycsb::MakeKey(0, 16), ycsb::MakeKey(records - 1, 16));
    if (!got.ok() || got.value().size() != records) {
      std::fprintf(stderr, "scan failed (%zu/%llu): %s\n",
                   got.ok() ? got.value().size() : size_t(0),
                   (unsigned long long)records,
                   got.status().ToString().c_str());
      std::abort();
    }
  });
}

// The best of 3 serial and 3 batched passes, run alternately so a change
// in host load lands on both stores alike.
std::pair<double, double> BestInterleaved(
    const std::function<double(Sharded&)>& pass, Sharded& serial,
    Sharded& batched) {
  double best_serial = 0;
  double best_batched = 0;
  for (int i = 0; i < 3; ++i) {
    const double s = pass(serial);
    const double b = pass(batched);
    if (i == 0 || s < best_serial) best_serial = s;
    if (i == 0 || b < best_batched) best_batched = b;
  }
  return {best_serial, best_batched};
}

void RunPosix(uint64_t records) {
  // Deployment-faithful page-cache policy (see posix_fs.h): the verified
  // ReadBuffer is the read cache and the engine's batched readahead is the
  // prefetcher; the untrusted kernel cache neither retains nor prefetches.
  // Applied to both stores — the comparison is serialized blocking reads
  // vs one batched MultiRead under the same caching regime.
  storage::SetPosixPageCachePolicy(storage::PageCachePolicy::kBypass);
  Sharded batched = BuildSharded(StoreOptions(true),
                                 storage::BackendKind::kPosix, records);
  Sharded serial = BuildSharded(StoreOptions(false),
                                storage::BackendKind::kPosix, records);
  const std::vector<std::string> keys = SampleKeys(records);

  // Cold wall-clock reads on a shared host swing by tens of percent from
  // run to run, so every figure is the median of kReps repetitions (each
  // the best of its own 3 passes per store, the two stores' passes
  // alternating), and each ratio the median of the per-repetition ratios.
  constexpr int kReps = 5;
  std::vector<double> mg_serial, mg_batched, mg_ratio;
  std::vector<double> scan_serial, scan_batched, scan_ratio;
  storage::ResetGlobalIoStats();
  for (int rep = 0; rep < kReps; ++rep) {
    PhaseUsage u0 = ReadUsage();
    const auto [mg_s, mg_b] = BestInterleaved(
        [&](Sharded& s) { return ColdMultiGetUs(s, keys); }, serial, batched);
    PhaseUsage u1 = ReadUsage();
    const auto [scan_s, scan_b] = BestInterleaved(
        [&](Sharded& s) { return ColdScanUs(s, records); }, serial, batched);
    PhaseUsage u2 = ReadUsage();
    mg_serial.push_back(mg_s);
    mg_batched.push_back(mg_b);
    scan_serial.push_back(scan_s);
    scan_batched.push_back(scan_b);
    mg_ratio.push_back(mg_b / mg_s);
    scan_ratio.push_back(scan_b / scan_s);
    std::printf("         rep %d batched/serial: multiget %.3f scan %.3f; "
                "phase cpu/io: multiget %.0fms/%.1fMB  scan %.0fms/%.1fMB\n",
                rep, mg_ratio.back(), scan_ratio.back(),
                u1.cpu_ms - u0.cpu_ms, u1.read_mb - u0.read_mb,
                u2.cpu_ms - u1.cpu_ms, u2.read_mb - u1.read_mb);
  }
  const double mg_serial_us = Median(mg_serial);
  const double mg_batched_us = Median(mg_batched);
  const double scan_serial_us = Median(scan_serial);
  const double scan_batched_us = Median(scan_batched);

  const storage::IoStats io = storage::GlobalIoStats();
  std::printf("posix    cold multiget  serial %8.2f us/key   batched %8.2f "
              "us/key   (%.2fx)\n",
              mg_serial_us, mg_batched_us, mg_serial_us / mg_batched_us);
  std::printf("posix    cold scan      serial %8.2f us/rec   batched %8.2f "
              "us/rec   (%.2fx)\n",
              scan_serial_us, scan_batched_us,
              scan_serial_us / scan_batched_us);
  std::printf("         io: batches=%llu sub-reads/batch=%.1f uring=%llu "
              "pread=%llu\n",
              (unsigned long long)io.multiread_batches,
              io.multiread_batches > 0
                  ? double(io.multiread_subreads) /
                        double(io.multiread_batches)
                  : 0.0,
              (unsigned long long)io.uring_batches,
              (unsigned long long)io.pread_batches);

  ReportRow(kBench, "posix-multiget-serial", "pass", 0, mg_serial_us,
            "us_wall");
  ReportRow(kBench, "posix-multiget-batched", "pass", 1, mg_batched_us,
            "us_wall");
  ReportRow(kBench, "posix-scan-serial", "pass", 0, scan_serial_us,
            "us_wall");
  ReportRow(kBench, "posix-scan-batched", "pass", 1, scan_batched_us,
            "us_wall");
  // The gated rows: batched/serial cold wall latency, lower is better. The
  // acceptance bar for this figure is <= 0.5 (a >= 2x speedup).
  ReportRow(kBench, "posix-multiget-batched-over-serial", "pass", 1,
            Median(mg_ratio), "x");
  ReportRow(kBench, "posix-scan-batched-over-serial", "pass", 1,
            Median(scan_ratio), "x");

  batched.db.reset();
  serial.db.reset();
  storage::SetPosixPageCachePolicy(storage::PageCachePolicy::kKernel);
  for (const std::string& dir : {batched.dir, serial.dir}) {
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
}

void RunSim(uint64_t records) {
  // Deterministic backend: batching must change neither a byte of any
  // result nor (beyond shared-block hit coalescing) what the simulated
  // clock charges.
  Sharded batched =
      BuildSharded(StoreOptions(true), storage::BackendKind::kSim, records);
  Sharded serial =
      BuildSharded(StoreOptions(false), storage::BackendKind::kSim, records);
  const std::vector<std::string> keys = SampleKeys(records);

  batched.db->ClearReadCache();
  serial.db->ClearReadCache();
  const uint64_t b0 = batched.db->now_ns();
  auto bg = batched.db->MultiGet(keys);
  const uint64_t batched_ns = batched.db->now_ns() - b0;
  const uint64_t s0 = serial.db->now_ns();
  auto sg = serial.db->MultiGet(keys);
  const uint64_t serial_ns = serial.db->now_ns() - s0;
  if (!bg.ok() || !sg.ok()) std::abort();
  if (bg.value() != sg.value()) {
    std::fprintf(stderr, "sim batched/serial MultiGet results diverge\n");
    std::abort();
  }
  auto bscan =
      batched.db->Scan(ycsb::MakeKey(0, 16), ycsb::MakeKey(records - 1, 16));
  auto sscan =
      serial.db->Scan(ycsb::MakeKey(0, 16), ycsb::MakeKey(records - 1, 16));
  if (!bscan.ok() || !sscan.ok()) std::abort();
  if (bscan.value().size() != sscan.value().size()) std::abort();
  for (size_t i = 0; i < bscan.value().size(); ++i) {
    if (bscan.value()[i].key != sscan.value()[i].key ||
        bscan.value()[i].value != sscan.value()[i].value) {
      std::fprintf(stderr, "sim batched/serial Scan results diverge\n");
      std::abort();
    }
  }
  const double ratio = double(batched_ns) / double(serial_ns);
  std::printf("sim      batched results byte-identical; simulated multiget "
              "cost ratio %.3f\n",
              ratio);
  ReportRow(kBench, "sim-multiget-batched-over-serial", "pass", 1, ratio,
            "x");
}

}  // namespace

int main() {
  std::printf("fig_batched_read: cold batched reads (MultiRead/io_uring) vs "
              "serialized\n");
  // Paper-scaled 1 GB dataset over ~1 KiB records (RecordsFor assumes the
  // 116 B YCSB record; recompute for this figure's geometry). A quick run
  // keeps half of it rather than an eighth, so its cold passes still time
  // a few thousand block reads.
  const uint64_t records = std::max<uint64_t>(
      ScaledBytes(1024) / (kValueBytes + 16) /
          std::min<uint64_t>(QuickDivisor(), 2),
      64);
  RunSim(records);
  RunPosix(records);
  return 0;
}
