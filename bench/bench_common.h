// Shared helpers for the figure-reproduction benches.
//
// Geometry: every size from the paper is divided by kScale = 128
// (DESIGN.md §2): EPC 128 MB -> 1 MiB, datasets 8 MB..5 GB -> 64 KiB..40 MiB,
// buffers likewise. Records keep the paper's 16-byte keys / 100-byte values.
// Latencies are *simulated* microseconds from the enclave cost model; the
// claims each bench checks are the paper's latency ratios, not absolutes.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "elsm/elsm_db.h"
#include "ycsb/kv_interface.h"
#include "ycsb/runner.h"
#include "ycsb/workload.h"

namespace elsm::bench {

inline constexpr uint64_t kScale = 128;
inline constexpr uint64_t kRecordBytes = 116;  // 16 B key + 100 B value

// Quick mode (ELSM_BENCH_QUICK=1): datasets are shrunk by a further 8x so
// the whole suite finishes in about a minute. Per-op costs stay honest;
// the EPC-crossing figure *shapes* are muted because buffers and the EPC
// keep their normal scaled sizes. Use full mode when checking the paper's
// claimed ratios.
inline uint64_t QuickDivisor() {
  static const uint64_t div = [] {
    const char* q = std::getenv("ELSM_BENCH_QUICK");
    return (q != nullptr && q[0] != '\0' && q[0] != '0') ? uint64_t(8)
                                                         : uint64_t(1);
  }();
  return div;
}

// Paper megabytes -> scaled bytes.
inline uint64_t ScaledBytes(double paper_mb) {
  return uint64_t(paper_mb * 1024.0 * 1024.0 / double(kScale));
}
inline uint64_t RecordsFor(double paper_mb) {
  return std::max<uint64_t>(ScaledBytes(paper_mb) / kRecordBytes /
                                QuickDivisor(),
                            64);
}

// ---------------------------------------------------------------------------
// Machine-readable output. When ELSM_BENCH_JSON names a file, every
// ReportRow() appends one JSON object per line (JSONL):
//   {"bench":"fig2","series":"inside","x_name":"buffer_mb","x":64,
//    "unit":"us","value":12.34}
// scripts/run_bench.sh sets the variable and folds the rows into
// BENCH_*.json. Without the variable the reporter is a no-op, so benches
// stay plain printf tools when run by hand.
// ---------------------------------------------------------------------------
class JsonReporter {
 public:
  static JsonReporter& Instance() {
    static JsonReporter reporter;
    return reporter;
  }

  void Row(const char* bench, const std::string& series, const char* x_name,
           double x, double value, const char* unit) {
    if (file_ == nullptr) return;
    std::fprintf(file_,
                 "{\"bench\":\"%s\",\"series\":\"%s\",\"x_name\":\"%s\","
                 "\"x\":%.6g,\"unit\":\"%s\",\"value\":%.6g}\n",
                 Escape(bench).c_str(), Escape(series).c_str(),
                 Escape(x_name).c_str(), x, Escape(unit).c_str(), value);
    std::fflush(file_);
  }

  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;

 private:
  JsonReporter() {
    const char* path = std::getenv("ELSM_BENCH_JSON");
    if (path != nullptr && path[0] != '\0') file_ = std::fopen(path, "a");
  }
  ~JsonReporter() {
    if (file_ != nullptr) std::fclose(file_);
  }

  // Labels are plain ASCII identifiers; escape the JSON specials anyway.
  static std::string Escape(const std::string& in) {
    std::string out;
    out.reserve(in.size());
    for (char c : in) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) continue;
      out.push_back(c);
    }
    return out;
  }

  std::FILE* file_ = nullptr;
};

// One measured point: `series` is the line in the figure (e.g. "inside",
// "p2-mmap"), `x` its position on the x axis, `value` the latency in `unit`.
inline void ReportRow(const char* bench, const std::string& series,
                      const char* x_name, double x, double value,
                      const char* unit = "us") {
  JsonReporter::Instance().Row(bench, series, x_name, x, value, unit);
}

// Median of repeated wall-clock measurements: the gated ratio rows of a
// shared, noisy host report the middle of several repetitions, not one.
inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Scaled default geometry shared by all benches.
inline Options BaseOptions(Mode mode) {
  Options o;
  o.mode = mode;
  o.memtable_bytes = 32 << 10;  // paper: 4 MB write buffer
  o.level1_bytes = 128 << 10;
  o.level_ratio = 4;
  o.block_bytes = 4096;
  o.file_bytes = 32 << 10;
  o.read_buffer_bytes = ScaledBytes(1024);  // 1 GB-equivalent default
  o.persist_manifest_on_flush = false;      // isolate the measured path
  o.counter_sync_period = 16;
  o.cost_model.epc_bytes = 1 << 20;  // paper: 128 MB EPC
  return o;
}

// A store whose untrusted disk + trusted platform survive reopens, so one
// load can be measured under many configurations.
//
// `put_us` is the steady-state amortized write latency: the mean simulated
// latency of the second half of the load phase, which includes every flush
// and ripple compaction those puts triggered — the paper's own methodology
// ("the time for COMPACTION amortized to the individual PUT", §6.4).
// Deep-level merges are rare spikes, so short measurement windows would be
// dominated by whether one happened to fall inside; amortizing over half
// the load is deterministic and steady.
struct Store {
  std::shared_ptr<storage::Fs> fs;
  std::shared_ptr<TrustedPlatform> platform;
  std::unique_ptr<ElsmDb> db;
  double put_us = 0;
};

inline Store BuildStore(const Options& options, uint64_t records) {
  Store store;
  store.platform = std::make_shared<TrustedPlatform>();
  auto enclave = std::make_shared<sgx::Enclave>(options.cost_model,
                                                options.mode != Mode::kUnsecured);
  store.fs = storage::MakeFs(options.backend, options.backend_dir, enclave);
  auto db = ElsmDb::Open(options, store.fs, store.platform);
  if (!db.ok()) {
    std::fprintf(stderr, "open failed: %s\n", db.status().ToString().c_str());
    std::abort();
  }
  store.db = std::move(db).value();
  for (uint64_t i = 0; i < records; ++i) {
    if (i == records / 2) store.db->ResetOpStats();
    const Status s = store.db->Put(ycsb::MakeKey(i, 16), ycsb::MakeValue(i, 100));
    if (!s.ok()) {
      std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
      std::abort();
    }
  }
  store.put_us = store.db->op_stats().put.Mean() / 1000.0;
  if (!store.db->CompactAll().ok()) std::abort();
  return store;
}

// Reopens the same disk under a different configuration (e.g. another
// buffer size or read path). The mode must match how the data was built.
inline void Reopen(Store& store, const Options& options) {
  if (store.db != nullptr && !store.db->Close().ok()) std::abort();
  store.db.reset();
  auto db = ElsmDb::Open(options, store.fs, store.platform);
  if (!db.ok()) {
    std::fprintf(stderr, "reopen failed: %s\n",
                 db.status().ToString().c_str());
    std::abort();
  }
  store.db = std::move(db).value();
}

// Mean simulated latency (us) of `ops` uniform random GETs over [0, records).
inline double MeasureReadLatencyUs(ElsmDb& db, uint64_t records,
                                   uint64_t ops) {
  Rng rng(0xbeef);
  const uint64_t start = db.enclave().now_ns();
  for (uint64_t i = 0; i < ops; ++i) {
    auto got = db.Get(ycsb::MakeKey(rng.Uniform(records), 16));
    if (!got.ok()) {
      std::fprintf(stderr, "read failed: %s\n",
                   got.status().ToString().c_str());
      std::abort();
    }
  }
  return double(db.enclave().now_ns() - start) / double(ops) / 1000.0;
}

// Mean simulated latency (us) of uniform random overwrite PUTs, amortized
// over a window covering 25 % of the keyspace (clamped) so that flushes and
// their proportional share of ripple compactions are included.
inline double MeasureWriteLatencyUs(ElsmDb& db, uint64_t records,
                                    uint64_t min_ops) {
  const uint64_t ops =
      std::max<uint64_t>(min_ops, std::min<uint64_t>(records / 4, 80'000));
  Rng rng(0xfeed);
  const uint64_t start = db.enclave().now_ns();
  for (uint64_t i = 0; i < ops; ++i) {
    const uint64_t k = rng.Uniform(records);
    if (!db.Put(ycsb::MakeKey(k, 16), ycsb::MakeValue(k + i, 100)).ok()) {
      std::abort();
    }
  }
  return double(db.enclave().now_ns() - start) / double(ops) / 1000.0;
}

// Mean simulated latency (us) of a mix: reads measured directly with the
// spec's key distribution; updates/inserts priced at the store's amortized
// steady-state put cost (see Store::put_us); read-modify-writes pay both.
inline double ComposedMixLatencyUs(const Store& store, ycsb::WorkloadSpec spec,
                                   uint64_t records, uint64_t read_ops) {
  const double write_frac = spec.update_proportion + spec.insert_proportion;
  const double rmw_frac = spec.rmw_proportion;
  const double read_frac = spec.read_proportion + spec.scan_proportion;

  double read_us = 0;
  if (read_frac + rmw_frac > 0) {
    ycsb::WorkloadSpec reads = spec;
    reads.read_proportion = 1.0;
    reads.update_proportion = reads.insert_proportion = 0;
    reads.scan_proportion = reads.rmw_proportion = 0;
    reads.record_count = records;
    reads.operation_count = read_ops;
    ycsb::ElsmKv kv(store.db.get());
    ycsb::YcsbRunner runner(reads);
    auto stats = runner.Run(kv);
    if (!stats.ok()) {
      std::fprintf(stderr, "mix reads failed: %s\n",
                   stats.status().ToString().c_str());
      std::abort();
    }
    read_us = stats.value().MeanLatencyUs();
  }
  return read_frac * read_us + write_frac * store.put_us +
         rmw_frac * (read_us + store.put_us);
}

inline void PrintHeader(const char* figure, const char* title,
                        const char* expectation) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, title);
  std::printf("geometry: paper sizes / %llu; latencies are simulated us/op\n",
              (unsigned long long)kScale);
  std::printf("paper expectation: %s\n", expectation);
  std::printf("==============================================================\n");
}

}  // namespace elsm::bench
