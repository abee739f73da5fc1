// Figure 7b: write latency with vs without COMPACTION for eLSM-P2 and
// eLSM-P1, plus reads racing a deep merge: wall-clock Get p99 while the
// merge runs inline (blocking the facade lock) vs on the store's
// compaction-job thread (snapshot reads).
//
// Expected shape: enabling compaction costs ~2-4x on the write path (the
// merge work amortizes into every put); with or without it, P2 writes are
// slower than P1 (embedded-proof construction). Background compaction cuts
// mid-merge Get p99 by orders of magnitude, with compaction memory bounded
// by blocks in flight (peak-resident row), not level size.
#include "bench_common.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "common/histogram.h"

using namespace elsm;
using namespace elsm::bench;

namespace {

double WriteLatency(Mode mode, const char* name, uint64_t records,
                    uint64_t ops, bool compaction) {
  Options o = BaseOptions(mode);
  o.name = name;
  Store store = BuildStore(o, records);  // loaded with compaction on
  if (!compaction) {
    Options off = o;
    off.compaction_enabled = false;
    Reopen(store, off);
  }
  return MeasureWriteLatencyUs(*store.db, records, ops);
}

struct CompactionReadResult {
  double p99_us_wall = 0;
  double mean_us_wall = 0;
  uint64_t reads = 0;
  double peak_resident_kb = 0;
};

// Loads and fully compacts a store, reopens it with capacities shrunk so a
// full cascade of merges is pending, then measures wall-clock Get latency
// while the cascade runs — inline (background=false: the merge holds the
// facade's write lock) or on the compaction job (background=true: readers
// run against immutable snapshots).
CompactionReadResult ReadLatencyDuringCompaction(bool background,
                                                 uint64_t records) {
  Options o = BaseOptions(Mode::kP2);
  o.name = background ? "f7b-bgc" : "f7b-fgc";
  Store store = BuildStore(o, records);
  Options small = o;
  small.level1_bytes = 8 << 10;  // everything is now over capacity
  small.background_compaction = background;
  Reopen(store, small);

  std::atomic<bool> done{false};
  std::thread compactor([&] {
    if (background) {
      store.db->ScheduleCompaction();
      if (!store.db->WaitForCompaction().ok()) std::abort();
    } else {
      if (!store.db->Flush().ok()) std::abort();  // inline ripple cascade
    }
    done = true;
  });

  Histogram h;
  Rng rng(0xc0ffee);
  using clock = std::chrono::steady_clock;
  while (!done.load(std::memory_order_relaxed)) {
    const auto t0 = clock::now();
    auto got = store.db->Get(ycsb::MakeKey(rng.Uniform(records), 16));
    if (!got.ok()) std::abort();
    h.Add(uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - t0)
            .count()));
  }
  compactor.join();

  CompactionReadResult r;
  r.p99_us_wall = h.Percentile(99) / 1000.0;
  r.mean_us_wall = h.Mean() / 1000.0;
  r.reads = h.count();
  r.peak_resident_kb =
      double(store.db->engine()
                 .stats()
                 .compaction_peak_resident_bytes.load(std::memory_order_relaxed)) /
      1024.0;
  return r;
}

}  // namespace

int main() {
  PrintHeader("Figure 7b", "write latency with/without compaction",
              "compaction costs ~2-4x on the write path; P2 > P1 either way");

  const double paper_gb[] = {0.2, 1.0, 2.0, 3.0, 4.0};
  const uint64_t kOps = 4000;

  std::printf("%10s %12s %12s %14s %14s %12s\n", "data(GB)", "P2 w(us)",
              "P1 w(us)", "P2 w/o(us)", "P1 w/o(us)", "P2 w/(w/o)");
  for (double gb : paper_gb) {
    const uint64_t records = RecordsFor(gb * 1024);
    const double p2_on = WriteLatency(Mode::kP2, "f7b-p2on", records, kOps, true);
    const double p1_on = WriteLatency(Mode::kP1, "f7b-p1on", records, kOps, true);
    const double p2_off =
        WriteLatency(Mode::kP2, "f7b-p2off", records, kOps, false);
    const double p1_off =
        WriteLatency(Mode::kP1, "f7b-p1off", records, kOps, false);
    std::printf("%10.1f %12.2f %12.2f %14.2f %14.2f %11.2fx\n", gb, p2_on,
                p1_on, p2_off, p1_off, p2_on / p2_off);
    ReportRow("fig7b", "p2-compaction-on", "data_gb", gb, p2_on);
    ReportRow("fig7b", "p1-compaction-on", "data_gb", gb, p1_on);
    ReportRow("fig7b", "p2-compaction-off", "data_gb", gb, p2_off);
    ReportRow("fig7b", "p1-compaction-off", "data_gb", gb, p1_off);
  }

  // PR 2: reads racing a deep merge (wall-clock, so these rows are
  // machine-dependent — compare the inline/background ratio, not absolutes).
  const double kConcurrentGb = 2.0;
  const uint64_t records = RecordsFor(kConcurrentGb * 1024);
  const CompactionReadResult inline_merge =
      ReadLatencyDuringCompaction(/*background=*/false, records);
  const CompactionReadResult bg_merge =
      ReadLatencyDuringCompaction(/*background=*/true, records);
  std::printf("\nGET while a %.1f GB-scale cascade compacts (wall-clock):\n",
              kConcurrentGb);
  std::printf("%12s %14s %14s %10s %14s\n", "merge", "p99(us)", "mean(us)",
              "reads", "peak-res(KB)");
  std::printf("%12s %14.1f %14.1f %10llu %14.1f\n", "inline",
              inline_merge.p99_us_wall, inline_merge.mean_us_wall,
              (unsigned long long)inline_merge.reads,
              inline_merge.peak_resident_kb);
  std::printf("%12s %14.1f %14.1f %10llu %14.1f\n", "background",
              bg_merge.p99_us_wall, bg_merge.mean_us_wall,
              (unsigned long long)bg_merge.reads, bg_merge.peak_resident_kb);
  std::printf("background compaction cuts mid-merge Get p99 by %.1fx\n",
              inline_merge.p99_us_wall / std::max(bg_merge.p99_us_wall, 0.001));
  ReportRow("fig7b", "get-p99-during-compaction-inline", "data_gb",
            kConcurrentGb, inline_merge.p99_us_wall, "us_wall");
  ReportRow("fig7b", "get-p99-during-compaction-background", "data_gb",
            kConcurrentGb, bg_merge.p99_us_wall, "us_wall");
  ReportRow("fig7b", "compaction-peak-resident", "data_gb", kConcurrentGb,
            bg_merge.peak_resident_kb, "kb");
  return 0;
}
