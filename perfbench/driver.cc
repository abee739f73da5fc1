// perfbench_driver: one trial of one end-to-end workload against the
// eLSM-P2 store on PosixFs, driven only through public APIs.
//
//   perfbench_driver --workload NAME --seed N --seconds S --dir DIR
//                    [--trace 0|1] [--spans FILE] [--setup-only] [--hold]
//                    [--scale F] [--corrupt-at S] [--check-properties 0|1]
//
// The store is the default elsm::Options with three exceptions: the PosixFs
// backend under DIR, the buffer read path (outside-enclave block cache with
// verified admission, MultiRead and io_uring) and sync_writes = true (the
// default, restated). Closed-loop clients draw ops from ycsb::KeyChooser;
// every result is checked against an in-memory model of what was written.
//
// Phases: open + load + untimed warm-up (setup), then a timed phase of a
// fixed number of ops sized to take about S seconds. With --trace 1 the
// timed phase alternates untraced and traced slices; traced slices record one span per ElsmDb call and one child span
// per storage call (TimingFs), and the per-layer metrics come from those
// spans and from public counters read as deltas across the timed phase.
// --setup-only stops after the setup; --hold waits for a line on stdin
// between the setup and the timed phase. --scale shrinks the record counts
// (and the read cache with them) for self-tests; --corrupt-at flips one
// byte of an SSTable that many seconds into the timed phase.
//
// Prints one JSON object on stdout; perfbench/run.py turns it into the
// benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "elsm/elsm_db.h"
#include "storage/fs.h"
#include "timing_fs.h"
#include "ycsb/workload.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using elsm::ycsb::KeyChooser;
using elsm::ycsb::MakeKey;
using elsm::ycsb::MakeValue;
using elsm::ycsb::OpType;
using elsm::ycsb::WorkloadSpec;

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_driver: %s\n", msg.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  WorkloadSpec spec;
  int clients = 1;
  uint64_t warmup_ops = 0;  // per client, untimed
  // Sizes the timed phase: --seconds times this many ops, which takes
  // about --seconds on a 4-core 2 GHz Xeon VM.
  double nominal_ops_per_s = 0;
};

Workload MakeWorkload(const std::string& name, double scale) {
  Workload w;
  w.name = name;
  if (name == "read-hot-zipf") {
    w.spec = WorkloadSpec::C();  // 100% reads, Zipfian 0.99
    w.spec.record_count = 50'000;
    w.clients = 4;
    w.warmup_ops = 10'000;
    w.nominal_ops_per_s = 50'000;
  } else if (name == "update-heavy-uniform") {
    w.spec = WorkloadSpec::ReadWriteMix(50, elsm::ycsb::KeyDistribution::kUniform);
    // 2.7x the default 8 MiB read cache on disk.
    w.spec.record_count = 110'000;
    w.clients = 1;
    w.warmup_ops = 10'000;
    w.nominal_ops_per_s = 5'000;
  } else if (name == "scan-zipf") {
    w.spec = WorkloadSpec::E();  // 95% scans of up to 100 keys, 5% inserts
    w.spec.record_count = 100'000;
    w.clients = 4;
    w.warmup_ops = 2'000;
    w.nominal_ops_per_s = 8'000;
  } else {
    Die("unknown workload '" + name + "'");
  }
  w.spec.record_count =
      std::max<uint64_t>(1000, uint64_t(double(w.spec.record_count) * scale));
  w.warmup_ops =
      std::max<uint64_t>(50, uint64_t(double(w.warmup_ops) * std::min(1.0, scale * 4)));
  return w;
}

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string dir;
  bool trace = false;
  std::string spans_file;
  bool setup_only = false;
  double scale = 1.0;
  double corrupt_at = -1;
  bool check_properties = true;
  bool hold = false;
};

Config ParseArgs(int argc, char** argv) {
  Config c;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      c.workload = next();
    } else if (a == "--seed") {
      c.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      c.seconds = std::atof(next().c_str());
    } else if (a == "--dir") {
      c.dir = next();
    } else if (a == "--trace") {
      c.trace = next() != "0";
    } else if (a == "--spans") {
      c.spans_file = next();
    } else if (a == "--setup-only") {
      c.setup_only = true;
    } else if (a == "--scale") {
      c.scale = std::atof(next().c_str());
    } else if (a == "--corrupt-at") {
      c.corrupt_at = std::atof(next().c_str());
    } else if (a == "--hold") {
      c.hold = true;
    } else if (a == "--check-properties") {
      c.check_properties = next() != "0";
    } else {
      Die("unknown argument " + a);
    }
  }
  if (c.workload.empty() || c.dir.empty()) Die("--workload and --dir are required");
  if (!(c.seconds > 0)) Die("--seconds must be positive");
  if (!(c.scale > 0)) Die("--scale must be positive");
  return c;
}

// ---------------------------------------------------------------------------
// Correctness oracle. Values are MakeValue(id) with seed-derived ids, so
// every seed writes different bytes. Loaded records (index < loaded) keep
// the id last written for them; only single-client workloads update them.
// Inserted records (index >= loaded) may come from any client: the insert
// claims the next index and publishes its id before the Put, and marks it
// acknowledged after the Put returns Ok. A reader must see every record
// acknowledged before it started, and may see one whose Put is in flight.
// ---------------------------------------------------------------------------

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Model {
 public:
  static constexpr uint64_t kMaxInserts = uint64_t{1} << 18;

  Model(uint64_t seed, size_t value_size, uint64_t loaded, bool inserts)
      : seed_(Mix64(seed)),
        value_size_(value_size),
        ids_(loaded),
        slots_(inserts ? kMaxInserts : 0) {}

  uint64_t loaded() const { return ids_.size(); }
  uint64_t NewId() { return Mix64(seed_ ^ Mix64(next_id_.fetch_add(1))); }
  std::string ValueOf(uint64_t id) const { return MakeValue(id, value_size_); }

  void SetLoaded(uint64_t index, uint64_t id) { ids_.at(index) = id; }
  std::string LoadedValue(uint64_t index) const { return ValueOf(ids_.at(index)); }

  // Claims the next insert index and publishes `id` for it.
  uint64_t ClaimInsert(uint64_t id) {
    const uint64_t k = claimed_.fetch_add(1);
    if (k >= slots_.size()) Die("more inserts than the oracle can track");
    slots_[k].id.store(id, std::memory_order_release);
    return loaded() + k;
  }
  void AckInsert(uint64_t index) {
    slots_[index - loaded()].acked.store(true, std::memory_order_release);
  }
  // Id published for an inserted index (0: no Put has started for it).
  uint64_t InsertedId(uint64_t index) const {
    const uint64_t k = index - loaded();
    return k < slots_.size() ? slots_[k].id.load(std::memory_order_acquire) : 0;
  }
  bool InsertAcked(uint64_t index) const {
    const uint64_t k = index - loaded();
    return k < slots_.size() && slots_[k].acked.load(std::memory_order_acquire);
  }
  uint64_t records() const { return loaded() + claimed_.load(); }

 private:
  struct Slot {
    std::atomic<uint64_t> id{0};
    std::atomic<bool> acked{false};
  };

  uint64_t seed_;
  size_t value_size_;
  std::atomic<uint64_t> next_id_{0};
  std::vector<uint64_t> ids_;
  std::vector<Slot> slots_;
  std::atomic<uint64_t> claimed_{0};
};

// ---------------------------------------------------------------------------
// Public counters, read as deltas at phase boundaries.
// ---------------------------------------------------------------------------

struct Counters {
  uint64_t sim_ns = 0;
  elsm::sgx::EnclaveCounters enclave;
  elsm::storage::ReadBufferStats cache;
  elsm::auth::ProofPathCacheStats path;
  elsm::storage::IoStats io;
  uint64_t flushes = 0;
  uint64_t compaction_bytes_in = 0;
  uint64_t readahead_blocks = 0;
  uint64_t readahead_hits = 0;
  uint64_t fs_bytes_written = 0;  // TimingFs only
};

Counters ReadCounters(elsm::ElsmDb& db, const TimingFs* tfs) {
  Counters c;
  c.sim_ns = db.enclave().now_ns();
  c.enclave = db.enclave().counters();
  c.cache = db.read_cache_stats();
  c.path = db.proof_path_cache_stats();
  c.io = elsm::storage::GlobalIoStats();
  const elsm::lsm::EngineStats& es = db.engine().stats();
  c.flushes = es.flushes.load();
  c.compaction_bytes_in = es.compaction_bytes_in.load();
  c.readahead_blocks = es.readahead_blocks.load();
  c.readahead_hits = es.readahead_hits.load();
  c.fs_bytes_written = tfs != nullptr ? tfs->bytes_written() : 0;
  return c;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile of raw samples (sorted in place).
double Percentile(std::vector<uint64_t>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = size_t(std::ceil(p / 100.0 * double(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return double(v[rank - 1]);
}

// Median over 1 s windows (by completion time) of each window's
// percentile. A stall of the host that spoils one window moves this less
// than a percentile over the whole phase; the system's own periodic work
// (flushes, compactions) lands in most windows and still shows. A window
// counts with at least 100 samples, 1000 for p99 (so that ten lie beyond
// it); 0 if none does.
double WindowedPercentile(const std::vector<uint64_t>& lat,
                          const std::vector<int64_t>& end_ns, int64_t start_ns,
                          double p) {
  const size_t need = p >= 99 ? 1000 : 100;
  std::map<int64_t, std::vector<uint64_t>> windows;
  for (size_t i = 0; i < lat.size(); ++i) {
    windows[(end_ns[i] - start_ns) / 1'000'000'000].push_back(lat[i]);
  }
  std::vector<double> per_window;
  for (auto& [index, samples] : windows) {
    if (samples.size() >= need) per_window.push_back(Percentile(samples, p));
  }
  return Median(per_window);
}

// ---------------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------------

enum OpClass { kGetOp = 0, kPutOp = 1, kScanOp = 2 };

struct Client {
  Client(const WorkloadSpec& spec, uint64_t seed) : chooser(spec, seed), rng(seed ^ 0x5ca1ab1eull) {}

  KeyChooser chooser;
  elsm::Rng rng;  // scan lengths
  SpanLog log;
  uint64_t op_seq = 0;
  int id = 0;

  // Timed phase only: per-op latency and completion time.
  std::vector<uint64_t> latency_ns[3];
  std::vector<int64_t> end_ns[3];
  uint64_t ops = 0;
  uint64_t puts = 0;
  uint64_t put_user_bytes = 0;
  uint64_t queries = 0;  // GetVerified + Scan calls
  uint64_t flush_stall_ns = 0;

  // Every op after the load, warm-up included.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
};

class Runner {
 public:
  Runner(const Workload& w, elsm::ElsmDb& db, Model& model)
      : w_(w), db_(db), model_(model) {}

  // Timed ops completed so far, by every client.
  uint64_t done() const { return done_.load(std::memory_order_relaxed); }
  // The timed phase's op budget, shared by every client.
  void SetBudget(uint64_t ops) { budget_.store(int64_t(ops)); }
  bool TakeTicket() { return budget_.fetch_sub(1, std::memory_order_relaxed) > 0; }

  // One op; `timed` keeps its sample, `traced` records its op span.
  void RunOp(Client& c, bool timed, bool traced) {
    const OpType type = c.chooser.NextOp();
    const size_t ksz = w_.spec.key_size;
    std::string error;
    OpClass cls = kGetOp;
    int64_t t0 = 0;
    int64_t t1 = 0;
    if (traced) c.log.current_op = (uint64_t(c.id + 1) << 48) | ++c.op_seq;

    switch (type) {
      case OpType::kRead: {
        const uint64_t index = c.chooser.NextExisting();
        const std::string key = MakeKey(index, ksz);
        t0 = NowNs();
        auto got = db_.GetVerified(key);
        t1 = NowNs();
        error = CheckGet(got, index);
        if (timed) ++c.queries;
        break;
      }
      case OpType::kUpdate:
      case OpType::kInsert: {
        cls = kPutOp;
        const bool insert = type == OpType::kInsert;
        const uint64_t id = model_.NewId();
        const uint64_t index =
            insert ? model_.ClaimInsert(id) : c.chooser.NextExisting();
        const std::string key = MakeKey(index, ksz);
        const std::string value = model_.ValueOf(id);
        const uint64_t flushes_before = db_.engine().stats().flushes.load();
        t0 = NowNs();
        elsm::Status s = db_.Put(key, value);
        t1 = NowNs();
        if (!s.ok()) {
          error = "put: " + s.ToString();
        } else if (insert) {
          model_.AckInsert(index);
        } else {
          model_.SetLoaded(index, id);
        }
        if (timed) {
          ++c.puts;
          c.put_user_bytes += key.size() + value.size();
          if (db_.engine().stats().flushes.load() != flushes_before) {
            c.flush_stall_ns += uint64_t(t1 - t0);
          }
        }
        break;
      }
      case OpType::kScan: {
        cls = kScanOp;
        const uint64_t index = c.chooser.NextExisting();
        const uint64_t len = 1 + c.rng.Uniform(w_.spec.max_scan_len);
        const std::string lo = MakeKey(index, ksz);
        const std::string hi = MakeKey(index + len - 1, ksz);
        // Inserted records in range acknowledged before the scan starts.
        std::vector<bool> required(len, false);
        for (uint64_t i = 0; i < len; ++i) {
          required[i] = index + i < model_.loaded() || model_.InsertAcked(index + i);
        }
        t0 = NowNs();
        auto got = db_.Scan(lo, hi);
        t1 = NowNs();
        error = CheckScan(got, index, required);
        if (timed) ++c.queries;
        break;
      }
      case OpType::kReadModifyWrite:
        Die("read-modify-write is not part of any workload");
    }

    if (traced) {
      Span span;
      span.op_id = c.log.current_op;
      span.kind = cls == kGetOp ? SpanKind::kGet
                                : cls == kPutOp ? SpanKind::kPut : SpanKind::kScan;
      span.start_ns = t0;
      span.end_ns = t1;
      c.log.Add(span);
      c.log.current_op = 0;
    }
    ++c.attempted;
    if (!error.empty()) {
      ++c.failed;
      if (c.first_error.empty()) c.first_error = error;
    }
    if (timed) {
      c.latency_ns[cls].push_back(uint64_t(t1 - t0));
      c.end_ns[cls].push_back(t1);
      ++c.ops;
      done_.fetch_add(1, std::memory_order_relaxed);
    }
  }

 private:
  std::string CheckGet(const elsm::Result<elsm::ElsmDb::VerifiedRecord>& got,
                       uint64_t index) const {
    if (!got.ok()) return "get: " + got.status().ToString();
    const auto& rec = got.value();
    if (!rec.verified) return "get: result not verified";
    if (!rec.record.has_value() || rec.record->deleted()) {
      return "get: existing key reported absent";
    }
    if (rec.record->value != model_.LoadedValue(index)) return "get: wrong value";
    return "";
  }

  // Completeness and integrity of a scan over keys [index, index + len):
  // every required record is present, every present record is one the
  // oracle knows with the value written for it, in key order, no extras.
  std::string CheckScan(const elsm::Result<std::vector<elsm::lsm::Record>>& got,
                        uint64_t index, const std::vector<bool>& required) const {
    if (!got.ok()) return "scan: " + got.status().ToString();
    const auto& records = got.value();
    size_t next = 0;
    for (uint64_t i = 0; i < required.size(); ++i) {
      const uint64_t idx = index + i;
      const bool present =
          next < records.size() && records[next].key == MakeKey(idx, w_.spec.key_size);
      if (!present) {
        if (required[i]) return "scan: missing record";
        continue;
      }
      std::string want;
      if (idx < model_.loaded()) {
        want = model_.LoadedValue(idx);
      } else if (const uint64_t id = model_.InsertedId(idx); id != 0) {
        want = model_.ValueOf(id);
      } else {
        return "scan: record that was never written";
      }
      if (records[next].deleted() || records[next].value != want) {
        return "scan: wrong record";
      }
      ++next;
    }
    if (next != records.size()) return "scan: records outside the range";
    return "";
  }

  const Workload& w_;
  elsm::ElsmDb& db_;
  Model& model_;
  std::atomic<uint64_t> done_{0};
  std::atomic<int64_t> budget_{0};
};

// Runs every client on its own thread until `body` returns.
template <typename Body>
void RunClients(std::vector<std::unique_ptr<Client>>& clients, Body body) {
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (auto& c : clients) {
    threads.emplace_back([&body, client = c.get()] {
      BindSpanLog(&client->log);
      body(*client);
      BindSpanLog(nullptr);
    });
  }
  for (auto& t : threads) t.join();
}

// ---------------------------------------------------------------------------
// Trace analysis
// ---------------------------------------------------------------------------

struct TraceSummary {
  uint64_t ops = 0;
  uint64_t puts = 0;
  std::vector<uint64_t> op_ns[3];
  std::vector<uint64_t> self_ns[3];
  uint64_t read_calls = 0;
  uint64_t read_ns = 0;
  uint64_t sync_ns = 0;
  uint64_t wal_append_ns = 0;
  uint64_t write_ns = 0;
  uint64_t dropped = 0;
};

TraceSummary Summarize(const std::vector<std::unique_ptr<Client>>& clients) {
  TraceSummary t;
  for (const auto& c : clients) {
    t.dropped += c->log.dropped;
    // Children precede their op span on the same thread and never overlap
    // one another, so an op's self time is its duration minus their sum.
    uint64_t child_ns = 0;
    for (const Span& s : c->log.spans) {
      const uint64_t dur = uint64_t(std::max<int64_t>(0, s.end_ns - s.start_ns));
      if (IsOpSpan(s.kind)) {
        const int cls = int(s.kind);
        t.op_ns[cls].push_back(dur);
        t.self_ns[cls].push_back(dur > child_ns ? dur - child_ns : 0);
        ++t.ops;
        if (s.kind == SpanKind::kPut) ++t.puts;
        child_ns = 0;
        continue;
      }
      child_ns += dur;
      switch (s.kind) {
        case SpanKind::kRead:
        case SpanKind::kReadAll:
        case SpanKind::kMultiRead:
        case SpanKind::kBlob:
          ++t.read_calls;
          t.read_ns += dur;
          break;
        case SpanKind::kSync:
        case SpanKind::kSyncDir:
          t.sync_ns += dur;
          break;
        case SpanKind::kAppend:
          if (s.file == FileKind::kWal) t.wal_append_ns += dur;
          break;
        case SpanKind::kWrite:
        case SpanKind::kRename:
          t.write_ns += dur;
          break;
        default:
          break;
      }
    }
  }
  return t;
}

void WriteSpans(const std::string& path,
                const std::vector<std::unique_ptr<Client>>& clients) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) Die("cannot write span file " + path);
  out << "op_id,span,file,start_ns,end_ns,bytes,count\n";
  for (const auto& c : clients) {
    for (const Span& s : c->log.spans) {
      out << s.op_id << ',' << SpanKindName(s.kind) << ',' << FileKindName(s.file)
          << ',' << s.start_ns << ',' << s.end_ns << ',' << s.bytes << ','
          << s.count << '\n';
    }
  }
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

class JsonObject {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, "\"" + JsonEscape(v) + "\"");
  }
  void Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += '"';
    body_ += JsonEscape(key);
    body_ += "\": ";
    body_ += json;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void SleepSeconds(double s) {
  if (s > 0) std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

// Flips one byte in the middle of the largest SSTable, then drops the read
// cache so the damaged block has to be loaded (and verified) again.
std::string CorruptOneBlock(elsm::ElsmDb& db, const std::string& store) {
  std::string victim;
  uint64_t victim_size = 0;
  for (const std::string& name : db.fs().List(store + "/")) {
    if (ClassifyFile(name) != FileKind::kSst) continue;
    auto size = db.fs().FileSize(name);
    if (size.ok() && size.value() > victim_size) {
      victim = name;
      victim_size = size.value();
    }
  }
  if (victim.empty() || !db.fs().Corrupt(victim, victim_size / 2, 0xff)) {
    Die("corruption requested but no SSTable could be corrupted");
  }
  db.ClearReadCache();
  return victim;
}

int Main(int argc, char** argv) {
  const Config cfg = ParseArgs(argc, argv);
  const Workload w = MakeWorkload(cfg.workload, cfg.scale);

  elsm::Options options;  // defaults, with the three exceptions below
  options.backend = elsm::storage::BackendKind::kPosix;
  options.backend_dir = cfg.dir;
  options.read_path = elsm::lsm::ReadPathKind::kBuffer;
  options.sync_writes = true;
  if (cfg.scale < 1.0) {
    options.read_buffer_bytes =
        std::max<uint64_t>(256 << 10, uint64_t(double(options.read_buffer_bytes) * cfg.scale));
  }

  // ---- setup: open, load, warm-up -----------------------------------------
  const int64_t setup_start = NowNs();
  std::shared_ptr<TimingFs> tfs;
  std::unique_ptr<elsm::ElsmDb> db;
  if (cfg.trace) {
    // The store re-homes the Fs onto its own enclave in Open.
    auto base = elsm::storage::MakeFs(options.backend, options.backend_dir,
                                      std::make_shared<elsm::sgx::Enclave>());
    tfs = std::make_shared<TimingFs>(std::move(base));
    auto opened = elsm::ElsmDb::Open(options, tfs,
                                     std::make_shared<elsm::TrustedPlatform>());
    if (!opened.ok()) Die("open: " + opened.status().ToString());
    db = std::move(opened).value();
  } else {
    auto opened = elsm::ElsmDb::Create(options);
    if (!opened.ok()) Die("open: " + opened.status().ToString());
    db = std::move(opened).value();
  }

  Model model(cfg.seed, w.spec.value_size, w.spec.record_count,
              w.spec.insert_proportion > 0);
  const Counters before_load = ReadCounters(*db, tfs.get());
  constexpr uint64_t kLoadBatch = 64;
  uint64_t loaded_bytes = 0;
  elsm::ElsmDb::WriteBatch batch;
  for (uint64_t i = 0; i < w.spec.record_count; ++i) {
    const uint64_t id = model.NewId();
    model.SetLoaded(i, id);
    batch.Put(MakeKey(i, w.spec.key_size), model.ValueOf(id));
    loaded_bytes += w.spec.key_size + w.spec.value_size;
    if (batch.entries.size() == kLoadBatch || i + 1 == w.spec.record_count) {
      elsm::Status s = db->Write(batch);
      if (!s.ok()) Die("load: " + s.ToString());
      batch.entries.clear();
    }
  }
  if (elsm::Status s = db->Flush(); !s.ok()) Die("load flush: " + s.ToString());
  const Counters after_load = ReadCounters(*db, tfs.get());

  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < w.clients; ++i) {
    auto c = std::make_unique<Client>(w.spec, Mix64(cfg.seed * 1000003 + uint64_t(i)));
    c->id = i;
    clients.push_back(std::move(c));
  }
  if (w.clients > 1 && w.spec.update_proportion > 0) {
    Die("the oracle needs a single client on workloads that update");
  }
  Runner runner(w, *db, model);
  RunClients(clients, [&](Client& c) {
    for (uint64_t i = 0; i < w.warmup_ops; ++i) runner.RunOp(c, false, false);
  });
  const double setup_s = double(NowNs() - setup_start) / 1e9;

  JsonObject out;
  out.Str("workload", w.name);
  out.Num("seed", double(cfg.seed));
  out.Num("setup_s", setup_s);
  if (cfg.setup_only) {
    uint64_t attempted = 0, failed = 0;
    for (const auto& c : clients) {
      attempted += c->attempted;
      failed += c->failed;
    }
    out.Num("attempted", double(attempted));
    out.Num("failed", double(failed));
    if (elsm::Status s = db->Close(); !s.ok()) Die("close: " + s.ToString());
    std::printf("%s\n", out.str().c_str());
    return 0;
  }

  // With --hold the timed phase waits for a line on stdin, so the caller
  // can let sibling set-ups finish first without timing them against it.
  if (cfg.hold) {
    char line[16];
    if (std::fgets(line, sizeof(line), stdin) == nullptr) Die("released by EOF");
  }

  // ---- timed phase --------------------------------------------------------
  const uint64_t disk_bytes_before = DirBytes(cfg.dir);
  const Counters before = ReadCounters(*db, tfs.get());
  // The warm-up clients have joined, so op_stats() is quiescent here.
  const uint64_t proof_bytes_before = db->op_stats().proof_bytes;
  const uint64_t verified_before = db->op_stats().verified_ops;
  // The timed phase runs a fixed number of ops, --seconds times the
  // workload's nominal rate, shared by its clients. Fixed work puts the
  // same flushes and compactions into every run, where a fixed time window
  // would catch a multi-second merge in some runs and miss it in others.
  // A controller cuts the phase into slices; throughput is the median
  // slice rate, which a stall of the host moves less than the mean. With
  // --trace 1, odd slices are traced and even ones are not, so both see
  // the same store state on average, and the tracing overhead is the
  // difference of their median slice throughputs.
  constexpr double kSliceSeconds = 0.25;
  runner.SetBudget(uint64_t(std::llround(cfg.seconds * w.nominal_ops_per_s)));
  std::atomic<bool> stop{false};
  std::atomic<bool> tracing{false};
  std::vector<double> slice_rates[2];
  std::string corrupted;
  const int64_t timed_start = NowNs();
  std::thread controller([&] {
    uint64_t done_before = runner.done();
    int64_t slice_start = timed_start;
    for (int i = 0; !stop.load(); ++i) {
      const bool traced = cfg.trace && i % 2 == 1;
      tracing.store(traced);
      if (cfg.corrupt_at >= 0 && corrupted.empty() &&
          double(slice_start - timed_start) / 1e9 >= cfg.corrupt_at) {
        corrupted = CorruptOneBlock(*db, options.name);
      }
      const int64_t slice_end = timed_start + int64_t(kSliceSeconds * 1e9 * (i + 1));
      SleepSeconds(double(slice_end - NowNs()) / 1e9);
      const int64_t now = NowNs();
      const uint64_t done_now = runner.done();
      if (stop.load()) break;  // the clients finished inside this slice
      slice_rates[traced ? 1 : 0].push_back(double(done_now - done_before) /
                                            (double(now - slice_start) / 1e9));
      done_before = done_now;
      slice_start = now;
    }
  });
  RunClients(clients, [&](Client& c) {
    while (runner.TakeTicket()) {
      runner.RunOp(c, true, tracing.load(std::memory_order_relaxed));
    }
  });
  const double timed_s = double(NowNs() - timed_start) / 1e9;
  stop.store(true);
  controller.join();
  // Clients have joined: op_stats() and the counters are quiescent.
  const Counters after = ReadCounters(*db, tfs.get());
  const uint64_t proof_bytes = db->op_stats().proof_bytes - proof_bytes_before;
  const uint64_t verified_ops = db->op_stats().verified_ops - verified_before;

  uint64_t ops = 0;
  uint64_t attempted = 0, failed = 0, puts = 0, put_user_bytes = 0, queries = 0,
           flush_stall_ns = 0;
  std::string first_error;
  std::vector<uint64_t> lat[3];
  std::vector<int64_t> lat_end[3];
  for (const auto& c : clients) {
    ops += c->ops;
    attempted += c->attempted;
    failed += c->failed;
    puts += c->puts;
    put_user_bytes += c->put_user_bytes;
    queries += c->queries;
    flush_stall_ns += c->flush_stall_ns;
    if (first_error.empty()) first_error = c->first_error;
    for (int k = 0; k < 3; ++k) {
      lat[k].insert(lat[k].end(), c->latency_ns[k].begin(), c->latency_ns[k].end());
      lat_end[k].insert(lat_end[k].end(), c->end_ns[k].begin(), c->end_ns[k].end());
    }
  }
  const uint64_t live_bytes = model.records() * (w.spec.key_size + w.spec.value_size);
  const uint64_t disk_bytes_after = DirBytes(cfg.dir);
  const size_t levels = db->engine().levels().size();

  out.Num("attempted", double(attempted));
  out.Num("failed", double(failed));
  out.Str("first_error", first_error);
  out.Num("timed_s", timed_s);
  out.Num("ops", double(ops));
  if (!corrupted.empty()) out.Str("corrupted_file", corrupted);

  JsonObject samples;
  samples.Num("get", double(lat[kGetOp].size()));
  samples.Num("put", double(lat[kPutOp].size()));
  samples.Num("scan", double(lat[kScanOp].size()));

  // End-to-end metrics (every op type that occurs gets a p50; a p99 only
  // with at least 1000 samples).
  JsonObject e2e;
  e2e.Num("setup_s", setup_s);
  e2e.Num("ops_per_s", slice_rates[0].empty() ? Ratio(double(ops), timed_s)
                                               : Median(slice_rates[0]));
  const char* names[3] = {"get", "put", "scan"};
  std::vector<uint64_t> query;
  std::vector<int64_t> query_end;
  for (int k = 0; k < 3; ++k) {
    if (k != kPutOp) {
      query.insert(query.end(), lat[k].begin(), lat[k].end());
      query_end.insert(query_end.end(), lat_end[k].begin(), lat_end[k].end());
    }
    if (lat[k].empty()) continue;
    e2e.Num(std::string(names[k]) + "_p50_us", Percentile(lat[k], 50) / 1e3);
    if (lat[k].size() >= 1000) {
      e2e.Num(std::string(names[k]) + "_p99_us", Percentile(lat[k], 99) / 1e3);
    }
  }
  if (const double p50 = WindowedPercentile(query, query_end, timed_start, 50); p50 > 0) {
    e2e.Num("query_p50_us", p50 / 1e3);
  }
  if (const double p99 = WindowedPercentile(query, query_end, timed_start, 99); p99 > 0) {
    e2e.Num("query_p99_us", p99 / 1e3);
  }
  e2e.Num("sim_us_per_op", Ratio(double(after.sim_ns - before.sim_ns) / 1e3, double(ops)));
  e2e.Num("proof_bytes_per_op", Ratio(double(proof_bytes), double(verified_ops)));
  e2e.Num("space_amp", Ratio(double(disk_bytes_after), double(live_bytes)));
  e2e.Num("peak_rss_mb", PeakRssMb());
  e2e.Num("failed_ops_frac", Ratio(double(failed), double(attempted)));

  // Per-layer counters (deltas over the timed phase).
  JsonObject layer;
  const double dops = double(ops);
  const double dputs = double(puts);
  layer.Num("storage.read_cache_hit_ratio",
            Ratio(double(after.cache.hits - before.cache.hits),
                  double(after.cache.hits - before.cache.hits + after.cache.misses -
                         before.cache.misses)));
  layer.Num("storage.read_cache_evictions_per_op",
            Ratio(double(after.cache.evictions - before.cache.evictions), dops));
  layer.Num("storage.multiread_width",
            Ratio(double(after.io.multiread_subreads - before.io.multiread_subreads),
                  double(after.io.multiread_batches - before.io.multiread_batches)));
  layer.Num("lsm.readahead_hit_ratio",
            Ratio(double(after.readahead_hits - before.readahead_hits),
                  double(after.readahead_blocks - before.readahead_blocks)));
  layer.Num("lsm.flushes_per_kput",
            Ratio(1000.0 * double(after.flushes - before.flushes), dputs));
  layer.Num("lsm.compaction_bytes_in_per_user_byte",
            Ratio(double(after.compaction_bytes_in - before.compaction_bytes_in),
                  double(put_user_bytes)));
  layer.Num("lsm.flush_stall_us_per_put", Ratio(double(flush_stall_ns) / 1e3, dputs));
  layer.Num("lsm.levels", double(levels));
  layer.Num("auth.path_cache_hit_ratio",
            Ratio(double(after.path.hits - before.path.hits),
                  double(after.path.lookups - before.path.lookups)));
  layer.Num("auth.path_nodes_hashed_per_get",
            Ratio(double(after.path.path_nodes_hashed - before.path.path_nodes_hashed),
                  double(queries)));
  layer.Num("crypto.bytes_hashed_per_op",
            Ratio(double(after.enclave.bytes_hashed - before.enclave.bytes_hashed), dops));
  layer.Num("crypto.bytes_hashed_per_loaded_byte",
            Ratio(double(after_load.enclave.bytes_hashed - before_load.enclave.bytes_hashed),
                  double(loaded_bytes)));
  layer.Num("sgxsim.ecalls_per_op",
            Ratio(double(after.enclave.ecalls - before.enclave.ecalls), dops));
  layer.Num("sgxsim.ocalls_per_op",
            Ratio(double(after.enclave.ocalls - before.enclave.ocalls), dops));
  layer.Num("sgxsim.epc_faults_per_op",
            Ratio(double(after.enclave.epc_faults - before.enclave.epc_faults), dops));
  layer.Num("sgxsim.bytes_copied_per_op",
            Ratio(double(after.enclave.bytes_copied - before.enclave.bytes_copied), dops));

  if (cfg.trace) {
    TraceSummary t = Summarize(clients);
    const double tops = double(t.ops);
    const double tputs = double(t.puts);
    layer.Num("storage.read_calls_per_op", Ratio(double(t.read_calls), tops));
    layer.Num("storage.read_us_per_op", Ratio(double(t.read_ns) / 1e3, tops));
    layer.Num("storage.sync_us_per_put", Ratio(double(t.sync_ns) / 1e3, tputs));
    layer.Num("storage.wal_append_us_per_put", Ratio(double(t.wal_append_ns) / 1e3, tputs));
    layer.Num("storage.write_us_per_put", Ratio(double(t.write_ns) / 1e3, tputs));
    layer.Num("storage.write_amp",
              Ratio(double(after.fs_bytes_written - before.fs_bytes_written),
                    double(put_user_bytes)));
    const char* span_names[3] = {"elsm.get", "elsm.put", "elsm.scan"};
    for (int k = 0; k < 3; ++k) {
      layer.Num(std::string(span_names[k]) + "_us", Percentile(t.op_ns[k], 50) / 1e3);
      layer.Num(std::string(span_names[k]) + "_self_us", Percentile(t.self_ns[k], 50) / 1e3);
    }
    const double untraced_rate = Median(slice_rates[0]);
    const double traced_rate = Median(slice_rates[1]);
    layer.Num("trace.overhead_frac", Ratio(untraced_rate - traced_rate, untraced_rate));
    out.Num("traced_ops", tops);
    out.Num("spans_dropped", double(t.dropped));
    if (!cfg.spans_file.empty()) WriteSpans(cfg.spans_file, clients);
  }

  // Properties that justify each workload; a run that violates its own
  // premise measures something else and must not report numbers.
  std::vector<std::string> violations;
  const uint64_t batches = after.io.multiread_batches - before.io.multiread_batches;
  if (w.name == "read-hot-zipf") {
    const uint64_t ev = after.cache.evictions - before.cache.evictions;
    if (ev != 0) violations.push_back(std::to_string(ev) + " read-cache evictions in the timed phase (want 0)");
  }
  if (w.name == "update-heavy-uniform") {
    const uint64_t flushes = after.flushes - before.flushes;
    if (double(disk_bytes_before) < 2.5 * double(options.read_buffer_bytes)) {
      violations.push_back("store holds " + std::to_string(disk_bytes_before) +
                           " bytes on disk, under 2.5x the read cache");
    }
    if (flushes < 20) {
      violations.push_back(std::to_string(flushes) + " flushes in the timed phase (want >= 20)");
    }
  }
  if (w.name == "scan-zipf" ? batches == 0 : batches != 0) {
    violations.push_back(std::to_string(batches) + " MultiRead batches in the timed phase (want " +
                         (w.name == "scan-zipf" ? "> 0)" : "0)"));
  }
  std::string props = "[";
  for (size_t i = 0; i < violations.size(); ++i) {
    props += (i ? ", \"" : "\"") + JsonEscape(violations[i]) + "\"";
  }
  props += "]";
  out.Raw("violations", cfg.check_properties ? props : "[]");
  out.Raw("samples", samples.str());
  out.Raw("e2e", e2e.str());
  out.Raw("layer", layer.str());

  if (elsm::Status s = db->Close(); !s.ok()) Die("close: " + s.ToString());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
