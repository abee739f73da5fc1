// Span tracing for the benchmark's traced run.
//
// A client thread binds a SpanLog, opens an op (SpanLog::current_op != 0)
// around each ElsmDb call and records the op span itself when the call
// returns. TimingFs, a storage::Fs decorator, records one child span per
// Read, ReadAll, MultiRead, Blob, Append, Write, Sync, SyncDir and Rename
// issued while an op is open on the calling thread, tagged with that op's
// id and the kind of file it touched. Spans stay in memory until the run
// ends.
//
// TimingFs forwards every virtual of storage::Fs (Blob, MultiRead and
// set_enclave included, like FaultFs does), so the io_uring batch path and
// the enclave re-homing on Open behave exactly as on the bare backend.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "storage/fs.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  // Op spans, recorded by the client around one ElsmDb call.
  kGet,
  kPut,
  kScan,
  // Child spans, recorded by TimingFs.
  kRead,
  kReadAll,
  kMultiRead,
  kBlob,
  kAppend,
  kWrite,
  kSync,
  kSyncDir,
  kRename,
};
const char* SpanKindName(SpanKind kind);
inline bool IsOpSpan(SpanKind kind) { return kind <= SpanKind::kScan; }

// Which store file a child span touched, from its name.
enum class FileKind : uint8_t { kNone, kWal, kSst, kTree, kManifest, kOther };
const char* FileKindName(FileKind kind);
FileKind ClassifyFile(std::string_view name);

struct Span {
  uint64_t op_id = 0;
  SpanKind kind = SpanKind::kGet;
  FileKind file = FileKind::kNone;
  uint32_t count = 1;  // sub-reads of a MultiRead, 1 otherwise
  uint64_t bytes = 0;  // payload read or written
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// One thread's spans. Spans of an op are appended in time order: its
// children first, then the op span itself.
struct SpanLog {
  static constexpr size_t kMaxSpans = size_t{1} << 21;

  uint64_t current_op = 0;  // 0: no traced op open on this thread
  std::vector<Span> spans;
  uint64_t dropped = 0;  // spans not kept once kMaxSpans was reached

  void Add(const Span& span) {
    if (spans.size() < kMaxSpans) {
      spans.push_back(span);
    } else {
      ++dropped;
    }
  }
};

// Binds `log` as the calling thread's span sink (nullptr unbinds).
void BindSpanLog(SpanLog* log);

int64_t NowNs();

class TimingFs : public elsm::storage::Fs {
 public:
  explicit TimingFs(std::shared_ptr<elsm::storage::Fs> base);

  // Bytes handed to Write and Append since construction, traced or not.
  uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }

  elsm::Status Write(const std::string& name, std::string contents) override;
  elsm::Status Append(const std::string& name, std::string_view data) override;
  elsm::Result<std::string> Read(const std::string& name, uint64_t offset,
                                 uint64_t len) const override;
  std::vector<elsm::Result<std::string>> MultiRead(
      const std::vector<elsm::storage::ReadRequest>& requests) const override;
  elsm::Result<std::string> ReadAll(const std::string& name) const override;
  elsm::Result<uint64_t> FileSize(const std::string& name) const override;
  elsm::Status Delete(const std::string& name) override;
  elsm::Status Rename(const std::string& from, const std::string& to) override;
  elsm::Status Truncate(const std::string& name, uint64_t size) override;
  elsm::Status Sync(const std::string& name) override;
  elsm::Status SyncDir() override;
  bool Exists(const std::string& name) const override;
  std::vector<std::string> List(std::string_view prefix) const override;
  std::shared_ptr<const std::string> Blob(
      const std::string& name) const override;
  bool Corrupt(const std::string& name, size_t offset,
               uint8_t mask = 0x01) override;
  void set_enclave(std::shared_ptr<elsm::sgx::Enclave> enclave) override;

 private:
  std::shared_ptr<elsm::storage::Fs> base_;
  std::atomic<uint64_t> bytes_written_{0};
};

}  // namespace perfbench
