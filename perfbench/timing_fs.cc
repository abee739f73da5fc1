#include "timing_fs.h"

#include <chrono>

namespace perfbench {
namespace {

thread_local SpanLog* tls_log = nullptr;

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

// Times one Fs call on the calling thread when a traced op is open there.
class ChildSpan {
 public:
  ChildSpan(SpanKind kind, std::string_view file, uint32_t count = 1)
      : log_(tls_log != nullptr && tls_log->current_op != 0 ? tls_log
                                                             : nullptr) {
    if (log_ == nullptr) return;
    span_.op_id = log_->current_op;
    span_.kind = kind;
    span_.file = ClassifyFile(file);
    span_.count = count;
    span_.start_ns = NowNs();
  }
  ~ChildSpan() {
    if (log_ == nullptr) return;
    span_.end_ns = NowNs();
    log_->Add(span_);
  }
  ChildSpan(const ChildSpan&) = delete;
  ChildSpan& operator=(const ChildSpan&) = delete;

  void set_bytes(uint64_t bytes) { span_.bytes = bytes; }

 private:
  SpanLog* log_;
  Span span_;
};

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kGet:
      return "elsm.get";
    case SpanKind::kPut:
      return "elsm.put";
    case SpanKind::kScan:
      return "elsm.scan";
    case SpanKind::kRead:
      return "storage.read";
    case SpanKind::kReadAll:
      return "storage.read_all";
    case SpanKind::kMultiRead:
      return "storage.multiread";
    case SpanKind::kBlob:
      return "storage.blob";
    case SpanKind::kAppend:
      return "storage.append";
    case SpanKind::kWrite:
      return "storage.write";
    case SpanKind::kSync:
      return "storage.sync";
    case SpanKind::kSyncDir:
      return "storage.syncdir";
    case SpanKind::kRename:
      return "storage.rename";
  }
  return "?";
}

const char* FileKindName(FileKind kind) {
  switch (kind) {
    case FileKind::kNone:
      return "-";
    case FileKind::kWal:
      return "wal";
    case FileKind::kSst:
      return "sst";
    case FileKind::kTree:
      return "tree";
    case FileKind::kManifest:
      return "manifest";
    case FileKind::kOther:
      return "other";
  }
  return "?";
}

FileKind ClassifyFile(std::string_view name) {
  if (name.empty()) return FileKind::kNone;
  if (EndsWith(name, "/wal")) return FileKind::kWal;
  if (EndsWith(name, ".sst")) return FileKind::kSst;
  if (EndsWith(name, ".tree")) return FileKind::kTree;
  if (name.find("/MANIFEST") != std::string_view::npos ||
      name.find("/EDITS-") != std::string_view::npos) {
    return FileKind::kManifest;
  }
  return FileKind::kOther;
}

void BindSpanLog(SpanLog* log) { tls_log = log; }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TimingFs::TimingFs(std::shared_ptr<elsm::storage::Fs> base)
    : Fs(base->enclave_shared()), base_(std::move(base)) {}

elsm::Status TimingFs::Write(const std::string& name, std::string contents) {
  const uint64_t bytes = contents.size();
  bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
  ChildSpan span(SpanKind::kWrite, name);
  span.set_bytes(bytes);
  return base_->Write(name, std::move(contents));
}

elsm::Status TimingFs::Append(const std::string& name, std::string_view data) {
  bytes_written_.fetch_add(data.size(), std::memory_order_relaxed);
  ChildSpan span(SpanKind::kAppend, name);
  span.set_bytes(data.size());
  return base_->Append(name, data);
}

elsm::Result<std::string> TimingFs::Read(const std::string& name,
                                         uint64_t offset, uint64_t len) const {
  ChildSpan span(SpanKind::kRead, name);
  auto got = base_->Read(name, offset, len);
  if (got.ok()) span.set_bytes(got.value().size());
  return got;
}

std::vector<elsm::Result<std::string>> TimingFs::MultiRead(
    const std::vector<elsm::storage::ReadRequest>& requests) const {
  ChildSpan span(SpanKind::kMultiRead,
                 requests.empty() ? std::string_view() : requests[0].name,
                 static_cast<uint32_t>(requests.size()));
  auto got = base_->MultiRead(requests);
  uint64_t bytes = 0;
  for (const auto& r : got) {
    if (r.ok()) bytes += r.value().size();
  }
  span.set_bytes(bytes);
  return got;
}

elsm::Result<std::string> TimingFs::ReadAll(const std::string& name) const {
  ChildSpan span(SpanKind::kReadAll, name);
  auto got = base_->ReadAll(name);
  if (got.ok()) span.set_bytes(got.value().size());
  return got;
}

elsm::Result<uint64_t> TimingFs::FileSize(const std::string& name) const {
  return base_->FileSize(name);
}

elsm::Status TimingFs::Delete(const std::string& name) {
  return base_->Delete(name);
}

elsm::Status TimingFs::Rename(const std::string& from, const std::string& to) {
  ChildSpan span(SpanKind::kRename, to);
  return base_->Rename(from, to);
}

elsm::Status TimingFs::Truncate(const std::string& name, uint64_t size) {
  return base_->Truncate(name, size);
}

elsm::Status TimingFs::Sync(const std::string& name) {
  ChildSpan span(SpanKind::kSync, name);
  return base_->Sync(name);
}

elsm::Status TimingFs::SyncDir() {
  ChildSpan span(SpanKind::kSyncDir, std::string_view());
  return base_->SyncDir();
}

bool TimingFs::Exists(const std::string& name) const {
  return base_->Exists(name);
}

std::vector<std::string> TimingFs::List(std::string_view prefix) const {
  return base_->List(prefix);
}

std::shared_ptr<const std::string> TimingFs::Blob(
    const std::string& name) const {
  ChildSpan span(SpanKind::kBlob, name);
  auto blob = base_->Blob(name);
  if (blob != nullptr) span.set_bytes(blob->size());
  return blob;
}

bool TimingFs::Corrupt(const std::string& name, size_t offset, uint8_t mask) {
  return base_->Corrupt(name, offset, mask);
}

void TimingFs::set_enclave(std::shared_ptr<elsm::sgx::Enclave> enclave) {
  base_->set_enclave(enclave);
  Fs::set_enclave(std::move(enclave));
}

}  // namespace perfbench
