#include "elsm/manifest_log.h"

#include <cstring>

#include "common/coding.h"
#include "sgxsim/sealed.h"

namespace elsm::manifest {
namespace {

// Domain tag leading every record payload ("ELSMLOG1"), so a manifest
// record can never parse as some other sealed blob and vice versa.
constexpr uint64_t kMagic = 0x31474f4c4d534c45ull;

enum RecordKind : uint8_t {
  kSnapshot = 1,  // full state; the authoritative file after install
  kDelta = 2,     // incremental record appended to the tail
};

struct RecordHeader {
  RecordKind kind = kSnapshot;
  uint64_t seq = 0;
  crypto::Hash256 prev_chain = crypto::kZeroHash;
  uint64_t counter = 0;
};

// magic | kind | seq | prev_chain | counter
constexpr size_t kHeaderBytes = 8 + 1 + 8 + 32 + 8;

void PutHeader(std::string* dst, const RecordHeader& header) {
  PutFixed64(dst, kMagic);
  dst->push_back(static_cast<char>(header.kind));
  PutFixed64(dst, header.seq);
  dst->append(reinterpret_cast<const char*>(header.prev_chain.data()), 32);
  PutFixed64(dst, header.counter);
}

bool GetHeader(std::string_view input, RecordHeader* header) {
  uint64_t magic = 0;
  if (!GetFixed64(&input, &magic) || magic != kMagic) return false;
  if (input.empty()) return false;
  const uint8_t kind = static_cast<uint8_t>(input.front());
  input.remove_prefix(1);
  if (kind != kSnapshot && kind != kDelta) return false;
  header->kind = static_cast<RecordKind>(kind);
  if (!GetFixed64(&input, &header->seq) || input.size() < 32) return false;
  std::memcpy(header->prev_chain.data(), input.data(), 32);
  input.remove_prefix(32);
  return GetFixed64(&input, &header->counter);
}

// Unseals one record and checks that it holds the kind of its position
// before anything reads the body. On success *payload is the whole
// plaintext (header included).
Status OpenRecord(std::string_view sealing_key, std::string_view sealed,
                  RecordKind kind, const std::string& what,
                  RecordHeader* header, std::string* payload) {
  const std::string where = kind == kSnapshot ? what : what + " edit record";
  auto unsealed = sgx::Unseal(sealing_key, sealed);
  if (!unsealed.ok()) {
    return Status::AuthFailure(where + " seal broken: " +
                               unsealed.status().message());
  }
  if (!GetHeader(unsealed.value(), header)) {
    return Status::Corruption("bad " + where);
  }
  if (header->kind != kind) {
    return Status::AuthFailure(
        where + (kind == kSnapshot ? " holds a delta record"
                                   : " holds a snapshot record") +
        " (spliced log)");
  }
  *payload = std::move(unsealed).value();
  return Status::Ok();
}

std::string Body(std::string payload) {
  payload.erase(0, kHeaderBytes);
  return payload;
}

// Splits a tail into complete frames. A trailing partial frame is a torn
// final append: it is dropped and *torn set. Everything before it is intact
// (each acknowledged append was synced before the next).
std::vector<std::string_view> SplitFrames(std::string_view raw, bool* torn) {
  *torn = false;
  std::vector<std::string_view> frames;
  while (!raw.empty()) {
    std::string_view cursor = raw;
    uint32_t len = 0;
    if (!GetFixed32(&cursor, &len) || cursor.size() < len) {
      *torn = true;
      break;
    }
    frames.push_back(cursor.substr(0, len));
    raw = cursor.substr(len);
  }
  return frames;
}

std::string TailName(const std::string& prefix, uint64_t generation) {
  return prefix + "-" + std::to_string(generation);
}

}  // namespace

void PutStoreState(std::string* dst, const StoreState& state) {
  PutFixed64(dst, state.last_ts);
  PutFixed64(dst, state.flushed_ts);
  dst->append(reinterpret_cast<const char*>(state.wal_digest.data()), 32);
  PutFixed64(dst, state.wal_count);
}

bool GetStoreState(std::string_view* input, StoreState* state) {
  if (!GetFixed64(input, &state->last_ts) ||
      !GetFixed64(input, &state->flushed_ts) || input->size() < 32) {
    return false;
  }
  std::memcpy(state->wal_digest.data(), input->data(), 32);
  input->remove_prefix(32);
  return GetFixed64(input, &state->wal_count);
}

Status ReadLogImage(const storage::Fs& fs, std::string_view sealing_key,
                    const std::string& snapshot_name,
                    const std::string& tail_prefix, const std::string& what,
                    LogImage* image) {
  *image = LogImage{};
  image->snapshot = fs.Blob(snapshot_name);
  if (image->snapshot == nullptr) return Status::Ok();
  RecordHeader header;
  std::string payload;
  Status s = OpenRecord(sealing_key, *image->snapshot, kSnapshot, what,
                        &header, &payload);
  if (!s.ok()) return s;
  image->bodies.push_back(Body(std::move(payload)));
  image->tail = fs.Blob(TailName(tail_prefix, header.seq));
  if (image->tail == nullptr) return Status::Ok();
  bool torn = false;
  for (std::string_view frame : SplitFrames(*image->tail, &torn)) {
    s = OpenRecord(sealing_key, frame, kDelta, what, &header, &payload);
    if (!s.ok()) return s;
    image->bodies.push_back(Body(std::move(payload)));
  }
  return Status::Ok();
}

ManifestLog::ManifestLog(Config config, const Options& options)
    : config_(std::move(config)),
      tmp_name_(config_.snapshot_name + ".tmp"),
      sync_writes_(options.sync_writes),
      snapshot_edits_(options.manifest_snapshot_edits),
      snapshot_bytes_(options.manifest_snapshot_bytes),
      retry_(options.io_retry) {}

std::string ManifestLog::tail_name() const {
  return TailName(config_.tail_prefix, generation_);
}

bool ManifestLog::IsLogFile(const std::string& name) const {
  return name == config_.snapshot_name || name == tmp_name_ ||
         name == tail_name();
}

void ManifestLog::DropStaleTails() {
  storage::Fs& fs = *config_.fs;
  for (const std::string& name : fs.List(config_.tail_prefix + "-")) {
    if (name != tail_name()) (void)fs.Delete(name);
  }
}

Status ManifestLog::Recover(Replay* replay) {
  *replay = Replay{};
  storage::Fs& fs = *config_.fs;
  const std::string& what = config_.what;
  // A crash can strand a half-written tmp; the atomic rename means it was
  // never the authoritative copy.
  if (fs.Exists(tmp_name_)) (void)fs.Delete(tmp_name_);

  if (!fs.Exists(config_.snapshot_name)) {
    const uint64_t hw = config_.counter->Read();
    if (hw > 0) {
      // The counter bumps only after a durable record, so the host dropped
      // the log wholesale.
      return Status::RollbackDetected(
          what + " vanished: hardware counter is " + std::to_string(hw) +
          " but no sealed " + what + " exists");
    }
    if (!fs.List(config_.tail_prefix + "-").empty()) {
      // The first record is always a snapshot and installs only replace
      // it, so no honest history has a tail without its snapshot.
      return Status::AuthFailure(what +
                                 " edit log present but its snapshot vanished");
    }
    return Status::Ok();  // fresh, or a crash before the first persist
  }

  auto sealed = fs.ReadAll(config_.snapshot_name);
  if (!sealed.ok()) return sealed.status();
  RecordHeader header;
  std::string payload;
  Status s = OpenRecord(config_.sealing_key, sealed.value(), kSnapshot, what,
                        &header, &payload);
  if (!s.ok()) return s;
  config_.enclave->ChargeHash(payload.size());
  crypto::Hash256 chain = crypto::Sha256::Digest(payload);
  uint64_t seq = header.seq;
  uint64_t counter = header.counter;
  const uint64_t generation = header.seq;
  replay->snapshot = Body(std::move(payload));

  // Replay the generation's tail: each complete frame must unseal as a
  // delta, carry the next seq, chain over the previous payload and not
  // regress the counter. A trailing partial frame is crash debris.
  uint64_t tail_records = 0;
  uint64_t tail_bytes = 0;
  bool torn = false;
  const std::string tail = TailName(config_.tail_prefix, generation);
  if (fs.Exists(tail)) {
    auto raw = fs.ReadAll(tail);
    if (!raw.ok()) return raw.status();
    for (std::string_view frame : SplitFrames(raw.value(), &torn)) {
      RecordHeader record;
      s = OpenRecord(config_.sealing_key, frame, kDelta, what, &record,
                     &payload);
      if (!s.ok()) return s;
      const std::string at = std::to_string(record.seq);
      if (record.seq != seq + 1) {
        return Status::AuthFailure(what + " edit log sequence break: record " +
                                   at + " after " + std::to_string(seq) +
                                   " (reordered or spliced records)");
      }
      if (record.prev_chain != chain) {
        return Status::AuthFailure(what + " edit log chain mismatch at record " +
                                   at);
      }
      if (record.counter < counter) {
        return Status::AuthFailure(
            what + " edit log counter regressed at record " + at);
      }
      config_.enclave->ChargeHash(payload.size());
      chain = crypto::Sha256::Digest(payload);
      seq = record.seq;
      counter = record.counter;
      ++tail_records;
      tail_bytes += 4 + frame.size();
      replay->deltas.push_back(Body(std::move(payload)));
    }
  }

  // Adjudicate on the newest acknowledged record: dropped torn debris
  // never had its bump.
  const uint64_t hw = config_.counter->Read();
  if (counter < hw) {
    return Status::RollbackDetected(what + " log counter " +
                                    std::to_string(counter) +
                                    " behind hardware counter " +
                                    std::to_string(hw));
  }
  if (counter == hw + 1) {
    // Crash window: the record landed, the bump did not. The host cannot
    // forge a counter inside the seal, so sync the hardware to it.
    config_.counter->Increment();
  } else if (counter > hw) {
    return Status::Corruption(what + " log counter ahead of hardware");
  }

  seq_ = seq;
  chain_ = chain;
  generation_ = generation;
  tail_records_ = tail_records;
  tail_bytes_ = tail_bytes;
  have_snapshot_ = true;
  force_snapshot_ = torn;
  tail_dir_synced_ = false;
  replay->found = true;
  return Status::Ok();
}

Status ManifestLog::Persist(bool bump, const BodyWriter& body,
                            Written* written,
                            common::RetryStats* retry_stats) {
  // A transiently failed snapshot install re-runs as the same idempotent
  // atomic replace; a transiently failed append set force_snapshot_, so the
  // retry installs a fresh-generation snapshot. A raw append is never
  // blindly retried.
  Written ignored;
  Written* out = written != nullptr ? written : &ignored;
  return common::RunWithRetry(
      retry_, [&] { return PersistOnce(bump, body, out); },
      [this](uint64_t ns) { config_.enclave->Advance(ns); }, retry_stats);
}

Status ManifestLog::PersistOnce(bool bump, const BodyWriter& body,
                                Written* written) {
  storage::Fs& fs = *config_.fs;
  const bool snapshot = !have_snapshot_ || force_snapshot_ ||
                        snapshot_edits_ == 0 ||
                        tail_records_ >= snapshot_edits_ ||
                        tail_bytes_ >= snapshot_bytes_;
  RecordHeader header;
  header.kind = snapshot ? kSnapshot : kDelta;
  header.seq = seq_ + 1;
  header.prev_chain = chain_;
  // The post-bump value; the bump itself waits until the record is
  // durable, so a crash never leaves the hardware ahead of every record.
  header.counter = config_.counter->Read() + (bump ? 1 : 0);
  std::string payload;
  PutHeader(&payload, header);
  body(snapshot, &payload);
  config_.enclave->ChargeHash(payload.size());  // seal MAC
  config_.enclave->ChargeHash(payload.size());  // chain digest
  config_.enclave->ChargeOcall();
  std::string sealed = sgx::Seal(config_.sealing_key, payload);

  if (snapshot) {
    written->bytes = sealed.size();
    Status s = fs.Write(tmp_name_, std::move(sealed));
    if (!s.ok()) return s;
    if (sync_writes_) {
      s = fs.Sync(tmp_name_);
      if (!s.ok()) return s;
    }
    s = fs.Rename(tmp_name_, config_.snapshot_name);
    if (!s.ok()) return s;
    if (sync_writes_) {
      s = fs.SyncDir();
      if (!s.ok()) return s;
    }
    // The new snapshot supersedes every earlier generation's tail.
    generation_ = header.seq;
    DropStaleTails();
    tail_records_ = 0;
    tail_bytes_ = 0;
    have_snapshot_ = true;
    force_snapshot_ = false;
    tail_dir_synced_ = false;
  } else {
    std::string frame;
    PutFixed32(&frame, static_cast<uint32_t>(sealed.size()));
    frame += sealed;
    written->bytes = frame.size();
    if (sync_writes_) {
      // Namespace barrier before the record lands: the files it references
      // were fsynced, but their directory entries are durable only after
      // SyncDir (fs.h contract).
      Status s = fs.SyncDir();
      if (!s.ok()) return s;
    }
    // From here a failure may leave a partial frame: never append after it.
    const std::string tail = tail_name();
    Status s = fs.Append(tail, frame);
    if (s.ok() && sync_writes_) s = fs.Sync(tail);
    if (s.ok() && sync_writes_ && !tail_dir_synced_) {
      s = fs.SyncDir();
      tail_dir_synced_ = s.ok();
    }
    if (!s.ok()) {
      force_snapshot_ = true;
      return s;
    }
    ++tail_records_;
    tail_bytes_ += frame.size();
  }
  written->snapshot = snapshot;
  seq_ = header.seq;
  chain_ = crypto::Sha256::Digest(payload);
  if (bump) {
    config_.counter->Increment();
    config_.enclave->ChargeCounterBump();
  }
  return Status::Ok();
}

}  // namespace elsm::manifest
