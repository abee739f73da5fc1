// The sealed manifest log (paper §5.6.1), the one implementation behind
// ElsmDb's per-store manifest (MANIFEST + EDITS-<g>) and ShardedDb's
// super-manifest (SUPER + SUPER-EDITS-<g>). A caller supplies its record
// body and applies the bodies replay hands back; the log position,
// sealing, cadence, crash-consistent writes, counter bump and every
// recovery check live here.
//
// Layout: a sealed *snapshot* file with the full state, plus an
// append-only *tail* "<tail_prefix>-<g>" of sealed delta records (g = the
// seq of the snapshot that opened the generation), one frame per append:
// Fixed32 length + sealed record. Every record payload is
//   magic | kind | seq | prev_chain | counter | caller body
// seq rises by 1 per record across snapshots, prev_chain is SHA-256 of the
// previous payload, counter is the post-bump monotonic counter value the
// record acknowledges. A reordered, duplicated, position-swapped or
// foreign-generation record breaks the seal, kind, seq or chain
// (AuthFailure); a stale but authentic log fails the counter
// (RollbackDetected).
//
// Persist: the first record, the first after a failed append, and every
// manifest_snapshot_edits records or manifest_snapshot_bytes tail bytes
// is a snapshot (tmp + Sync + Rename + SyncDir, then stale tails deleted).
// Otherwise one delta frame is appended behind a namespace barrier
// (SyncDir, so the files it references survive a crash), then synced,
// plus one SyncDir per generation for the tail's own entry. The counter
// bumps only after the record is durable. Options::io_retry wraps the
// persist; a failed append makes the retry install a snapshot instead.
//
// Recovery: only the final frame can be torn (an append is synced before
// its bump); it is dropped and the next persist supersedes the tail. A
// complete frame that fails to unseal is tampering. The newest record's
// counter c is adjudicated against the hardware's hw: c < hw is
// RollbackDetected, c == hw + 1 (crash before the bump) syncs the hardware
// up, c > hw + 1 is Corruption. With no snapshot, hw > 0 is
// RollbackDetected, a tail is AuthFailure, and anything else is fresh.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "crypto/sha256.h"
#include "elsm/options.h"
#include "sgxsim/counter.h"
#include "sgxsim/enclave.h"
#include "storage/fs.h"

namespace elsm::manifest {

// ElsmDb's body starts with the facade state recovery needs even when no
// level-stack change rode along; ShardedDb reads last_ts from it too.
struct StoreState {
  uint64_t last_ts = 0;
  uint64_t flushed_ts = 0;
  crypto::Hash256 wal_digest = crypto::kZeroHash;
  uint64_t wal_count = 0;
};

void PutStoreState(std::string* dst, const StoreState& state);
bool GetStoreState(std::string_view* input, StoreState* state);

// A log as an outside reader sees it: ShardedDb pins every shard's log in
// its super-manifest. Each record must carry the seal and the kind of its
// position (AuthFailure otherwise); seq, chain and counter are left to the
// owner's own recovery.
struct LogImage {
  // Raw snapshot and live-tail bytes; null when absent.
  std::shared_ptr<const std::string> snapshot;
  std::shared_ptr<const std::string> tail;
  // The snapshot's body, then each complete tail record's body.
  std::vector<std::string> bodies;
};
Status ReadLogImage(const storage::Fs& fs, std::string_view sealing_key,
                    const std::string& snapshot_name,
                    const std::string& tail_prefix, const std::string& what,
                    LogImage* image);

class ManifestLog {
 public:
  // Where the log lives and what binds it. The pointers must outlive it.
  struct Config {
    storage::Fs* fs = nullptr;
    // Charged for the seal, the chain hashes, the ocall and the bump.
    sgx::Enclave* enclave = nullptr;
    sgx::MonotonicCounter* counter = nullptr;
    std::string sealing_key;
    std::string snapshot_name;  // e.g. "<store>/MANIFEST"
    std::string tail_prefix;    // e.g. "<store>/EDITS"
    std::string what;           // e.g. "manifest", for error messages
  };
  // Takes sync_writes, io_retry and the manifest_snapshot_* cadence from
  // `options`.
  ManifestLog(Config config, const Options& options);

  // The bodies of a replayed log, oldest first.
  struct Replay {
    bool found = false;  // false: no record was ever made durable
    std::string snapshot;
    std::vector<std::string> deltas;
  };
  Status Recover(Replay* replay);

  // Appends the caller's body for the record kind the cadence picked.
  // Called once per attempt, so it must not consume state.
  using BodyWriter = std::function<void(bool snapshot, std::string* payload)>;
  struct Written {
    bool snapshot = false;
    uint64_t bytes = 0;  // sealed snapshot bytes or tail frame bytes
  };
  // Seals one record and makes it durable, then bumps the counter when
  // `bump`. `written` and `retry_stats` may be null.
  Status Persist(bool bump, const BodyWriter& body,
                 Written* written = nullptr,
                 common::RetryStats* retry_stats = nullptr);

  // True once the log has a snapshot and a tail that ends cleanly: a
  // record with an unchanged body would only burn a counter bump.
  bool clean() const { return have_snapshot_ && !force_snapshot_; }
  // The snapshot, its tmp file or the live tail.
  bool IsLogFile(const std::string& name) const;
  // Deletes the tails of superseded generations. Stale tails are ignored
  // by name, so this is cleanup, not correctness.
  void DropStaleTails();

 private:
  Status PersistOnce(bool bump, const BodyWriter& body, Written* written);
  std::string tail_name() const;

  Config config_;
  std::string tmp_name_;
  bool sync_writes_;
  uint32_t snapshot_edits_;
  uint64_t snapshot_bytes_;
  common::RetryPolicy retry_;

  // Log position: seq and payload hash of the newest sealed record, the
  // generation (seq of the current snapshot) naming the tail, and the
  // tail's cadence counters.
  uint64_t seq_ = 0;
  crypto::Hash256 chain_ = crypto::kZeroHash;
  uint64_t generation_ = 0;
  uint64_t tail_records_ = 0;
  uint64_t tail_bytes_ = 0;
  // The first persist must be a snapshot: a tail needs a base.
  bool have_snapshot_ = false;
  // The tail may end in garbage (a failed or torn append): the next
  // persist supersedes it with a fresh-generation snapshot.
  bool force_snapshot_ = false;
  // The live tail's directory entry is durable (one SyncDir per
  // generation, fs.h contract).
  bool tail_dir_synced_ = false;
};

}  // namespace elsm::manifest
