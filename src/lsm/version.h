// Level / file metadata — the enclave-resident index structures (paper
// Fig. 1: "Index" inside the enclave; §4.2: metadata grows sublinearly and
// fits the EPC) — plus the copy-on-write version machinery that lets reads
// run lock-free while the untrusted host compacts.
//
// The engine treats the auth fields (root, leaf_count, tree_file) as opaque
// seal data installed by a CompactionListener; the vanilla engine leaves
// them empty. This is what keeps authentication an add-on (§5.5.3).
//
// A Version is an immutable snapshot of the whole level stack. The engine
// publishes the current Version behind a shared_ptr swap; readers copy the
// pointer under a brief shared lock and then search sealed SSTables with no
// lock at all. FileTracker refcounts the files each live Version pins, so
// compaction can retire its inputs immediately while snapshot holders keep
// reading them (LevelDB-style deferred deletion).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "crypto/sha256.h"
#include "lsm/bloom.h"
#include "storage/fs.h"

namespace elsm::lsm {

struct BlockHandle {
  uint64_t offset = 0;
  uint64_t size = 0;
  uint32_t num_entries = 0;
  std::string first_key;
  // The block's one integrity tag: the SHA-256 of its bytes, sealed into
  // the snapshot metadata at build time (kZeroHash in a store that never
  // checks blocks). LsmEngine::CheckBlock compares loads with it.
  crypto::Hash256 digest = crypto::kZeroHash;
};

// An object a reader builds for a file or level on first use and hangs on
// its metadata. Every copy of the FileMeta or LevelMeta shares the slot, so
// each Version that carries it unchanged reuses one object, and the last
// such Version to die frees it. Readers after the first take no lock.
class Attachment {
 public:
  // The attached T, built by `make` (returning Result<T>) on first use. A
  // failed build attaches nothing, so a later call retries. Every caller
  // of one slot must ask for the same T.
  template <class T, class Make>
  Result<const T*> GetOrMake(Make make) {
    if (const void* object = object_.load(std::memory_order_acquire)) {
      return static_cast<const T*>(object);
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (owner_ == nullptr) {
      Result<T> made = make();
      if (!made.ok()) return made.status();
      owner_ = std::make_shared<const T>(std::move(made).value());
      object_.store(owner_.get(), std::memory_order_release);
    }
    return static_cast<const T*>(owner_.get());
  }
  bool attached() const {
    return object_.load(std::memory_order_acquire) != nullptr;
  }

 private:
  std::mutex mu_;
  std::shared_ptr<const void> owner_;
  std::atomic<const void*> object_{nullptr};
};

struct FileMeta {
  std::string name;
  std::string smallest;
  std::string largest;
  uint64_t size = 0;
  uint64_t num_records = 0;
  std::vector<BlockHandle> blocks;
  // The file's storage::MmapRegion, mapped by the mmap read path on first
  // use.
  std::shared_ptr<Attachment> mmap = std::make_shared<Attachment>();
};

struct LevelMeta {
  std::vector<FileMeta> files;
  uint64_t num_records = 0;
  uint64_t bytes = 0;
  BloomFilter bloom;

  // --- authentication seal (opaque to the engine) ---
  crypto::Hash256 root = crypto::kZeroHash;
  uint64_t leaf_count = 0;      // distinct keys in the level
  std::string tree_file;        // untrusted Merkle-node sidecar
  // tree_file opened as a crypto::MerkleTree by the proof assembler on
  // first use.
  std::shared_ptr<Attachment> sidecar = std::make_shared<Attachment>();

  // Approximate enclave-metadata footprint of this level (indexes+bloom).
  uint64_t MetadataBytes() const;

  std::string Encode() const;
  static Result<LevelMeta> Decode(std::string_view* input);
};

// Serialize/restore the whole level stack (the manifest payload; the elsm
// facade seals it and binds it to the monotonic counter).
std::string EncodeLevels(const std::vector<LevelMeta>& levels);
Result<std::vector<LevelMeta>> DecodeLevels(std::string_view input);

// The delta one structural change (a flush or one compaction step) applies
// to the level stack: an ordered sequence of level-slot operations plus the
// file-number high-water mark. The ops mirror the install sequence of
// LsmEngine::CompactStep — clear the merged-away upper levels in place,
// then set or insert the freshly built level — so replaying them over the
// previous stack reproduces the new one exactly (same files, blooms and
// auth seals). O(touched levels) to encode, vs O(all files) for a full
// EncodeLevels snapshot: this is what makes the facade's manifest log
// constant-cost per mutation.
struct VersionEdit {
  enum class OpKind : uint8_t { kSet = 0, kInsert = 1 };
  struct LevelOp {
    OpKind kind = OpKind::kSet;
    uint32_t pos = 0;
    LevelMeta level;
  };

  uint64_t next_file_no = 0;
  std::vector<LevelOp> ops;

  std::string Encode() const;
  static Result<VersionEdit> Decode(std::string_view input);
  // Replays the edit over `levels` in place. Fails (without a partial
  // mutation having semantic meaning) when an op addresses a slot the
  // stack does not have — a record replayed against the wrong base.
  Status ApplyTo(std::vector<LevelMeta>* levels) const;
};

// Thread-safe refcount of the on-disk files live Versions pin. A file
// becomes deletable once it is both obsolete (dropped from the current
// version by a compaction) and unreferenced (the last snapshot that could
// read it has been released). Deletable files are *parked*, not unlinked;
// PurgeParked() performs the physical deletes. The facade purges only after
// the manifest that stops referencing those files is durable — otherwise a
// crash between a compaction's version swap and its manifest persist would
// leave the recovered (old) manifest pointing at vanished files.
class FileTracker {
 public:
  explicit FileTracker(std::shared_ptr<storage::Fs> fs) : fs_(std::move(fs)) {}

  void Ref(const std::string& name);
  void Unref(const std::string& name);
  // Marks `name` dead-on-last-unref; parks it at once if unreferenced.
  void MarkObsolete(const std::string& name);
  // Physically deletes every parked file and returns their names (for
  // cache invalidation). Call once the manifest no longer referencing them
  // has been persisted.
  std::vector<std::string> PurgeParked();

 private:
  std::shared_ptr<storage::Fs> fs_;
  std::mutex mu_;
  std::map<std::string, int> refs_;
  std::set<std::string> obsolete_;
  std::set<std::string> parked_;  // deletable, awaiting a durable manifest
};

// An immutable snapshot of the level stack. Construction pins every SSTable
// and tree-sidecar file in the tracker; destruction unpins them, which may
// park compacted-away inputs for deletion.
class Version {
 public:
  Version(std::vector<LevelMeta> levels, std::shared_ptr<FileTracker> tracker);
  ~Version();

  Version(const Version&) = delete;
  Version& operator=(const Version&) = delete;

  const std::vector<LevelMeta>& levels() const { return levels_; }

 private:
  void ForEachFile(const std::function<void(const std::string&)>& fn) const;

  std::vector<LevelMeta> levels_;
  std::shared_ptr<FileTracker> tracker_;
};

}  // namespace elsm::lsm
