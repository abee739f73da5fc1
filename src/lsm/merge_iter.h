// Streaming compaction iterators (paper §5.5.2: the untrusted host merges
// levels while the enclave digests the stream).
//
// A RunIterator is a pull-based cursor over one sorted run (key asc, ts
// desc). LevelRunIterator streams a sealed on-disk level block by block —
// it pins at most one file image (zero-copy blob) and keeps one parsed
// block resident, which is what turns compaction memory from O(level) into
// O(blocks in flight). MergeIterator k-way-merges the runs and taps every
// entry once, in per-run order, so a listener can authenticate inputs
// incrementally without buffering them.
#pragma once

#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "lsm/record.h"
#include "lsm/sstable.h"
#include "lsm/version.h"

namespace elsm::lsm {

class RunIterator {
 public:
  virtual ~RunIterator() = default;

  // Positions on the first entry. Must be called once before use.
  virtual Status Init() = 0;
  virtual bool Valid() const = 0;
  virtual const Record& record() const = 0;
  // Exact stored bytes of the current record (what hash chains digest).
  virtual std::string_view core() const = 0;
  virtual std::string_view proof() const = 0;
  // Moves the current record out. The iterator must be advanced (Next)
  // before the next record()/core() access.
  virtual Record TakeRecord() = 0;
  virtual Status Next() = 0;
  // Bytes of parsed entries currently buffered by this iterator — the
  // streaming-memory gauge (excludes zero-copy file blobs shared with the
  // filesystem).
  virtual uint64_t resident_bytes() const = 0;
};

// A run held fully in memory: the memtable run of a flush, or one shard's
// verified scan result in ShardedDb::Scan's k-way merge.
class VectorRunIterator : public RunIterator {
 public:
  explicit VectorRunIterator(std::vector<RawEntry> run);

  Status Init() override;
  bool Valid() const override { return pos_ < run_.size(); }
  const Record& record() const override { return run_[pos_].record; }
  std::string_view core() const override { return run_[pos_].core; }
  std::string_view proof() const override { return run_[pos_].proof_blob; }
  Record TakeRecord() override { return std::move(run_[pos_].record); }
  Status Next() override;
  uint64_t resident_bytes() const override { return resident_bytes_; }

 private:
  std::vector<RawEntry> run_;
  size_t pos_ = 0;
  uint64_t resident_bytes_ = 0;
};

// Streams a sealed level file by file, block by block. The callbacks keep
// the iterator free of engine state: `opener` maps a file to its byte image
// (and charges the OCall/mmap), `check` charges the per-block read and
// checks the block against its sealed digest in protected mode (P1).
class LevelRunIterator : public RunIterator {
 public:
  using FileOpener = std::function<Result<std::shared_ptr<const std::string>>(
      const FileMeta&)>;
  using BlockCheck = std::function<Status(const FileMeta&, const BlockHandle&,
                                          std::string_view)>;

  LevelRunIterator(const LevelMeta* level, FileOpener opener, BlockCheck check);

  Status Init() override;
  bool Valid() const override { return valid_; }
  const Record& record() const override { return entries_[ei_].record; }
  std::string_view core() const override { return entries_[ei_].core; }
  std::string_view proof() const override { return entries_[ei_].proof_blob; }
  Record TakeRecord() override { return std::move(entries_[ei_].record); }
  Status Next() override;
  uint64_t resident_bytes() const override { return resident_bytes_; }

 private:
  // Loads blocks until one yields entries or the level is exhausted.
  Status LoadNextBlock();

  const LevelMeta* level_;
  FileOpener opener_;
  BlockCheck check_;
  size_t fi_ = 0;  // next file to open
  size_t bi_ = 0;  // next block of the current file
  std::shared_ptr<const std::string> file_image_;
  std::vector<BlockEntry> entries_;  // parsed current block
  size_t ei_ = 0;
  bool valid_ = false;
  uint64_t resident_bytes_ = 0;
};

// K-way merge over sorted runs; on an (impossible between well-formed runs)
// full internal-key tie the lowest run index — the newest run — wins,
// matching the two-way merge it replaces.
class MergeIterator {
 public:
  // `tap(run_idx, record, core)` fires exactly once per input entry, in
  // per-run order, when the entry is first loaded; `run_end(run_idx)` fires
  // when that run is exhausted. Either may be null.
  using EntryTap =
      std::function<Status(size_t, const Record&, std::string_view)>;
  using RunEnd = std::function<Status(size_t)>;

  MergeIterator(std::vector<std::unique_ptr<RunIterator>> runs, EntryTap tap,
                RunEnd run_end);

  Status Init();
  bool Valid() const { return current_ != kNone && status_.ok(); }
  const Record& record() const { return runs_[current_]->record(); }
  std::string_view core() const { return runs_[current_]->core(); }
  size_t run_index() const { return current_; }
  // Moves the winning record out and advances past it (firing taps for any
  // newly loaded entry). Check status() when Valid() turns false.
  Record TakeAndAdvance();
  const Status& status() const { return status_; }
  uint64_t resident_bytes() const;

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  Status AfterLoad(size_t idx);  // tap / run-end bookkeeping
  void PickCurrent();

  std::vector<std::unique_ptr<RunIterator>> runs_;
  EntryTap tap_;
  RunEnd run_end_;
  size_t current_ = kNone;
  Status status_;
};

}  // namespace elsm::lsm
