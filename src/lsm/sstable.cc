#include "lsm/sstable.h"

#include "common/coding.h"
#include "crypto/sha256.h"

namespace elsm::lsm {

SSTableBuilder::SSTableBuilder(uint64_t block_bytes, bool digest_blocks)
    : block_bytes_(block_bytes == 0 ? 4096 : block_bytes),
      digest_blocks_(digest_blocks) {}

void SSTableBuilder::FlushBlock() {
  if (block_.empty()) return;
  current_.offset = contents_.size();
  current_.size = block_.size();
  if (digest_blocks_) current_.digest = crypto::Sha256::Digest(block_);
  contents_ += block_;
  meta_.blocks.push_back(current_);
  block_.clear();
  current_ = BlockHandle{};
}

void SSTableBuilder::Add(const Record& record, std::string_view proof_blob) {
  // Only break blocks at key-group boundaries.
  if (block_.size() >= block_bytes_ && record.key != last_key_) FlushBlock();
  if (block_.empty()) current_.first_key = record.key;
  const std::string core = record.EncodeCore();
  PutLengthPrefixed(&block_, core);
  PutLengthPrefixed(&block_, proof_blob);
  ++current_.num_entries;
  ++meta_.num_records;
  if (meta_.smallest.empty() || record.key < meta_.smallest) {
    meta_.smallest = record.key;
  }
  if (record.key > meta_.largest) meta_.largest = record.key;
  last_key_ = record.key;
}

std::string SSTableBuilder::Finish(FileMeta* meta) {
  FlushBlock();
  meta_.size = contents_.size();
  *meta = std::move(meta_);
  meta_ = FileMeta{};
  last_key_.clear();
  return std::move(contents_);
}

RawEntry MaterializeEntry(const BlockEntry& entry) {
  RawEntry out;
  out.record = entry.record;
  out.core.assign(entry.core);
  out.proof_blob.assign(entry.proof_blob);
  return out;
}

Status ParseBlockInto(std::string_view block, size_t reserve,
                      std::vector<BlockEntry>* out) {
  out->clear();
  if (reserve > 0) out->reserve(reserve);
  while (!block.empty()) {
    std::string_view core;
    std::string_view proof;
    if (!GetLengthPrefixed(&block, &core) ||
        !GetLengthPrefixed(&block, &proof)) {
      return Status::Corruption("bad sstable block framing");
    }
    std::string_view core_cursor = core;
    auto record = Record::DecodeCore(&core_cursor);
    if (!record.ok()) return record.status();
    BlockEntry entry;
    entry.record = std::move(record).value();
    entry.core = core;
    entry.proof_blob = proof;
    out->push_back(std::move(entry));
  }
  return Status::Ok();
}

Result<std::vector<RawEntry>> ParseBlock(std::string_view block) {
  std::vector<BlockEntry> views;
  Status s = ParseBlockInto(block, 0, &views);
  if (!s.ok()) return s;
  std::vector<RawEntry> entries;
  entries.reserve(views.size());
  for (const BlockEntry& v : views) entries.push_back(MaterializeEntry(v));
  return entries;
}

}  // namespace elsm::lsm
