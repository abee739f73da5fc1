#include "lsm/version.h"

#include <cstring>

#include "common/coding.h"

namespace elsm::lsm {
namespace {

void PutHash(std::string* dst, const crypto::Hash256& h) {
  dst->append(reinterpret_cast<const char*>(h.data()), h.size());
}

bool GetHash(std::string_view* input, crypto::Hash256* h) {
  if (input->size() < 32) return false;
  std::memcpy(h->data(), input->data(), 32);
  input->remove_prefix(32);
  return true;
}

}  // namespace

uint64_t LevelMeta::MetadataBytes() const {
  uint64_t total = bloom.byte_size();
  for (const FileMeta& f : files) {
    total += f.name.size() + f.smallest.size() + f.largest.size() + 32;
    for (const BlockHandle& b : f.blocks) {
      total += b.first_key.size() + 16 + 32;
    }
  }
  return total;
}

std::string LevelMeta::Encode() const {
  std::string out;
  PutVarint64(&out, num_records);
  PutVarint64(&out, bytes);
  PutLengthPrefixed(&out, bloom.Encode());
  PutHash(&out, root);
  PutVarint64(&out, leaf_count);
  PutLengthPrefixed(&out, tree_file);
  PutVarint32(&out, static_cast<uint32_t>(files.size()));
  for (const FileMeta& f : files) {
    PutLengthPrefixed(&out, f.name);
    PutLengthPrefixed(&out, f.smallest);
    PutLengthPrefixed(&out, f.largest);
    PutVarint64(&out, f.size);
    PutVarint64(&out, f.num_records);
    PutVarint32(&out, static_cast<uint32_t>(f.blocks.size()));
    for (const BlockHandle& b : f.blocks) {
      PutVarint64(&out, b.offset);
      PutVarint64(&out, b.size);
      PutVarint32(&out, b.num_entries);
      PutLengthPrefixed(&out, b.first_key);
      PutHash(&out, b.digest);
    }
  }
  return out;
}

Result<LevelMeta> LevelMeta::Decode(std::string_view* input) {
  LevelMeta level;
  std::string_view bloom_bytes;
  std::string_view tree_file;
  uint32_t file_count = 0;
  if (!GetVarint64(input, &level.num_records) ||
      !GetVarint64(input, &level.bytes) ||
      !GetLengthPrefixed(input, &bloom_bytes) ||
      !GetHash(input, &level.root) ||
      !GetVarint64(input, &level.leaf_count) ||
      !GetLengthPrefixed(input, &tree_file) ||
      !GetVarint32(input, &file_count)) {
    return Status::Corruption("bad level meta");
  }
  level.bloom = BloomFilter::Decode(bloom_bytes);
  level.tree_file.assign(tree_file);
  level.files.resize(file_count);
  for (FileMeta& f : level.files) {
    std::string_view name, smallest, largest;
    uint32_t block_count = 0;
    if (!GetLengthPrefixed(input, &name) ||
        !GetLengthPrefixed(input, &smallest) ||
        !GetLengthPrefixed(input, &largest) || !GetVarint64(input, &f.size) ||
        !GetVarint64(input, &f.num_records) ||
        !GetVarint32(input, &block_count)) {
      return Status::Corruption("bad file meta");
    }
    f.name.assign(name);
    f.smallest.assign(smallest);
    f.largest.assign(largest);
    f.blocks.resize(block_count);
    for (BlockHandle& b : f.blocks) {
      std::string_view first_key;
      if (!GetVarint64(input, &b.offset) || !GetVarint64(input, &b.size) ||
          !GetVarint32(input, &b.num_entries) ||
          !GetLengthPrefixed(input, &first_key) ||
          !GetHash(input, &b.digest)) {
        return Status::Corruption("bad block handle");
      }
      b.first_key.assign(first_key);
    }
  }
  return level;
}

std::string EncodeLevels(const std::vector<LevelMeta>& levels) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(levels.size()));
  for (const LevelMeta& level : levels) {
    PutLengthPrefixed(&out, level.Encode());
  }
  return out;
}

void FileTracker::Ref(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  ++refs_[name];
}

void FileTracker::Unref(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = refs_.find(name);
  if (it == refs_.end()) return;
  if (--it->second > 0) return;
  refs_.erase(it);
  if (obsolete_.erase(name) > 0) parked_.insert(name);
}

void FileTracker::MarkObsolete(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (refs_.count(name) > 0) {
    obsolete_.insert(name);
  } else {
    parked_.insert(name);
  }
}

std::vector<std::string> FileTracker::PurgeParked() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> deleted(parked_.begin(), parked_.end());
  for (const std::string& name : deleted) (void)fs_->Delete(name);
  parked_.clear();
  return deleted;
}

Version::Version(std::vector<LevelMeta> levels,
                 std::shared_ptr<FileTracker> tracker)
    : levels_(std::move(levels)), tracker_(std::move(tracker)) {
  if (tracker_ != nullptr) {
    ForEachFile([&](const std::string& name) { tracker_->Ref(name); });
  }
}

Version::~Version() {
  if (tracker_ != nullptr) {
    ForEachFile([&](const std::string& name) { tracker_->Unref(name); });
  }
}

void Version::ForEachFile(
    const std::function<void(const std::string&)>& fn) const {
  for (const LevelMeta& level : levels_) {
    for (const FileMeta& file : level.files) fn(file.name);
    if (!level.tree_file.empty()) fn(level.tree_file);
  }
}

Result<std::vector<LevelMeta>> DecodeLevels(std::string_view input) {
  uint32_t count = 0;
  if (!GetVarint32(&input, &count)) {
    return Status::Corruption("bad levels encoding");
  }
  std::vector<LevelMeta> levels;
  levels.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string_view payload;
    if (!GetLengthPrefixed(&input, &payload)) {
      return Status::Corruption("bad levels encoding");
    }
    auto level = LevelMeta::Decode(&payload);
    if (!level.ok()) return level.status();
    levels.push_back(std::move(level).value());
  }
  return levels;
}

std::string VersionEdit::Encode() const {
  std::string out;
  PutVarint64(&out, next_file_no);
  PutVarint32(&out, static_cast<uint32_t>(ops.size()));
  for (const LevelOp& op : ops) {
    out.push_back(static_cast<char>(op.kind));
    PutVarint32(&out, op.pos);
    PutLengthPrefixed(&out, op.level.Encode());
  }
  return out;
}

Result<VersionEdit> VersionEdit::Decode(std::string_view input) {
  VersionEdit edit;
  uint32_t count = 0;
  if (!GetVarint64(&input, &edit.next_file_no) ||
      !GetVarint32(&input, &count)) {
    return Status::Corruption("bad version-edit encoding");
  }
  edit.ops.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    LevelOp op;
    if (input.empty()) return Status::Corruption("bad version-edit encoding");
    const uint8_t kind = static_cast<uint8_t>(input.front());
    input.remove_prefix(1);
    if (kind != static_cast<uint8_t>(OpKind::kSet) &&
        kind != static_cast<uint8_t>(OpKind::kInsert)) {
      return Status::Corruption("bad version-edit op kind");
    }
    op.kind = static_cast<OpKind>(kind);
    std::string_view payload;
    if (!GetVarint32(&input, &op.pos) ||
        !GetLengthPrefixed(&input, &payload)) {
      return Status::Corruption("bad version-edit encoding");
    }
    auto level = LevelMeta::Decode(&payload);
    if (!level.ok()) return level.status();
    op.level = std::move(level).value();
    edit.ops.push_back(std::move(op));
  }
  if (!input.empty()) return Status::Corruption("bad version-edit encoding");
  return edit;
}

Status VersionEdit::ApplyTo(std::vector<LevelMeta>* levels) const {
  for (const LevelOp& op : ops) {
    if (op.kind == OpKind::kSet) {
      if (op.pos >= levels->size()) {
        return Status::Corruption("version-edit sets a level slot " +
                                  std::to_string(op.pos) +
                                  " beyond the stack");
      }
      (*levels)[op.pos] = op.level;
    } else {
      if (op.pos > levels->size()) {
        return Status::Corruption("version-edit inserts a level slot " +
                                  std::to_string(op.pos) +
                                  " beyond the stack");
      }
      levels->insert(levels->begin() + op.pos, op.level);
    }
  }
  return Status::Ok();
}

}  // namespace elsm::lsm
