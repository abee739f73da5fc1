// SSTable: a sequence of ~4 KiB data blocks. Each entry is a canonical
// record encoding followed by a length-prefixed embedded-proof blob
// (paper §5.2: records stored as <k, v ‖ π>). The block index lives in
// FileMeta (enclave metadata), never in the file, so there is no footer;
// so does each block's one integrity tag, its SHA-256 digest, for the
// stores that check blocks (LsmEngine::CheckBlock).
//
// A key group (all versions of one data key) never straddles a block or
// file boundary — the read path depends on a group's newest record being
// the first entry of its group within a single block.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "lsm/record.h"
#include "lsm/version.h"

namespace elsm::lsm {

// One decoded SSTable entry. `core` preserves the exact bytes that hash
// chains digest, so verification never depends on re-encoding.
struct RawEntry {
  Record record;
  std::string core;
  std::string proof_blob;
};

// A decoded entry whose byte payloads are *views* into the block image the
// entry was parsed from (valid only while that image is pinned). The Get
// hot path works on these and materializes a RawEntry only for the handful
// of entries that escape into a response.
struct BlockEntry {
  Record record;
  std::string_view core;
  std::string_view proof_blob;
};

RawEntry MaterializeEntry(const BlockEntry& entry);

class SSTableBuilder {
 public:
  // With `digest_blocks` each finished block's SHA-256 goes into its
  // BlockHandle; otherwise nothing is hashed and the digest stays
  // kZeroHash (a store that never checks its blocks).
  explicit SSTableBuilder(uint64_t block_bytes, bool digest_blocks = false);

  void Add(const Record& record, std::string_view proof_blob);
  // Returns the file image and fills `meta` (name left empty).
  std::string Finish(FileMeta* meta);

  uint64_t pending_bytes() const {
    return uint64_t(contents_.size() + block_.size());
  }

 private:
  void FlushBlock();

  uint64_t block_bytes_;
  bool digest_blocks_;
  std::string contents_;
  std::string block_;
  FileMeta meta_;
  BlockHandle current_;
  std::string last_key_;
};

// Decodes every entry of a block image into *out (cleared first; reserved
// to `reserve` when non-zero, typically BlockHandle::num_entries). The
// entries' core/proof views alias `block`.
Status ParseBlockInto(std::string_view block, size_t reserve,
                      std::vector<BlockEntry>* out);

// Decodes every entry of a block image into owning entries.
Result<std::vector<RawEntry>> ParseBlock(std::string_view block);

}  // namespace elsm::lsm
