// Authenticated COMPACTION as a pure add-on (paper §5.5.2, §5.5.3, Fig. 4).
//
// The listener reconstructs each input run's Merkle digest and compares it
// with the enclave-held root for that level (input authentication); on
// output it builds the new level's digest, embedded proofs and tree sidecar.
// The LsmEngine never learns what the seal means — exactly the RocksDB-
// callback integration the paper claims.
//
// One streaming protocol: inputs are digested entry by entry and output
// groups sealed as the merge produces them, so compaction never buffers a
// whole level. With embed_full_paths a record's full Merkle path needs the
// finished tree, so the listener defers its proofs: the blobs, paths
// embedded, arrive with the seal from OnOutputEnd.
#pragma once

#include <string_view>
#include <vector>

#include "auth/level_builder.h"
#include "lsm/engine.h"
#include "sgxsim/enclave.h"

namespace elsm::auth {

class AuthCompactionListener : public lsm::CompactionListener {
 public:
  AuthCompactionListener(sgx::Enclave* enclave, bool embed_full_paths)
      : enclave_(enclave), embed_full_paths_(embed_full_paths) {}

  bool defers_proofs() const override { return embed_full_paths_; }

  Status OnCompactionBegin(size_t run_count) override {
    inputs_.clear();
    inputs_.reserve(run_count);
    for (size_t i = 0; i < run_count; ++i) inputs_.emplace_back(enclave_);
    seal_builder_ = SealBuilder(enclave_, embed_full_paths_);
    return Status::Ok();
  }

  Status OnInputRunBegin(size_t run_idx, int src_depth,
                         const lsm::LevelMeta* meta) override {
    if (run_idx >= inputs_.size()) {
      return Status::InvalidArgument("input run index out of range");
    }
    inputs_[run_idx].depth = src_depth;
    inputs_[run_idx].meta = (src_depth >= 0) ? meta : nullptr;
    return Status::Ok();
  }

  Status OnInputEntry(size_t run_idx, const lsm::Record& record,
                      std::string_view core) override {
    if (run_idx >= inputs_.size()) {
      return Status::InvalidArgument("input run index out of range");
    }
    if (inputs_[run_idx].meta != nullptr) {
      inputs_[run_idx].digester.Add(record, core);
    }
    return Status::Ok();
  }

  Status OnInputRunEnd(size_t run_idx) override {
    if (run_idx >= inputs_.size()) {
      return Status::InvalidArgument("input run index out of range");
    }
    InputState& input = inputs_[run_idx];
    if (input.meta == nullptr) return Status::Ok();  // trusted memtable
    return CheckDigest(input.digester.Finish(), *input.meta, input.depth);
  }

  Status OnOutputGroup(const std::vector<lsm::Record>& group,
                       std::vector<std::string>* proof_blobs) override {
    return seal_builder_.AddGroup(group, proof_blobs);
  }

  Result<lsm::CompactionSeal> OnOutputEnd() override {
    return seal_builder_.Finish();
  }

 private:
  struct InputState {
    explicit InputState(sgx::Enclave* enclave) : digester(enclave) {}
    int depth = -1;
    const lsm::LevelMeta* meta = nullptr;
    RunDigester digester;
  };

  Status CheckDigest(const LevelDigest& digest, const lsm::LevelMeta& meta,
                     int src_depth) const {
    if (digest.root != meta.root || digest.leaf_count != meta.leaf_count) {
      return Status::AuthFailure("compaction input digest mismatch at level " +
                                 std::to_string(src_depth));
    }
    return Status::Ok();
  }

  sgx::Enclave* enclave_;
  bool embed_full_paths_;
  std::vector<InputState> inputs_;
  SealBuilder seal_builder_{nullptr};
};

}  // namespace elsm::auth
