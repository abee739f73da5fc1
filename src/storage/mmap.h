// mmap-style file access (paper §5.5.1 "Support mmap reads").
//
// Opening charges a one-time OCall + mmap setup; afterwards the enclave code
// reads the file bytes directly from untrusted memory with no world switch
// and no buffer copy — the reason eLSM-P2-mmap is the fastest read path
// (Fig. 6b). The blob handle pins the content even if the file is deleted.
#pragma once

#include <memory>
#include <string>

#include "common/status.h"
#include "sgxsim/enclave.h"
#include "storage/fs.h"

namespace elsm::storage {

class MmapRegion {
 public:
  static Result<MmapRegion> Open(const Fs& fs, const std::string& name);

  // Reads [offset, offset+len) as a view; charges untrusted-memory access.
  Result<std::string_view> Read(uint64_t offset, uint64_t len) const;
  uint64_t size() const { return data_->size(); }
  // The mapped bytes, for a reader that keeps them (and charges its own
  // reads).
  const std::shared_ptr<const std::string>& blob() const { return data_; }

 private:
  MmapRegion(std::shared_ptr<const std::string> data, sgx::Enclave* enclave)
      : data_(std::move(data)), enclave_(enclave) {}

  std::shared_ptr<const std::string> data_;
  sgx::Enclave* enclave_;
};

}  // namespace elsm::storage
