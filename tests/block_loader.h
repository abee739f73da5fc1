// Test loaders for storage::ReadBuffer: EachBlock(load) adapts a function
// that produces one block, Result<std::string>(), to the buffer's one
// Loader type by calling it once for every requested index.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "storage/read_buffer.h"

namespace elsm::test_util {

template <typename LoadOne>
storage::ReadBuffer::Loader EachBlock(LoadOne load) {
  return [load](const std::vector<size_t>& indices,
                std::vector<Result<std::string>>& out) {
    for (size_t i : indices) out[i] = load();
  };
}

}  // namespace elsm::test_util
