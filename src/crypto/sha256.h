// SHA-256 (FIPS 180-4) with an incremental interface and two compression
// backends: a from-scratch portable one, and one built on the x86 SHA
// extensions (sha256rnds2/sha256msg1/sha256msg2). The hardware backend is
// picked once, at start-up, when the CPU reports those extensions; the
// portable one serves everywhere else and is the reference the hardware one
// is tested against, so a digest never depends on the CPU that computed it.
//
// All integrity checks in the library hash real bytes through this
// implementation; the enclave cost model separately *charges* simulated time
// per hashed byte (see sgxsim/cost_model.h) so that benchmark numbers are
// deterministic, and independent of the backend, while correctness remains
// genuine.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace elsm::crypto {

using Hash256 = std::array<uint8_t, 32>;

namespace detail {

// A compression backend: folds `count` consecutive 64-byte blocks starting
// at `blocks` (any alignment) into the eight state words.
using ProcessBlocksFn = void (*)(uint32_t* state, const uint8_t* blocks,
                                 size_t count);

// The portable backend.
void ProcessBlocksScalar(uint32_t* state, const uint8_t* blocks, size_t count);

// The x86 SHA-extensions backend, or nullptr when the build is not for
// x86-64 or the CPU lacks the extensions.
ProcessBlocksFn ProcessBlocksHardware();

}  // namespace detail

class Sha256 {
 public:
  // Compresses with the hardware backend where the CPU has one.
  Sha256();
  // Compresses with `process_blocks` (tests compare the backends this way).
  explicit Sha256(detail::ProcessBlocksFn process_blocks);

  void Update(std::string_view data);
  void Update(const void* data, size_t len);
  Hash256 Finalize();
  void Reset();

  // One-shot convenience.
  static Hash256 Digest(std::string_view data);

 private:
  detail::ProcessBlocksFn process_blocks_;
  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[64];
  size_t buffer_len_;
};

// Hex rendering for logs/tests ("ab04...", lowercase).
std::string ToHex(const Hash256& h);

// An all-zero hash, used as the digest of an empty set/level.
inline constexpr Hash256 kZeroHash{};

}  // namespace elsm::crypto
