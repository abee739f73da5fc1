// Per-key hash chains (paper §5.2, design 2).
//
// Within an LSM level, all records of the same data key are digested into a
// single chain whose outermost layer covers the *newest* record:
//
//   C_k     = H(0x00 || enc(r_k))              (r_k = oldest)
//   C_i     = H(0x00 || enc(r_i) || C_{i+1})   (records ordered newest-first)
//   leaf    = C_1
//
// The Merkle leaf for the key is C_1, so a proof claiming record r_i is the
// query answer necessarily discloses the encodings of the newer records
// r_1..r_{i-1} — which is exactly how the verifier catches staleness
// (Theorem 5.3 Case 1). The suffix digest C_{i+1} is all a prover needs to
// rebuild the leaf from the newest record alone.
//
// The 0x00 prefix domain-separates chain hashing from interior Merkle nodes
// (0x01, see merkle.h).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha256.h"

namespace elsm::crypto {

// H(0x00 || bytes): chain base element.
Hash256 ChainBase(std::string_view record_encoding);

// H(0x00 || bytes || suffix): one link of the chain.
Hash256 ChainLink(std::string_view record_encoding, const Hash256& suffix);

// Digest for encodings ordered newest-first. Empty input is invalid.
Hash256 ChainDigest(const std::vector<std::string>& encodings_newest_first);

// Suffix digests: out[i] = C_{i+1}, i.e. the digest of everything older
// than record i (kZeroHash marks "no suffix" for the oldest record).
// out[0] combined with encoding 0 reproduces the leaf, which the same walk
// ends on: `leaf`, when given, receives it.
struct ChainSuffix {
  Hash256 digest = kZeroHash;
  bool present = false;
};
std::vector<ChainSuffix> ChainSuffixes(
    const std::vector<std::string>& encodings_newest_first,
    Hash256* leaf = nullptr);

// Rebuilds the leaf digest from the newest `k` encodings plus the suffix
// covering the rest. `suffix.present == false` means the provided encodings
// are the whole chain.
Hash256 ChainLeafFromPrefix(const std::vector<std::string_view>& encodings,
                            const ChainSuffix& suffix);

}  // namespace elsm::crypto
