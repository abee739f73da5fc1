#include "crypto/hash_chain.h"

namespace elsm::crypto {

Hash256 ChainBase(std::string_view record_encoding) {
  Sha256 h;
  const uint8_t prefix = 0x00;
  h.Update(&prefix, 1);
  h.Update(record_encoding);
  return h.Finalize();
}

Hash256 ChainLink(std::string_view record_encoding, const Hash256& suffix) {
  Sha256 h;
  const uint8_t prefix = 0x00;
  h.Update(&prefix, 1);
  h.Update(record_encoding);
  h.Update(suffix.data(), suffix.size());
  return h.Finalize();
}

Hash256 ChainDigest(const std::vector<std::string>& encodings_newest_first) {
  Hash256 digest = kZeroHash;
  bool have = false;
  for (auto it = encodings_newest_first.rbegin();
       it != encodings_newest_first.rend(); ++it) {
    digest = have ? ChainLink(*it, digest) : ChainBase(*it);
    have = true;
  }
  return digest;
}

std::vector<ChainSuffix> ChainSuffixes(
    const std::vector<std::string>& encodings_newest_first, Hash256* leaf) {
  const size_t n = encodings_newest_first.size();
  std::vector<ChainSuffix> out(n);
  Hash256 digest = kZeroHash;
  bool have = false;
  // Walk oldest -> newest; out[i] records the digest of everything older.
  for (size_t i = n; i-- > 0;) {
    out[i].present = have;
    out[i].digest = have ? digest : kZeroHash;
    digest = have ? ChainLink(encodings_newest_first[i], digest)
                  : ChainBase(encodings_newest_first[i]);
    have = true;
  }
  if (leaf != nullptr) *leaf = digest;
  return out;
}

Hash256 ChainLeafFromPrefix(const std::vector<std::string_view>& encodings,
                            const ChainSuffix& suffix) {
  Hash256 digest = suffix.digest;
  bool have = suffix.present;
  for (auto it = encodings.rbegin(); it != encodings.rend(); ++it) {
    digest = have ? ChainLink(*it, digest) : ChainBase(*it);
    have = true;
  }
  return digest;
}

}  // namespace elsm::crypto
