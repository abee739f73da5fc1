#include "crypto/sha256.h"

#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace elsm::crypto {
namespace {

alignas(16) constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if defined(__x86_64__)

// The hardware backend. It is compiled for the SHA extensions (and the
// SSSE3/SSE4.1 shuffles it needs) function by function, so the binary still
// runs on CPUs without them; it is only called when CpuHasShaExtensions().
// Register names list 32-bit lanes from high to low, as Intel's SHA
// extensions documentation does: sha256rnds2 keeps the working variables
// as the pair ABEF / CDGH.

// Four rounds over message words W[4q..4q+3].
__attribute__((target("sha,sse4.1,ssse3"))) inline void FourRounds(
    __m128i* abef, __m128i* cdgh, __m128i words, int q) {
  const __m128i wk = _mm_add_epi32(
      words, _mm_load_si128(reinterpret_cast<const __m128i*>(&kK[4 * q])));
  // Two rounds each: the first leaves ABEF in *cdgh, the second takes the
  // old ABEF as CDGH, so the pair is back in place after four rounds.
  *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
  *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// Message words W[4i..4i+3] of a block, from its big-endian bytes.
__attribute__((target("sha,sse4.1,ssse3"))) inline __m128i LoadWords(
    const uint8_t* block, int i) {
  // Reverses the bytes of each lane.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)),
      byte_swap);
}

// Message words W[t..t+3] from w0 = W[t-16..t-13], w1 = W[t-12..t-9],
// w2 = W[t-8..t-5] and w3 = W[t-4..t-1].
__attribute__((target("sha,sse4.1,ssse3"))) inline __m128i NextWords(
    __m128i w0, __m128i w1, __m128i w2, __m128i w3) {
  const __m128i partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                                        _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(partial, w3);
}

__attribute__((target("sha,sse4.1,ssse3"))) void ProcessBlocksShaNi(
    uint32_t* state, const uint8_t* blocks, size_t count) {
  auto* state_lo = reinterpret_cast<__m128i*>(state);
  auto* state_hi = reinterpret_cast<__m128i*>(state + 4);
  // a..h, as stored, into ABEF / CDGH.
  const __m128i cdab = _mm_shuffle_epi32(_mm_loadu_si128(state_lo), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(_mm_loadu_si128(state_hi), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = LoadWords(blocks, 0);
    __m128i w1 = LoadWords(blocks, 1);
    __m128i w2 = LoadWords(blocks, 2);
    __m128i w3 = LoadWords(blocks, 3);
    FourRounds(&abef, &cdgh, w0, 0);
    FourRounds(&abef, &cdgh, w1, 1);
    FourRounds(&abef, &cdgh, w2, 2);
    FourRounds(&abef, &cdgh, w3, 3);
    for (int q = 4; q < 16; q += 4) {
      w0 = NextWords(w0, w1, w2, w3);
      FourRounds(&abef, &cdgh, w0, q);
      w1 = NextWords(w1, w2, w3, w0);
      FourRounds(&abef, &cdgh, w1, q + 1);
      w2 = NextWords(w2, w3, w0, w1);
      FourRounds(&abef, &cdgh, w2, q + 2);
      w3 = NextWords(w3, w0, w1, w2);
      FourRounds(&abef, &cdgh, w3, q + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  // ABEF / CDGH back into a..h.
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(state_lo, _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(state_hi, _mm_alignr_epi8(dchg, feba, 8));
}

// Whether the CPU has the SHA extensions and the SSSE3/SSE4.1 shuffles the
// hardware backend uses, from CPUID. CPUID faults inside a real SGX
// enclave, so an enclave build would take these bits from the CPU feature
// mask the SGX runtime hands the enclave at initialization; the simulated
// enclave runs in an ordinary process and asks the CPU directly.
bool CpuHasShaExtensions() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 ||
      (ecx & bit_SSSE3) == 0 || (ecx & bit_SSE4_1) == 0) {
    return false;
  }
  return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 &&
         (ebx & bit_SHA) != 0;
}

#endif  // __x86_64__

detail::ProcessBlocksFn PickHardware() {
#if defined(__x86_64__)
  if (CpuHasShaExtensions()) return &ProcessBlocksShaNi;
#endif
  return nullptr;
}

// Decided once, at static initialization. A Sha256 constructed before this
// initializer runs (by another file's static initializer) finds it null and
// takes the portable backend, which yields the same digests.
const detail::ProcessBlocksFn kHardware = PickHardware();

}  // namespace

namespace detail {

void ProcessBlocksScalar(uint32_t* state, const uint8_t* blocks,
                         size_t count) {
  for (; count > 0; --count, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (uint32_t(blocks[i * 4]) << 24) |
             (uint32_t(blocks[i * 4 + 1]) << 16) |
             (uint32_t(blocks[i * 4 + 2]) << 8) | uint32_t(blocks[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

ProcessBlocksFn ProcessBlocksHardware() { return kHardware; }

}  // namespace detail

Sha256::Sha256()
    : Sha256(kHardware != nullptr ? kHardware : &detail::ProcessBlocksScalar) {
}

Sha256::Sha256(detail::ProcessBlocksFn process_blocks)
    : process_blocks_(process_blocks) {
  Reset();
}

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  bit_count_ = 0;
  buffer_len_ = 0;
}

void Sha256::Update(std::string_view data) { Update(data.data(), data.size()); }

void Sha256::Update(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  bit_count_ += uint64_t(len) * 8;

  if (buffer_len_ > 0) {
    const size_t need = 64 - buffer_len_;
    const size_t take = len < need ? len : need;
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ == 64) {
      process_blocks_(state_, buffer_, 1);
      buffer_len_ = 0;
    }
  }
  // Every whole block in one call, so the state stays in registers.
  if (len >= 64) {
    const size_t blocks = len / 64;
    process_blocks_(state_, p, blocks);
    p += blocks * 64;
    len -= blocks * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Hash256 Sha256::Finalize() {
  // Pad in place: 0x80, zeros to 56 mod 64, then the 64-bit big-endian bit
  // count.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
    process_blocks_(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = uint8_t(bit_count_ >> (56 - 8 * i));
  }
  process_blocks_(state_, buffer_, 1);

  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = uint8_t(state_[i] >> 24);
    out[i * 4 + 1] = uint8_t(state_[i] >> 16);
    out[i * 4 + 2] = uint8_t(state_[i] >> 8);
    out[i * 4 + 3] = uint8_t(state_[i]);
  }
  Reset();
  return out;
}

Hash256 Sha256::Digest(std::string_view data) {
  Sha256 h;
  h.Update(data);
  return h.Finalize();
}

std::string ToHex(const Hash256& h) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (uint8_t b : h) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

}  // namespace elsm::crypto
