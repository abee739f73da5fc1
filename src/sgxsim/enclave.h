// Simulated enclave runtime: the single charging point through which the
// storage engine reports its work. Wraps a SimClock (accumulated simulated
// nanoseconds), the EPC page simulator, and event counters.
//
// `enabled() == false` models the unsecured baselines: world switches are
// free (plain calls), enclave regions behave like ordinary DRAM, no paging.
//
// Thread safety: the clock and counters are atomics, sharded so that each
// thread charges its own cache line; now_ns() and counters() sum the
// shards. The EPC page table is guarded by a mutex that every
// AccessRegion takes, mirroring how real EPC contention behaves.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "sgxsim/cost_model.h"
#include "sgxsim/epc.h"

namespace elsm::sgx {

struct EnclaveCounters {
  uint64_t ecalls = 0;
  uint64_t ocalls = 0;
  uint64_t epc_faults = 0;
  uint64_t bytes_hashed = 0;
  uint64_t bytes_ciphered = 0;
  uint64_t bytes_copied = 0;
  uint64_t file_bytes_read = 0;
  uint64_t file_bytes_written = 0;
  uint64_t wal_appends = 0;
};

class Enclave {
 public:
  explicit Enclave(CostModel model = {}, bool enabled = true);

  bool enabled() const { return enabled_; }
  const CostModel& model() const { return model_; }

  // --- world switches -----------------------------------------------------
  void ChargeEcall();
  void ChargeOcall();

  // --- enclave memory ------------------------------------------------------
  RegionId RegisterRegion(uint64_t bytes);
  void ResizeRegion(RegionId region, uint64_t bytes);
  void FreeRegion(RegionId region);
  // Read/write `len` bytes of an enclave region: charges resident-access
  // cost plus any page faults. No-op paging when the enclave is disabled.
  // `software_paging` bills misses at the Eleos-style user-space relocation
  // price (sw_fault_ns) instead of a hardware EPC fault.
  void AccessRegion(RegionId region, uint64_t offset, uint64_t len,
                    bool software_paging = false);

  // --- plain memory & copies ----------------------------------------------
  void UntrustedRead(uint64_t bytes);
  void Copy(uint64_t bytes, bool cross_boundary);

  // --- crypto (charged only; callers do the real work via elsm::crypto) ---
  void ChargeHash(uint64_t bytes);
  void ChargeCipher(uint64_t bytes);

  // --- storage --------------------------------------------------------------
  void ChargeFileRead(uint64_t bytes);
  void ChargeFileWrite(uint64_t bytes);
  void ChargeWalAppend(uint64_t bytes);
  void ChargeMmapSetup();
  void ChargeCounterBump();

  // Raw simulated-time charge (e.g. fixed-function costs in baselines).
  void Advance(uint64_t ns);

  uint64_t now_ns() const;
  EnclaveCounters counters() const;

 private:
  // One thread's share of the clock and counters, on cache lines of its
  // own.
  struct alignas(64) Shard {
    std::atomic<uint64_t> clock_ns{0};
    std::atomic<uint64_t> ecalls{0};
    std::atomic<uint64_t> ocalls{0};
    std::atomic<uint64_t> epc_faults{0};
    std::atomic<uint64_t> bytes_hashed{0};
    std::atomic<uint64_t> bytes_ciphered{0};
    std::atomic<uint64_t> bytes_copied{0};
    std::atomic<uint64_t> file_bytes_read{0};
    std::atomic<uint64_t> file_bytes_written{0};
    std::atomic<uint64_t> wal_appends{0};
  };
  // Threads take shards round-robin in creation order; two threads that
  // share a shard stay correct, they only contend.
  static constexpr size_t kShards = 16;
  // Adds `n` to the calling thread's `counter` and `ns` to its clock.
  void Charge(std::atomic<uint64_t> Shard::*counter, uint64_t n, uint64_t ns);
  uint64_t Sum(std::atomic<uint64_t> Shard::*counter) const;

  CostModel model_;
  bool enabled_;
  mutable std::mutex epc_mu_;
  EpcSimulator epc_;
  std::array<Shard, kShards> shards_;
};

// RAII world-switch guards for readability at call sites.
class EcallScope {
 public:
  explicit EcallScope(Enclave& enclave) { enclave.ChargeEcall(); }
};
class OcallScope {
 public:
  explicit OcallScope(Enclave& enclave) { enclave.ChargeOcall(); }
};

}  // namespace elsm::sgx
