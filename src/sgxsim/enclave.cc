#include "sgxsim/enclave.h"

namespace elsm::sgx {

Enclave::Enclave(CostModel model, bool enabled)
    : model_(model),
      enabled_(enabled),
      epc_(model.epc_bytes, model.page_size) {}

void Enclave::Charge(std::atomic<uint64_t> Shard::*counter, uint64_t n,
                     uint64_t ns) {
  static std::atomic<size_t> next_thread{0};
  thread_local const size_t index =
      next_thread.fetch_add(1, std::memory_order_relaxed) % kShards;
  Shard& shard = shards_[index];
  if (counter != nullptr) {
    (shard.*counter).fetch_add(n, std::memory_order_relaxed);
  }
  shard.clock_ns.fetch_add(ns, std::memory_order_relaxed);
}

void Enclave::ChargeEcall() {
  if (!enabled_) return;
  Charge(&Shard::ecalls, 1, model_.ecall_ns);
}

void Enclave::ChargeOcall() {
  if (!enabled_) return;
  Charge(&Shard::ocalls, 1, model_.ocall_ns);
}

RegionId Enclave::RegisterRegion(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(epc_mu_);
  return epc_.Register(bytes);
}

void Enclave::ResizeRegion(RegionId region, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(epc_mu_);
  epc_.Resize(region, bytes);
}

void Enclave::FreeRegion(RegionId region) {
  std::lock_guard<std::mutex> lock(epc_mu_);
  epc_.Free(region);
}

void Enclave::AccessRegion(RegionId region, uint64_t offset, uint64_t len,
                           bool software_paging) {
  if (!enabled_) {
    UntrustedRead(len);
    return;
  }
  uint64_t faults = 0;
  {
    std::lock_guard<std::mutex> lock(epc_mu_);
    faults = epc_.Access(region, offset, len);
  }
  if (faults > 0) {
    Charge(&Shard::epc_faults, faults,
           faults * (software_paging ? model_.sw_fault_ns : model_.epc_fault_ns));
  }
  Advance(len * model_.enclave_read_pb / 1000);
}

void Enclave::UntrustedRead(uint64_t bytes) {
  Advance(bytes * model_.untrusted_read_pb / 1000);
}

void Enclave::Copy(uint64_t bytes, bool cross_boundary) {
  // Crossing the boundary is only special when the enclave is real.
  Charge(&Shard::bytes_copied, bytes,
         model_.CopyCost(bytes, cross_boundary && enabled_));
}

void Enclave::ChargeHash(uint64_t bytes) {
  Charge(&Shard::bytes_hashed, bytes, model_.HashCost(bytes));
}

void Enclave::ChargeCipher(uint64_t bytes) {
  Charge(&Shard::bytes_ciphered, bytes, model_.CipherCost(bytes));
}

void Enclave::ChargeFileRead(uint64_t bytes) {
  Charge(&Shard::file_bytes_read, bytes,
         model_.file_read_req_ns + bytes * model_.file_read_pb / 1000);
}

void Enclave::ChargeFileWrite(uint64_t bytes) {
  Charge(&Shard::file_bytes_written, bytes,
         model_.file_write_req_ns + bytes * model_.file_write_pb / 1000);
}

void Enclave::ChargeWalAppend(uint64_t bytes) {
  Charge(&Shard::wal_appends, 1,
         model_.wal_append_ns + bytes * model_.file_write_pb / 1000);
}

void Enclave::ChargeMmapSetup() { Advance(model_.mmap_setup_ns); }

void Enclave::ChargeCounterBump() { Advance(model_.counter_bump_ns); }

void Enclave::Advance(uint64_t ns) { Charge(nullptr, 0, ns); }

uint64_t Enclave::Sum(std::atomic<uint64_t> Shard::*counter) const {
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += (s.*counter).load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Enclave::now_ns() const { return Sum(&Shard::clock_ns); }

EnclaveCounters Enclave::counters() const {
  EnclaveCounters out;
  out.ecalls = Sum(&Shard::ecalls);
  out.ocalls = Sum(&Shard::ocalls);
  out.epc_faults = Sum(&Shard::epc_faults);
  out.bytes_hashed = Sum(&Shard::bytes_hashed);
  out.bytes_ciphered = Sum(&Shard::bytes_ciphered);
  out.bytes_copied = Sum(&Shard::bytes_copied);
  out.file_bytes_read = Sum(&Shard::file_bytes_read);
  out.file_bytes_written = Sum(&Shard::file_bytes_written);
  out.wal_appends = Sum(&Shard::wal_appends);
  return out;
}

}  // namespace elsm::sgx
