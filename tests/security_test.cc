// Security tests (paper §3.3 threats, §5.3.1 protocol analysis): every
// attack the untrusted host can mount must be rejected by VRFY, and the
// rollback/freshness machinery must catch state replays across restarts.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "auth/adversary.h"
#include "auth/proof.h"
#include "auth/verifier.h"
#include "common/coding.h"
#include "elsm/elsm_db.h"
#include "storage/simfs.h"
#include "temp_dir.h"
#include "str_cat.h"

namespace elsm {
namespace {

Options SmallOptions() {
  Options o;
  o.mode = Mode::kP2;
  o.memtable_bytes = 4 << 10;
  o.level1_bytes = 16 << 10;
  o.block_bytes = 1024;
  o.file_bytes = 8 << 10;
  return o;
}

std::string Key(int i) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

// Fixture giving tests direct access to the engine / assembler / verifier
// triple so attacks can be mounted between assembly and verification.
// Parameterized over the storage backend: every attack must be rejected
// identically whether the untrusted disk is the in-memory SimFs or real
// files under a scratch directory (PosixFs).
class SecurityTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    Options o = SmallOptions();
    if (std::string(GetParam()) == "posix") {
      ASSERT_TRUE(dir_.ok());
      o.backend = storage::BackendKind::kPosix;
      o.backend_dir = dir_.path();
    }
    auto db = ElsmDb::Create(o);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    // Two generations of every key so stale-record attacks have material.
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(db_->Put(Key(i), test_util::Cat("gen0-", i)).ok());
    }
    ASSERT_TRUE(db_->CompactAll().ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(db_->Put(Key(i), test_util::Cat("gen1-", i)).ok());
    }
    ASSERT_TRUE(db_->CompactAll().ok());
    verifier_ = std::make_unique<auth::Verifier>(&db_->enclave());
  }

  Result<auth::AssembledGet> AssembleFor(const std::string& key,
                                         uint64_t ts_max = kLatest) {
    auto resp = db_->engine().Get(key, ts_max);
    if (!resp.ok()) return resp.status();
    auth::ProofAssembler assembler(
        std::shared_ptr<storage::Fs>(&db_->fs(), [](auto*) {}));
    return assembler.AssembleGet(resp.value(), db_->engine().levels());
  }

  Result<auth::AssembledScan> AssembleScanFor(const std::string& k1,
                                              const std::string& k2) {
    auto resp = db_->engine().Scan(k1, k2);
    if (!resp.ok()) return resp.status();
    auth::ProofAssembler assembler(
        std::shared_ptr<storage::Fs>(&db_->fs(), [](auto*) {}));
    return assembler.AssembleScan(resp.value(), db_->engine().levels());
  }

  // Every verification goes through one long-lived verifier, as in the
  // store itself: forgeries meet a proof-path cache that the honest proofs
  // before them have warmed.
  Status VerifyGet(const std::string& key, const auth::AssembledGet& proof,
                   uint64_t ts_max = kLatest) {
    return verifier_->VerifyGet(key, ts_max, proof, db_->engine().levels())
        .status();
  }

  Status VerifyScan(const std::string& k1, const std::string& k2,
                    const auth::AssembledScan& proof) {
    return verifier_->VerifyScan(k1, k2, proof, db_->engine().levels())
        .status();
  }

  // Verifies `key`'s honest proof, then the same proof after `forge`, and
  // returns the forgery's status.
  template <class Forge>
  Status VerifyForgery(const std::string& key, Forge forge) {
    auto proof = AssembleFor(key);
    if (!proof.ok()) return proof.status();
    Status honest = VerifyGet(key, proof.value());
    if (!honest.ok()) return Status::Corruption("honest proof failed");
    if (!forge(&proof.value())) return Status::Corruption("attack n/a");
    return VerifyGet(key, proof.value());
  }

  // The level holding `key` and its leaf index there.
  std::pair<size_t, uint64_t> LeafOf(const std::string& key) {
    auto proof = AssembleFor(key);
    EXPECT_TRUE(proof.ok());
    const auth::AssembledLevel& hit = proof.value().levels.back();
    EXPECT_TRUE(hit.found);
    return {hit.level_pos, hit.chain.front().proof.leaf_index};
  }

  test_util::TempDir dir_;
  std::unique_ptr<ElsmDb> db_;
  std::unique_ptr<auth::Verifier> verifier_;
};

INSTANTIATE_TEST_SUITE_P(Backends, SecurityTest,
                         ::testing::Values("sim", "posix"));

TEST_P(SecurityTest, HonestProofVerifies) {
  auto proof = AssembleFor(Key(50));
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(VerifyGet(Key(50), proof.value()).ok());
}

TEST_P(SecurityTest, ForgedValueRejected) {
  const Status s = VerifyForgery(Key(50), auth::Adversary::ForgeResultValue);
  EXPECT_TRUE(s.IsAuthFailure()) << s.ToString();
}

TEST_P(SecurityTest, StaleRecordWithinLevelRejected) {
  // Compacted store: both generations of Key(50) share one level's chain.
  // The adversary fetches the *old* record (it sits in the level with its
  // own legitimate embedded proof) and presents it as the latest answer.
  auto newest = db_->GetVerified(Key(50));
  ASSERT_TRUE(newest.ok());
  ASSERT_TRUE(newest.value().record.has_value());
  const uint64_t newest_ts = newest.value().record->ts;

  // Time-travel assembly exposes the stale record plus the newer chain
  // prefix, an honest proof at its own timestamp; the attack then *hides*
  // the newer record and claims the result is the latest.
  auto proof = AssembleFor(Key(50), newest_ts - 1);
  ASSERT_TRUE(proof.ok());
  ASSERT_TRUE(VerifyGet(Key(50), proof.value(), newest_ts - 1).ok());
  ASSERT_TRUE(auth::Adversary::ServeStaleWithinLevel(&proof.value()))
      << "expected a >=2-record chain for the stale attack";
  const Status s = VerifyGet(Key(50), proof.value());
  EXPECT_TRUE(s.IsAuthFailure()) << s.ToString();
}

TEST_P(SecurityTest, SuppressedHitRejected) {
  const Status s =
      VerifyForgery(Key(50), auth::Adversary::SuppressShallowHit);
  EXPECT_TRUE(s.IsAuthFailure()) << s.ToString();
}

TEST_P(SecurityTest, ClaimedMissRejected) {
  const Status s = VerifyForgery(Key(50), auth::Adversary::ClaimMissingKey);
  EXPECT_TRUE(s.IsAuthFailure()) << s.ToString();
}

TEST_P(SecurityTest, TamperedSidecarContradictsWarmPathCache) {
  // An honest proof caches Key(50)'s leaf and every node above it. Tamper
  // that leaf in the sidecar, then ask for the neighbour whose first
  // sibling it is: the forged climb meets the cached parent and must fail.
  const auto [level, leaf] = LeafOf(Key(50));
  auto honest = AssembleFor(Key(50));
  ASSERT_TRUE(honest.ok());
  ASSERT_TRUE(VerifyGet(Key(50), honest.value()).ok());

  std::string neighbour;
  for (int i = 40; i < 60 && neighbour.empty(); ++i) {
    if (LeafOf(Key(i)) == std::make_pair(level, leaf ^ 1)) neighbour = Key(i);
  }
  ASSERT_FALSE(neighbour.empty());
  const std::string& tree = db_->engine().levels()[level].tree_file;
  ASSERT_TRUE(auth::Adversary::CorruptFile(db_->fs(), tree, 8 + 32 * leaf));

  auto forged = AssembleFor(neighbour);
  ASSERT_TRUE(forged.ok());
  const Status s = VerifyGet(neighbour, forged.value());
  EXPECT_TRUE(s.IsAuthFailure()) << s.ToString();
}

TEST_P(SecurityTest, ConcurrentReplaysAgainstSharedVerifier) {
  // Four threads replay honest and forged proofs of hot keys against one
  // verifier whose path cache is far smaller than the tree, so probes,
  // climbs, insertions and evictions interleave.
  struct Replay {
    std::string key;
    auth::AssembledGet proof;
    bool honest;
  };
  std::vector<Replay> replays;
  for (int i = 40; i < 56; ++i) {
    auto proof = AssembleFor(Key(i));
    ASSERT_TRUE(proof.ok());
    replays.push_back({Key(i), proof.value(), true});
    for (bool (*forge)(auth::AssembledGet*) :
         {auth::Adversary::ForgeResultValue, auth::Adversary::ClaimMissingKey,
          auth::Adversary::SuppressShallowHit}) {
      Replay forged{Key(i), proof.value(), false};
      if (forge(&forged.proof)) replays.push_back(std::move(forged));
    }
  }
  auth::Verifier shared(&db_->enclave(), /*path_cache_entries=*/48);
  const auto version = db_->engine().current_version();
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < 20 * replays.size(); ++i) {
        const Replay& r = replays[(i + 5 * t) % replays.size()];
        auto got =
            shared.VerifyGet(r.key, kLatest, r.proof, version->levels());
        if (r.honest ? !got.ok() : !got.status().IsAuthFailure()) ++wrong;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(shared.path_cache_stats().hits, 0u);
}

TEST_P(SecurityTest, DroppedScanRecordRejected) {
  auto proof = AssembleScanFor(Key(40), Key(60));
  ASSERT_TRUE(proof.ok());
  ASSERT_TRUE(auth::Adversary::DropScanRecord(&proof.value()));
  const Status s = VerifyScan(Key(40), Key(60), proof.value());
  EXPECT_TRUE(s.IsAuthFailure()) << s.ToString();
}

TEST_P(SecurityTest, HonestScanVerifies) {
  auto proof = AssembleScanFor(Key(40), Key(60));
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(VerifyScan(Key(40), Key(60), proof.value()).ok());
}

TEST_P(SecurityTest, TamperedSstableDetectedOnRead) {
  // Corrupt a data file on disk; the next GET touching it must fail
  // verification (or block parsing) rather than return the tampered bytes.
  std::string victim;
  for (const auto& name : db_->fs().List(db_->options().name)) {
    if (name.ends_with(".sst")) {
      victim = name;
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  ASSERT_TRUE(auth::Adversary::CorruptFile(db_->fs(), victim, 100));

  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    auto got = db_->GetVerified(Key(i));
    if (!got.ok()) {
      EXPECT_TRUE(got.status().IsAuthFailure() ||
                  got.status().IsCorruption())
          << got.status().ToString();
      ++failures;
    }
  }
  EXPECT_GT(failures, 0);
}

TEST_P(SecurityTest, TamperedTreeSidecarDetected) {
  std::string victim;
  for (const auto& name : db_->fs().List(db_->options().name)) {
    if (name.ends_with(".tree")) {
      victim = name;
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  // Flip a hash byte beyond the header.
  ASSERT_TRUE(auth::Adversary::CorruptFile(db_->fs(), victim, 48));

  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    auto got = db_->GetVerified(Key(i));
    if (!got.ok()) ++failures;
  }
  EXPECT_GT(failures, 0);
}

TEST_P(SecurityTest, FailedScanIsNotCountedAsVerified) {
  // Flip every node of every sidecar: any range proof short of a whole
  // level now fails, and a failed scan must not count as verified.
  for (const auto& name : db_->fs().List(db_->options().name)) {
    if (!name.ends_with(".tree")) continue;
    const size_t size = db_->fs().Blob(name)->size();
    for (size_t offset = 8; offset < size; offset += 32) {
      ASSERT_TRUE(auth::Adversary::CorruptFile(db_->fs(), name, offset));
    }
  }
  const ElsmDb::OpStats before = db_->op_stats();
  auto scan = db_->Scan(Key(50), Key(52));
  ASSERT_FALSE(scan.ok());
  EXPECT_TRUE(scan.status().IsAuthFailure()) << scan.status().ToString();
  const ElsmDb::OpStats after = db_->op_stats();
  EXPECT_EQ(after.verified_ops, before.verified_ops);
  EXPECT_EQ(after.proof_bytes, before.proof_bytes);
}

TEST_P(SecurityTest, TamperedInputAbortsCompaction) {
  // Corrupt a level file, then force a compaction over it: the in-enclave
  // input digest check (Fig. 4 lines 31-33) must abort the merge.
  std::string victim;
  for (const auto& name : db_->fs().List(db_->options().name)) {
    if (name.ends_with(".sst")) victim = name;  // deepest file listed last
  }
  ASSERT_FALSE(victim.empty());
  ASSERT_TRUE(auth::Adversary::CorruptFile(db_->fs(), victim, 7));
  for (int i = 0; i < 200; ++i) {
    (void)db_->Put(Key(i), "gen2");
  }
  const Status s = db_->CompactAll();
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsAuthFailure() || s.IsCorruption()) << s.ToString();
}

TEST(RollbackTest, RestoredOldStateDetectedOnReopen) {
  Options options;
  options.mode = Mode::kP2;
  options.memtable_bytes = 4 << 10;
  options.level1_bytes = 16 << 10;
  auto platform = std::make_shared<TrustedPlatform>();
  auto enclave = std::make_shared<sgx::Enclave>(options.cost_model, true);
  auto fs = std::make_shared<storage::SimFs>(enclave);

  // Epoch 1: some data, then snapshot the whole "disk".
  {
    auto db = ElsmDb::Open(options, fs, platform);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), "epoch1").ok());
    }
    ASSERT_TRUE(db.value()->Close().ok());
  }
  std::map<std::string, std::string> snapshot;
  for (const auto& name : fs->List("")) {
    snapshot[name] = *fs->Blob(name);
  }

  // Epoch 2: overwrite the data (bumps the monotonic counter on flush).
  {
    auto db = ElsmDb::Open(options, fs, platform);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), "epoch2").ok());
    }
    ASSERT_TRUE(db.value()->Flush().ok());
    ASSERT_TRUE(db.value()->Close().ok());
  }

  // Adversary rolls the disk back to the (authentic!) epoch-1 state.
  for (const auto& name : fs->List("")) {
    if (!snapshot.count(name)) (void)fs->Delete(name);
  }
  for (const auto& [name, bytes] : snapshot) {
    ASSERT_TRUE(fs->Write(name, bytes).ok());
  }

  auto db = ElsmDb::Open(options, fs, platform);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsRollbackDetected()) << db.status().ToString();
}

TEST(RollbackTest, TruncatedWalDetectedOnReopen) {
  Options options;
  options.mode = Mode::kP2;
  options.memtable_bytes = 64 << 10;  // keep everything in the WAL
  auto platform = std::make_shared<TrustedPlatform>();
  auto enclave = std::make_shared<sgx::Enclave>(options.cost_model, true);
  auto fs = std::make_shared<storage::SimFs>(enclave);
  {
    auto db = ElsmDb::Open(options, fs, platform);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), "v").ok());
    }
    ASSERT_TRUE(db.value()->Close().ok());  // seals digest over 50 records
  }
  // Drop the tail of the WAL.
  auto wal = fs->MutableBlob(options.name + "/wal");
  ASSERT_NE(wal, nullptr);
  wal->resize(wal->size() / 2);

  auto db = ElsmDb::Open(options, fs, platform);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsRollbackDetected() ||
              db.status().IsAuthFailure())
      << db.status().ToString();
}

TEST(RollbackTest, TamperedWalRecordDetectedOnReopen) {
  Options options;
  options.mode = Mode::kP2;
  options.memtable_bytes = 64 << 10;
  auto platform = std::make_shared<TrustedPlatform>();
  auto enclave = std::make_shared<sgx::Enclave>(options.cost_model, true);
  auto fs = std::make_shared<storage::SimFs>(enclave);
  {
    auto db = ElsmDb::Open(options, fs, platform);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), "genuine").ok());
    }
    ASSERT_TRUE(db.value()->Close().ok());
  }
  // Flip one payload byte inside a WAL frame *and* fix up the frame
  // checksum so only the in-enclave digest can catch it.
  auto wal = fs->MutableBlob(options.name + "/wal");
  ASSERT_NE(wal, nullptr);
  // Frame: 4B len, 4B cksum, payload. Flip a payload byte of frame 0 and
  // recompute the frame checksum over the mutated payload.
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= uint32_t(uint8_t((*wal)[size_t(i)])) << (8 * i);
  }
  ASSERT_GT(len, 20u);
  (*wal)[8 + len - 2] ^= 0x01;
  const auto digest =
      crypto::Sha256::Digest(std::string_view(wal->data() + 8, len));
  for (int i = 0; i < 4; ++i) (*wal)[size_t(4 + i)] = char(digest[size_t(i)]);

  auto db = ElsmDb::Open(options, fs, platform);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsAuthFailure()) << db.status().ToString();
}

TEST(ManifestTest, TamperedManifestSealRejected) {
  Options options;
  options.mode = Mode::kP2;
  auto platform = std::make_shared<TrustedPlatform>();
  auto enclave = std::make_shared<sgx::Enclave>(options.cost_model, true);
  auto fs = std::make_shared<storage::SimFs>(enclave);
  {
    auto db = ElsmDb::Open(options, fs, platform);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db.value()->Put("a", "b").ok());
    ASSERT_TRUE(db.value()->Close().ok());
  }
  ASSERT_TRUE(
      auth::Adversary::CorruptFile(*fs, options.name + "/MANIFEST", 3));
  auto db = ElsmDb::Open(options, fs, platform);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsAuthFailure()) << db.status().ToString();
}

// --- manifest edit-log adversary --------------------------------------------
//
// The manifest is a sealed snapshot plus a hash-chained tail of sealed
// delta records (src/elsm/manifest_log.h). These tests attack the *log
// structure* — truncate, reorder, duplicate, splice across positions,
// replay a stale generation, drop the snapshot under the tail — using only
// the public Fs surface, so every attack runs identically against SimFs
// and PosixFs. All must fail closed.
class ManifestLogAdversaryTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    options_ = SmallOptions();
    options_.counter_sync_period = 1;       // every persist bumps
    options_.manifest_snapshot_edits = 100;  // keep the tail all-delta
    if (std::string(GetParam()) == "posix") {
      ASSERT_TRUE(dir_.ok());
      options_.backend = storage::BackendKind::kPosix;
      options_.backend_dir = dir_.path();
    }
    platform_ = std::make_shared<TrustedPlatform>();
    auto enclave = std::make_shared<sgx::Enclave>(options_.cost_model, true);
    fs_ = storage::MakeFs(options_.backend, options_.backend_dir, enclave);
    // Several flush rounds so the tail holds a chain of delta records.
    auto db = ElsmDb::Open(options_, fs_, platform_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 40; ++i) {
        ASSERT_TRUE(
            db.value()
                ->Put(Key(round * 40 + i), test_util::Cat("v", round))
                .ok());
      }
      ASSERT_TRUE(db.value()->Flush().ok());
    }
    ASSERT_TRUE(db.value()->Close().ok());
  }

  Result<std::unique_ptr<ElsmDb>> Reopen() {
    return ElsmDb::Open(options_, fs_, platform_);
  }

  std::string TailName() {
    auto names = fs_->List(options_.name + "/EDITS-");
    EXPECT_EQ(names.size(), 1u) << "expected exactly one live tail file";
    return names.empty() ? std::string() : names[0];
  }

  // Splits the tail into self-contained frames (Fixed32 length + sealed
  // record each), so attacks can drop/reorder/duplicate whole records and
  // write the file back as a plain concatenation.
  std::vector<std::string> TailFrames() {
    auto raw = fs_->ReadAll(TailName());
    EXPECT_TRUE(raw.ok()) << raw.status().ToString();
    std::vector<std::string> frames;
    if (!raw.ok()) return frames;
    std::string_view cursor(raw.value());
    while (cursor.size() >= 4) {
      std::string_view peek = cursor;
      uint32_t len = 0;
      EXPECT_TRUE(GetFixed32(&peek, &len));
      if (peek.size() < len) break;
      frames.emplace_back(cursor.substr(0, 4 + len));
      cursor.remove_prefix(4 + len);
    }
    EXPECT_TRUE(cursor.empty()) << "torn tail in a cleanly closed store";
    return frames;
  }

  void WriteTail(const std::vector<std::string>& frames) {
    std::string raw;
    for (const std::string& frame : frames) raw += frame;
    ASSERT_TRUE(fs_->Write(TailName(), raw).ok());
  }

  test_util::TempDir dir_;
  Options options_;
  std::shared_ptr<TrustedPlatform> platform_;
  std::shared_ptr<storage::Fs> fs_;
};

INSTANTIATE_TEST_SUITE_P(Backends, ManifestLogAdversaryTest,
                         ::testing::Values("sim", "posix"));

TEST_P(ManifestLogAdversaryTest, HonestLogReplaysExactly) {
  auto db = Reopen();
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 40; ++i) {
      auto got = db.value()->GetVerified(Key(round * 40 + i));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(got.value().record.has_value());
      EXPECT_EQ(got.value().record->value, test_util::Cat("v", round));
    }
  }
  ASSERT_TRUE(db.value()->Close().ok());
}

TEST_P(ManifestLogAdversaryTest, TruncatedTailDetectedAsRollback) {
  // Dropping the newest record yields a perfectly well-formed shorter log
  // — an older acknowledged state. Only the counter can tell: the
  // surviving newest record's sealed counter is behind the hardware.
  auto frames = TailFrames();
  ASSERT_GE(frames.size(), 2u);
  frames.pop_back();
  WriteTail(frames);
  auto db = Reopen();
  ASSERT_FALSE(db.ok()) << "truncated manifest tail accepted";
  EXPECT_TRUE(db.status().IsRollbackDetected()) << db.status().ToString();
}

TEST_P(ManifestLogAdversaryTest, ReorderedTailRecordsDetected) {
  auto frames = TailFrames();
  ASSERT_GE(frames.size(), 2u);
  std::swap(frames[0], frames[1]);
  WriteTail(frames);
  auto db = Reopen();
  ASSERT_FALSE(db.ok()) << "reordered manifest tail accepted";
  EXPECT_TRUE(db.status().IsAuthFailure()) << db.status().ToString();
}

TEST_P(ManifestLogAdversaryTest, DuplicatedTailRecordDetected) {
  // Replaying a legitimate record at a second position breaks the strict
  // seq+1 rule even though every individual seal verifies.
  auto frames = TailFrames();
  ASSERT_GE(frames.size(), 1u);
  frames.push_back(frames.back());
  WriteTail(frames);
  auto db = Reopen();
  ASSERT_FALSE(db.ok()) << "duplicated manifest record accepted";
  EXPECT_TRUE(db.status().IsAuthFailure()) << db.status().ToString();
}

TEST_P(ManifestLogAdversaryTest, SnapshotSplicedIntoTailDetected) {
  // The snapshot file is validly sealed — framing it into the tail must
  // still fail on the record-kind check (a snapshot never rides the tail).
  auto manifest = fs_->ReadAll(options_.name + "/MANIFEST");
  ASSERT_TRUE(manifest.ok());
  auto frames = TailFrames();
  std::string spliced;
  PutFixed32(&spliced, static_cast<uint32_t>(manifest.value().size()));
  spliced += manifest.value();
  frames.push_back(spliced);
  WriteTail(frames);
  auto db = Reopen();
  ASSERT_FALSE(db.ok()) << "snapshot record accepted inside the tail";
  EXPECT_TRUE(db.status().IsAuthFailure()) << db.status().ToString();
}

TEST_P(ManifestLogAdversaryTest, DeltaRecordAsSnapshotDetected) {
  // Inverse splice: promote a validly sealed delta record to the snapshot
  // position. Replay checks the kind before it parses the body, so this
  // reads as tampering, never as a malformed payload.
  auto frames = TailFrames();
  ASSERT_GE(frames.size(), 1u);
  const std::string sealed_record = frames.back().substr(4);
  ASSERT_TRUE(fs_->Write(options_.name + "/MANIFEST", sealed_record).ok());
  auto db = Reopen();
  ASSERT_FALSE(db.ok()) << "delta record accepted as the snapshot";
  EXPECT_TRUE(db.status().IsAuthFailure()) << db.status().ToString();
}

TEST_P(ManifestLogAdversaryTest, StaleLogGenerationReplayDetected) {
  // Capture the whole manifest log (snapshot + tail), advance the store,
  // then roll just the log files back to the authentic-but-stale capture.
  // The final replayed record's sealed counter is behind the hardware.
  std::map<std::string, std::string> capture;
  for (const std::string& name :
       {std::string(options_.name + "/MANIFEST"), TailName()}) {
    auto bytes = fs_->ReadAll(name);
    ASSERT_TRUE(bytes.ok());
    capture[name] = std::move(bytes).value();
  }
  {
    auto db = Reopen();
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(db.value()->Put(Key(i), "fresher").ok());
    }
    ASSERT_TRUE(db.value()->Flush().ok());
    ASSERT_TRUE(db.value()->Close().ok());
  }
  for (const auto& [name, bytes] : capture) {
    ASSERT_TRUE(fs_->Write(name, bytes).ok());
  }
  auto db = Reopen();
  ASSERT_FALSE(db.ok()) << "stale manifest log generation accepted";
  EXPECT_TRUE(db.status().IsRollbackDetected()) << db.status().ToString();
}

TEST_P(ManifestLogAdversaryTest, DroppedSnapshotUnderTailFailsClosed) {
  ASSERT_TRUE(fs_->Delete(options_.name + "/MANIFEST").ok());
  auto db = Reopen();
  ASSERT_FALSE(db.ok()) << "tail without its snapshot accepted";
  EXPECT_TRUE(db.status().IsRollbackDetected() || db.status().IsAuthFailure())
      << db.status().ToString();
}

TEST_P(ManifestLogAdversaryTest, CounterOneAheadWindowIsExactlyOne) {
  // The bump-after-durable ordering leaves one legal gap: the newest
  // sealed record may be exactly one ahead of the hardware counter (crash
  // after the record landed, before the bump). Recovery must sync the
  // hardware up for that gap and fail closed for any wider one — a
  // two-ahead record cannot result from any crash of the honest protocol.
  const uint64_t hw = platform_->counter.Read();
  ASSERT_GE(hw, 3u);

  auto two_behind = std::make_shared<TrustedPlatform>();
  two_behind->sealing_key = platform_->sealing_key;
  for (uint64_t i = 0; i + 2 < hw; ++i) two_behind->counter.Increment();
  auto rejected = ElsmDb::Open(options_, fs_, two_behind);
  ASSERT_FALSE(rejected.ok()) << "two-ahead sealed counter accepted";
  EXPECT_TRUE(rejected.status().IsCorruption())
      << rejected.status().ToString();

  auto one_behind = std::make_shared<TrustedPlatform>();
  one_behind->sealing_key = platform_->sealing_key;
  for (uint64_t i = 0; i + 1 < hw; ++i) one_behind->counter.Increment();
  auto db = ElsmDb::Open(options_, fs_, one_behind);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(one_behind->counter.Read(), hw)
      << "recovery must sync the hardware to the sealed value";
  ASSERT_TRUE(db.value()->Close().ok());
}

}  // namespace
}  // namespace elsm
