// Certificate-transparency case-study tests (paper §5.7): submission,
// audited lookups, revocation freshness, domain monitoring, and the
// misbehaving-log path.
#include <gtest/gtest.h>

#include "auth/adversary.h"
#include "ct/ct.h"
#include "str_cat.h"

namespace elsm::ct {
namespace {

Certificate MakeCert(const std::string& host, uint64_t serial,
                     const std::string& issuer = "TestCA") {
  Certificate cert;
  cert.hostname = host;
  cert.issuer = issuer;
  cert.public_key = test_util::Cat("pk-", host, "-", serial);
  cert.serial = serial;
  return cert;
}

Options LogOptions() {
  Options o;
  o.mode = Mode::kP2;
  o.name = "ctlog";
  o.memtable_bytes = 8 << 10;
  return o;
}

TEST(CtLogTest, SubmitAndLookup) {
  auto log = LogServer::Create(LogOptions());
  ASSERT_TRUE(log.ok());
  const Certificate cert = MakeCert("example.com", 1);
  ASSERT_TRUE(log.value()->Submit(cert).ok());
  auto entry = log.value()->Lookup("example.com");
  ASSERT_TRUE(entry.ok());
  ASSERT_TRUE(entry.value().has_value());
  EXPECT_EQ(entry.value()->cert_digest, cert.Digest());
  EXPECT_GT(entry.value()->log_ts, 0u);
}

TEST(CtLogTest, LookupUnknownHostIsAuthenticatedMiss) {
  auto log = LogServer::Create(LogOptions());
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(log.value()->Submit(MakeCert("a.com", 1)).ok());
  ASSERT_TRUE(log.value()->Checkpoint().ok());
  auto entry = log.value()->Lookup("unknown.com");
  ASSERT_TRUE(entry.ok());
  EXPECT_FALSE(entry.value().has_value());
}

TEST(CtLogTest, RejectsCertificateWithoutHostname) {
  auto log = LogServer::Create(LogOptions());
  ASSERT_TRUE(log.ok());
  EXPECT_FALSE(log.value()->Submit(MakeCert("", 1)).ok());
}

TEST(AuditorTest, ValidatesGenuineCertificate) {
  auto log = LogServer::Create(LogOptions());
  ASSERT_TRUE(log.ok());
  const Certificate cert = MakeCert("example.com", 1);
  ASSERT_TRUE(log.value()->Submit(cert).ok());
  ASSERT_TRUE(log.value()->Checkpoint().ok());
  Auditor auditor(log.value().get());
  EXPECT_EQ(auditor.Validate(cert), Auditor::Verdict::kValid);
}

TEST(AuditorTest, DetectsRotatedCertificate) {
  // A newer certificate was logged: presenting the old one must fail the
  // freshness-backed mismatch check (the CT motivation in §3.1).
  auto log = LogServer::Create(LogOptions());
  ASSERT_TRUE(log.ok());
  const Certificate old_cert = MakeCert("example.com", 1);
  const Certificate new_cert = MakeCert("example.com", 2);
  ASSERT_TRUE(log.value()->Submit(old_cert).ok());
  ASSERT_TRUE(log.value()->Submit(new_cert).ok());
  Auditor auditor(log.value().get());
  EXPECT_EQ(auditor.Validate(old_cert), Auditor::Verdict::kMismatch);
  EXPECT_EQ(auditor.Validate(new_cert), Auditor::Verdict::kValid);
}

TEST(AuditorTest, DetectsRevokedCertificate) {
  auto log = LogServer::Create(LogOptions());
  ASSERT_TRUE(log.ok());
  const Certificate cert = MakeCert("example.com", 1);
  ASSERT_TRUE(log.value()->Submit(cert).ok());
  ASSERT_TRUE(log.value()->Revoke("example.com").ok());
  Auditor auditor(log.value().get());
  EXPECT_EQ(auditor.Validate(cert), Auditor::Verdict::kRevoked);
}

TEST(AuditorTest, UnknownHostVerdict) {
  auto log = LogServer::Create(LogOptions());
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(log.value()->Submit(MakeCert("other.com", 1)).ok());
  Auditor auditor(log.value().get());
  EXPECT_EQ(auditor.Validate(MakeCert("nolog.com", 1)),
            Auditor::Verdict::kUnknownHost);
}

TEST(MonitorTest, WatchesOnlyOwnDomain) {
  auto log = LogServer::Create(LogOptions());
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(log.value()->Submit(MakeCert("mydomain.com", 1)).ok());
  ASSERT_TRUE(log.value()->Submit(MakeCert("mydomain.com.shop", 2)).ok());
  ASSERT_TRUE(log.value()->Submit(MakeCert("otherdomain.org", 3)).ok());
  ASSERT_TRUE(log.value()->Checkpoint().ok());
  auto watched = log.value()->WatchDomain("mydomain.com");
  ASSERT_TRUE(watched.ok());
  EXPECT_EQ(watched.value().size(), 2u);  // sublinear monitoring: no
                                          // otherdomain.org download
}

TEST(MonitorTest, DetectsMisissuedCertificate) {
  auto log = LogServer::Create(LogOptions());
  ASSERT_TRUE(log.ok());
  const Certificate genuine = MakeCert("mydomain.com", 1);
  ASSERT_TRUE(log.value()->Submit(genuine).ok());
  Monitor monitor(log.value().get(), "mydomain.com");
  monitor.Trust(genuine);

  auto clean = monitor.FindMisissued();
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean.value().empty());

  // A rogue CA issues a cert for a subdomain the owner never requested.
  ASSERT_TRUE(
      log.value()->Submit(MakeCert("mydomain.com.evil", 666, "RogueCA")).ok());
  ASSERT_TRUE(log.value()->Checkpoint().ok());
  auto alerts = monitor.FindMisissued();
  ASSERT_TRUE(alerts.ok());
  ASSERT_EQ(alerts.value().size(), 1u);
  EXPECT_EQ(alerts.value()[0], "mydomain.com.evil");
}

TEST(CtSecurityTest, TamperedLogDetectedByAuditor) {
  auto log = LogServer::Create(LogOptions());
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        log.value()->Submit(MakeCert(test_util::Cat("host", i, ".com"),
                                     uint64_t(i)))
            .ok());
  }
  ASSERT_TRUE(log.value()->Checkpoint().ok());
  // Malicious log operator flips bytes in the stored log files.
  std::string victim;
  for (const auto& name : log.value()->db().fs().List("ctlog")) {
    if (name.ends_with(".sst")) victim = name;
  }
  ASSERT_FALSE(victim.empty());
  ASSERT_TRUE(auth::Adversary::CorruptFile(log.value()->db().fs(), victim, 64));

  Auditor auditor(log.value().get());
  int misbehaved = 0;
  for (int i = 0; i < 200; ++i) {
    if (auditor.Validate(MakeCert(test_util::Cat("host", i, ".com"),
                                  uint64_t(i))) ==
        Auditor::Verdict::kLogMisbehaved) {
      ++misbehaved;
    }
  }
  EXPECT_GT(misbehaved, 0);
}

}  // namespace
}  // namespace elsm::ct
