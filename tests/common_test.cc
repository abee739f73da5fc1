// Unit tests for the common substrate: varint/fixed coding (round trips and
// malformed-input rejection), Status/Result semantics, Rng determinism,
// histogram accounting and the BackgroundJob handshake (coalescing, inline
// mode, first error, stop rule; run under the tsan preset).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <stdexcept>
#include <thread>

#include "common/background_job.h"
#include "common/coding.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/status.h"

namespace elsm {
namespace {

TEST(CodingTest, Fixed32RoundTrip) {
  for (uint32_t v : {0u, 1u, 0xffu, 0x12345678u, 0xffffffffu}) {
    std::string buf;
    PutFixed32(&buf, v);
    EXPECT_EQ(buf.size(), 4u);
    std::string_view cursor(buf);
    uint32_t out = 0;
    ASSERT_TRUE(GetFixed32(&cursor, &out));
    EXPECT_EQ(out, v);
    EXPECT_TRUE(cursor.empty());
  }
}

TEST(CodingTest, Fixed64RoundTrip) {
  for (uint64_t v : {uint64_t(0), uint64_t(1), uint64_t(1) << 33,
                     std::numeric_limits<uint64_t>::max()}) {
    std::string buf;
    PutFixed64(&buf, v);
    std::string_view cursor(buf);
    uint64_t out = 0;
    ASSERT_TRUE(GetFixed64(&cursor, &out));
    EXPECT_EQ(out, v);
  }
}

TEST(CodingTest, VarintRoundTripAtBoundaries) {
  const uint64_t values[] = {0,       127,        128,        16383,
                             16384,   (1u << 21) - 1, 1u << 21,  0xffffffffu,
                             uint64_t(1) << 32, uint64_t(1) << 63,
                             std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : values) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(int(buf.size()), VarintLength(v)) << v;
    std::string_view cursor(buf);
    uint64_t out = 0;
    ASSERT_TRUE(GetVarint64(&cursor, &out)) << v;
    EXPECT_EQ(out, v);
    EXPECT_TRUE(cursor.empty());
  }
}

TEST(CodingTest, Varint32RejectsOverflow) {
  std::string buf;
  PutVarint64(&buf, uint64_t(1) << 40);
  std::string_view cursor(buf);
  uint32_t out = 0;
  EXPECT_FALSE(GetVarint32(&cursor, &out));
}

TEST(CodingTest, VarintRejectsTruncation) {
  std::string buf;
  PutVarint64(&buf, uint64_t(1) << 40);
  for (size_t cut = 1; cut < buf.size(); ++cut) {
    std::string_view cursor(buf.data(), cut);
    uint64_t out = 0;
    EXPECT_FALSE(GetVarint64(&cursor, &out)) << cut;
  }
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, std::string(1000, 'x'));
  PutLengthPrefixed(&buf, "");
  std::string_view cursor(buf);
  std::string_view a, b, c;
  ASSERT_TRUE(GetLengthPrefixed(&cursor, &a));
  ASSERT_TRUE(GetLengthPrefixed(&cursor, &b));
  ASSERT_TRUE(GetLengthPrefixed(&cursor, &c));
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b.size(), 1000u);
  EXPECT_TRUE(c.empty());
  EXPECT_TRUE(cursor.empty());
}

TEST(CodingTest, LengthPrefixedRejectsShortPayload) {
  std::string buf;
  PutVarint32(&buf, 100);  // claims 100 bytes
  buf += "only-a-few";
  std::string_view cursor(buf);
  std::string_view out;
  EXPECT_FALSE(GetLengthPrefixed(&cursor, &out));
}

TEST(StatusTest, CodesAndMessages) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status s = Status::AuthFailure("bad proof");
  EXPECT_TRUE(s.IsAuthFailure());
  EXPECT_EQ(s.ToString(), "AuthFailure: bad proof");
  EXPECT_EQ(Status::NotFound().ToString(), "NotFound");
  EXPECT_TRUE(Status::RollbackDetected("x").IsRollbackDetected());
}

TEST(StatusTest, ResultCarriesValueXorStatus) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> bad(Status::IOError("disk"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_EQ(ok.value_or(-1), 42);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool differs = false;
  Rng a2(7);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(4);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.Bernoulli(0.25)) ++hits;
  }
  EXPECT_NEAR(double(hits) / 100000.0, 0.25, 0.01);
}

TEST(HistogramTest, MinMaxMeanCount) {
  Histogram h;
  h.Add(100);
  h.Add(200);
  h.Add(300);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.Min(), 100u);
  EXPECT_EQ(h.Max(), 300u);
  EXPECT_DOUBLE_EQ(h.Mean(), 200.0);
}

TEST(HistogramTest, MergeAndClear) {
  Histogram a, b;
  a.Add(10);
  b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.Max(), 1000u);
  a.Clear();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.Mean(), 0.0);
}

TEST(HistogramTest, PercentileApproximatesDistribution) {
  Histogram h;
  for (uint64_t i = 1; i <= 1000; ++i) h.Add(i * 1000);  // 1us..1ms uniform
  const double p50 = h.Percentile(50);
  EXPECT_GT(p50, 300'000);
  EXPECT_LT(p50, 800'000);
  EXPECT_GE(h.Percentile(99), p50);
}

TEST(HistogramTest, SummaryFormatsFields) {
  Histogram h;
  h.Add(5000);
  const std::string s = h.Summary();
  EXPECT_NE(s.find("count=1"), std::string::npos);
  EXPECT_NE(s.find("mean="), std::string::npos);
  EXPECT_NE(s.find("p99="), std::string::npos);
}

// A job whose first run blocks until the test releases it.
struct GatedJob {
  std::atomic<int> runs{0};
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();

  Status operator()() {
    if (runs.fetch_add(1) == 0) {
      started.set_value();
      released.wait();
    }
    return Status::Ok();
  }
};

TEST(BackgroundJobTest, RequestsCoalesceIntoOneMoreRun) {
  GatedJob gated;
  common::BackgroundJob job([&] { return gated(); }, /*threaded=*/true);
  job.Schedule();
  gated.started.get_future().wait();
  // Run 1 is running: the first request queues run 2, and the rest find it
  // queued and not yet started.
  for (int i = 0; i < 5; ++i) job.Schedule();
  gated.release.set_value();
  job.WaitIdle();
  EXPECT_EQ(gated.runs.load(), 2);
  EXPECT_TRUE(job.TakeStatus().ok());
}

TEST(BackgroundJobTest, InlineModeRunsOnTheCaller) {
  int runs = 0;
  std::thread::id ran_on;
  common::BackgroundJob job(
      [&] {
        ++runs;
        ran_on = std::this_thread::get_id();
        return Status::Ok();
      },
      /*threaded=*/false);
  job.Schedule();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  job.Schedule();  // nothing queued to coalesce into: runs again
  EXPECT_EQ(runs, 2);
  job.WaitIdle();
  job.Stop();
  job.Schedule();
  EXPECT_EQ(runs, 2);
}

TEST(BackgroundJobTest, FirstErrorSurfacesExactlyOnce) {
  for (bool threaded : {false, true}) {
    int runs = 0;
    common::BackgroundJob job(
        [&]() -> Status {
          ++runs;
          if (runs == 1) return Status::IOError("first");
          if (runs == 2) return Status::Corruption("second");
          if (runs == 3) return Status::Ok();
          throw std::runtime_error("boom");
        },
        threaded);
    job.Schedule();
    job.WaitIdle();
    job.Schedule();
    job.WaitIdle();
    Status s = job.TakeStatus();
    EXPECT_EQ(s.code(), StatusCode::kIOError) << "threaded=" << threaded;
    EXPECT_EQ(s.message(), "first");
    EXPECT_TRUE(job.TakeStatus().ok()) << "threaded=" << threaded;
    job.Schedule();
    job.WaitIdle();
    EXPECT_TRUE(job.TakeStatus().ok()) << "threaded=" << threaded;
    // A job that throws fails its run instead of hanging WaitIdle.
    job.Schedule();
    job.WaitIdle();
    s = job.TakeStatus();
    EXPECT_EQ(s.code(), StatusCode::kIOError) << "threaded=" << threaded;
    EXPECT_NE(s.message().find("boom"), std::string::npos) << s.ToString();
  }
}

TEST(BackgroundJobTest, StopRunsWhatWasRequestedAndDropsLaterRequests) {
  GatedJob gated;
  common::BackgroundJob job([&] { return gated(); }, /*threaded=*/true);
  job.Schedule();
  gated.started.get_future().wait();
  job.Schedule();  // queued behind the running run 1
  // Release run 1 only once Stop() is (almost certainly) waiting: the
  // request made before Stop must still run.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gated.release.set_value();
  });
  job.Stop();
  EXPECT_EQ(gated.runs.load(), 2);
  releaser.join();
  job.Schedule();  // made after Stop: dropped
  job.WaitIdle();
  job.Stop();      // idempotent
  EXPECT_EQ(gated.runs.load(), 2);
  EXPECT_TRUE(job.TakeStatus().ok());
}

}  // namespace
}  // namespace elsm
