// Odds-and-ends coverage: async-device shutdown semantics, histogram and
// counter edge cases, serialization underruns, op-log robustness, and
// other small behaviours the main suites do not pin down.
#include <gtest/gtest.h>

#include <atomic>

#include "basefs/async_device.h"
#include "blockdev/mem_device.h"
#include "common/serial.h"
#include "common/stats.h"
#include "oplog/op_log.h"

namespace raefs {
namespace {

TEST(AsyncDevice, ShutdownDrainsQueuedWork) {
  MemBlockDevice inner(128);
  std::atomic<int> done{0};
  {
    AsyncBlockDevice async(&inner, 1);  // single worker: queue builds up
    for (BlockNo b = 0; b < 100; ++b) {
      async.submit_writev(
          b, {std::make_shared<const BlockBuf>(kBlockSize, uint8_t{1})},
          [&](Status st) {
            EXPECT_TRUE(st.ok());
            ++done;
          });
    }
    async.shutdown();  // must complete everything already queued
  }
  EXPECT_EQ(done.load(), 100);
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(inner.read_block(99, out).ok());
  EXPECT_EQ(out[0], 1);
}

TEST(AsyncDevice, ShutdownIsIdempotentAndDropsLateSubmissions) {
  MemBlockDevice inner(8);
  AsyncBlockDevice async(&inner, 2);
  async.shutdown();
  async.shutdown();  // no deadlock, no double-join
  std::atomic<bool> ran{false};
  async.submit_writev(
      0, {std::make_shared<const BlockBuf>(kBlockSize, uint8_t{1})},
      [&](Status) { ran = true; });
  async.drain();
  EXPECT_FALSE(ran.load());  // dropped: the device is stopping
}

TEST(Histogram, SingleSampleAndExtremes) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0u);
  h.record(777);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 777u);
  EXPECT_EQ(h.max(), 777u);
  EXPECT_EQ(h.quantile(0.0), h.quantile(1.0));
  EXPECT_LE(h.quantile(1.0), 1024u);  // within the sample's log bucket
  h.record(0);  // zero is representable
  EXPECT_EQ(h.min(), 0u);
  EXPECT_FALSE(h.summary().empty());
}

TEST(Histogram, QuantilesAreMonotone) {
  LatencyHistogram h;
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) h.record(rng.below(1u << 20));
  Nanos last = 0;
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    Nanos v = h.quantile(q);
    EXPECT_GE(v, last) << "q=" << q;
    last = v;
  }
  EXPECT_LE(h.quantile(1.0), h.max());
}

TEST(Counters, AccumulateAndSummarize) {
  CounterSet counters;
  EXPECT_EQ(counters.get("absent"), 0u);
  counters.add("reads");
  counters.add("reads", 4);
  counters.add("writes", 2);
  EXPECT_EQ(counters.get("reads"), 5u);
  auto summary = counters.summary();
  EXPECT_NE(summary.find("reads=5"), std::string::npos);
  EXPECT_NE(summary.find("writes=2"), std::string::npos);
  EXPECT_EQ(counters.all().size(), 2u);
}

TEST(Serial, GetBytesUnderrunReturnsEmpty) {
  std::vector<uint8_t> buf = {1, 2, 3};
  Decoder dec(buf);
  EXPECT_TRUE(dec.get_bytes(100).empty());
  EXPECT_FALSE(dec.ok());
}

TEST(Serial, FixedFieldStripsTrailingZerosOnly) {
  std::vector<uint8_t> buf;
  Encoder enc(&buf);
  enc.put_fixed(std::string("a\0b", 3), 6);
  Decoder dec(buf);
  EXPECT_EQ(dec.get_fixed(6), std::string("a\0b", 3));
}

TEST(OpLog, CompleteOnUnknownSeqIsHarmless) {
  OpLog log;
  OpRequest req;
  req.kind = OpKind::kCreate;
  log.append_started(req);
  log.complete(999, OpOutcome{});  // wrong seq: ignored, no crash
  EXPECT_FALSE(log.snapshot()[0].completed);
}

TEST(OpLog, SnapshotIsACopy) {
  OpLog log;
  OpRequest req;
  req.kind = OpKind::kCreate;
  req.path = "/x";
  Seq seq = log.append_started(req);
  auto snap = log.snapshot();
  log.complete(seq, OpOutcome{Errno::kExist, 0, 0, {}});
  EXPECT_FALSE(snap[0].completed);  // earlier snapshot unaffected
  EXPECT_TRUE(log.snapshot()[0].completed);
}

TEST(AvailabilityTracker, MultipleOutages) {
  AvailabilityTracker tracker;
  tracker.record_up(600);
  tracker.record_down(100);
  tracker.record_up(200);
  tracker.record_down(100);
  EXPECT_EQ(tracker.outages(), 2u);
  EXPECT_DOUBLE_EQ(tracker.availability(), 0.8);
}

}  // namespace
}  // namespace raefs
