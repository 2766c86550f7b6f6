// Block-device substrate tests: memory device semantics, volatile-cache
// crash behaviour, fault injection, read-only shadow view, async layer,
// the recovery read-ahead snapshot and parallel writer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>

#include "basefs/async_device.h"
#include "blockdev/fault_device.h"
#include "blockdev/file_device.h"
#include "blockdev/mem_device.h"
#include "blockdev/prefetch.h"
#include "blockdev/qdepth_probe.h"
#include "blockdev/timed_device.h"
#include "common/panic.h"

namespace raefs {
namespace {

std::vector<uint8_t> filled(uint8_t b) {
  return std::vector<uint8_t>(kBlockSize, b);
}

TEST(MemDevice, ReadBackWhatWasWritten) {
  MemBlockDevice dev(16);
  ASSERT_TRUE(dev.write_block(3, filled(0x42)).ok());
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(dev.read_block(3, out).ok());
  EXPECT_EQ(out, filled(0x42));
}

TEST(MemDevice, FreshDeviceIsZero) {
  MemBlockDevice dev(4);
  std::vector<uint8_t> out(kBlockSize, 0xFF);
  ASSERT_TRUE(dev.read_block(0, out).ok());
  EXPECT_EQ(out, filled(0));
}

TEST(MemDevice, BoundsAndSizeChecks) {
  MemBlockDevice dev(4);
  std::vector<uint8_t> out(kBlockSize);
  EXPECT_EQ(dev.read_block(4, out).error(), Errno::kInval);
  std::vector<uint8_t> small(16);
  EXPECT_EQ(dev.read_block(0, small).error(), Errno::kInval);
  EXPECT_EQ(dev.write_block(4, filled(1)).error(), Errno::kInval);
}

TEST(MemDevice, CrashDropsUnflushedWrites) {
  MemBlockDevice dev(8);
  ASSERT_TRUE(dev.write_block(1, filled(0x11)).ok());
  ASSERT_TRUE(dev.flush().ok());
  ASSERT_TRUE(dev.write_block(1, filled(0x22)).ok());
  ASSERT_TRUE(dev.write_block(2, filled(0x33)).ok());
  EXPECT_EQ(dev.volatile_blocks(), 2u);

  dev.crash();
  EXPECT_EQ(dev.volatile_blocks(), 0u);
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(dev.read_block(1, out).ok());
  EXPECT_EQ(out, filled(0x11));  // flushed version survived
  ASSERT_TRUE(dev.read_block(2, out).ok());
  EXPECT_EQ(out, filled(0x00));  // unflushed write lost
}

TEST(MemDevice, CrashWithPartialSurvival) {
  MemBlockDevice dev(64);
  for (BlockNo b = 0; b < 64; ++b) {
    ASSERT_TRUE(dev.write_block(b, filled(0x77)).ok());
  }
  Rng rng(9);
  dev.crash(&rng, 0.5);
  int survived = 0;
  std::vector<uint8_t> out(kBlockSize);
  for (BlockNo b = 0; b < 64; ++b) {
    ASSERT_TRUE(dev.read_block(b, out).ok());
    if (out == filled(0x77)) ++survived;
  }
  EXPECT_GT(survived, 10);
  EXPECT_LT(survived, 54);
}

TEST(MemDevice, LatencyChargesClock) {
  auto clock = make_clock();
  LatencyModel lat;
  lat.read_ns = 10;
  lat.write_ns = 20;
  lat.flush_ns = 100;
  MemBlockDevice dev(4, clock, lat);
  std::vector<uint8_t> out(kBlockSize);
  (void)dev.read_block(0, out);
  (void)dev.write_block(0, filled(1));
  (void)dev.flush();
  EXPECT_EQ(clock->now(), 130u);
}

TEST(MemDevice, StatsCount) {
  MemBlockDevice dev(4);
  std::vector<uint8_t> out(kBlockSize);
  (void)dev.read_block(0, out);
  (void)dev.read_block(1, out);
  (void)dev.write_block(0, filled(1));
  (void)dev.flush();
  EXPECT_EQ(dev.stats().reads.load(), 2u);
  EXPECT_EQ(dev.stats().writes.load(), 1u);
  EXPECT_EQ(dev.stats().flushes.load(), 1u);
}

TEST(MemDevice, CloneFullIncludesVolatile) {
  MemBlockDevice dev(4);
  ASSERT_TRUE(dev.write_block(2, filled(0x9A)).ok());  // unflushed
  auto copy = dev.clone_full();
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(copy->read_block(2, out).ok());
  EXPECT_EQ(out, filled(0x9A));
}

TEST(ReadOnlyDevice, RefusesWritesWithShadowCheck) {
  MemBlockDevice inner(4);
  ReadOnlyDevice ro(&inner);
  std::vector<uint8_t> out(kBlockSize);
  EXPECT_TRUE(ro.read_block(0, out).ok());
  EXPECT_THROW((void)ro.write_block(0, filled(1)), ShadowCheckError);
  EXPECT_THROW((void)ro.flush(), ShadowCheckError);
  EXPECT_EQ(ro.refused_writes(), 2u);
}

TEST(FaultDevice, InjectsReadErrors) {
  MemBlockDevice inner(4);
  FaultDeviceConfig config;
  config.read_error_prob = 1.0;
  FaultBlockDevice dev(&inner, config);
  std::vector<uint8_t> out(kBlockSize);
  EXPECT_EQ(dev.read_block(0, out).error(), Errno::kIo);
  EXPECT_EQ(dev.injected_read_errors(), 1u);
  dev.disarm();
  EXPECT_TRUE(dev.read_block(0, out).ok());
}

TEST(FaultDevice, SilentCorruptionFlipsOneBit) {
  MemBlockDevice inner(4);
  ASSERT_TRUE(inner.write_block(0, filled(0x00)).ok());
  FaultDeviceConfig config;
  config.read_corrupt_prob = 1.0;
  FaultBlockDevice dev(&inner, config);
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(dev.read_block(0, out).ok());  // "succeeds" -- silently wrong
  int bits = 0;
  for (uint8_t b : out) bits += __builtin_popcount(b);
  EXPECT_EQ(bits, 1);
  EXPECT_EQ(dev.injected_corruptions(), 1u);
}

TEST(FaultDevice, WriteErrors) {
  MemBlockDevice inner(4);
  FaultDeviceConfig config;
  config.write_error_prob = 1.0;
  FaultBlockDevice dev(&inner, config);
  EXPECT_EQ(dev.write_block(0, filled(1)).error(), Errno::kIo);
  EXPECT_EQ(dev.injected_write_errors(), 1u);
}

TEST(FaultDevice, CrashAfterKthWriteIsADeadDevice) {
  MemBlockDevice inner(8);
  FaultBlockDevice dev(&inner);
  dev.arm_crash_after_writes(2);
  ASSERT_TRUE(dev.write_block(0, filled(1)).ok());
  ASSERT_TRUE(dev.write_block(1, filled(2)).ok());
  EXPECT_FALSE(dev.crashed());
  // The k-th write and everything after it fail: the machine lost power.
  EXPECT_EQ(dev.write_block(2, filled(3)).error(), Errno::kIo);
  EXPECT_TRUE(dev.crashed());
  EXPECT_EQ(dev.write_block(3, filled(4)).error(), Errno::kIo);
  std::vector<uint8_t> out(kBlockSize);
  EXPECT_EQ(dev.read_block(0, out).error(), Errno::kIo);
  EXPECT_EQ(dev.flush().error(), Errno::kIo);
  // Counters name IO *attempts*, so a crash index is reproducible even
  // when some attempts failed.
  EXPECT_EQ(dev.writes_seen(), 4u);
  EXPECT_EQ(dev.reads_seen(), 1u);
}

TEST(FaultDevice, DisarmRevivesACrashedDevice) {
  MemBlockDevice inner(4);
  FaultBlockDevice dev(&inner);
  dev.arm_crash_after_writes(0);
  EXPECT_EQ(dev.write_block(0, filled(1)).error(), Errno::kIo);
  EXPECT_TRUE(dev.crashed());
  dev.disarm();
  EXPECT_FALSE(dev.crashed());
  ASSERT_TRUE(dev.write_block(0, filled(1)).ok());
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(dev.read_block(0, out).ok());
  EXPECT_EQ(out, filled(1));
}

TEST(FaultDevice, OneShotWriteErrorAtExactIndex) {
  MemBlockDevice inner(8);
  FaultBlockDevice dev(&inner);
  dev.arm_write_error_at(1);
  ASSERT_TRUE(dev.write_block(0, filled(1)).ok());
  EXPECT_EQ(dev.write_block(1, filled(2)).error(), Errno::kIo);
  // One-shot: the very next attempt succeeds and nothing else fires.
  ASSERT_TRUE(dev.write_block(1, filled(2)).ok());
  ASSERT_TRUE(dev.write_block(2, filled(3)).ok());
  EXPECT_EQ(dev.injected_write_errors(), 1u);
  EXPECT_FALSE(dev.crashed());
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(dev.read_block(1, out).ok());
  EXPECT_EQ(out, filled(2));
}

TEST(FaultDevice, OneShotReadErrorAtExactIndex) {
  MemBlockDevice inner(8);
  FaultBlockDevice dev(&inner);
  ASSERT_TRUE(dev.write_block(0, filled(7)).ok());
  dev.arm_read_error_at(1);
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(dev.read_block(0, out).ok());
  EXPECT_EQ(dev.read_block(0, out).error(), Errno::kIo);
  ASSERT_TRUE(dev.read_block(0, out).ok());
  EXPECT_EQ(out, filled(7));
  EXPECT_EQ(dev.injected_read_errors(), 1u);
  EXPECT_EQ(dev.reads_seen(), 3u);
}

// --- reorder mode (crashx v2) ------------------------------------------

TEST(FaultDeviceReorder, BuffersWritesUntilBarrierAndReadsYourWrites) {
  MemBlockDevice inner(8);
  FaultBlockDevice dev(&inner);
  ASSERT_TRUE(dev.set_reorder_buffering(true).ok());
  EXPECT_TRUE(dev.reorder_buffering());
  ASSERT_TRUE(dev.write_block(1, filled(0xAA)).ok());
  ASSERT_TRUE(dev.write_block(2, filled(0xBB)).ok());
  ASSERT_TRUE(dev.write_block(1, filled(0xCC)).ok());
  EXPECT_EQ(dev.pending_writes(), 3u);
  // The inner device has seen nothing yet...
  EXPECT_EQ(inner.stats().writes.load(), 0u);
  // ...but the host observes its own newest write through the cache.
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(dev.read_block(1, out).ok());
  EXPECT_EQ(out, filled(0xCC));
  // The epoch snapshot is in submission order with submission indices.
  auto pend = dev.pending_epoch();
  ASSERT_EQ(pend.size(), 3u);
  EXPECT_EQ(pend[0].index, 0u);
  EXPECT_EQ(pend[0].block, 1u);
  EXPECT_EQ(pend[1].index, 1u);
  EXPECT_EQ(pend[1].block, 2u);
  EXPECT_EQ(pend[2].index, 2u);
  EXPECT_EQ(pend[2].block, 1u);
  // A barrier drains in submission order: latest write per block wins.
  ASSERT_TRUE(dev.flush().ok());
  EXPECT_EQ(dev.pending_writes(), 0u);
  ASSERT_TRUE(inner.read_block(1, out).ok());
  EXPECT_EQ(out, filled(0xCC));
  ASSERT_TRUE(inner.read_block(2, out).ok());
  EXPECT_EQ(out, filled(0xBB));
}

TEST(FaultDeviceReorder, ArmedFlushCrashFreezesTheEpoch) {
  MemBlockDevice inner(8);
  FaultBlockDevice dev(&inner);
  ASSERT_TRUE(dev.set_reorder_buffering(true).ok());
  ASSERT_TRUE(dev.write_block(0, filled(1)).ok());
  ASSERT_TRUE(dev.flush().ok());
  dev.arm_crash_at_flush(1);
  ASSERT_TRUE(dev.write_block(1, filled(2)).ok());
  ASSERT_TRUE(dev.write_block(2, filled(3)).ok());
  EXPECT_EQ(dev.flush().error(), Errno::kIo);
  EXPECT_TRUE(dev.crashed());
  EXPECT_EQ(dev.writes_at_crash(), 3u);
  // The epoch is frozen, not drained: exactly the writes issued since the
  // last successful barrier, still in the volatile cache.
  auto pend = dev.pending_epoch();
  ASSERT_EQ(pend.size(), 2u);
  EXPECT_EQ(pend[0].index, 1u);
  EXPECT_EQ(pend[1].index, 2u);
  // Post-crash write attempts fail, never enter the epoch, and do not
  // disturb the frozen submission count.
  EXPECT_EQ(dev.write_block(3, filled(4)).error(), Errno::kIo);
  EXPECT_EQ(dev.pending_writes(), 2u);
  EXPECT_EQ(dev.writes_at_crash(), 3u);
  EXPECT_EQ(dev.writes_seen(), 4u);
}

TEST(FaultDeviceReorder, MaterializeAppliesSubsetLatestWins) {
  MemBlockDevice inner(8);
  FaultBlockDevice dev(&inner);
  ASSERT_TRUE(dev.set_reorder_buffering(true).ok());
  dev.arm_crash_at_flush(0);
  ASSERT_TRUE(dev.write_block(5, filled(0x11)).ok());  // pos 0
  ASSERT_TRUE(dev.write_block(6, filled(0x22)).ok());  // pos 1
  ASSERT_TRUE(dev.write_block(5, filled(0x33)).ok());  // pos 2
  EXPECT_EQ(dev.flush().error(), Errno::kIo);
  // Out-of-range selections are rejected with nothing applied.
  EXPECT_EQ(dev.materialize_pending({0, 3}).error(), Errno::kInval);
  EXPECT_EQ(inner.stats().writes.load(), 0u);
  EXPECT_EQ(dev.pending_writes(), 3u);
  // Keep both writes to block 5, positions in any order with duplicates:
  // ascending submission order applies, so the later copy wins; the
  // unselected write to block 6 is dropped with the epoch.
  ASSERT_TRUE(dev.materialize_pending({2, 0, 2}).ok());
  EXPECT_EQ(dev.pending_writes(), 0u);
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(inner.read_block(5, out).ok());
  EXPECT_EQ(out, filled(0x33));
  ASSERT_TRUE(inner.read_block(6, out).ok());
  EXPECT_EQ(out, filled(0x00));
}

TEST(FaultDeviceReorder, MaterializeRequiresReorderMode) {
  MemBlockDevice inner(4);
  FaultBlockDevice dev(&inner);
  EXPECT_EQ(dev.materialize_pending({}).error(), Errno::kInval);
}

TEST(FaultDeviceReorder, DisarmDropsThePendingEpochDeterministically) {
  // Disarm with a non-empty pending epoch drops it in full -- power-cycle
  // semantics -- never leaking buffered writes into later ops, and leaves
  // the buffering mode itself as configured. The identical sequence must
  // yield the identical image on every run.
  auto run = [] {
    MemBlockDevice inner(8);
    FaultBlockDevice dev(&inner);
    EXPECT_TRUE(dev.set_reorder_buffering(true).ok());
    EXPECT_TRUE(dev.write_block(1, filled(0x5A)).ok());
    EXPECT_TRUE(dev.flush().ok());
    dev.arm_crash_at_flush(1);
    EXPECT_TRUE(dev.write_block(2, filled(0x6B)).ok());
    EXPECT_TRUE(dev.write_block(3, filled(0x7C)).ok());
    EXPECT_EQ(dev.flush().error(), Errno::kIo);
    dev.disarm();
    EXPECT_FALSE(dev.crashed());
    EXPECT_EQ(dev.writes_at_crash(), 0u);
    EXPECT_EQ(dev.pending_writes(), 0u);   // dropped, not drained
    EXPECT_TRUE(dev.reorder_buffering());  // mode survives disarm
    // Later ops start a fresh epoch; nothing from before leaks through.
    EXPECT_TRUE(dev.write_block(4, filled(0x8D)).ok());
    EXPECT_TRUE(dev.flush().ok());
    std::vector<uint8_t> image;
    std::vector<uint8_t> out(kBlockSize);
    for (BlockNo b = 0; b < 8; ++b) {
      EXPECT_TRUE(inner.read_block(b, out).ok());
      image.insert(image.end(), out.begin(), out.end());
    }
    return image;
  };
  auto first = run();
  EXPECT_EQ(first, run());
  // Only barrier-covered writes survive: block 1 and block 4.
  auto block_of = [&](const std::vector<uint8_t>& img, BlockNo b) {
    return std::vector<uint8_t>(img.begin() + b * kBlockSize,
                                img.begin() + (b + 1) * kBlockSize);
  };
  EXPECT_EQ(block_of(first, 1), filled(0x5A));
  EXPECT_EQ(block_of(first, 2), filled(0x00));  // dropped with the epoch
  EXPECT_EQ(block_of(first, 3), filled(0x00));  // dropped with the epoch
  EXPECT_EQ(block_of(first, 4), filled(0x8D));
}

TEST(FaultDeviceReorder, DisablingBufferingDrainsInsteadOfDropping) {
  MemBlockDevice inner(8);
  FaultBlockDevice dev(&inner);
  ASSERT_TRUE(dev.set_reorder_buffering(true).ok());
  ASSERT_TRUE(dev.write_block(2, filled(0xE1)).ok());
  ASSERT_TRUE(dev.set_reorder_buffering(false).ok());
  EXPECT_FALSE(dev.reorder_buffering());
  EXPECT_EQ(dev.pending_writes(), 0u);
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(inner.read_block(2, out).ok());
  EXPECT_EQ(out, filled(0xE1));  // drained, not lost
}

TEST(FaultDeviceReorder, OneShotWriteErrorCountsSubmissionOrder) {
  // arm_write_error_at names the submission attempt even under buffering;
  // the failed write never enters the pending epoch.
  MemBlockDevice inner(8);
  FaultBlockDevice dev(&inner);
  ASSERT_TRUE(dev.set_reorder_buffering(true).ok());
  dev.arm_write_error_at(1);
  ASSERT_TRUE(dev.write_block(0, filled(1)).ok());
  EXPECT_EQ(dev.write_block(1, filled(2)).error(), Errno::kIo);
  ASSERT_TRUE(dev.write_block(2, filled(3)).ok());
  auto pend = dev.pending_epoch();
  ASSERT_EQ(pend.size(), 2u);
  EXPECT_EQ(pend[0].index, 0u);
  EXPECT_EQ(pend[1].index, 2u);  // index 1 was the EIO'd attempt
  ASSERT_TRUE(dev.flush().ok());
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(inner.read_block(1, out).ok());
  EXPECT_EQ(out, filled(0));  // the EIO'd write never reached the cache
  EXPECT_EQ(dev.injected_write_errors(), 1u);
}

TEST(FaultDeviceReorder, CrashImagesMatchUnbufferedExecution) {
  // Repro byte-identity: a crash-at-write-k repro recorded without
  // buffering produces the same durable image with buffering on, because
  // IO indices count submission order in both modes and the MemBlockDevice
  // volatile cache already drops unflushed writes at crash().
  auto drive = [](bool reorder) {
    MemBlockDevice mem(8);
    FaultBlockDevice dev(&mem);
    EXPECT_TRUE(dev.set_reorder_buffering(reorder).ok());
    dev.arm_crash_after_writes(4);
    for (BlockNo b = 0; b < 3; ++b) {
      EXPECT_TRUE(dev.write_block(b, filled(static_cast<uint8_t>(b + 1))).ok());
    }
    EXPECT_TRUE(dev.flush().ok());
    EXPECT_TRUE(dev.write_block(3, filled(0x44)).ok());  // index 3: volatile
    EXPECT_EQ(dev.write_block(4, filled(0x55)).error(), Errno::kIo);
    EXPECT_TRUE(dev.crashed());
    EXPECT_EQ(dev.writes_at_crash(), 4u);
    mem.crash();  // power loss: volatile contents gone in both modes
    std::vector<uint8_t> image;
    std::vector<uint8_t> out(kBlockSize);
    for (BlockNo b = 0; b < 8; ++b) {
      EXPECT_TRUE(mem.read_block(b, out).ok());
      image.insert(image.end(), out.begin(), out.end());
    }
    return image;
  };
  EXPECT_EQ(drive(false), drive(true));
}

BlockBufPtr shared_filled(uint8_t b) {
  return std::make_shared<const BlockBuf>(filled(b));
}

TEST(AsyncDevice, CompletesWrites) {
  MemBlockDevice inner(8);
  AsyncBlockDevice async(&inner, 2);
  std::atomic<int> completions{0};

  async.submit_writev(3, {shared_filled(0x5C), shared_filled(0x5D)},
                      [&](Status st) {
                        EXPECT_TRUE(st.ok());
                        ++completions;
                      });
  async.drain();
  EXPECT_EQ(completions.load(), 1);  // one callback per extent
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(inner.read_block(3, out).ok());
  EXPECT_EQ(out, filled(0x5C));
  ASSERT_TRUE(inner.read_block(4, out).ok());
  EXPECT_EQ(out, filled(0x5D));
}

TEST(AsyncDevice, ManyConcurrentRequests) {
  MemBlockDevice inner(256);
  AsyncBlockDevice async(&inner, 4);
  std::atomic<int> done{0};
  for (int round = 0; round < 4; ++round) {
    for (BlockNo b = 0; b < 256; ++b) {
      async.submit_writev(b, {shared_filled(static_cast<uint8_t>(round))},
                          [&](Status st) {
                            EXPECT_TRUE(st.ok());
                            ++done;
                          });
    }
  }
  async.drain();
  EXPECT_EQ(done.load(), 1024);
}

TEST(FileDevice, RoundTripsThroughDisk) {
  std::string path = ::testing::TempDir() + "/raefs_filedev_test.img";
  {
    FileBlockDevice dev(path, 8);
    ASSERT_TRUE(dev.write_block(5, filled(0xEE)).ok());
    ASSERT_TRUE(dev.flush().ok());
  }
  {
    FileBlockDevice dev(path, 8);
    std::vector<uint8_t> out(kBlockSize);
    ASSERT_TRUE(dev.read_block(5, out).ok());
    EXPECT_EQ(out, filled(0xEE));
  }
  ::unlink(path.c_str());
}

// ---------------------------------------------------------------------
// Queue-depth probe: the measurement behind `workers = 0` (auto).
// ---------------------------------------------------------------------

TEST(QdepthProbe, LatencyFreeDeviceShortCircuitsToDepthOne) {
  // A bare MemBlockDevice has no measurable per-IO latency: there is
  // nothing to overlap, and the probe must not invent scaling out of
  // scheduler noise.
  clear_queue_depth_cache();
  MemBlockDevice dev(256);
  auto r = probe_queue_depth(&dev);
  EXPECT_EQ(r.effective_depth, 1u);
  EXPECT_EQ(resolve_workers(0, &dev), 1u);
  clear_queue_depth_cache();
}

TEST(QdepthProbe, ExplicitKnobBypassesTheProbe) {
  clear_queue_depth_cache();
  MemBlockDevice dev(256);
  for (uint32_t knob : {1u, 2u, 4u, 8u, 12u}) {
    EXPECT_EQ(resolve_workers(knob, &dev), knob);
  }
  clear_queue_depth_cache();
}

TEST(QdepthProbe, ResultIsCachedPerDeviceInstance) {
  clear_queue_depth_cache();
  MemBlockDevice a(256);
  MemBlockDevice b(256);
  auto ra1 = cached_queue_depth(&a);
  auto ra2 = cached_queue_depth(&a);
  EXPECT_EQ(ra1.effective_depth, ra2.effective_depth);
  EXPECT_EQ(ra1.single_read_ns, ra2.single_read_ns);
  // A different instance gets its own probe (both land on depth 1 here,
  // but the cache must key on the instance, not the type).
  auto rb = cached_queue_depth(&b);
  EXPECT_EQ(rb.effective_depth, 1u);
  clear_queue_depth_cache();
}

TEST(QdepthProbe, TimedDeviceAlwaysResolvesTheCap) {
  // Any device whose reads cost real time resolves to the pools' cap on
  // every probe: the rule has no timed concurrency ladder for scheduler
  // noise to truncate.
  MemBlockDevice mem(256);
  for (int i = 0; i < 20; ++i) {
    clear_queue_depth_cache();
    TimedBlockDevice dev(&mem, RealLatency{});
    EXPECT_EQ(resolve_workers(0, &dev), 8u) << "probe " << i;
  }
  clear_queue_depth_cache();
}

TEST(QdepthProbe, ProbeOnlyReads) {
  // The probe runs on a mounted (possibly just-recovered) image: it must
  // never write. Arm the fault device to fail every write; the probe
  // must still succeed.
  clear_queue_depth_cache();
  MemBlockDevice mem(256);
  FaultBlockDevice dev(&mem);
  dev.arm_crash_after_writes(0);  // any write would fail from here on
  auto r = probe_queue_depth(&dev);
  EXPECT_GE(r.effective_depth, 1u);
  EXPECT_FALSE(dev.crashed()) << "the probe wrote to the device";
  EXPECT_EQ(dev.writes_seen(), 0u);
  clear_queue_depth_cache();
}

// ---------------------------------------------------------------------
// Read-ahead snapshot: the one prefetch primitive of the recovery phases.
// ---------------------------------------------------------------------

TEST(Prefetch, ServesFetchedBlocksAndPassesTheRestThrough) {
  MemBlockDevice dev(64);
  for (BlockNo b : {3, 5, 7}) {
    ASSERT_TRUE(dev.write_block(b, filled(static_cast<uint8_t>(b))).ok());
  }
  // Duplicates are fetched once; out-of-range blocks are never held.
  std::vector<BlockNo> want{5, 3, 5, 999};
  auto snap = prefetch(&dev, want, 4);
  EXPECT_EQ(dev.stats().reads.load(), 2u);
  ASSERT_NE(snap->find(3), nullptr);
  ASSERT_NE(snap->find(5), nullptr);
  EXPECT_EQ(snap->find(7), nullptr);
  EXPECT_EQ(snap->find(999), nullptr);

  // A snapshot: later device writes do not reach fetched blocks, and
  // reading them costs no device read.
  ASSERT_TRUE(dev.write_block(3, filled(0xEE)).ok());
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(snap->read_block(3, out).ok());
  EXPECT_EQ(out, filled(3));
  EXPECT_EQ(dev.stats().reads.load(), 2u);
  ASSERT_TRUE(snap->read_block(7, out).ok());
  EXPECT_EQ(out, filled(7));
  EXPECT_EQ(dev.stats().reads.load(), 3u);
}

TEST(Prefetch, RefusesWrites) {
  MemBlockDevice dev(16);
  std::vector<BlockNo> want{1, 2};
  auto snap = prefetch(&dev, want, 2);
  EXPECT_EQ(snap->write_block(1, filled(0x11)).error(), Errno::kRoFs);
  EXPECT_EQ(snap->write_block(9, filled(0x11)).error(), Errno::kRoFs);
  EXPECT_EQ(snap->flush().error(), Errno::kRoFs);
  EXPECT_EQ(dev.stats().writes.load(), 0u);
  EXPECT_EQ(dev.stats().flushes.load(), 0u);
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(snap->read_block(1, out).ok());
  EXPECT_EQ(out, filled(0));
}

TEST(Prefetch, FailedReadIsNotHeldAndFallsThrough) {
  // The read-ahead is advisory: a block whose fetch failed is left to the
  // consumer's own read, which sees whatever the device does then.
  MemBlockDevice mem(32);
  ASSERT_TRUE(mem.write_block(4, filled(0x44)).ok());
  FaultBlockDevice dev(&mem);
  dev.arm_read_error_at(0);
  std::vector<BlockNo> want{4};
  auto snap = prefetch(&dev, want, 1);
  EXPECT_EQ(snap->find(4), nullptr);
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(snap->read_block(4, out).ok());
  EXPECT_EQ(out, filled(0x44));
  EXPECT_EQ(dev.reads_seen(), 2u);
}

TEST(Prefetch, FetchExtendsTheSnapshot) {
  MemBlockDevice dev(32);
  std::vector<BlockNo> first{1, 2};
  auto snap = prefetch(&dev, first, 3);
  const uint64_t reads = dev.stats().reads.load();
  std::vector<BlockNo> second{2, 3, 4};
  snap->fetch(second);
  for (BlockNo b : {1, 2, 3, 4}) EXPECT_NE(snap->find(b), nullptr) << b;
  EXPECT_EQ(dev.stats().reads.load(), reads + 2);  // block 2 not re-read
}

// ---------------------------------------------------------------------
// Parallel writer: the one write primitive of the recovery phases.
// ---------------------------------------------------------------------

std::vector<std::vector<uint8_t>> write_payloads(size_t n) {
  std::vector<std::vector<uint8_t>> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(filled(static_cast<uint8_t>(i + 1)));
  }
  return out;
}

TEST(WriteBlocks, SameImageAtEveryWorkerCountEachEntryOnce) {
  const auto payloads = write_payloads(37);
  std::vector<BlockWrite> writes;
  for (size_t i = 0; i < payloads.size(); ++i) {
    writes.push_back({static_cast<BlockNo>((i * 7) % 64), payloads[i]});
  }
  std::vector<std::unique_ptr<MemBlockDevice>> devs;
  for (uint32_t workers : {1u, 2u, 8u}) {
    auto dev = std::make_unique<MemBlockDevice>(64);
    ASSERT_TRUE(write_blocks(dev.get(), writes, workers).ok()) << workers;
    EXPECT_EQ(dev->stats().writes.load(), writes.size()) << workers;
    EXPECT_EQ(dev->stats().flushes.load(), 0u) << workers;
    devs.push_back(std::move(dev));
  }
  std::vector<uint8_t> a(kBlockSize), b(kBlockSize);
  for (BlockNo blk = 0; blk < 64; ++blk) {
    ASSERT_TRUE(devs[0]->read_block(blk, a).ok());
    for (size_t d = 1; d < devs.size(); ++d) {
      ASSERT_TRUE(devs[d]->read_block(blk, b).ok());
      EXPECT_EQ(a, b) << "block " << blk << " device " << d;
    }
  }
}

TEST(WriteBlocks, WriteErrorIsReturnedAtEveryWorkerCount) {
  const auto payloads = write_payloads(16);
  std::vector<BlockWrite> writes;
  for (size_t i = 0; i < payloads.size(); ++i) {
    writes.push_back({static_cast<BlockNo>(i), payloads[i]});
  }
  for (uint32_t workers : {1u, 2u, 8u}) {
    MemBlockDevice mem(32);
    FaultBlockDevice dev(&mem);
    dev.arm_write_error_at(5);
    EXPECT_EQ(write_blocks(&dev, writes, workers).error(), Errno::kIo)
        << workers;
    EXPECT_EQ(dev.injected_write_errors(), 1u) << workers;
  }
}

TEST(WriteBlocks, EmptySpanWritesNothing) {
  MemBlockDevice dev(8);
  EXPECT_TRUE(write_blocks(&dev, {}, 4).ok());
  EXPECT_EQ(dev.stats().writes.load(), 0u);
  EXPECT_EQ(dev.stats().flushes.load(), 0u);
}

}  // namespace
}  // namespace raefs
