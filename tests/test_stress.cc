// Stress and pressure tests: recovery with oversized logs and tiny
// journals (install-time chunked commits), cache-size sweeps against the
// oracle (eviction correctness under pressure), journal-full churn, and
// deep recovery pipelines back to back.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "faults/bug_library.h"
#include "fsck/fsck.h"
#include "rae/supervisor.h"
#include "tests/support/fixtures.h"
#include "tests/support/fs_compare.h"
#include "tests/support/model_fs.h"
#include "workload/workload.h"

namespace raefs {
namespace {

using testing_support::make_test_device;
using testing_support::make_test_fs;
using testing_support::pattern_bytes;
using testing_support::TestFsOptions;

TEST(Stress, RecoveryWithHugeLogAndTinyJournal) {
  // 600 unsynced ops produce a shadow dirty set far larger than the
  // 16-block journal: the metadata download commit must chunk its journal
  // transactions and still land consistent.
  TestFsOptions opts;
  opts.total_blocks = 32768;
  opts.inode_count = 2048;
  opts.journal_blocks = 16;
  auto t = make_test_device(opts);
  BugRegistry bugs;
  auto sup = RaeSupervisor::start(t.device.get(), {}, t.clock, &bugs);
  ASSERT_TRUE(sup.ok());

  for (int i = 0; i < 300; ++i) {
    auto ino = sup.value()->create("/f" + std::to_string(i), 0644);
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(sup.value()
                    ->write(ino.value(), 0, 0,
                            pattern_bytes(1000, static_cast<uint8_t>(i)))
                    .ok());
  }
  // Panic with everything unsynced.
  BugSpec spec;
  spec.id = 9100;
  spec.description = "stress trigger";
  spec.consequence = BugConsequence::kCrash;
  spec.max_fires = 1;
  spec.trigger = [](const BugContext& ctx) {
    return ctx.site == "basefs.op.dispatch";
  };
  bugs.install(spec);
  ASSERT_TRUE(sup.value()->create("/trigger", 0644).ok());
  EXPECT_EQ(sup.value()->stats().recoveries, 1u);
  EXPECT_GE(sup.value()->stats().ops_replayed_total, 600u);

  // Spot-check reconstructed data, then full fsck.
  for (int i : {0, 150, 299}) {
    auto st = sup.value()->stat("/f" + std::to_string(i));
    ASSERT_TRUE(st.ok()) << i;
    auto back = sup.value()->read(st.value().ino, 0, 0, 1000);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), pattern_bytes(1000, static_cast<uint8_t>(i)));
  }
  ASSERT_TRUE(sup.value()->shutdown().ok());
  auto report = fsck(t.device.get(), FsckLevel::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().consistent()) << report.value().summary();
}

class CacheSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(CacheSizeSweep, BaseAgreesWithModelUnderCachePressure) {
  TestFsOptions opts;
  opts.total_blocks = 16384;
  opts.inode_count = 1024;
  opts.base.block_cache_blocks = GetParam();
  opts.base.dentry_cache_entries = GetParam() / 2 + 2;
  auto t = make_test_fs(opts);
  ModelFs model(1024);

  WorkloadOptions wl;
  wl.kind = WorkloadKind::kFileserver;
  wl.seed = 1717;
  wl.nops = 400;
  wl.sync_every = 50;  // syncs unpin dirty blocks: real eviction happens
  auto base_result = run_workload(*t.fs, wl);
  auto model_result = run_workload(model, wl);
  EXPECT_EQ(base_result.ops_failed, model_result.ops_failed);

  auto diff = testing_support::compare_trees(*t.fs, model);
  EXPECT_EQ(diff, "") << "cache=" << GetParam() << "\n" << diff;
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheSizeSweep,
                         ::testing::Values(2, 8, 32, 256, 4096));

TEST(Stress, BackToBackRecoveries) {
  // Ten consecutive panic/recover cycles with state accumulating across
  // them; everything must survive all ten.
  auto t = make_test_device(
      {.total_blocks = 16384, .inode_count = 1024, .journal_blocks = 128});
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kUnlinkLongNamePanic));
  auto sup = RaeSupervisor::start(t.device.get(), {}, t.clock, &bugs);
  ASSERT_TRUE(sup.ok());

  std::string trigger = "/" + std::string(54, 'r');
  for (int round = 0; round < 10; ++round) {
    auto ino = sup.value()->create("/keep" + std::to_string(round), 0644);
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(sup.value()
                    ->write(ino.value(), 0, 0,
                            pattern_bytes(500, static_cast<uint8_t>(round)))
                    .ok());
    ASSERT_TRUE(sup.value()->create(trigger, 0644).ok());
    ASSERT_TRUE(sup.value()->unlink(trigger).ok());  // panic + recover
    ASSERT_EQ(sup.value()->stats().recoveries,
              static_cast<uint64_t>(round + 1));
    // All prior rounds' data still present and correct.
    for (int prev = 0; prev <= round; ++prev) {
      auto st = sup.value()->stat("/keep" + std::to_string(prev));
      ASSERT_TRUE(st.ok()) << "round " << round << " lost keep" << prev;
      auto back = sup.value()->read(st.value().ino, 0, 0, 500);
      ASSERT_TRUE(back.ok());
      EXPECT_EQ(back.value(),
                pattern_bytes(500, static_cast<uint8_t>(prev)));
    }
  }
  ASSERT_TRUE(sup.value()->shutdown().ok());
  auto report = fsck(t.device.get(), FsckLevel::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().consistent()) << report.value().summary();
}

TEST(Stress, JournalChurnManySmallSyncs) {
  TestFsOptions opts;
  opts.journal_blocks = 16;  // forces constant checkpointing
  auto t = make_test_fs(opts);
  for (int i = 0; i < 200; ++i) {
    std::string path = "/c" + std::to_string(i % 20);
    if (i % 20 == 0 && i > 0) {
      (void)t.fs->unlink(path);
    }
    auto r = t.fs->create(path, 0644);
    if (r.ok()) {
      (void)t.fs->write(r.value(), 0, 0, pattern_bytes(64));
    }
    ASSERT_TRUE(t.fs->sync().ok()) << "at " << i;
  }
  EXPECT_GT(t.fs->stats().checkpoints, 10u);
  ASSERT_TRUE(t.fs->unmount().ok());
  auto report = fsck(t.device.get(), FsckLevel::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().consistent()) << report.value().summary();
}

TEST(Stress, FsyncStormAckedDataSurvivesPowerCut) {
  // Eight threads hammer append + fsync on private files, then the
  // machine loses power the instant the storm ends: no unmount, in-memory
  // state dropped, volatile device cache discarded. The group-commit
  // engine may collapse any number of concurrent fsyncs into one journal
  // transaction, but an Ok fsync must still mean "durable NOW" -- after
  // remount every acked byte must be present.
  TestFsOptions opts;
  opts.with_clock = false;  // real threads, real async workers
  auto t = make_test_fs(opts);

  constexpr int kThreads = 8;
  constexpr int kAppends = 16;
  constexpr size_t kChunk = 1536;  // unaligned: epochs share tail blocks
  auto pattern_at = [](int file, uint64_t off) {
    return static_cast<uint8_t>(off * 131 + static_cast<uint64_t>(file) * 17);
  };

  std::vector<Ino> inos;
  for (int i = 0; i < kThreads; ++i) {
    auto ino = t.fs->create("/s" + std::to_string(i), 0644);
    ASSERT_TRUE(ino.ok());
    inos.push_back(ino.value());
  }
  ASSERT_TRUE(t.fs->sync().ok());

  std::vector<uint64_t> acked(kThreads, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      uint64_t off = 0;
      for (int a = 0; a < kAppends; ++a) {
        std::vector<uint8_t> chunk(kChunk);
        for (size_t j = 0; j < kChunk; ++j) chunk[j] = pattern_at(i, off + j);
        auto w = t.fs->write(inos[static_cast<size_t>(i)], 0, off, chunk);
        if (!w.ok() || w.value() != kChunk) return;
        off += kChunk;
        if (!t.fs->fsync(inos[static_cast<size_t>(i)]).ok()) return;
        acked[static_cast<size_t>(i)] = off;
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_EQ(acked[static_cast<size_t>(i)],
              static_cast<uint64_t>(kAppends) * kChunk)
        << "storm thread " << i << " failed an op";
  }

  // Power cut at the ack point.
  t.fs.reset();
  t.device->crash();

  auto remounted = BaseFs::mount(t.device.get(), opts.base);
  ASSERT_TRUE(remounted.ok());
  for (int i = 0; i < kThreads; ++i) {
    auto st = remounted.value()->stat("/s" + std::to_string(i));
    ASSERT_TRUE(st.ok());
    ASSERT_GE(st.value().size, acked[static_cast<size_t>(i)]);
    auto data = remounted.value()->read(st.value().ino, 0, 0,
                                        st.value().size);
    ASSERT_TRUE(data.ok());
    ASSERT_EQ(data.value().size(), st.value().size);
    for (uint64_t j = 0; j < st.value().size; ++j) {
      ASSERT_EQ(data.value()[j], pattern_at(i, j))
          << "/s" << i << " byte " << j;
    }
  }
  ASSERT_TRUE(remounted.value()->unmount().ok());
  auto report = fsck(t.device.get(), FsckLevel::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().consistent()) << report.value().summary();
}

TEST(Stress, WorkloadThenCrashThenRecoverThenWorkload) {
  // Full lifecycle: serve, crash (device power loss), remount, keep
  // serving under RAE with bugs, shut down clean.
  TestFsOptions opts;
  opts.total_blocks = 32768;
  opts.inode_count = 4096;
  auto t = make_test_device(opts);
  {
    auto fs = BaseFs::mount(t.device.get(), opts.base, t.clock);
    ASSERT_TRUE(fs.ok());
    WorkloadOptions wl;
    wl.kind = WorkloadKind::kVarmail;
    wl.nops = 300;
    (void)run_workload(*fs.value(), wl);
    // No unmount: power cut.
  }
  t.device->crash();

  BugRegistry bugs(55);
  bugs.install(bugs::make(bugs::kTransientPanic, 0.005));
  auto sup = RaeSupervisor::start(t.device.get(), {}, t.clock, &bugs);
  ASSERT_TRUE(sup.ok());
  WorkloadOptions wl2;
  wl2.kind = WorkloadKind::kFileserver;
  wl2.seed = 2;
  wl2.nops = 300;
  auto result = run_workload(*sup.value(), wl2);
  EXPECT_EQ(result.io_failures, 0u);
  EXPECT_FALSE(result.aborted);
  ASSERT_TRUE(sup.value()->shutdown().ok());

  auto report = fsck(t.device.get(), FsckLevel::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().consistent()) << report.value().summary();
}

}  // namespace
}  // namespace raefs
