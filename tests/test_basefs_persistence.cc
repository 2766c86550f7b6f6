// Durability tests: clean unmount/remount round trips, crash + journal
// replay, fsync semantics, checkpointing under journal pressure, and the
// fsck-clean invariant after every path.
#include <gtest/gtest.h>

#include "blockdev/fault_device.h"
#include "fsck/fsck.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "tests/support/fixtures.h"

namespace raefs {
namespace {

using testing_support::make_test_fs;
using testing_support::pattern_bytes;
using testing_support::TestFsOptions;

BaseFsOptions default_base() { return BaseFsOptions{}; }

TEST(Persistence, CleanUnmountRemountPreservesEverything) {
  auto t = make_test_fs();
  ASSERT_TRUE(t.fs->mkdir("/d", 0755).ok());
  auto ino = t.fs->create("/d/f", 0644);
  ASSERT_TRUE(ino.ok());
  auto data = pattern_bytes(30000);
  ASSERT_TRUE(t.fs->write(ino.value(), 0, 0, data).ok());
  ASSERT_TRUE(t.fs->symlink("/ln", "/d/f").ok());
  ASSERT_TRUE(t.fs->unmount().ok());

  auto fs2 = BaseFs::mount(t.device.get(), default_base(), t.clock);
  ASSERT_TRUE(fs2.ok());
  EXPECT_EQ(fs2.value()->stats().journal_replays_at_mount, 0u);
  auto st = fs2.value()->stat("/d/f");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().size, data.size());
  auto back = fs2.value()->read(st.value().ino, 0, 0, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
  EXPECT_EQ(fs2.value()->readlink("/ln").value(), "/d/f");
}

TEST(Persistence, CrashWithoutSyncLosesUnsyncedButStaysConsistent) {
  auto t = make_test_fs();
  ASSERT_TRUE(t.fs->create("/synced", 0644).ok());
  ASSERT_TRUE(t.fs->sync().ok());
  ASSERT_TRUE(t.fs->create("/unsynced", 0644).ok());
  // No sync; destroy the fs (no write-back) and crash the device.
  t.fs.reset();
  t.device->crash();

  auto fs2 = BaseFs::mount(t.device.get(), default_base(), t.clock);
  ASSERT_TRUE(fs2.ok());
  EXPECT_TRUE(fs2.value()->lookup("/synced").ok());
  EXPECT_EQ(fs2.value()->lookup("/unsynced").error(), Errno::kNoEnt);

  ASSERT_TRUE(fs2.value()->unmount().ok());
  auto report = fsck(t.device.get(), FsckLevel::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().consistent()) << report.value().summary();
}

TEST(Persistence, JournalReplayRecoversCommittedButUncheckpointed) {
  auto t = make_test_fs();
  auto ino = t.fs->create("/f", 0644);
  ASSERT_TRUE(ino.ok());
  auto data = pattern_bytes(5000, 11);
  ASSERT_TRUE(t.fs->write(ino.value(), 0, 0, data).ok());
  // sync commits to the journal; with low fill, no checkpoint happens,
  // so the metadata lives only in the journal + volatile cache.
  ASSERT_TRUE(t.fs->sync().ok());
  t.fs.reset();
  t.device->crash();  // volatile device cache lost; journal is flushed

  auto fs2 = BaseFs::mount(t.device.get(), default_base(), t.clock);
  ASSERT_TRUE(fs2.ok());
  EXPECT_GE(fs2.value()->stats().journal_replays_at_mount, 1u);
  auto st = fs2.value()->stat("/f");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().size, data.size());
  auto back = fs2.value()->read(st.value().ino, 0, 0, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
}

TEST(Persistence, RepeatedCrashRemountCycles) {
  auto t = make_test_fs();
  for (int round = 0; round < 5; ++round) {
    std::string path = "/r" + std::to_string(round);
    auto ino = t.fs->create(path, 0644);
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(
        t.fs->write(ino.value(), 0, 0, pattern_bytes(2000, uint8_t(round)))
            .ok());
    ASSERT_TRUE(t.fs->sync().ok());
    t.fs.reset();
    t.device->crash();
    auto fs2 = BaseFs::mount(t.device.get(), default_base(), t.clock);
    ASSERT_TRUE(fs2.ok());
    t.fs = std::move(fs2).value();
    // Everything synced in prior rounds must still be there.
    for (int prev = 0; prev <= round; ++prev) {
      auto st = t.fs->stat("/r" + std::to_string(prev));
      ASSERT_TRUE(st.ok()) << "round " << round << " lost /r" << prev;
      EXPECT_EQ(st.value().size, 2000u);
    }
  }
  ASSERT_TRUE(t.fs->unmount().ok());
  auto report = fsck(t.device.get(), FsckLevel::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().consistent()) << report.value().summary();
}

TEST(Persistence, CrashWithPartialDeviceSurvivalStillRecovers) {
  // Even when a random subset of volatile writes reached the media before
  // power-cut, journal replay must produce a consistent image.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    auto t = make_test_fs();
    for (int i = 0; i < 10; ++i) {
      auto ino = t.fs->create("/f" + std::to_string(i), 0644);
      ASSERT_TRUE(ino.ok());
      ASSERT_TRUE(
          t.fs->write(ino.value(), 0, 0, pattern_bytes(3000, uint8_t(i)))
              .ok());
    }
    ASSERT_TRUE(t.fs->sync().ok());
    ASSERT_TRUE(t.fs->create("/after-sync", 0644).ok());
    t.fs.reset();
    Rng rng(seed);
    t.device->crash(&rng, 0.5);

    auto fs2 = BaseFs::mount(t.device.get(), default_base(), t.clock);
    ASSERT_TRUE(fs2.ok());
    for (int i = 0; i < 10; ++i) {
      auto st = fs2.value()->stat("/f" + std::to_string(i));
      ASSERT_TRUE(st.ok()) << "seed " << seed << " file " << i;
      auto back = fs2.value()->read(st.value().ino, 0, 0, 3000);
      ASSERT_TRUE(back.ok());
      EXPECT_EQ(back.value(), pattern_bytes(3000, uint8_t(i)));
    }
    ASSERT_TRUE(fs2.value()->unmount().ok());
    auto report = fsck(t.device.get(), FsckLevel::kStrict);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().consistent())
        << "seed " << seed << ": " << report.value().summary();
  }
}

TEST(Persistence, JournalPressureTriggersCheckpoints) {
  TestFsOptions opts;
  opts.journal_blocks = 32;  // small journal: fills quickly
  auto t = make_test_fs(opts);
  for (int i = 0; i < 40; ++i) {
    auto ino = t.fs->create("/f" + std::to_string(i), 0644);
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(t.fs->write(ino.value(), 0, 0, pattern_bytes(100)).ok());
    ASSERT_TRUE(t.fs->sync().ok());
  }
  EXPECT_GT(t.fs->stats().checkpoints, 1u);
  ASSERT_TRUE(t.fs->unmount().ok());
  auto report = fsck(t.device.get(), FsckLevel::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().consistent()) << report.value().summary();
}

TEST(Persistence, OversizedTransactionSplitsAndSurvives) {
  TestFsOptions opts;
  opts.journal_blocks = 16;  // max ~13 records per txn
  opts.total_blocks = 8192;
  auto t = make_test_fs(opts);
  // Dirty far more metadata blocks than the whole region holds: each
  // directory gets a file, so each adds its own directory block besides
  // the shared inode-table and bitmap blocks.
  for (int i = 0; i < 60; ++i) {
    const std::string dir = "/dir" + std::to_string(i);
    ASSERT_TRUE(t.fs->mkdir(dir, 0755).ok());
    ASSERT_TRUE(t.fs->create(dir + "/f", 0644).ok());
  }
  obs::Counter& commits = obs::metrics().counter(obs::kMJournalCommits);
  const uint64_t before = commits.value();
  ASSERT_TRUE(t.fs->sync().ok());
  EXPECT_GT(commits.value() - before, 1u) << "the sync did not split";
  ASSERT_TRUE(t.fs->unmount().ok());

  auto fs2 = BaseFs::mount(t.device.get(), default_base(), t.clock);
  ASSERT_TRUE(fs2.ok());
  for (int i = 0; i < 60; ++i) {
    EXPECT_TRUE(fs2.value()->lookup("/dir" + std::to_string(i) + "/f").ok());
  }
}

TEST(Persistence, CheckpointBeforeDataKeepsReallocatedPointerBlock) {
  // X's pointer block I is journaled and not yet checkpointed when the
  // next epoch frees it (a pending revoke) and a file Y wraps onto it as
  // data. That epoch's metadata does not fit the journal's free area, so
  // a checkpoint must run -- and it writes I's stale journaled copy home.
  // It must do so before Y's in-place write, never between that write and
  // the commit of the revoke. 100 directories still fit one transaction;
  // 200 overflow the whole region and take the split path.
  for (int dirs : {100, 200}) {
    SCOPED_TRACE(dirs);
    TestFsOptions opts;
    opts.inode_count = 1024;  // the default mkfs geometry
    auto t = make_test_fs(opts);

    // Epoch A: a filler that leaves a short free tail, then X, whose 13th
    // block needs the indirect pointer block I.
    auto filler = t.fs->create("/filler", 0644);
    ASSERT_TRUE(filler.ok());
    ASSERT_TRUE(
        t.fs->write(filler.value(), 0, 0, pattern_bytes(3650 * kBlockSize, 1))
            .ok());
    auto x = t.fs->create("/x", 0644);
    ASSERT_TRUE(x.ok());
    ASSERT_TRUE(
        t.fs->write(x.value(), 0, 0, pattern_bytes(13 * kBlockSize, 2)).ok());
    ASSERT_TRUE(t.fs->sync().ok());

    // Epoch B: free X's blocks, I included; then metadata beyond the free
    // area; then Y over every free block, so the next-fit allocator wraps
    // onto X's old blocks.
    ASSERT_TRUE(t.fs->truncate(x.value(), 0, 0).ok());
    for (int i = 0; i < dirs; ++i) {
      const std::string dir = "/d" + std::to_string(i);
      ASSERT_TRUE(t.fs->mkdir(dir, 0755).ok());
      ASSERT_TRUE(t.fs->create(dir + "/f", 0644).ok());
    }
    const uint64_t y_blocks = t.fs->free_blocks() - 1;  // one pointer block
    ASSERT_LT(y_blocks, kNumDirect + kPtrsPerBlock);
    const auto y_data = pattern_bytes(y_blocks * kBlockSize, 3);
    auto y = t.fs->create("/y", 0644);
    ASSERT_TRUE(y.ok());
    ASSERT_TRUE(t.fs->write(y.value(), 0, 0, y_data).ok());
    ASSERT_EQ(t.fs->free_blocks(), 0u);
    ASSERT_TRUE(t.fs->sync().ok());
    ASSERT_TRUE(t.fs->unmount().ok());

    auto fs2 = BaseFs::mount(t.device.get(), default_base(), t.clock);
    ASSERT_TRUE(fs2.ok());
    auto st = fs2.value()->stat("/y");
    ASSERT_TRUE(st.ok());
    auto back = fs2.value()->read(st.value().ino, 0, 0, y_data.size());
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(back.value() == y_data) << "a block of Y was overwritten";
    ASSERT_TRUE(fs2.value()->unmount().ok());
    auto report = fsck(t.device.get(), FsckLevel::kStrict);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().consistent()) << report.value().summary();
  }
}

TEST(Persistence, PowerCutInLargeSyncKeepsAllOrNothing) {
  // One sync of 600 directories, each holding a file: 688 metadata
  // blocks, more than one descriptor addresses yet well inside the empty
  // 1024-block journal. The epoch must commit as ONE transaction, so a
  // power cut at any of the sync's writes leaves every file or none.
  constexpr int kDirs = 600;
  MkfsOptions mkfs;
  mkfs.total_blocks = 16384;
  mkfs.inode_count = 4096;
  mkfs.journal_blocks = 1024;

  struct Rig {
    std::unique_ptr<MemBlockDevice> mem;
    std::unique_ptr<FaultBlockDevice> dev;
    std::unique_ptr<BaseFs> fs;
  };
  // Fresh image with the tree created but not yet synced.
  auto build = [&](Rig* rig) {
    rig->mem = std::make_unique<MemBlockDevice>(mkfs.total_blocks);
    rig->dev = std::make_unique<FaultBlockDevice>(rig->mem.get());
    ASSERT_TRUE(BaseFs::mkfs(rig->dev.get(), mkfs).ok());
    auto mounted = BaseFs::mount(rig->dev.get(), default_base());
    ASSERT_TRUE(mounted.ok());
    rig->fs = std::move(mounted).value();
    for (int i = 0; i < kDirs; ++i) {
      const std::string dir = "/d" + std::to_string(i);
      ASSERT_TRUE(rig->fs->mkdir(dir, 0755).ok());
      ASSERT_TRUE(rig->fs->create(dir + "/f", 0644).ok());
    }
  };

  uint64_t first = 0;
  uint64_t last = 0;
  {
    Rig baseline;
    ASSERT_NO_FATAL_FAILURE(build(&baseline));
    first = baseline.dev->writes_seen();
    ASSERT_TRUE(baseline.fs->sync().ok());
    last = baseline.dev->writes_seen();
  }
  ASSERT_GT(last - first, 2u * Journal::max_descriptor_entries());

  // A commit split in two leaves ~180 consecutive cut points with only
  // the first half durable; a stride of 40 lands several cuts there.
  for (uint64_t cut = first; cut < last; cut += 40) {
    SCOPED_TRACE(cut);
    Rig rig;
    ASSERT_NO_FATAL_FAILURE(build(&rig));
    rig.dev->arm_crash_after_writes(cut);
    EXPECT_FALSE(rig.fs->sync().ok());
    rig.fs.reset();
    rig.dev->disarm();
    rig.mem->crash();

    auto fs2 = BaseFs::mount(rig.mem.get(), default_base());
    ASSERT_TRUE(fs2.ok());
    int files = 0;
    for (int i = 0; i < kDirs; ++i) {
      files += fs2.value()->lookup("/d" + std::to_string(i) + "/f").ok();
    }
    EXPECT_TRUE(files == 0 || files == kDirs) << files << " files survived";
    ASSERT_TRUE(fs2.value()->unmount().ok());
    auto report = fsck(rig.mem.get(), FsckLevel::kStrict);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().consistent()) << report.value().summary();
  }
}

TEST(Persistence, FsyncMakesDataDurable) {
  auto t = make_test_fs();
  auto ino = t.fs->create("/f", 0644);
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(t.fs->write(ino.value(), 0, 0, pattern_bytes(8000, 3)).ok());
  ASSERT_TRUE(t.fs->fsync(ino.value()).ok());
  t.fs.reset();
  t.device->crash();

  auto fs2 = BaseFs::mount(t.device.get(), default_base(), t.clock);
  ASSERT_TRUE(fs2.ok());
  auto st = fs2.value()->stat("/f");
  ASSERT_TRUE(st.ok());
  auto back = fs2.value()->read(st.value().ino, 0, 0, 8000);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), pattern_bytes(8000, 3));
}

TEST(Persistence, MountCountIncrements) {
  auto t = make_test_fs();
  ASSERT_TRUE(t.fs->unmount().ok());
  auto fs2 = BaseFs::mount(t.device.get(), default_base(), t.clock);
  ASSERT_TRUE(fs2.ok());
  ASSERT_TRUE(fs2.value()->unmount().ok());
  // Superblock decodes and mount_count reflects the three mounts.
  std::vector<uint8_t> sb_block(kBlockSize);
  ASSERT_TRUE(t.device->read_block(0, sb_block).ok());
  auto sb = Superblock::decode(sb_block);
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ(sb.value().mount_count, 2u);
  EXPECT_EQ(sb.value().state, FsState::kClean);
}

TEST(Persistence, DurableCallbackAdvancesWithSync) {
  auto t = make_test_fs();
  Seq durable = 0;
  t.fs->set_durable_callback([&](Seq s) { durable = s; });
  t.fs->set_current_op_seq(7);
  ASSERT_TRUE(t.fs->create("/f", 0644).ok());
  EXPECT_EQ(durable, 0u);  // nothing durable yet
  ASSERT_TRUE(t.fs->sync().ok());
  EXPECT_EQ(durable, 7u);
}

}  // namespace
}  // namespace raefs
