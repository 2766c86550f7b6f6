// BaseFs operation semantics: namespace ops, data path, error codes,
// concurrency smoke, bug-injection sites, free-space accounting.
#include <gtest/gtest.h>

#include <thread>

#include "common/warn.h"
#include "faults/bug_library.h"
#include "fsck/fsck.h"
#include "tests/support/fixtures.h"

namespace raefs {
namespace {

using testing_support::make_test_fs;
using testing_support::pattern_bytes;
using testing_support::TestFsOptions;

struct BaseFsTest : ::testing::Test {
  void SetUp() override { t = make_test_fs(); }
  testing_support::TestFs t;
};

TEST_F(BaseFsTest, RootExistsAndIsEmpty) {
  auto root = t.fs->stat("/");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root.value().ino, kRootIno);
  EXPECT_EQ(root.value().type, FileType::kDirectory);
  EXPECT_EQ(root.value().nlink, 2u);

  auto listing = t.fs->readdir("/");
  ASSERT_TRUE(listing.ok());
  EXPECT_TRUE(listing.value().empty());
}

TEST_F(BaseFsTest, CreateLookupStat) {
  auto ino = t.fs->create("/hello", 0644);
  ASSERT_TRUE(ino.ok());
  EXPECT_EQ(t.fs->lookup("/hello").value(), ino.value());

  auto st = t.fs->stat("/hello");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().type, FileType::kRegular);
  EXPECT_EQ(st.value().size, 0u);
  EXPECT_EQ(st.value().nlink, 1u);
  EXPECT_EQ(st.value().mode, 0644);
}

TEST_F(BaseFsTest, CreateErrors) {
  ASSERT_TRUE(t.fs->create("/a", 0644).ok());
  EXPECT_EQ(t.fs->create("/a", 0644).error(), Errno::kExist);
  EXPECT_EQ(t.fs->create("/missing/x", 0644).error(), Errno::kNoEnt);
  EXPECT_EQ(t.fs->create("/a/x", 0644).error(), Errno::kNotDir);
  EXPECT_EQ(t.fs->create("/" + std::string(60, 'n'), 0644).error(),
            Errno::kNameTooLong);
  EXPECT_EQ(t.fs->create("/", 0644).error(), Errno::kInval);
}

TEST_F(BaseFsTest, MkdirNlinkAccounting) {
  ASSERT_TRUE(t.fs->mkdir("/d", 0755).ok());
  EXPECT_EQ(t.fs->stat("/").value().nlink, 3u);
  EXPECT_EQ(t.fs->stat("/d").value().nlink, 2u);
  ASSERT_TRUE(t.fs->mkdir("/d/e", 0755).ok());
  EXPECT_EQ(t.fs->stat("/d").value().nlink, 3u);
  ASSERT_TRUE(t.fs->rmdir("/d/e").ok());
  EXPECT_EQ(t.fs->stat("/d").value().nlink, 2u);
}

TEST_F(BaseFsTest, WriteReadRoundTrip) {
  auto ino = t.fs->create("/f", 0644);
  ASSERT_TRUE(ino.ok());
  auto data = pattern_bytes(10000);
  auto written = t.fs->write(ino.value(), 0, 0, data);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(written.value(), data.size());
  EXPECT_EQ(t.fs->stat("/f").value().size, data.size());

  auto back = t.fs->read(ino.value(), 0, 0, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);

  // Partial read with offset.
  auto mid = t.fs->read(ino.value(), 0, 5000, 100);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid.value(),
            std::vector<uint8_t>(data.begin() + 5000, data.begin() + 5100));
}

TEST_F(BaseFsTest, SparseFilesReadZeros) {
  auto ino = t.fs->create("/sparse", 0644);
  ASSERT_TRUE(ino.ok());
  std::vector<uint8_t> tail = {1, 2, 3};
  // Write at 100 KiB leaving a hole below.
  ASSERT_TRUE(t.fs->write(ino.value(), 0, 100 * 1024, tail).ok());
  EXPECT_EQ(t.fs->stat("/sparse").value().size, 100 * 1024 + 3u);

  auto hole = t.fs->read(ino.value(), 0, 50 * 1024, 16);
  ASSERT_TRUE(hole.ok());
  EXPECT_EQ(hole.value(), std::vector<uint8_t>(16, 0));

  auto end = t.fs->read(ino.value(), 0, 100 * 1024, 10);
  ASSERT_TRUE(end.ok());
  EXPECT_EQ(end.value(), tail);
}

TEST_F(BaseFsTest, WriteAcrossIndirectBoundary) {
  auto ino = t.fs->create("/big", 0644);
  ASSERT_TRUE(ino.ok());
  // 12 direct blocks end at 48 KiB; write past that into indirect range.
  auto data = pattern_bytes(80 * 1024, 3);
  ASSERT_TRUE(t.fs->write(ino.value(), 0, 0, data).ok());
  auto back = t.fs->read(ino.value(), 0, 0, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
}

TEST_F(BaseFsTest, WriteIntoDoubleIndirectRange) {
  TestFsOptions opts;
  opts.total_blocks = 16384;
  auto big = make_test_fs(opts);
  auto ino = big.fs->create("/huge", 0644);
  ASSERT_TRUE(ino.ok());
  // Direct+indirect cover (12+512)*4K = 2096 KiB; write past that.
  FileOff off = 2200ull * 1024;
  auto data = pattern_bytes(8192, 9);
  ASSERT_TRUE(big.fs->write(ino.value(), 0, off, data).ok());
  auto back = big.fs->read(ino.value(), 0, off, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
}

TEST_F(BaseFsTest, TruncateShrinkAndGrow) {
  auto ino = t.fs->create("/t", 0644);
  ASSERT_TRUE(ino.ok());
  auto data = pattern_bytes(9000, 5);
  ASSERT_TRUE(t.fs->write(ino.value(), 0, 0, data).ok());
  uint64_t free_before = t.fs->free_blocks();

  ASSERT_TRUE(t.fs->truncate(ino.value(), 0, 100).ok());
  EXPECT_EQ(t.fs->stat("/t").value().size, 100u);
  EXPECT_GT(t.fs->free_blocks(), free_before);  // blocks freed

  // Grow back: the formerly-truncated range must read zeros.
  ASSERT_TRUE(t.fs->truncate(ino.value(), 0, 9000).ok());
  auto back = t.fs->read(ino.value(), 0, 0, 9000);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(std::equal(back.value().begin(), back.value().begin() + 100,
                         data.begin()));
  for (size_t i = 100; i < 9000; ++i) {
    ASSERT_EQ(back.value()[i], 0) << "at " << i;
  }
}

TEST_F(BaseFsTest, UnlinkFreesSpace) {
  // Warm up the root directory block first: directories never shrink, so
  // the baseline must include root's first data block.
  ASSERT_TRUE(t.fs->create("/warmup", 0644).ok());
  uint64_t free_inodes = t.fs->free_inodes();
  uint64_t free_blocks = t.fs->free_blocks();
  auto ino = t.fs->create("/gone", 0644);
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(t.fs->write(ino.value(), 0, 0, pattern_bytes(20000)).ok());
  EXPECT_LT(t.fs->free_blocks(), free_blocks);

  ASSERT_TRUE(t.fs->unlink("/gone").ok());
  EXPECT_EQ(t.fs->lookup("/gone").error(), Errno::kNoEnt);
  EXPECT_EQ(t.fs->free_inodes(), free_inodes);
  EXPECT_EQ(t.fs->free_blocks(), free_blocks);
}

TEST_F(BaseFsTest, UnlinkErrors) {
  ASSERT_TRUE(t.fs->mkdir("/d", 0755).ok());
  EXPECT_EQ(t.fs->unlink("/d").error(), Errno::kIsDir);
  EXPECT_EQ(t.fs->unlink("/nope").error(), Errno::kNoEnt);
}

TEST_F(BaseFsTest, GenerationGuardsStaleHandles) {
  auto ino = t.fs->create("/f1", 0644);
  ASSERT_TRUE(ino.ok());
  uint64_t gen = t.fs->stat("/f1").value().generation;
  ASSERT_TRUE(t.fs->unlink("/f1").ok());

  // Stale handle: inode freed.
  EXPECT_EQ(t.fs->write(ino.value(), gen, 0, pattern_bytes(10)).error(),
            Errno::kBadFd);

  // The allocator's hint moves forward, so the ino is not immediately
  // reused; churn until it wraps around and is reassigned, then the
  // generation must have bumped.
  uint64_t gen2 = 0;
  for (int i = 0; i < 600; ++i) {
    std::string path = "/churn" + std::to_string(i);
    auto reused = t.fs->create(path, 0644);
    ASSERT_TRUE(reused.ok());
    if (reused.value() == ino.value()) {
      gen2 = t.fs->stat(path).value().generation;
      break;
    }
    ASSERT_TRUE(t.fs->unlink(path).ok());
  }
  ASSERT_GT(gen2, 0u) << "ino never wrapped around";
  EXPECT_EQ(gen2, gen + 1);
  EXPECT_EQ(t.fs->read(ino.value(), gen, 0, 10).error(), Errno::kBadFd);
  EXPECT_TRUE(t.fs->read(ino.value(), gen2, 0, 10).ok());
}

TEST_F(BaseFsTest, RmdirSemantics) {
  ASSERT_TRUE(t.fs->mkdir("/d", 0755).ok());
  ASSERT_TRUE(t.fs->create("/d/f", 0644).ok());
  EXPECT_EQ(t.fs->rmdir("/d").error(), Errno::kNotEmpty);
  ASSERT_TRUE(t.fs->unlink("/d/f").ok());
  ASSERT_TRUE(t.fs->rmdir("/d").ok());
  EXPECT_EQ(t.fs->lookup("/d").error(), Errno::kNoEnt);
  ASSERT_TRUE(t.fs->create("/d", 0644).ok());  // name reusable as file
  EXPECT_EQ(t.fs->rmdir("/d").error(), Errno::kNotDir);
}

TEST_F(BaseFsTest, RenameSimpleAndAcrossDirs) {
  ASSERT_TRUE(t.fs->mkdir("/src", 0755).ok());
  ASSERT_TRUE(t.fs->mkdir("/dst", 0755).ok());
  auto ino = t.fs->create("/src/f", 0644);
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(t.fs->write(ino.value(), 0, 0, pattern_bytes(100)).ok());

  ASSERT_TRUE(t.fs->rename("/src/f", "/dst/g").ok());
  EXPECT_EQ(t.fs->lookup("/src/f").error(), Errno::kNoEnt);
  EXPECT_EQ(t.fs->lookup("/dst/g").value(), ino.value());
  auto content = t.fs->read(ino.value(), 0, 0, 100);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content.value(), pattern_bytes(100));
}

TEST_F(BaseFsTest, RenameDirectoryUpdatesParentLinks) {
  ASSERT_TRUE(t.fs->mkdir("/a", 0755).ok());
  ASSERT_TRUE(t.fs->mkdir("/b", 0755).ok());
  ASSERT_TRUE(t.fs->mkdir("/a/sub", 0755).ok());
  EXPECT_EQ(t.fs->stat("/a").value().nlink, 3u);
  EXPECT_EQ(t.fs->stat("/b").value().nlink, 2u);

  ASSERT_TRUE(t.fs->rename("/a/sub", "/b/sub").ok());
  EXPECT_EQ(t.fs->stat("/a").value().nlink, 2u);
  EXPECT_EQ(t.fs->stat("/b").value().nlink, 3u);
}

TEST_F(BaseFsTest, RenameOverwriteFile) {
  auto f1 = t.fs->create("/f1", 0644);
  auto f2 = t.fs->create("/f2", 0644);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  ASSERT_TRUE(t.fs->write(f1.value(), 0, 0, pattern_bytes(10, 1)).ok());
  uint64_t free_inodes = t.fs->free_inodes();

  ASSERT_TRUE(t.fs->rename("/f1", "/f2").ok());
  EXPECT_EQ(t.fs->lookup("/f2").value(), f1.value());
  EXPECT_EQ(t.fs->lookup("/f1").error(), Errno::kNoEnt);
  EXPECT_EQ(t.fs->free_inodes(), free_inodes + 1);  // victim freed
}

TEST_F(BaseFsTest, RenameRefusesCycleAndRoot) {
  ASSERT_TRUE(t.fs->mkdir("/a", 0755).ok());
  ASSERT_TRUE(t.fs->mkdir("/a/b", 0755).ok());
  EXPECT_EQ(t.fs->rename("/a", "/a/b/c").error(), Errno::kInval);
  EXPECT_EQ(t.fs->rename("/", "/x").error(), Errno::kInval);
  EXPECT_TRUE(t.fs->rename("/a", "/a").ok());  // no-op
}

TEST_F(BaseFsTest, RenameOntoNonEmptyDirRefused) {
  ASSERT_TRUE(t.fs->mkdir("/a", 0755).ok());
  ASSERT_TRUE(t.fs->mkdir("/b", 0755).ok());
  ASSERT_TRUE(t.fs->create("/b/f", 0644).ok());
  EXPECT_EQ(t.fs->rename("/a", "/b").error(), Errno::kNotEmpty);
  ASSERT_TRUE(t.fs->unlink("/b/f").ok());
  ASSERT_TRUE(t.fs->rename("/a", "/b").ok());  // empty dir replaceable
}

TEST_F(BaseFsTest, HardLinks) {
  auto ino = t.fs->create("/orig", 0644);
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(t.fs->write(ino.value(), 0, 0, pattern_bytes(64)).ok());
  ASSERT_TRUE(t.fs->link("/orig", "/alias").ok());
  EXPECT_EQ(t.fs->stat("/alias").value().ino, ino.value());
  EXPECT_EQ(t.fs->stat("/orig").value().nlink, 2u);

  ASSERT_TRUE(t.fs->unlink("/orig").ok());
  EXPECT_EQ(t.fs->stat("/alias").value().nlink, 1u);
  auto via_alias = t.fs->read(ino.value(), 0, 0, 64);
  ASSERT_TRUE(via_alias.ok());
  EXPECT_EQ(via_alias.value(), pattern_bytes(64));

  ASSERT_TRUE(t.fs->mkdir("/d", 0755).ok());
  EXPECT_EQ(t.fs->link("/d", "/dlink").error(), Errno::kIsDir);
}

TEST_F(BaseFsTest, Symlinks) {
  auto ino = t.fs->symlink("/ln", "/target/far/away");
  ASSERT_TRUE(ino.ok());
  EXPECT_EQ(t.fs->stat("/ln").value().type, FileType::kSymlink);
  EXPECT_EQ(t.fs->stat("/ln").value().size, 16u);
  EXPECT_EQ(t.fs->readlink("/ln").value(), "/target/far/away");
  EXPECT_EQ(t.fs->readlink("/").error(), Errno::kInval);
  EXPECT_EQ(t.fs->symlink("/ln2", "").error(), Errno::kInval);
}

TEST_F(BaseFsTest, ReaddirSortedAndComplete) {
  ASSERT_TRUE(t.fs->create("/zeta", 0644).ok());
  ASSERT_TRUE(t.fs->mkdir("/alpha", 0755).ok());
  ASSERT_TRUE(t.fs->symlink("/mid", "/x").ok());
  auto listing = t.fs->readdir("/");
  ASSERT_TRUE(listing.ok());
  ASSERT_EQ(listing.value().size(), 3u);
  EXPECT_EQ(listing.value()[0].name, "alpha");
  EXPECT_EQ(listing.value()[0].type, FileType::kDirectory);
  EXPECT_EQ(listing.value()[1].name, "mid");
  EXPECT_EQ(listing.value()[2].name, "zeta");
}

TEST_F(BaseFsTest, DirectoryGrowsBeyondOneBlock) {
  ASSERT_TRUE(t.fs->mkdir("/many", 0755).ok());
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(t.fs->create("/many/f" + std::to_string(i), 0644).ok())
        << "at " << i;
  }
  auto listing = t.fs->readdir("/many");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing.value().size(), 150u);
  // Remove them all; slots free up and the dir stays usable.
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(t.fs->unlink("/many/f" + std::to_string(i)).ok());
  }
  EXPECT_TRUE(t.fs->readdir("/many").value().empty());
  ASSERT_TRUE(t.fs->rmdir("/many").ok());
}

TEST_F(BaseFsTest, PathNormalizationInOps) {
  ASSERT_TRUE(t.fs->mkdir("/d", 0755).ok());
  ASSERT_TRUE(t.fs->create("/d/../d/./f", 0644).ok());
  EXPECT_TRUE(t.fs->lookup("/d/f").ok());
  EXPECT_TRUE(t.fs->lookup("//d///f").ok());
}

TEST_F(BaseFsTest, InodeExhaustion) {
  TestFsOptions opts;
  opts.inode_count = 16;
  auto small = make_test_fs(opts);
  int created = 0;
  for (int i = 0; i < 32; ++i) {
    auto r = small.fs->create("/f" + std::to_string(i), 0644);
    if (!r.ok()) {
      EXPECT_EQ(r.error(), Errno::kNoSpace);
      break;
    }
    ++created;
  }
  EXPECT_EQ(created, 15);  // 16 inodes minus root
  ASSERT_TRUE(small.fs->unlink("/f0").ok());
  EXPECT_TRUE(small.fs->create("/again", 0644).ok());
}

TEST_F(BaseFsTest, BlockExhaustionShortWrite) {
  TestFsOptions opts;
  opts.total_blocks = 256;  // tiny data region
  opts.journal_blocks = 16;
  auto small = make_test_fs(opts);
  auto ino = small.fs->create("/fill", 0644);
  ASSERT_TRUE(ino.ok());
  uint64_t free_bytes = small.fs->free_blocks() * kBlockSize;
  auto data = pattern_bytes(free_bytes + 64 * 1024);
  auto written = small.fs->write(ino.value(), 0, 0, data);
  ASSERT_TRUE(written.ok());  // short write, not failure
  EXPECT_LT(written.value(), data.size());
  EXPECT_GT(written.value(), 0u);
  EXPECT_EQ(small.fs->free_blocks(), 0u);

  // Free everything and the space is reusable.
  ASSERT_TRUE(small.fs->unlink("/fill").ok());
  EXPECT_GT(small.fs->free_blocks(), 0u);
}

TEST_F(BaseFsTest, CachesAccelerateRepeatLookups) {
  ASSERT_TRUE(t.fs->mkdir("/a", 0755).ok());
  ASSERT_TRUE(t.fs->mkdir("/a/b", 0755).ok());
  ASSERT_TRUE(t.fs->create("/a/b/c", 0644).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(t.fs->lookup("/a/b/c").ok());
  }
  auto stats = t.fs->stats();
  EXPECT_GT(stats.dentry_hits, 100u);
}

TEST_F(BaseFsTest, NegativeDentriesCacheMisses) {
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(t.fs->lookup("/absent").error(), Errno::kNoEnt);
  }
  EXPECT_GT(t.fs->stats().dentry_hits, 10u);
  // Creating over a negative entry must invalidate it.
  ASSERT_TRUE(t.fs->create("/absent", 0644).ok());
  EXPECT_TRUE(t.fs->lookup("/absent").ok());
}

TEST_F(BaseFsTest, ConcurrentDataOpsOnDistinctFiles) {
  constexpr int kThreads = 4;
  std::vector<Ino> inos;
  for (int i = 0; i < kThreads; ++i) {
    auto ino = t.fs->create("/t" + std::to_string(i), 0644);
    ASSERT_TRUE(ino.ok());
    inos.push_back(ino.value());
  }
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      auto data = pattern_bytes(6000, static_cast<uint8_t>(i));
      for (int round = 0; round < 30; ++round) {
        if (!t.fs->write(inos[static_cast<size_t>(i)], 0,
                         static_cast<FileOff>(round) * 100, data)
                 .ok()) {
          failed = true;
        }
        auto back = t.fs->read(inos[static_cast<size_t>(i)], 0, 0, 100);
        if (!back.ok()) failed = true;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  for (int i = 0; i < kThreads; ++i) {
    auto back = t.fs->read(inos[static_cast<size_t>(i)], 0, 2900 * 1, 6000);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(),
              pattern_bytes(6000, static_cast<uint8_t>(i)));
  }
}

TEST_F(BaseFsTest, ConcurrentNamespaceChurn) {
  std::vector<std::thread> threads;
  std::atomic<int> created{0};
  for (int tno = 0; tno < 4; ++tno) {
    threads.emplace_back([&, tno] {
      for (int i = 0; i < 50; ++i) {
        std::string path =
            "/c" + std::to_string(tno) + "_" + std::to_string(i);
        if (t.fs->create(path, 0644).ok()) ++created;
        if (i % 3 == 0) (void)t.fs->unlink(path);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(created.load(), 200);
}

TEST(BaseFsConcurrency, FsyncStormAcrossCheckpointFirstCommits) {
  // Four threads each create directories (a new dir block, two inodes and
  // a parent dirent per step) and fsync, on a journal so small that one
  // epoch fills much of it. Committed epochs leave the next one no room,
  // so its committer checkpoints before its data writes -- while the
  // other threads block on their epochs' acks. Every fsync must succeed
  // and the tree must survive.
  TestFsOptions opts;
  opts.with_clock = false;  // real threads, real async workers
  opts.journal_blocks = 24;
  auto t = make_test_fs(opts);
  constexpr int kThreads = 4;
  constexpr int kSteps = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int tno = 0; tno < kThreads; ++tno) {
    threads.emplace_back([&, tno] {
      for (int i = 0; i < kSteps; ++i) {
        const std::string dir =
            "/t" + std::to_string(tno) + "_" + std::to_string(i);
        auto ino = t.fs->mkdir(dir, 0755);
        if (!ino.ok() || !t.fs->create(dir + "/f", 0644).ok() ||
            !t.fs->fsync(ino.value()).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(t.fs->stats().checkpoints, 0u);
  ASSERT_TRUE(t.fs->unmount().ok());
  auto report = fsck(t.device.get(), FsckLevel::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().consistent()) << report.value().summary();

  auto fs2 = BaseFs::mount(t.device.get(), opts.base);
  ASSERT_TRUE(fs2.ok());
  for (int tno = 0; tno < kThreads; ++tno) {
    for (int i = 0; i < kSteps; ++i) {
      EXPECT_TRUE(fs2.value()
                      ->lookup("/t" + std::to_string(tno) + "_" +
                               std::to_string(i) + "/f")
                      .ok());
    }
  }
}

TEST_F(BaseFsTest, UnmountThenOpsFailGracefully) {
  ASSERT_TRUE(t.fs->create("/x", 0644).ok());
  ASSERT_TRUE(t.fs->unmount().ok());
  EXPECT_EQ(t.fs->unmount().error(), Errno::kInval);  // double unmount
}

// --- bug-injection sites ----------------------------------------------

TEST(BaseFsBugs, DeterministicUnlinkPanicFires) {
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kUnlinkLongNamePanic));
  auto t = make_test_fs({}, &bugs);
  std::string trigger = "/" + std::string(54, 'x');
  ASSERT_TRUE(t.fs->create(trigger, 0644).ok());
  EXPECT_THROW((void)t.fs->unlink(trigger), FsPanicError);
  EXPECT_EQ(bugs.total_fires(), 1u);
  // Deterministic: fires again on re-execution -- the paper's core
  // problem with naive retry (§2.2).
  auto t2 = make_test_fs({}, &bugs);
  ASSERT_TRUE(t2.fs->create(trigger, 0644).ok());
  EXPECT_THROW((void)t2.fs->unlink(trigger), FsPanicError);
  EXPECT_EQ(bugs.total_fires(), 2u);
}

TEST(BaseFsBugs, WriteBoundaryPanicFires) {
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kWriteIndirectBoundaryPanic));
  auto t = make_test_fs({}, &bugs);
  auto ino = t.fs->create("/f", 0644);
  ASSERT_TRUE(ino.ok());
  // Writes within direct blocks are fine.
  ASSERT_TRUE(t.fs->write(ino.value(), 0, 0, pattern_bytes(4096)).ok());
  // Crossing into file block 12 panics.
  EXPECT_THROW(
      (void)t.fs->write(ino.value(), 0, 12 * kBlockSize, pattern_bytes(10)),
      FsPanicError);
}

TEST(BaseFsBugs, WarnBugHitsSinkAndContinues) {
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kTruncateUnalignedWarn));
  WarnSink warns;
  auto t = make_test_fs({}, &bugs, &warns);
  auto ino = t.fs->create("/f", 0644);
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(t.fs->truncate(ino.value(), 0, 4096).ok());  // aligned: no warn
  EXPECT_EQ(warns.count(), 0u);
  ASSERT_TRUE(t.fs->truncate(ino.value(), 0, 100).ok());  // warns, succeeds
  EXPECT_EQ(warns.count(), 1u);
}

TEST(BaseFsBugs, SilentCorruptionCaughtByValidateOnSync) {
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kSymlinkBitmapCorrupt));
  auto t = make_test_fs({}, &bugs);
  ASSERT_TRUE(t.fs->symlink("/ln", "/target").ok());  // silently corrupts
  // Detection happens before persistence (paper §3.1).
  EXPECT_THROW((void)t.fs->sync(), FsPanicError);
}

TEST(BaseFsBugs, ValidateOnSyncDisabledLetsCorruptionPersist) {
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kSymlinkBitmapCorrupt));
  TestFsOptions opts;
  opts.base.validate_on_sync = false;
  auto t = make_test_fs(opts, &bugs);
  ASSERT_TRUE(t.fs->symlink("/ln", "/target").ok());
  EXPECT_TRUE(t.fs->sync().ok());  // corruption reaches the device
}

TEST(BaseFsBugs, ProbabilisticBugFiresEventually) {
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kTransientPanic, 0.05));
  auto t = make_test_fs({}, &bugs);
  bool panicked = false;
  for (int i = 0; i < 500 && !panicked; ++i) {
    try {
      (void)t.fs->create("/p" + std::to_string(i), 0644);
    } catch (const FsPanicError&) {
      panicked = true;
    }
  }
  EXPECT_TRUE(panicked);
}

TEST(BaseFsBugs, LargeDirPanic) {
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kLargeDirPanic));
  auto t = make_test_fs({}, &bugs);
  ASSERT_TRUE(t.fs->mkdir("/d", 0755).ok());
  // 64 entries fit in one block; the 65th forces a grow -> panic.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(t.fs->create("/d/f" + std::to_string(i), 0644).ok());
  }
  EXPECT_THROW((void)t.fs->create("/d/overflow", 0644), FsPanicError);
}

}  // namespace
}  // namespace raefs
