// Concurrency and per-op-kind recovery coverage for the RAE supervisor:
//  - multithreaded clients hammering one supervisor while transient and
//    deterministic bugs fire (lock discipline under recovery);
//  - every mutating op kind panicking in-flight, recovered autonomously,
//    with the result delivered and the final state matching the oracle;
//  - NVP output-value voting catching a wrong-result bug in the primary.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "faults/bug_library.h"
#include "fsck/fsck.h"
#include "nvp/nvp.h"
#include "rae/supervisor.h"
#include "tests/support/fixtures.h"
#include "tests/support/fs_compare.h"
#include "tests/support/model_fs.h"

namespace raefs {
namespace {

using testing_support::make_test_device;
using testing_support::pattern_bytes;

TEST(RaeConcurrent, ManyThreadsSurviveTransientPanics) {
  testing_support::TestFsOptions opts;
  opts.total_blocks = 32768;
  opts.inode_count = 4096;
  auto t = make_test_device(opts);
  BugRegistry bugs(99);
  bugs.install(bugs::make(bugs::kTransientPanic, 0.002));
  auto sup = RaeSupervisor::start(t.device.get(), {}, t.clock, &bugs);
  ASSERT_TRUE(sup.ok());

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 120;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      std::string prefix = "/t" + std::to_string(tid);
      if (!sup.value()->mkdir(prefix, 0755).ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string path = prefix + "/f" + std::to_string(i);
        auto ino = sup.value()->create(path, 0644);
        if (!ino.ok()) {
          ++failures;
          continue;
        }
        if (!sup.value()
                 ->write(ino.value(), 0, 0,
                         pattern_bytes(512, static_cast<uint8_t>(i)))
                 .ok()) {
          ++failures;
        }
        if (i % 3 == 0 && !sup.value()->unlink(path).ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(sup.value()->stats().recoveries, 0u);
  EXPECT_FALSE(sup.value()->offline());

  ASSERT_TRUE(sup.value()->shutdown().ok());
  auto report = fsck(t.device.get(), FsckLevel::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().consistent()) << report.value().summary();
}

// --- per-op-kind in-flight recovery --------------------------------------

struct InflightCase {
  OpKind kind;
  const char* name;
};

class InflightRecoveryTest : public ::testing::TestWithParam<InflightCase> {};

TEST_P(InflightRecoveryTest, OpPanicsInFlightAndShadowCompletesIt) {
  auto t = make_test_device();
  BugRegistry bugs;
  // One-shot: panic the first time this op kind is dispatched after
  // arming (deterministic in-flight failure for exactly this kind).
  OpKind victim = GetParam().kind;
  BugSpec spec;
  spec.id = 9000;
  spec.description = "panic on next dispatch of victim kind";
  spec.consequence = BugConsequence::kCrash;
  spec.max_fires = 1;
  spec.trigger = [victim](const BugContext& ctx) {
    return ctx.site == "basefs.op.dispatch" && ctx.op == victim;
  };

  auto sup = RaeSupervisor::start(t.device.get(), {}, t.clock, &bugs);
  ASSERT_TRUE(sup.ok());
  ModelFs model(512);

  // Common setup (no bugs armed yet).
  auto setup = [&](auto& fs) {
    (void)fs.mkdir("/d", 0755);
    auto ino = fs.create("/d/file", 0644);
    (void)fs.write(ino.value(), 0, 0, pattern_bytes(2000, 3));
    (void)fs.create("/d/other", 0644);
  };
  setup(*sup.value());
  setup(model);
  bugs.install(spec);

  // Execute the victim op on both stacks; RAE must return the same
  // result the model computes even though the base panicked mid-op.
  switch (victim) {
    case OpKind::kCreate: {
      auto a = sup.value()->create("/d/new", 0644);
      auto b = model.create("/d/new", 0644);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      break;
    }
    case OpKind::kMkdir: {
      ASSERT_TRUE(sup.value()->mkdir("/d/sub", 0755).ok());
      ASSERT_TRUE(model.mkdir("/d/sub", 0755).ok());
      break;
    }
    case OpKind::kUnlink: {
      ASSERT_TRUE(sup.value()->unlink("/d/other").ok());
      ASSERT_TRUE(model.unlink("/d/other").ok());
      break;
    }
    case OpKind::kRename: {
      ASSERT_TRUE(sup.value()->rename("/d/file", "/d/moved").ok());
      ASSERT_TRUE(model.rename("/d/file", "/d/moved").ok());
      break;
    }
    case OpKind::kLink: {
      ASSERT_TRUE(sup.value()->link("/d/file", "/d/alias").ok());
      ASSERT_TRUE(model.link("/d/file", "/d/alias").ok());
      break;
    }
    case OpKind::kSymlink: {
      ASSERT_TRUE(sup.value()->symlink("/d/ln", "/d/file").ok());
      ASSERT_TRUE(model.symlink("/d/ln", "/d/file").ok());
      break;
    }
    case OpKind::kWrite: {
      auto st = sup.value()->stat("/d/file");
      ASSERT_TRUE(st.ok());
      auto a = sup.value()->write(st.value().ino, 0, 100,
                                  pattern_bytes(700, 9));
      auto bst = model.stat("/d/file");
      auto b = model.write(bst.value().ino, 0, 100, pattern_bytes(700, 9));
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a.value(), b.value());
      break;
    }
    case OpKind::kTruncate: {
      auto st = sup.value()->stat("/d/file");
      ASSERT_TRUE(st.ok());
      ASSERT_TRUE(sup.value()->truncate(st.value().ino, 0, 137).ok());
      auto bst = model.stat("/d/file");
      ASSERT_TRUE(model.truncate(bst.value().ino, 0, 137).ok());
      break;
    }
    default:
      FAIL() << "unhandled kind";
  }

  EXPECT_EQ(sup.value()->stats().recoveries, 1u) << GetParam().name;
  EXPECT_FALSE(sup.value()->offline());

  testing_support::CompareOptions cmp;
  cmp.compare_inos = false;  // post-recovery allocation policy may differ
  auto diff = testing_support::compare_trees(*sup.value(), model, cmp);
  EXPECT_EQ(diff, "") << GetParam().name << ":\n" << diff;

  ASSERT_TRUE(sup.value()->shutdown().ok());
  auto report = fsck(t.device.get(), FsckLevel::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().consistent()) << report.value().summary();
}

INSTANTIATE_TEST_SUITE_P(
    AllMutatingKinds, InflightRecoveryTest,
    ::testing::Values(InflightCase{OpKind::kCreate, "create"},
                      InflightCase{OpKind::kMkdir, "mkdir"},
                      InflightCase{OpKind::kUnlink, "unlink"},
                      InflightCase{OpKind::kRename, "rename"},
                      InflightCase{OpKind::kLink, "link"},
                      InflightCase{OpKind::kSymlink, "symlink"},
                      InflightCase{OpKind::kWrite, "write"},
                      InflightCase{OpKind::kTruncate, "truncate"}),
    [](const ::testing::TestParamInfo<InflightCase>& info) {
      return info.param.name;
    });

// --- NVP output-value voting ----------------------------------------------

TEST(NvpValueVoting, WrongResultInPrimaryIsOutvoted) {
  auto clock = make_clock();
  std::array<std::unique_ptr<MemBlockDevice>, kNvpVersions> devices;
  MkfsOptions mkfs;
  mkfs.total_blocks = 2048;
  mkfs.inode_count = 256;
  for (auto& d : devices) {
    d = std::make_unique<MemBlockDevice>(2048, clock);
    ASSERT_TRUE(BaseFs::mkfs(d.get(), mkfs).ok());
  }
  BugRegistry bugs;  // primary only
  bugs.install(bugs::make(bugs::kWriteShortLie));
  auto sup = NvpSupervisor::start(
      {devices[0].get(), devices[1].get(), devices[2].get()},
      NvpOptions::diverse(), clock, &bugs);
  ASSERT_TRUE(sup.ok());

  auto ino = sup.value()->create("/f", 0644);
  ASSERT_TRUE(ino.ok());
  auto written = sup.value()->write(ino.value(), 0, 0, pattern_bytes(100));
  ASSERT_TRUE(written.ok());
  // Version 0 lies (99); versions 1 and 2 say 100. The vote returns the
  // truth and records the disagreement -- RAE's scrub finds the same bug
  // with one version instead of three (test_scrub_retry.cc).
  EXPECT_EQ(written.value(), 100u);
  EXPECT_GE(sup.value()->stats().disagreements, 1u);
  ASSERT_TRUE(sup.value()->shutdown().ok());
}

TEST(RaeConcurrent, ScrubRunsAlongsideClientTraffic) {
  testing_support::TestFsOptions opts;
  opts.total_blocks = 16384;
  opts.inode_count = 2048;
  auto t = make_test_device(opts);
  auto sup = RaeSupervisor::start(t.device.get(), {}, t.clock, nullptr);
  ASSERT_TRUE(sup.ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  // Completed client steps. scrub() holds the supervisor lock for its
  // whole run and std::mutex is not fair, so a scrubber looping back to
  // back can keep the clients off the lock indefinitely on a loaded host.
  // It therefore scrubs at most once per client step: still interleaved
  // with the traffic, and the clients always progress.
  std::atomic<uint64_t> steps{0};
  auto step = [&] {
    steps.fetch_add(1);
    steps.notify_one();
  };
  std::thread scrubber([&] {
    uint64_t seen = 0;
    do {
      auto scrubbed = sup.value()->scrub();
      if (!scrubbed.ok() || !scrubbed.value().ok ||
          !scrubbed.value().discrepancies.empty()) {
        ++failures;
      }
      steps.wait(seen);
      seen = steps.load();
    } while (!stop.load());
  });
  std::vector<std::thread> clients;
  for (int tid = 0; tid < 3; ++tid) {
    clients.emplace_back([&, tid] {
      std::string prefix = "/w" + std::to_string(tid);
      if (!sup.value()->mkdir(prefix, 0755).ok()) ++failures;
      step();
      for (int i = 0; i < 80; ++i) {
        std::string path = prefix + "/f" + std::to_string(i);
        auto ino = sup.value()->create(path, 0644);
        if (!ino.ok()) {
          ++failures;
          step();
          continue;
        }
        if (!sup.value()
                 ->write(ino.value(), 0, 0, pattern_bytes(256))
                 .ok()) {
          ++failures;
        }
        if (i % 10 == 9 && !sup.value()->sync().ok()) ++failures;
        step();
      }
    });
  }
  for (auto& th : clients) th.join();
  stop = true;
  step();  // wake the scrubber so it sees `stop`
  scrubber.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(sup.value()->stats().scrubs, 0u);
  EXPECT_EQ(sup.value()->stats().scrub_discrepancies, 0u);
  ASSERT_TRUE(sup.value()->shutdown().ok());
  auto report = fsck(t.device.get(), FsckLevel::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().consistent()) << report.value().summary();
}

}  // namespace
}  // namespace raefs
