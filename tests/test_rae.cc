// End-to-end RAE tests: transparent recovery from deterministic and
// transient panics, WARN escalation, validate-on-sync detection, read-path
// bugs, fsync interruption (§3.3), fork-based shadow isolation, offline
// fallback on unrecoverable images, and post-recovery consistency (I2-I4).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "fsck/crafted.h"
#include "fsck/fsck.h"
#include "faults/bug_library.h"
#include "obs/flight_recorder.h"
#include "obs/incident.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "blockdev/fault_device.h"
#include "rae/crash_restart.h"
#include "rae/supervisor.h"
#include "tests/support/fixtures.h"
#include "tests/support/fs_compare.h"
#include "tests/support/model_fs.h"

namespace raefs {
namespace {

using testing_support::make_test_device;
using testing_support::pattern_bytes;

struct RaeTest : ::testing::Test {
  void SetUp() override { t = make_test_device(); }

  std::unique_ptr<RaeSupervisor> start(BugRegistry* bugs,
                                       RaeOptions opts = {}) {
    auto sup = RaeSupervisor::start(t.device.get(), opts, t.clock, bugs);
    EXPECT_TRUE(sup.ok());
    return std::move(sup).value();
  }

  testing_support::TestFs t;
};

TEST_F(RaeTest, NoFaultsBehavesLikeBareBase) {
  auto sup = start(nullptr);
  ASSERT_TRUE(sup->mkdir("/d", 0755).ok());
  auto ino = sup->create("/d/f", 0644);
  ASSERT_TRUE(ino.ok());
  auto data = pattern_bytes(5000);
  ASSERT_TRUE(sup->write(ino.value(), 0, 0, data).ok());
  auto back = sup->read(ino.value(), 0, 0, 5000);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
  EXPECT_EQ(sup->stats().recoveries, 0u);
  ASSERT_TRUE(sup->shutdown().ok());
}

TEST_F(RaeTest, TransparentRecoveryFromDeterministicPanic) {
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kUnlinkLongNamePanic));
  auto sup = start(&bugs);

  std::string trigger = "/" + std::string(54, 'x');
  auto keep = sup->create("/keep", 0644);
  ASSERT_TRUE(keep.ok());
  ASSERT_TRUE(sup->write(keep.value(), 0, 0, pattern_bytes(3000, 7)).ok());
  ASSERT_TRUE(sup->create(trigger, 0644).ok());

  // The unlink panics the base; RAE must mask it: the call SUCCEEDS.
  Status st = sup->unlink(trigger);
  EXPECT_TRUE(st.ok()) << to_string(st.error());
  EXPECT_EQ(sup->stats().recoveries, 1u);
  EXPECT_EQ(sup->stats().panics_trapped, 1u);
  EXPECT_FALSE(sup->offline());

  // Application-visible state: trigger gone, earlier data intact.
  EXPECT_EQ(sup->lookup(trigger).error(), Errno::kNoEnt);
  auto back = sup->read(keep.value(), 0, 0, 3000);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), pattern_bytes(3000, 7));

  // New operations are admitted after hand-off.
  ASSERT_TRUE(sup->create("/after", 0644).ok());
  ASSERT_TRUE(sup->shutdown().ok());

  // I2: strict fsck clean after recovery + shutdown.
  auto report = fsck(t.device.get(), FsckLevel::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().consistent()) << report.value().summary();
}

TEST_F(RaeTest, InflightResultComesFromShadowAutonomousMode) {
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kWriteIndirectBoundaryPanic));
  auto sup = start(&bugs);
  auto ino = sup->create("/big", 0644);
  ASSERT_TRUE(ino.ok());
  // This write crosses file block 12: the base panics mid-op; the shadow
  // completes it and its result is returned transparently.
  auto data = pattern_bytes(2000, 4);
  auto written = sup->write(ino.value(), 0, 12 * kBlockSize, data);
  ASSERT_TRUE(written.ok()) << to_string(written.error());
  EXPECT_EQ(written.value(), data.size());
  EXPECT_EQ(sup->stats().recoveries, 1u);

  auto back = sup->read(ino.value(), 0, 12 * kBlockSize, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
  ASSERT_TRUE(sup->shutdown().ok());
}

TEST_F(RaeTest, DeterministicBugDoesNotRetriggerAfterRecovery) {
  // Error avoidance (§2.2): the base must not re-execute the trigger.
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kUnlinkLongNamePanic));
  auto sup = start(&bugs);
  std::string trigger = "/" + std::string(54, 'y');
  ASSERT_TRUE(sup->create(trigger, 0644).ok());
  ASSERT_TRUE(sup->unlink(trigger).ok());
  EXPECT_EQ(bugs.total_fires(), 1u);  // fired once, never re-executed
  EXPECT_EQ(sup->stats().recoveries, 1u);

  // The *same bug* triggered by a *new* op recovers again (still there).
  ASSERT_TRUE(sup->create(trigger, 0644).ok());
  ASSERT_TRUE(sup->unlink(trigger).ok());
  EXPECT_EQ(sup->stats().recoveries, 2u);
  ASSERT_TRUE(sup->shutdown().ok());
}

TEST_F(RaeTest, ReadPathDeterministicBugMaskedViaShadow) {
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kCraftedNamePanic));
  auto sup = start(&bugs);
  auto ino = sup->create("/evilfile", 0644);
  ASSERT_TRUE(ino.ok()) << to_string(ino.error());
  // Wait: creating resolves the parent, not the leaf; the bug fires on
  // lookup of a component starting with "evil".
  auto looked = sup->lookup("/evilfile");
  ASSERT_TRUE(looked.ok()) << to_string(looked.error());
  EXPECT_EQ(looked.value(), ino.value());
  EXPECT_GE(sup->stats().recoveries, 1u);
  ASSERT_TRUE(sup->shutdown().ok());
}

TEST_F(RaeTest, WarnEscalationTriggersProactiveRecovery) {
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kTruncateUnalignedWarn));
  RaeOptions opts;
  opts.warn_policy = RaeOptions::WarnPolicy::kRecoverImmediately;
  auto sup = start(&bugs, opts);
  auto ino = sup->create("/f", 0644);
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(sup->write(ino.value(), 0, 0, pattern_bytes(5000)).ok());
  // Unaligned truncate WARNs; policy recovers immediately after the op.
  ASSERT_TRUE(sup->truncate(ino.value(), 0, 100).ok());
  EXPECT_EQ(sup->stats().warn_recoveries, 1u);
  EXPECT_EQ(sup->stat_ino(ino.value()).value().size, 100u);
  ASSERT_TRUE(sup->shutdown().ok());
}

TEST_F(RaeTest, WarnThresholdPolicy) {
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kTruncateUnalignedWarn));
  RaeOptions opts;
  opts.warn_policy = RaeOptions::WarnPolicy::kRecoverAfterN;
  opts.warn_threshold = 3;
  auto sup = start(&bugs, opts);
  auto ino = sup->create("/f", 0644);
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(sup->truncate(ino.value(), 0, 1).ok());
  ASSERT_TRUE(sup->truncate(ino.value(), 0, 2).ok());
  EXPECT_EQ(sup->stats().warn_recoveries, 0u);
  ASSERT_TRUE(sup->truncate(ino.value(), 0, 3).ok());
  EXPECT_EQ(sup->stats().warn_recoveries, 1u);
  ASSERT_TRUE(sup->shutdown().ok());
}

TEST_F(RaeTest, SilentCorruptionDetectedAtSyncAndRecovered) {
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kSymlinkBitmapCorrupt));
  auto sup = start(&bugs);
  ASSERT_TRUE(sup->symlink("/ln", "/somewhere").ok());  // corrupts silently
  // The sync detects the corruption before persistence, panics, and RAE
  // rebuilds correct state from the log (which includes the symlink).
  ASSERT_TRUE(sup->sync().ok());
  EXPECT_EQ(sup->stats().recoveries, 1u);
  EXPECT_EQ(sup->readlink("/ln").value(), "/somewhere");
  ASSERT_TRUE(sup->shutdown().ok());
  auto report = fsck(t.device.get(), FsckLevel::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().consistent()) << report.value().summary();
}

TEST_F(RaeTest, ShutdownRecoversFromPanicInFinalSync) {
  // No explicit sync: validate-on-sync first sees the corruption in
  // unmount's own sync. shutdown() must trap that panic as sync() does.
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kSymlinkBitmapCorrupt));
  auto sup = start(&bugs);
  ASSERT_TRUE(sup->symlink("/l", "/target").ok());  // corrupts silently
  Status st = sup->shutdown();
  ASSERT_TRUE(st.ok()) << to_string(st.error());
  EXPECT_EQ(sup->stats().recoveries, 1u);
  EXPECT_FALSE(sup->offline()) << sup->offline_reason();

  {
    auto fs = std::move(BaseFs::mount(t.device.get(), {}, t.clock)).value();
    auto target = fs->readlink("/l");
    ASSERT_TRUE(target.ok());
    EXPECT_EQ(target.value(), "/target");
    ASSERT_TRUE(fs->unmount().ok());
  }
  auto report = fsck(t.device.get(), FsckLevel::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().clean()) << report.value().summary();
}

TEST_F(RaeTest, RecoveryPreservesDataAcrossManyPriorOps) {
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kLargeDirPanic));
  auto sup = start(&bugs);
  ModelFs model(512);

  ASSERT_TRUE(sup->mkdir("/d", 0755).ok());
  ASSERT_TRUE(model.mkdir("/d", 0755).ok());
  for (int i = 0; i < 64; ++i) {
    std::string path = "/d/f" + std::to_string(i);
    auto a = sup->create(path, 0644);
    auto b = model.create(path, 0644);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a.value(), b.value());
    auto payload = pattern_bytes(200 + i, static_cast<uint8_t>(i));
    ASSERT_TRUE(sup->write(a.value(), 0, 0, payload).ok());
    ASSERT_TRUE(model.write(b.value(), 0, 0, payload).ok());
  }
  // The 65th entry forces a directory grow -> panic -> recovery, with 129
  // uncommitted ops in the log. The shadow replays them all.
  auto a = sup->create("/d/overflow", 0644);
  ASSERT_TRUE(a.ok());
  auto b = model.create("/d/overflow", 0644);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(sup->stats().recoveries, 1u);
  EXPECT_GE(sup->stats().ops_replayed_total, 128u);

  // I3: essential state equals the oracle.
  auto diff = testing_support::compare_trees(*sup, model);
  EXPECT_EQ(diff, "") << diff;
  ASSERT_TRUE(sup->shutdown().ok());
}

TEST_F(RaeTest, TransientBugsAlsoMasked) {
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kTransientPanic, 0.02));
  auto sup = start(&bugs);
  int succeeded = 0;
  for (int i = 0; i < 300; ++i) {
    if (sup->create("/t" + std::to_string(i), 0644).ok()) ++succeeded;
    if (sup->offline()) break;
  }
  EXPECT_EQ(succeeded, 300);  // every op succeeds despite random panics
  EXPECT_GT(sup->stats().recoveries, 0u);
  ASSERT_TRUE(sup->shutdown().ok());
}

TEST_F(RaeTest, FsyncInterruptedRetriedAfterHandoff) {
  // §3.3: if the base fails mid-fsync, the shadow recovers the prefix and
  // the rebooted base performs the sync again.
  BugRegistry bugs;
  BugSpec spec;
  spec.id = 999;
  spec.description = "panic on first sync dispatch";
  spec.consequence = BugConsequence::kCrash;
  spec.max_fires = 1;
  spec.trigger = [](const BugContext& ctx) {
    return ctx.site == "basefs.op.dispatch" &&
           (ctx.op == OpKind::kFsync || ctx.op == OpKind::kSync);
  };
  bugs.install(spec);
  auto sup = start(&bugs);
  auto ino = sup->create("/f", 0644);
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(sup->write(ino.value(), 0, 0, pattern_bytes(4000, 5)).ok());

  ASSERT_TRUE(sup->fsync(ino.value()).ok());
  EXPECT_EQ(sup->stats().recoveries, 1u);

  // The data reached disk: crash the device and remount bare.
  ASSERT_TRUE(sup->shutdown().ok());
  t.device->crash();
  auto fs = BaseFs::mount(t.device.get(), BaseFsOptions{});
  ASSERT_TRUE(fs.ok());
  auto st = fs.value()->stat("/f");
  ASSERT_TRUE(st.ok());
  auto back = fs.value()->read(st.value().ino, 0, 0, 4000);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), pattern_bytes(4000, 5));
}

TEST_F(RaeTest, ForkExecutorAlsoRecovers) {
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kUnlinkLongNamePanic));
  RaeOptions opts;
  opts.fork_shadow = true;
  auto sup = start(&bugs, opts);
  std::string trigger = "/" + std::string(54, 'z');
  ASSERT_TRUE(sup->create(trigger, 0644).ok());
  ASSERT_TRUE(sup->create("/other", 0644).ok());
  ASSERT_TRUE(sup->unlink(trigger).ok());
  EXPECT_EQ(sup->stats().recoveries, 1u);
  EXPECT_EQ(sup->lookup(trigger).error(), Errno::kNoEnt);
  EXPECT_TRUE(sup->lookup("/other").ok());
  ASSERT_TRUE(sup->shutdown().ok());
}

TEST_F(RaeTest, ForkExecutorReplayIsTracedInSupervisorProcess) {
  // The read-ahead, its span and the shadow's flight events belong to the
  // supervisor's process: a forked shadow child only replays (and starts
  // no thread), so nothing is lost with it.
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kUnlinkLongNamePanic));
  RaeOptions opts;
  opts.fork_shadow = true;
  opts.shadow.replay_workers = 4;
  auto sup = start(&bugs, opts);
  std::string trigger = "/" + std::string(54, 'z');
  ASSERT_TRUE(sup->create(trigger, 0644).ok());
  ASSERT_TRUE(sup->create("/other", 0644).ok());
  obs::tracer().clear();
  obs::flight().clear();
  obs::Tracer::set_enabled(true);
  ASSERT_TRUE(sup->unlink(trigger).ok());
  obs::Tracer::set_enabled(false);
  EXPECT_EQ(sup->stats().recoveries, 1u);
  EXPECT_EQ(sup->lookup(trigger).error(), Errno::kNoEnt);
  EXPECT_TRUE(sup->lookup("/other").ok());

  auto phase = obs::tracer().spans_named(obs::kSpanRecoveryReplay);
  auto replay = obs::tracer().spans_named(obs::kSpanShadowReplay);
  auto prefetch = obs::tracer().spans_named(obs::kSpanShadowReplayPrefetch);
  ASSERT_EQ(phase.size(), 1u);
  ASSERT_EQ(replay.size(), 1u);
  ASSERT_EQ(prefetch.size(), 1u);
  EXPECT_EQ(replay[0].parent, phase[0].id);
  EXPECT_EQ(prefetch[0].parent, replay[0].id);

  std::vector<obs::FlightEvent> begins, ends;
  for (const auto& e : obs::flight().snapshot()) {
    if (e.component != obs::Component::kShadow) continue;
    if (std::string(e.kind) == "replay.begin") begins.push_back(e);
    if (std::string(e.kind) == "replay.end") ends.push_back(e);
  }
  ASSERT_EQ(begins.size(), 1u);
  EXPECT_EQ(begins[0].b, 4u);  // the read-ahead fan-out
  EXPECT_EQ(ends.size(), 1u);
  ASSERT_TRUE(sup->shutdown().ok());
}

TEST_F(RaeTest, CraftedImageTakenOfflineCleanlyInsteadOfCrashLoop) {
  // The attack scenario: a crafted image passes weak fsck, the base
  // panics on first touch, and the shadow -- whose checks are strict --
  // refuses to recover. RAE's answer is a clean offline, not a machine
  // crash or a recovery loop.
  ASSERT_TRUE(craft_image(t.device.get(), CraftKind::kBadDirentNameLen).ok());
  auto weak = fsck(t.device.get(), FsckLevel::kWeak);
  ASSERT_TRUE(weak.ok());
  EXPECT_TRUE(weak.value().consistent());  // the attack bypasses weak fsck

  auto sup = start(nullptr);
  auto looked = sup->lookup("/anything");
  EXPECT_EQ(looked.error(), Errno::kIo);
  EXPECT_TRUE(sup->offline());
  EXPECT_EQ(sup->stats().failed_recoveries, 1u);
  EXPECT_FALSE(sup->offline_reason().empty());
  // Subsequent ops fail fast without crashing anything.
  EXPECT_EQ(sup->create("/x", 0644).error(), Errno::kIo);
  EXPECT_EQ(sup->stats().failed_recoveries, 1u);  // no recovery loop
}

TEST_F(RaeTest, OplogTruncatesOnSync) {
  auto sup = start(nullptr);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sup->create("/f" + std::to_string(i), 0644).ok());
  }
  EXPECT_EQ(sup->oplog_stats().live_records, 10u);
  ASSERT_TRUE(sup->sync().ok());
  EXPECT_EQ(sup->oplog_stats().live_records, 0u);  // gap closed
  ASSERT_TRUE(sup->shutdown().ok());
}

TEST_F(RaeTest, RecoveryTimeAccountedInSimTime) {
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kUnlinkLongNamePanic));
  RaeOptions opts;
  opts.contained_reboot_cost = 5 * kMilli;
  auto sup = start(&bugs, opts);
  std::string trigger = "/" + std::string(54, 'q');
  ASSERT_TRUE(sup->create(trigger, 0644).ok());
  ASSERT_TRUE(sup->unlink(trigger).ok());
  EXPECT_GE(sup->stats().total_downtime, 5 * kMilli);
  EXPECT_EQ(sup->stats().recovery_time.count(), 1u);
  ASSERT_TRUE(sup->shutdown().ok());
}

// --- crash-restart baseline ---------------------------------------------

TEST(CrashRestartBaseline, PanicCrashesMachineAndLosesAckedOps) {
  auto t = make_test_device();
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kUnlinkLongNamePanic));
  CrashRestartOptions opts;
  auto sup = CrashRestartSupervisor::start(t.device.get(), opts, t.clock,
                                           &bugs);
  ASSERT_TRUE(sup.ok());
  auto& cs = *sup.value();

  std::string trigger = "/" + std::string(54, 'x');
  ASSERT_TRUE(cs.create(trigger, 0644).ok());
  ASSERT_TRUE(cs.create("/acked-but-unflushed", 0644).ok());

  // The app sees the bug as EIO -- no masking here.
  EXPECT_EQ(cs.unlink(trigger).error(), Errno::kIo);
  EXPECT_EQ(cs.stats().crashes, 1u);
  EXPECT_EQ(cs.stats().app_visible_failures, 1u);
  EXPECT_GE(cs.stats().lost_acked_ops, 2u);
  EXPECT_GE(cs.stats().total_downtime, opts.machine_restart_cost);

  // Acked-but-unflushed updates vanished with the machine.
  EXPECT_EQ(cs.lookup("/acked-but-unflushed").error(), Errno::kNoEnt);
  ASSERT_TRUE(cs.shutdown().ok());
}

TEST(CrashRestartBaseline, SyncedDataSurvivesCrash) {
  auto t = make_test_device();
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kUnlinkLongNamePanic));
  auto sup = CrashRestartSupervisor::start(t.device.get(), {}, t.clock,
                                           &bugs);
  ASSERT_TRUE(sup.ok());
  auto& cs = *sup.value();
  ASSERT_TRUE(cs.create("/durable", 0644).ok());
  ASSERT_TRUE(cs.sync().ok());
  std::string trigger = "/" + std::string(54, 'x');
  ASSERT_TRUE(cs.create(trigger, 0644).ok());
  EXPECT_EQ(cs.unlink(trigger).error(), Errno::kIo);
  EXPECT_TRUE(cs.lookup("/durable").ok());
  ASSERT_TRUE(cs.shutdown().ok());
}

TEST_F(RaeTest, RenameOverwritePanicMasked) {
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kRenameOverwritePanic));
  auto sup = start(&bugs);
  auto src = sup->create("/src", 0644);
  auto dst = sup->create("/dst", 0644);
  ASSERT_TRUE(src.ok());
  ASSERT_TRUE(dst.ok());
  ASSERT_TRUE(sup->write(src.value(), 0, 0, pattern_bytes(300, 1)).ok());
  ASSERT_TRUE(sup->write(dst.value(), 0, 0, pattern_bytes(300, 2)).ok());

  // Overwriting rename hits the lock-order BUG(); RAE masks it.
  ASSERT_TRUE(sup->rename("/src", "/dst").ok());
  EXPECT_EQ(sup->stats().recoveries, 1u);
  EXPECT_EQ(sup->lookup("/src").error(), Errno::kNoEnt);
  auto st = sup->stat("/dst");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().ino, src.value());
  auto content = sup->read(st.value().ino, 0, 0, 300);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content.value(), pattern_bytes(300, 1));
  ASSERT_TRUE(sup->shutdown().ok());
}

TEST_F(RaeTest, OplogMemoryBoundedByForcedSyncs) {
  RaeOptions opts;
  opts.max_oplog_bytes = 32 * 1024;
  auto sup = start(nullptr, opts);
  auto ino = sup->create("/f", 0644);
  ASSERT_TRUE(ino.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(sup->write(ino.value(), 0, static_cast<FileOff>(i) * 8192,
                           pattern_bytes(8192)).ok());
  }
  EXPECT_GT(sup->stats().forced_syncs, 0u);
  EXPECT_LE(sup->oplog_stats().live_bytes, 48 * 1024u);
  ASSERT_TRUE(sup->shutdown().ok());
}

// --- observability: the recovery pipeline as a span timeline --------------

TEST_F(RaeTest, RecoveryTimelineSpansMatchDowntime) {
  obs::tracer().clear();
  // The per-phase counters are process-global and earlier tests in this
  // binary also recover; zero them so the registry cross-check below sees
  // only this test's recovery.
  obs::metrics().reset_owned();
  obs::Tracer::set_enabled(true);
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kUnlinkLongNamePanic));
  auto sup = start(&bugs);
  std::string trigger = "/" + std::string(54, 'x');
  ASSERT_TRUE(sup->create(trigger, 0644).ok());
  ASSERT_TRUE(sup->unlink(trigger).ok());
  ASSERT_EQ(sup->stats().recoveries, 1u);
  obs::Tracer::set_enabled(false);

  auto roots = obs::tracer().spans_named(obs::kSpanRecovery);
  ASSERT_EQ(roots.size(), 1u);

  // The full pipeline, in paper order, each phase exactly once, parented
  // on the recovery root, contiguous (phase N+1 starts where N ends) and
  // visibly nonzero (phase_bookkeeping_cost guarantees this even with no
  // device latency model).
  const char* phases[] = {
      obs::kSpanRecoveryDetect,  obs::kSpanRecoveryContain,
      obs::kSpanRecoveryReboot,  obs::kSpanRecoveryReplay,
      obs::kSpanRecoveryDownload, obs::kSpanRecoveryResume};
  Nanos span_sum = 0;
  Nanos cursor = roots[0].start;
  for (const char* name : phases) {
    auto spans = obs::tracer().spans_named(name);
    ASSERT_EQ(spans.size(), 1u) << name;
    EXPECT_EQ(spans[0].parent, roots[0].id) << name;
    EXPECT_EQ(spans[0].start, cursor) << name;
    EXPECT_GT(spans[0].duration(), 0) << name;
    span_sum += spans[0].duration();
    cursor = spans[0].end;
  }

  // Three independent accountings of the same downtime must agree: the
  // span timeline, the per-phase stats fields, and the availability
  // number applications experience.
  const RaeStats& st = sup->stats();
  Nanos stat_sum = st.detect_ns + st.contain_ns + st.reboot_ns +
                   st.replay_ns + st.download_ns + st.verify_ns +
                   st.resume_ns;
  EXPECT_EQ(stat_sum, st.total_downtime);
  EXPECT_EQ(span_sum, st.total_downtime);

  // The journal is replayed exactly once, by the rebooted base's mount,
  // inside the reboot phase; the download installs into that base.
  auto replay = obs::tracer().spans_named(obs::kSpanJournalReplay);
  auto reboot = obs::tracer().spans_named(obs::kSpanRecoveryReboot);
  ASSERT_EQ(replay.size(), 1u);
  EXPECT_EQ(replay[0].parent, reboot[0].id);

  // Per-phase counters export the same breakdown to the registry.
  auto snap = obs::metrics().snapshot();
  EXPECT_EQ(snap.counters.at(obs::kMRaeRecoveryDetectNs),
            static_cast<uint64_t>(st.detect_ns));
  EXPECT_EQ(snap.counters.at(obs::kMRaeRecoveryReplayNs),
            static_cast<uint64_t>(st.replay_ns));

  // A completed recovery leaves a flight-recorder post-mortem.
  EXPECT_NE(obs::flight().last_dump().find("recovery completed"),
            std::string::npos);
  ASSERT_TRUE(sup->shutdown().ok());
}

/// Counts the reads that land in the journal region; all IO passes
/// through to `inner`.
class JournalReadCounter final : public BlockDevice {
 public:
  JournalReadCounter(BlockDevice* inner, const Geometry& geo)
      : inner_(inner),
        first_(geo.journal_start),
        end_(geo.journal_start + geo.journal_blocks) {}

  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t block_count() const override { return inner_->block_count(); }
  Status read_block(BlockNo block, std::span<uint8_t> out) override {
    if (block >= first_ && block < end_) reads_.fetch_add(1);
    return inner_->read_block(block, out);
  }
  Status write_block(BlockNo block, std::span<const uint8_t> data) override {
    return inner_->write_block(block, data);
  }
  Status flush() override { return inner_->flush(); }
  const DeviceStats& stats() const override { return inner_->stats(); }

  uint64_t reads() const { return reads_.load(); }

 private:
  BlockDevice* inner_;
  BlockNo first_;
  BlockNo end_;
  std::atomic<uint64_t> reads_{0};
};

TEST_F(RaeTest, ContainedRebootReadsTheJournalOnce) {
  // The reboot is the base's own mount: its replay (tail audit included)
  // is the recovery's one pass over the journal region, and the download
  // installs into that base instead of mounting -- and replaying -- again.
  // Beyond the pass, the recovery reads only the journal header (the
  // mount's open, the install's bounded scan) and, serially, two blocks
  // a second time: the header (replay, then its scan) and the block where
  // the scan stops (the scan, then the tail audit).
  const testing_support::TestFsOptions fs_opts;
  for (uint32_t workers : {1u, 8u}) {
    SCOPED_TRACE("journal_replay_workers " + std::to_string(workers));
    auto fs = make_test_device(fs_opts);
    auto geo = compute_geometry(fs_opts.total_blocks, fs_opts.inode_count,
                                fs_opts.journal_blocks);
    ASSERT_TRUE(geo.ok());
    JournalReadCounter dev(fs.device.get(), geo.value());
    BugRegistry bugs;
    bugs.install(bugs::make(bugs::kUnlinkLongNamePanic));
    RaeOptions opts;
    opts.journal_replay_workers = workers;
    auto started = RaeSupervisor::start(&dev, opts, fs.clock, &bugs);
    ASSERT_TRUE(started.ok());
    auto& sup = *started.value();

    auto keep = sup.create("/keep", 0644);
    ASSERT_TRUE(keep.ok());
    ASSERT_TRUE(sup.write(keep.value(), 0, 0, pattern_bytes(3000, 7)).ok());
    ASSERT_TRUE(sup.sync().ok());  // one committed transaction to replay
    std::string trigger = "/" + std::string(54, 'x');
    ASSERT_TRUE(sup.create(trigger, 0644).ok());

    obs::flight().clear();
    const uint64_t before = dev.reads();
    ASSERT_TRUE(sup.unlink(trigger).ok());
    ASSERT_EQ(sup.stats().recoveries, 1u);
    EXPECT_LE(dev.reads() - before, fs_opts.journal_blocks + 4);

    // The rebooted base reports the replay it did.
    EXPECT_EQ(sup.base_stats().journal_replays_at_mount, 1u);
    std::string last_mount;
    for (const auto& e : obs::flight().snapshot()) {
      if (e.component == obs::Component::kBaseFs &&
          std::string(e.kind) == "mount") {
        last_mount = e.detail;
      }
    }
    EXPECT_EQ(last_mount, "unclean (journal replayed)");

    auto back = sup.read(keep.value(), 0, 0, 3000);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), pattern_bytes(3000, 7));
    ASSERT_TRUE(sup.shutdown().ok());
  }
}

// --- incident forensics ---------------------------------------------------

TEST_F(RaeTest, RecoveryFilesOneIncidentMatchingDowntime) {
  obs::incidents().clear();
  obs::tracer().clear();
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kUnlinkLongNamePanic));
  auto sup = start(&bugs);
  // Enable after mount so the whole trace window is inside operations.
  obs::Tracer::set_enabled(true);
  std::string trigger = "/" + std::string(54, 'x');
  ASSERT_TRUE(sup->create(trigger, 0644).ok());
  ASSERT_TRUE(sup->unlink(trigger).ok());
  ASSERT_EQ(sup->stats().recoveries, 1u);
  obs::Tracer::set_enabled(false);

  // Exactly one incident, successful, attributed to the injected bug.
  ASSERT_EQ(obs::incidents().total_recorded(), 1u);
  auto incs = obs::incidents().snapshot();
  ASSERT_EQ(incs.size(), 1u);
  const obs::Incident& inc = incs[0];
  EXPECT_TRUE(inc.ok);
  EXPECT_TRUE(inc.failure.empty());
  EXPECT_EQ(inc.bug_id, bugs::kUnlinkLongNamePanic);
  EXPECT_FALSE(inc.trigger_function.empty());
  EXPECT_NE(inc.failed_op_seq, 0u);

  // The phase durations sum to the incident's downtime, which is the
  // delta this recovery added to the supervisor's availability account.
  Nanos phase_sum = inc.detect_ns + inc.contain_ns + inc.reboot_ns +
                    inc.replay_ns + inc.download_ns + inc.verify_ns +
                    inc.resume_ns;
  EXPECT_EQ(phase_sum, inc.downtime_ns);
  EXPECT_GT(inc.downtime_ns, 0u);
  EXPECT_EQ(inc.downtime_ns, sup->stats().total_downtime);
  EXPECT_EQ(inc.t_end - inc.t_begin, inc.downtime_ns);
  EXPECT_EQ(inc.ops_replayed, sup->stats().ops_replayed_total);

  // Causality: the trapped op's trace id is attached, and every span
  // recorded in the window -- the recovery pipeline included -- belongs
  // to an operation (the recovery inherits the unlink's op id).
  EXPECT_NE(inc.op_id, 0u);
  EXPECT_FALSE(obs::tracer().spans_of_op(inc.op_id).empty());
  for (const auto& s : obs::tracer().snapshot()) {
    EXPECT_NE(s.op_id, 0u) << s.name;
  }
  auto roots = obs::tracer().spans_named(obs::kSpanRecovery);
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].op_id, inc.op_id);

  // The forensic artifact carries history from before the trip.
  EXPECT_FALSE(inc.flight_tail.empty());
  ASSERT_TRUE(sup->shutdown().ok());
}

TEST_F(RaeTest, IncidentPathWritesForensicFileOnRecovery) {
  obs::incidents().clear();
  std::string path = ::testing::TempDir() + "raefs_incidents_test.json";
  std::remove(path.c_str());
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kUnlinkLongNamePanic));
  RaeOptions opts;
  opts.incident_path = path;
  auto sup = start(&bugs, opts);
  std::string trigger = "/" + std::string(54, 'x');
  ASSERT_TRUE(sup->create(trigger, 0644).ok());
  ASSERT_TRUE(sup->unlink(trigger).ok());
  ASSERT_EQ(sup->stats().recoveries, 1u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::string doc((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_FALSE(doc.empty());
  EXPECT_EQ(doc.front(), '[');
  EXPECT_NE(doc.find("\"downtime_ns\""), std::string::npos);
  EXPECT_NE(doc.find("\"bug_id\": " + std::to_string(bugs::kUnlinkLongNamePanic)),
            std::string::npos);
  std::remove(path.c_str());
  ASSERT_TRUE(sup->shutdown().ok());
}

// ---------------------------------------------------------------------------
// Recovery idempotence (S4): a machine crash at ANY point inside the
// detect -> contain -> reboot -> replay -> download -> resume pipeline must
// leave an image from which a fresh supervised mount converges.
// ---------------------------------------------------------------------------

/// Device IO one recovery issued, counted from the panicking call.
struct RecoveryIo {
  uint64_t writes = 0;
  uint64_t reads = 0;
};

struct RecoveryCrashScenario {
  // Device write index (relative to the panic) where the power failed;
  // kNoCrash runs the scenario to completion.
  static constexpr uint64_t kNoCrash = ~uint64_t{0};

  // Returns the device IO recovery issued (valid only for the kNoCrash
  // baseline).
  static RecoveryIo run(uint64_t crash_after) {
    auto t = testing_support::make_test_device();
    FaultBlockDevice fdev(t.device.get());
    BugRegistry bugs;
    bugs.install(bugs::make(bugs::kUnlinkLongNamePanic));
    auto sup = RaeSupervisor::start(&fdev, {}, t.clock, &bugs);
    EXPECT_TRUE(sup.ok());

    std::string trigger = "/" + std::string(54, 'x');
    auto keep = sup.value()->create("/keep", 0644);
    EXPECT_TRUE(keep.ok());
    EXPECT_TRUE(
        sup.value()->write(keep.value(), 0, 0, pattern_bytes(3000, 7)).ok());
    EXPECT_TRUE(sup.value()->sync().ok());
    EXPECT_TRUE(sup.value()->create(trigger, 0644).ok());

    const uint64_t before = fdev.writes_seen();
    const uint64_t reads_before = fdev.reads_seen();
    if (crash_after != kNoCrash) {
      fdev.arm_crash_after_writes(before + crash_after);
    }
    // The unlink panics the base and recovery runs -- possibly into a
    // dead device. Whatever happens must not escape as a crash.
    Status st = sup.value()->unlink(trigger);
    const RecoveryIo used{fdev.writes_seen() - before,
                          fdev.reads_seen() - reads_before};
    if (crash_after == kNoCrash) {
      EXPECT_TRUE(st.ok());
      return used;
    }

    // Power cycle: supervisor state gone, volatile device cache lost.
    sup.value().reset();
    fdev.disarm();
    t.device->crash();

    // A fresh supervised mount must converge: mount OK, synced data
    // intact, new work admitted.
    auto again = RaeSupervisor::start(t.device.get(), {}, t.clock, nullptr);
    EXPECT_TRUE(again.ok());
    auto& sup2 = *again.value();
    EXPECT_FALSE(sup2.offline());
    auto st2 = sup2.stat("/keep");
    EXPECT_TRUE(st2.ok());
    auto back = sup2.read(st2.value().ino, 0, 0, 3000);
    EXPECT_TRUE(back.ok());
    if (back.ok()) EXPECT_EQ(back.value(), pattern_bytes(3000, 7));
    // The un-acked unlink may or may not have survived; either way the
    // namespace must accept new operations.
    EXPECT_TRUE(sup2.create("/after-crash", 0644).ok());
    EXPECT_TRUE(sup2.shutdown().ok());

    auto report = fsck(t.device.get(), FsckLevel::kStrict);
    EXPECT_TRUE(report.ok());
    if (report.ok()) {
      EXPECT_TRUE(report.value().consistent()) << report.value().summary();
    }
    return used;
  }
};

TEST(RaeRecoveryIdempotence, CrashAtEveryWriteOfRecoveryConverges) {
  uint64_t total =
      RecoveryCrashScenario::run(RecoveryCrashScenario::kNoCrash).writes;
  ASSERT_GT(total, 0u);
  // Crashing after k in [0, total) covers every phase boundary and every
  // point in between; crash index total is the no-crash case again.
  for (uint64_t k = 0; k < total; ++k) {
    SCOPED_TRACE("crash after recovery write " + std::to_string(k));
    RecoveryCrashScenario::run(k);
  }
}

/// One transient EIO inside recovery -- on its `k`-th device write, or on
/// its `k`-th read -- must be absorbed by the idempotent phase retries: the
/// supervisor stays online, the application-visible call still succeeds,
/// and synced data survives.
void recovery_survives_one_shot_eio(bool on_read, uint64_t k) {
  auto t = testing_support::make_test_device();
  FaultBlockDevice fdev(t.device.get());
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kUnlinkLongNamePanic));
  auto sup = RaeSupervisor::start(&fdev, {}, t.clock, &bugs);
  ASSERT_TRUE(sup.ok());

  std::string trigger = "/" + std::string(54, 'x');
  auto keep = sup.value()->create("/keep", 0644);
  ASSERT_TRUE(keep.ok());
  ASSERT_TRUE(
      sup.value()->write(keep.value(), 0, 0, pattern_bytes(3000, 7)).ok());
  ASSERT_TRUE(sup.value()->sync().ok());
  ASSERT_TRUE(sup.value()->create(trigger, 0644).ok());

  if (on_read) {
    fdev.arm_read_error_at(fdev.reads_seen() + k);
  } else {
    fdev.arm_write_error_at(fdev.writes_seen() + k);
  }
  Status st = sup.value()->unlink(trigger);
  EXPECT_TRUE(st.ok()) << to_string(st.error());
  EXPECT_FALSE(sup.value()->offline()) << sup.value()->offline_reason();
  auto back = sup.value()->read(keep.value(), 0, 0, 3000);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), pattern_bytes(3000, 7));
  ASSERT_TRUE(sup.value()->shutdown().ok());

  auto report = fsck(t.device.get(), FsckLevel::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().consistent()) << report.value().summary();
}

TEST(RaeRecoveryIdempotence, OneShotWriteErrorMidRecoverySurvivesOnline) {
  uint64_t total =
      RecoveryCrashScenario::run(RecoveryCrashScenario::kNoCrash).writes;
  ASSERT_GT(total, 0u);
  for (uint64_t k = 0; k < total; ++k) {
    SCOPED_TRACE("EIO on recovery write " + std::to_string(k));
    recovery_survives_one_shot_eio(/*on_read=*/false, k);
  }
}

TEST(RaeRecoveryIdempotence, OneShotReadErrorMidRecoverySurvivesOnline) {
  // The reboot's retry wraps the whole mount, so an EIO on the superblock
  // read, the journal scan or read-ahead, or a bitmap reload re-runs the
  // mount; one in the shadow's reads re-runs the shadow.
  uint64_t total =
      RecoveryCrashScenario::run(RecoveryCrashScenario::kNoCrash).reads;
  ASSERT_GT(total, 0u);
  for (uint64_t k = 0; k < total; ++k) {
    SCOPED_TRACE("EIO on recovery read " + std::to_string(k));
    recovery_survives_one_shot_eio(/*on_read=*/true, k);
  }
}

}  // namespace
}  // namespace raefs
