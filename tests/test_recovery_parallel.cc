// Parallel recovery differential tests: every recovery phase that fans
// out across workers (journal replay, the shadow replay's read-ahead,
// fsck, the bulk install) must be byte-equivalent to its serial reference
// at any worker count, on clean logs, on crashx-generated dirty images,
// and across a mid-recovery power cut. The ScalingSmoke* tests double as
// the CI recovery_scaling_smoke target (small image, 1 vs 4 workers).
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "blockdev/fault_device.h"
#include "common/panic.h"
#include "crashx/ops.h"
#include "faults/bug_library.h"
#include "format/layout.h"
#include "fsck/crafted.h"
#include "fsck/fsck.h"
#include "journal/journal.h"
#include "rae/supervisor.h"
#include "shadowfs/shadow_replay.h"
#include "tests/support/fixtures.h"

namespace raefs {
namespace {

using testing_support::make_test_device;
using testing_support::pattern_bytes;
using testing_support::TestFsOptions;

Geometry test_geometry() {
  // Must match make_test_device's TestFsOptions defaults.
  return compute_geometry(4096, 512, 128).value();
}

std::vector<uint8_t> image_of(const MemBlockDevice& dev) {
  return dev.persisted_image();
}

void install(BlockDevice* dev, const std::vector<InstallBlock>& dirty) {
  for (const auto& ib : dirty) {
    ASSERT_TRUE(dev->write_block(ib.block, ib.data).ok());
  }
  ASSERT_TRUE(dev->flush().ok());
}

/// A dirty image the way crashx makes them: run a deterministic workload,
/// cut power at write index `k`, discard the volatile device cache. The
/// result is what journal replay sees after a real crash.
std::unique_ptr<MemBlockDevice> make_dirty_image(uint64_t seed, uint64_t k) {
  auto t = make_test_device();
  auto ops = crashx::generate_ops(seed, 48, 8);
  FaultBlockDevice fdev(t.device.get());
  fdev.arm_crash_after_writes(k);
  auto mounted = BaseFs::mount(&fdev, {}, t.clock);
  if (mounted.ok()) {
    auto fs = std::move(mounted).value();
    try {
      for (size_t i = 0; i < ops.size(); ++i) {
        (void)crashx::apply_op(*fs, nullptr, ops[i], seed, i);
        if (fdev.crashed()) break;
      }
      // fs dropped without unmount either way: committed-but-not-
      // checkpointed transactions stay pending in the journal.
    } catch (const FsPanicError&) {
      // Dying while the power fails is legal; state is judged after the
      // power cycle.
    }
  }
  fdev.disarm();
  t.device->crash();
  return std::move(t.device);
}

/// A dirty image the way crashx v2 makes them: buffer writes between
/// flush barriers, cut power at barrier `f`, materialize a subset of the
/// frozen pending epoch (every other write, ascending submission order),
/// and discard the volatile cache. If barrier `f` is past the workload the
/// image comes back clean, which the differential tests handle trivially.
std::unique_ptr<MemBlockDevice> make_reorder_dirty_image(uint64_t seed,
                                                         uint64_t f) {
  auto t = make_test_device();
  auto ops = crashx::generate_ops(seed, 48, 8);
  FaultBlockDevice fdev(t.device.get());
  EXPECT_TRUE(fdev.set_reorder_buffering(true).ok());
  fdev.arm_crash_at_flush(f);
  auto mounted = BaseFs::mount(&fdev, {}, t.clock);
  if (mounted.ok()) {
    auto fs = std::move(mounted).value();
    try {
      for (size_t i = 0; i < ops.size(); ++i) {
        (void)crashx::apply_op(*fs, nullptr, ops[i], seed, i);
        if (fdev.crashed()) break;
      }
    } catch (const FsPanicError&) {
      // Dying while the power fails is legal.
    }
  }
  if (fdev.crashed()) {
    std::vector<size_t> keep;
    for (size_t i = 0; i < fdev.pending_writes(); i += 2) keep.push_back(i);
    EXPECT_TRUE(fdev.materialize_pending(keep).ok());
  }
  fdev.disarm();
  t.device->crash();
  return std::move(t.device);
}

void expect_same_report(const FsckReport& a, const FsckReport& b) {
  EXPECT_EQ(a.consistent(), b.consistent());
  EXPECT_EQ(a.inodes_in_use, b.inodes_in_use);
  EXPECT_EQ(a.blocks_claimed, b.blocks_claimed);
  ASSERT_EQ(a.findings.size(), b.findings.size()) << a.summary() << " vs "
                                                  << b.summary();
  for (size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].severity, b.findings[i].severity);
    EXPECT_EQ(a.findings[i].what, b.findings[i].what);
  }
}

// ---------------------------------------------------------------------
// Journal replay: parallel apply must be byte- and count-identical.
// ---------------------------------------------------------------------

TEST(JournalParallel, MatchesSerialWithOverwrites) {
  // Repeated targets across transactions exercise latest-wins batching.
  auto t = make_test_device();
  Geometry geo = test_geometry();
  Journal journal(t.device.get(), geo);
  ASSERT_TRUE(Journal::format(t.device.get(), geo).ok());
  ASSERT_TRUE(journal.open().ok());
  auto block_of = [](uint8_t fill) {
    return std::vector<uint8_t>(kBlockSize, fill);
  };
  for (int txn = 0; txn < 6; ++txn) {
    std::vector<JournalRecord> recs;
    for (int j = 0; j < 4; ++j) {
      BlockNo target = geo.data_start + ((txn * 3 + j * 7) % 40);
      recs.emplace_back(target, block_of(static_cast<uint8_t>(txn * 16 + j)));
    }
    ASSERT_TRUE(journal.commit(recs).ok());
  }

  auto serial_dev = t.device->clone_full();
  auto par_dev = t.device->clone_full();
  auto a = Journal::replay(serial_dev.get(), geo);
  auto b = Journal::replay(par_dev.get(), geo, 4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().applied_txns, b.value().applied_txns);
  EXPECT_EQ(a.value().applied_blocks, b.value().applied_blocks);
  EXPECT_EQ(image_of(*serial_dev), image_of(*par_dev));
}

TEST(JournalParallel, MatchesSerialOnCrashImages) {
  for (uint64_t k : {5u, 13u, 29u, 61u, 97u}) {
    auto dirty = make_dirty_image(/*seed=*/1234, k);
    Geometry geo = test_geometry();
    auto serial_dev = dirty->clone_full();
    auto par_dev = dirty->clone_full();
    auto a = Journal::replay(serial_dev.get(), geo);
    auto b = Journal::replay(par_dev.get(), geo, 4);
    ASSERT_EQ(a.ok(), b.ok()) << "crash point " << k;
    if (!a.ok()) continue;
    EXPECT_EQ(a.value().applied_txns, b.value().applied_txns);
    EXPECT_EQ(a.value().applied_blocks, b.value().applied_blocks);
    EXPECT_EQ(image_of(*serial_dev), image_of(*par_dev))
        << "crash point " << k;
  }
}

TEST(JournalParallel, MatchesSerialOnReorderCrashImages) {
  // Images dirtied by the crashx v2 reorder engine: a partially
  // materialized pending epoch leaves arbitrary barrier-respecting block
  // mixes on disk, and parallel replay must still be byte-identical.
  for (uint64_t f : {2u, 5u, 9u, 14u}) {
    auto dirty = make_reorder_dirty_image(/*seed=*/1234, f);
    Geometry geo = test_geometry();
    auto serial_dev = dirty->clone_full();
    auto par_dev = dirty->clone_full();
    auto a = Journal::replay(serial_dev.get(), geo);
    auto b = Journal::replay(par_dev.get(), geo, 4);
    ASSERT_EQ(a.ok(), b.ok()) << "flush " << f;
    if (!a.ok()) continue;
    EXPECT_EQ(a.value().applied_txns, b.value().applied_txns);
    EXPECT_EQ(a.value().applied_blocks, b.value().applied_blocks);
    EXPECT_EQ(image_of(*serial_dev), image_of(*par_dev)) << "flush " << f;
  }
}

TEST(JournalParallel, PowerCutMidReplayIsIdempotent) {
  // Cut power during a PARALLEL replay, then recover again: the final
  // image must equal an uninterrupted serial replay. (Replay formats the
  // journal header only after every block is applied and flushed, so a
  // partial apply re-runs from scratch.)
  //
  // The comparison masks journal blocks past the header: everything there
  // is below the floor after replay (dead bytes), and replay scrubs the
  // torn-tail guard block differently depending on how often it ran.
  auto dirty = make_dirty_image(/*seed=*/99, /*k=*/41);
  Geometry geo = test_geometry();
  auto live_image = [&](const MemBlockDevice& dev) {
    auto img = dev.persisted_image();
    std::fill(img.begin() + (geo.journal_start + 1) * kBlockSize,
              img.begin() +
                  (geo.journal_start + geo.journal_blocks) * kBlockSize,
              0);
    return img;
  };

  auto reference = dirty->clone_full();
  ASSERT_TRUE(Journal::replay(reference.get(), geo).ok());

  for (uint64_t cut : {0u, 2u, 5u, 11u, 23u}) {
    auto victim = dirty->clone_full();
    {
      FaultBlockDevice fdev(victim.get());
      fdev.arm_crash_after_writes(cut);
      (void)Journal::replay(&fdev, geo, 4);  // may fail: power is failing
    }
    victim->crash();  // second power cycle: volatile cache gone
    auto again = Journal::replay(victim.get(), geo, 4);
    ASSERT_TRUE(again.ok()) << "cut at write " << cut;
    EXPECT_EQ(live_image(*victim), live_image(*reference)) << "cut " << cut;
  }
}

// ---------------------------------------------------------------------
// Shadow replay: the read-ahead must be invisible. Replay is serial at
// every replay_workers; only the device under it changes.
// ---------------------------------------------------------------------

/// A log recorded against an image the way the supervisor records one:
/// every op runs on a throwaway clone through a real BaseFs, so the logged
/// outcomes are exactly what the base returned.
struct RecordedScenario {
  std::unique_ptr<MemBlockDevice> device;
  std::vector<OpRecord> log;
};

/// Record ops over `dirs` directories named `prefix`0.. (created by the
/// log itself when `mkdirs`): a file per directory, written, some renamed
/// or hard-linked. The first file grows past the direct pointers, so the
/// log reaches indirect blocks. One in-flight op ends the log; with
/// `inflight_mid_log` another sits halfway through it.
std::vector<OpRecord> record_ops(const MemBlockDevice& image,
                                 const std::string& prefix, int dirs,
                                 bool mkdirs, bool inflight_mid_log = false) {
  std::vector<OpRecord> log;
  auto rec_dev = image.clone_full();
  auto fs = std::move(BaseFs::mount(rec_dev.get(), {}, nullptr)).value();
  Seq seq = 1;
  auto push = [&](OpRequest req, OpOutcome out, bool completed = true) {
    OpRecord rec;
    rec.seq = seq++;
    rec.req = std::move(req);
    rec.out = std::move(out);
    rec.completed = completed;
    log.push_back(std::move(rec));
  };
  auto ok = [](Ino assigned = kInvalidIno) {
    OpOutcome o;
    o.err = Errno::kOk;
    o.assigned_ino = assigned;
    return o;
  };
  Ino first_file = kInvalidIno;
  for (int d = 0; d < dirs; ++d) {
    std::string dir = prefix + std::to_string(d);
    if (mkdirs) {
      auto ino = fs->mkdir(dir, 0755);
      EXPECT_TRUE(ino.ok());
      OpRequest m;
      m.kind = OpKind::kMkdir;
      m.path = dir;
      m.mode = 0755;
      push(std::move(m), ok(ino.value()));
    }
    std::string f = dir + "/f";
    auto ino = fs->create(f, 0644);
    EXPECT_TRUE(ino.ok());
    OpRequest c;
    c.kind = OpKind::kCreate;
    c.path = f;
    c.mode = 0644;
    push(std::move(c), ok(ino.value()));
    if (d == 0) first_file = ino.value();

    size_t len = d == 0 ? 14 * kBlockSize : 3000 + 500 * d;
    auto data = pattern_bytes(len, static_cast<uint8_t>(d + 1));
    auto wrote = fs->write(ino.value(), 0, 0, data);
    EXPECT_TRUE(wrote.ok());
    OpRequest w;
    w.kind = OpKind::kWrite;
    w.ino = ino.value();
    w.offset = 0;
    w.data = data;
    OpOutcome wo = ok();
    wo.result_len = wrote.value();
    push(std::move(w), wo);

    if (d % 2 == 0) {
      std::string g = dir + "/renamed";
      EXPECT_TRUE(fs->rename(f, g).ok());
      OpRequest r;
      r.kind = OpKind::kRename;
      r.path = f;
      r.path2 = g;
      push(std::move(r), ok());
    }
    if (d % 3 == 0) {
      std::string h = dir + "/link";
      std::string target = (d % 2 == 0) ? dir + "/renamed" : f;
      EXPECT_TRUE(fs->link(target, h).ok());
      OpRequest l;
      l.kind = OpKind::kLink;
      l.path = target;
      l.path2 = h;
      push(std::move(l), ok());
    }
    if (inflight_mid_log && d == dirs / 2) {
      // The base died inside this write; later ops never saw its effect.
      OpRequest w2;
      w2.kind = OpKind::kWrite;
      w2.ino = first_file;
      w2.offset = 13 * kBlockSize + 100;
      w2.data = pattern_bytes(6000, 0x5A);
      push(std::move(w2), {}, /*completed=*/false);
    }
  }
  // A trailing in-flight op exercises the autonomous tail.
  OpRequest pending;
  pending.kind = OpKind::kCreate;
  pending.path = prefix + "0/pending";
  pending.mode = 0644;
  push(std::move(pending), {}, /*completed=*/false);
  return log;
}

/// Eight preexisting directories on a larger image plus a log over them.
RecordedScenario record_scenario(bool inflight_mid_log = false) {
  RecordedScenario s;
  TestFsOptions big;
  big.total_blocks = 8192;
  big.inode_count = 1024;
  auto t = make_test_device(big);
  {
    auto fs = std::move(BaseFs::mount(t.device.get(), {}, t.clock)).value();
    for (int d = 0; d < 8; ++d) {
      EXPECT_TRUE(fs->mkdir("/d" + std::to_string(d), 0755).ok());
    }
    EXPECT_TRUE(fs->unmount().ok());
  }
  s.device = std::move(t.device);
  s.log = record_ops(*s.device, "/d", 8, /*mkdirs=*/false, inflight_mid_log);
  return s;
}

void expect_same_outcome(const ShadowOutcome& a, const ShadowOutcome& b) {
  ASSERT_EQ(a.ok, b.ok) << a.failure << " vs " << b.failure;
  EXPECT_EQ(a.failure, b.failure);
  EXPECT_EQ(a.ops_replayed, b.ops_replayed);
  EXPECT_EQ(a.ops_skipped_errored, b.ops_skipped_errored);
  EXPECT_EQ(a.ops_skipped_sync, b.ops_skipped_sync);
  EXPECT_EQ(a.device_reads, b.device_reads);
  EXPECT_EQ(a.checks, b.checks);
  EXPECT_EQ(a.inflight_retry_syncs, b.inflight_retry_syncs);
  ASSERT_EQ(a.discrepancies.size(), b.discrepancies.size());
  for (size_t i = 0; i < a.discrepancies.size(); ++i) {
    EXPECT_EQ(a.discrepancies[i].seq, b.discrepancies[i].seq);
    EXPECT_EQ(a.discrepancies[i].description, b.discrepancies[i].description);
  }
  ASSERT_EQ(a.inflight_results.size(), b.inflight_results.size());
  for (size_t i = 0; i < a.inflight_results.size(); ++i) {
    EXPECT_EQ(a.inflight_results[i].first, b.inflight_results[i].first);
    EXPECT_EQ(a.inflight_results[i].second.err,
              b.inflight_results[i].second.err);
    EXPECT_EQ(a.inflight_results[i].second.assigned_ino,
              b.inflight_results[i].second.assigned_ino);
    EXPECT_EQ(a.inflight_results[i].second.result_len,
              b.inflight_results[i].second.result_len);
    EXPECT_EQ(a.inflight_results[i].second.payload,
              b.inflight_results[i].second.payload);
  }
  ASSERT_EQ(a.dirty.size(), b.dirty.size());
  for (size_t i = 0; i < a.dirty.size(); ++i) {
    EXPECT_EQ(a.dirty[i].block, b.dirty[i].block) << "entry " << i;
    EXPECT_EQ(a.dirty[i].cls, b.dirty[i].cls) << "entry " << i;
    EXPECT_EQ(a.dirty[i].data, b.dirty[i].data)
        << "entry " << i << " block " << a.dirty[i].block;
  }
}

/// The production wiring: run_shadow builds the read-ahead, an in-process
/// executor replays over it.
ShadowOutcome replay_with(BlockDevice* dev, const std::vector<OpRecord>& log,
                          uint32_t workers) {
  ShadowConfig config;
  config.replay_workers = workers;
  InProcessShadowExecutor exec;
  return run_shadow(exec, dev, log, config, nullptr);
}

/// Replay `log` over `image` reading the device directly and at every
/// read-ahead fan-out: identical outcome, identical installed image.
/// Returns the direct (reference) outcome.
ShadowOutcome expect_fanout_invisible(MemBlockDevice* image,
                                      const std::vector<OpRecord>& log) {
  ShadowOutcome direct = replay_with(image, log, 1);
  auto img_direct = image->clone_full();
  install(img_direct.get(), direct.dirty);
  for (uint32_t workers : {2u, 4u, 8u}) {
    SCOPED_TRACE("replay_workers=" + std::to_string(workers));
    ShadowOutcome ahead = replay_with(image, log, workers);
    expect_same_outcome(direct, ahead);
    auto img_ahead = image->clone_full();
    install(img_ahead.get(), ahead.dirty);
    EXPECT_EQ(image_of(*img_direct), image_of(*img_ahead));
  }
  return direct;
}

TEST(ShadowReadAhead, RecordedScenarioIdenticalAtEveryFanout) {
  auto s = record_scenario();
  auto direct = expect_fanout_invisible(s.device.get(), s.log);
  ASSERT_TRUE(direct.ok) << direct.failure;
  EXPECT_FALSE(direct.dirty.empty());
  EXPECT_TRUE(direct.discrepancies.empty());
}

TEST(ShadowReadAhead, MidLogInflightOpIdenticalAtEveryFanout) {
  auto s = record_scenario(/*inflight_mid_log=*/true);
  auto direct = expect_fanout_invisible(s.device.get(), s.log);
  ASSERT_TRUE(direct.ok) << direct.failure;
  EXPECT_EQ(direct.inflight_results.size(), 2u);
}

TEST(ShadowReadAhead, CrashImagesIdenticalAtEveryFanout) {
  Geometry geo = test_geometry();
  for (uint64_t k : {5u, 13u, 29u, 61u}) {
    SCOPED_TRACE("crash point " + std::to_string(k));
    auto dirty = make_dirty_image(/*seed=*/1234, k);
    ASSERT_TRUE(Journal::replay(dirty.get(), geo).ok());
    auto log = record_ops(*dirty, "/rx", 4, /*mkdirs=*/true);
    auto direct = expect_fanout_invisible(dirty.get(), log);
    EXPECT_TRUE(direct.ok) << direct.failure;
  }
}

TEST(ShadowReadAhead, ReorderCrashImagesIdenticalAtEveryFanout) {
  Geometry geo = test_geometry();
  for (uint64_t f : {2u, 5u, 9u, 14u}) {
    SCOPED_TRACE("flush " + std::to_string(f));
    auto dirty = make_reorder_dirty_image(/*seed=*/1234, f);
    ASSERT_TRUE(Journal::replay(dirty.get(), geo).ok());
    auto log = record_ops(*dirty, "/rx", 4, /*mkdirs=*/true);
    auto direct = expect_fanout_invisible(dirty.get(), log);
    EXPECT_TRUE(direct.ok) << direct.failure;
  }
}

/// The shadow's refusal gate must not move with the fan-out: same
/// refusal, same reason.
void expect_same_refusal(BlockDevice* dev, const std::vector<OpRecord>& log) {
  ShadowOutcome direct = replay_with(dev, log, 1);
  EXPECT_FALSE(direct.ok);
  EXPECT_FALSE(direct.failure.empty());
  ShadowOutcome ahead = replay_with(dev, log, 8);
  EXPECT_FALSE(ahead.ok);
  EXPECT_EQ(direct.failure, ahead.failure);
  EXPECT_EQ(direct.device_reads, ahead.device_reads);
}

/// A single in-flight readdir of the root: replay walks the root
/// directory after the open-time image validation.
std::vector<OpRecord> root_readdir_log() {
  OpRecord rec;
  rec.seq = 1;
  rec.req.kind = OpKind::kReaddir;
  rec.req.path = "/";
  rec.completed = false;
  return {rec};
}

TEST(ShadowReadAhead, CraftedImagesRefusedIdentically) {
  // Walking the root refuses a bad dirent or a wild inode pointer; the
  // dangling dirent and the directory cycle stay out of this walk's way,
  // but must still replay identically.
  struct Case {
    CraftKind kind;
    bool refused;
  };
  for (Case c : {Case{CraftKind::kBadDirentNameLen, true},
                 Case{CraftKind::kWildInodePointer, true},
                 Case{CraftKind::kDanglingDirent, false},
                 Case{CraftKind::kDirCycleLink, false}}) {
    SCOPED_TRACE(to_string(c.kind));
    auto t = make_test_device();
    {
      auto fs = std::move(BaseFs::mount(t.device.get(), {}, t.clock)).value();
      ASSERT_TRUE(fs->mkdir("/sub", 0755).ok());
      ASSERT_TRUE(fs->create("/sub/f", 0644).ok());
      ASSERT_TRUE(fs->unmount().ok());
    }
    ASSERT_TRUE(craft_image(t.device.get(), c.kind).ok());
    auto log = root_readdir_log();
    if (c.refused) {
      expect_same_refusal(t.device.get(), log);
    } else {
      expect_same_outcome(replay_with(t.device.get(), log, 1),
                          replay_with(t.device.get(), log, 8));
    }
  }
}

TEST(ShadowReadAhead, CorruptFootprintBlockRefusedIdentically) {
  auto s = record_scenario();
  Geometry geo = compute_geometry(8192, 1024, 128).value();
  // Smash a byte inside the root inode's slot (inode-table block 0).
  std::vector<uint8_t> block(kBlockSize);
  ASSERT_TRUE(s.device->read_block(geo.inode_table_start, block).ok());
  block[40] ^= 0xFF;
  ASSERT_TRUE(s.device->write_block(geo.inode_table_start, block).ok());
  expect_same_refusal(s.device.get(), s.log);
}

/// Fails every read of one block, from every thread.
class UnreadableBlockDevice final : public BlockDevice {
 public:
  UnreadableBlockDevice(BlockDevice* inner, BlockNo bad)
      : inner_(inner), bad_(bad) {}
  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t block_count() const override { return inner_->block_count(); }
  Status read_block(BlockNo block, std::span<uint8_t> out) override {
    if (block == bad_) return Errno::kIo;
    return inner_->read_block(block, out);
  }
  Status write_block(BlockNo block, std::span<const uint8_t> data) override {
    return inner_->write_block(block, data);
  }
  Status flush() override { return inner_->flush(); }
  const DeviceStats& stats() const override { return inner_->stats(); }

 private:
  BlockDevice* inner_;
  BlockNo bad_;
};

TEST(ShadowReadAhead, UnreadableBlockRefusedIdentically) {
  auto s = record_scenario();
  Geometry geo = compute_geometry(8192, 1024, 128).value();
  for (BlockNo bad : {BlockNo{0}, geo.inode_bitmap_start,
                      geo.inode_table_start}) {
    SCOPED_TRACE("unreadable block " + std::to_string(bad));
    UnreadableBlockDevice dev(s.device.get(), bad);
    expect_same_refusal(&dev, s.log);
  }
}

// ---------------------------------------------------------------------
// fsck: parallel scan must report byte-identical findings.
// ---------------------------------------------------------------------

TEST(FsckParallel, MatchesSerialOnHealthyImage) {
  auto t = make_test_device();
  {
    auto fs = std::move(BaseFs::mount(t.device.get(), {}, t.clock)).value();
    for (int d = 0; d < 4; ++d) {
      std::string dir = "/dir" + std::to_string(d);
      ASSERT_TRUE(fs->mkdir(dir, 0755).ok());
      for (int f = 0; f < 6; ++f) {
        auto ino = fs->create(dir + "/f" + std::to_string(f), 0644);
        ASSERT_TRUE(ino.ok());
        // Large enough to grow indirect blocks on some files.
        size_t len = (f % 3 == 2) ? 15 * kBlockSize : 2000;
        ASSERT_TRUE(
            fs->write(ino.value(), 0, 0, pattern_bytes(len, f)).ok());
      }
    }
    ASSERT_TRUE(fs->unmount().ok());
  }
  auto serial = fsck(t.device.get(), FsckLevel::kStrict);
  ASSERT_TRUE(serial.ok());
  EXPECT_TRUE(serial.value().consistent());
  for (uint32_t workers : {4u, 8u}) {
    FsckOptions opts;
    opts.workers = workers;
    auto par = fsck(t.device.get(), opts);
    ASSERT_TRUE(par.ok());
    expect_same_report(serial.value(), par.value());
  }
}

TEST(FsckParallel, MatchesSerialOnDirtyCrashImages) {
  // fsck on unreplayed crash images: findings (pending journal, bitmap
  // disagreements, ...) must match whatever the serial checker says.
  for (uint64_t k : {7u, 31u, 53u}) {
    auto dirty = make_dirty_image(/*seed=*/777, k);
    auto serial = fsck(dirty.get(), FsckLevel::kStrict);
    for (uint32_t workers : {4u, 8u}) {
      FsckOptions opts;
      opts.workers = workers;
      auto par = fsck(dirty.get(), opts);
      ASSERT_EQ(serial.ok(), par.ok()) << "crash point " << k;
      if (!serial.ok()) continue;
      expect_same_report(serial.value(), par.value());
    }
  }
}

TEST(FsckParallel, MatchesSerialOnCorruptImage) {
  auto t = make_test_device();
  {
    auto fs = std::move(BaseFs::mount(t.device.get(), {}, t.clock)).value();
    ASSERT_TRUE(fs->mkdir("/d", 0755).ok());
    auto ino = fs->create("/d/f", 0644);
    ASSERT_TRUE(ino.ok());
    ASSERT_TRUE(fs->write(ino.value(), 0, 0, pattern_bytes(9000)).ok());
    ASSERT_TRUE(fs->unmount().ok());
  }
  // Smash a byte in the middle of the inode table.
  Geometry geo = test_geometry();
  std::vector<uint8_t> block(kBlockSize);
  ASSERT_TRUE(t.device->read_block(geo.inode_table_start, block).ok());
  block[2 * kInodeSize + 40] ^= 0xFF;
  ASSERT_TRUE(t.device->write_block(geo.inode_table_start, block).ok());

  auto serial = fsck(t.device.get(), FsckLevel::kStrict);
  ASSERT_TRUE(serial.ok());
  EXPECT_FALSE(serial.value().consistent());
  for (uint32_t workers : {4u, 8u}) {
    FsckOptions opts;
    opts.workers = workers;
    auto par = fsck(t.device.get(), opts);
    ASSERT_TRUE(par.ok());
    expect_same_report(serial.value(), par.value());
  }
}

// ---------------------------------------------------------------------
// Supervisor: recovery with every parallel knob on, including the
// optional verify phase, behaves exactly like the serial pipeline.
// ---------------------------------------------------------------------

TEST(ParallelRecovery, SupervisorRecoversWithAllKnobsOn) {
  // Several recoveries, each replaying a log that writes files past their
  // direct pointers, so the shadow's output holds indirect blocks that
  // the next sync's validation and the final strict fsck must accept.
  auto t = make_test_device();
  BugRegistry bugs;
  bugs.install(bugs::make(bugs::kUnlinkLongNamePanic));
  RaeOptions opts;
  opts.journal_replay_workers = 4;
  opts.fsck_workers = 4;
  opts.verify_after_recovery = true;
  opts.shadow.replay_workers = 8;
  opts.base.install_workers = 4;
  auto started = RaeSupervisor::start(t.device.get(), opts, t.clock, &bugs);
  ASSERT_TRUE(started.ok());
  auto sup = std::move(started).value();

  const std::string trigger = "/" + std::string(54, 'x');
  const size_t big = 14 * kBlockSize;  // 12 direct + indirect
  std::vector<Ino> files;
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    auto ino = sup->create("/big" + std::to_string(round), 0644);
    ASSERT_TRUE(ino.ok());
    files.push_back(ino.value());
    ASSERT_TRUE(sup->write(ino.value(), 0, 0,
                           pattern_bytes(big, static_cast<uint8_t>(round)))
                    .ok());
    if (round > 0) {
      // Rewrite the earlier file's indirect-mapped tail, unsynced.
      ASSERT_TRUE(sup->write(files[round - 1], 0, 12 * kBlockSize,
                             pattern_bytes(2 * kBlockSize, 0xA0 + round))
                      .ok());
    }
    if (round == 2) {
      ASSERT_TRUE(sup->sync().ok());
    }
    ASSERT_TRUE(sup->create(trigger, 0644).ok());
    ASSERT_TRUE(sup->unlink(trigger).ok());
    EXPECT_EQ(sup->stats().recoveries, static_cast<uint64_t>(round + 1));
    EXPECT_FALSE(sup->offline()) << sup->offline_reason();
    EXPECT_EQ(sup->lookup(trigger).error(), Errno::kNoEnt);
  }
  EXPECT_GT(sup->stats().verify_ns, 0u);

  for (size_t i = 0; i < files.size(); ++i) {
    auto want = pattern_bytes(big, static_cast<uint8_t>(i));
    if (i + 1 < files.size()) {
      auto tail = pattern_bytes(2 * kBlockSize, 0xA0 + i + 1);
      std::copy(tail.begin(), tail.end(), want.begin() + 12 * kBlockSize);
    }
    auto back = sup->read(files[i], 0, 0, big);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), want) << "file " << i;
  }
  ASSERT_TRUE(sup->shutdown().ok());

  auto report = fsck(t.device.get(), FsckLevel::kStrict);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().consistent()) << report.value().summary();
}

// ---------------------------------------------------------------------
// Bulk install: the parallel in-place apply must be byte-identical to
// the serial apply at every worker count, and the journaled install
// transaction must be atomic under power cuts.
// ---------------------------------------------------------------------

std::vector<InstallBlock> scenario_dirty(const RecordedScenario& s) {
  auto out = shadow_execute(s.device.get(), s.log, {});
  EXPECT_TRUE(out.ok) << out.failure;
  return out.dirty;
}

TEST(InstallParallel, WorkerCountsProduceIdenticalImages) {
  auto s = record_scenario();
  auto dirty = scenario_dirty(s);
  ASSERT_FALSE(dirty.empty());

  std::vector<uint8_t> reference;  // workers=1 = the serial apply
  for (uint32_t workers : {1u, 2u, 4u, 8u}) {
    auto dev = s.device->clone_full();
    BaseFsOptions opts;
    opts.install_workers = workers;
    auto mounted = BaseFs::mount(dev.get(), opts, nullptr);
    ASSERT_TRUE(mounted.ok());
    auto fs = std::move(mounted).value();
    ASSERT_TRUE(fs->install_blocks(dirty).ok()) << "workers=" << workers;
    ASSERT_TRUE(fs->unmount().ok());
    auto img = image_of(*dev);
    if (reference.empty()) {
      reference = std::move(img);
    } else {
      EXPECT_EQ(img, reference) << "workers=" << workers;
    }
  }
}

TEST(InstallParallel, MatchesSerialOnReorderCrashImages) {
  // Bulk installs onto crashx v2 reorder-dirtied images: mount replays
  // the journal first, then the install at every worker count must leave
  // byte-identical images. The install set is harvested from a different
  // crash image with the same geometry, so it is structurally valid and
  // its writes are not no-ops.
  Geometry geo = test_geometry();
  auto donor = make_reorder_dirty_image(/*seed=*/777, /*f=*/3);
  ASSERT_TRUE(Journal::replay(donor.get(), geo).ok());
  std::vector<InstallBlock> set;
  auto harvest = [&](BlockNo b) {
    InstallBlock ib;
    ib.block = b;
    ib.data.resize(kBlockSize);
    EXPECT_TRUE(donor->read_block(b, ib.data).ok());
    set.push_back(std::move(ib));
  };
  harvest(geo.block_bitmap_start);
  harvest(geo.inode_bitmap_start);
  for (uint64_t i = 0; i < std::min<uint64_t>(4, geo.inode_table_blocks); ++i) {
    harvest(geo.inode_table_start + i);
  }

  for (uint64_t f : {2u, 5u, 9u}) {
    auto dirty = make_reorder_dirty_image(/*seed=*/1234, f);
    std::vector<uint8_t> reference;
    for (uint32_t workers : {1u, 2u, 4u, 8u}) {
      auto dev = dirty->clone_full();
      BaseFsOptions opts;
      opts.install_workers = workers;
      auto mounted = BaseFs::mount(dev.get(), opts, nullptr);
      ASSERT_TRUE(mounted.ok()) << "flush " << f;
      auto fs = std::move(mounted).value();
      ASSERT_TRUE(fs->install_blocks(set).ok())
          << "flush " << f << " workers " << workers;
      ASSERT_TRUE(fs->unmount().ok());
      auto img = image_of(*dev);
      if (reference.empty()) {
        reference = std::move(img);
      } else {
        EXPECT_EQ(img, reference) << "flush " << f << " workers " << workers;
      }
    }
  }
}

TEST(InstallParallel, PowerCutThroughBulkInstallIsAtomic) {
  // Cut power at every point of the journaled bulk install (journal
  // chunk writes, barrier, commit record, in-place apply, checkpoint):
  // after the power cycle and journal replay the image must hold either
  // the complete pre-install state or the complete post-install state
  // for every installed block -- never a mix.
  auto s = record_scenario();
  auto dirty = scenario_dirty(s);
  ASSERT_FALSE(dirty.empty());
  Geometry geo = compute_geometry(8192, 1024, 128).value();
  // The set must take the journaled bulk path (fits the region), or the
  // atomicity contract under test does not apply.
  ASSERT_LT(Journal::blocks_needed(dirty.size()), geo.journal_blocks);

  std::unordered_map<BlockNo, std::vector<uint8_t>> oldc, newc;
  for (const auto& ib : dirty) {
    std::vector<uint8_t> before(kBlockSize);
    ASSERT_TRUE(s.device->read_block(ib.block, before).ok());
    oldc[ib.block] = std::move(before);
    newc[ib.block] = ib.data;  // dedup latest-wins, like the install
  }

  bool saw_old = false, saw_new = false;
  for (uint64_t cut = 1; cut < 4096; cut += 3) {
    auto victim = s.device->clone_full();
    bool completed = false;
    {
      FaultBlockDevice fdev(victim.get());
      BaseFsOptions opts;
      opts.install_workers = 4;
      auto mounted = BaseFs::mount(&fdev, opts, nullptr);
      ASSERT_TRUE(mounted.ok()) << "cut " << cut;
      auto fs = std::move(mounted).value();
      fdev.arm_crash_after_writes(cut);
      try {
        (void)fs->install_blocks(dirty);  // power failing: errors are legal
      } catch (const FsPanicError&) {
      }
      completed = !fdev.crashed();
      fdev.disarm();
      // fs dropped without unmount: the power is gone.
    }
    victim->crash();
    ASSERT_TRUE(Journal::replay(victim.get(), geo).ok()) << "cut " << cut;

    size_t old_n = 0, new_n = 0, mixed = 0;
    for (const auto& [b, oldv] : oldc) {
      std::vector<uint8_t> got(kBlockSize);
      ASSERT_TRUE(victim->read_block(b, got).ok());
      if (oldv == newc[b]) continue;  // ambiguous either way
      if (got == newc[b]) {
        ++new_n;
      } else if (got == oldv) {
        ++old_n;
      } else {
        ++mixed;
      }
    }
    EXPECT_EQ(mixed, 0u) << "cut " << cut;
    EXPECT_TRUE(old_n == 0 || new_n == 0)
        << "cut " << cut << ": " << old_n << " old vs " << new_n
        << " new blocks survived together";
    if (old_n > 0) saw_old = true;
    if (new_n > 0) saw_new = true;
    if (completed) break;  // the whole install beat the cut: sweep done
  }
  // The sweep must have produced both outcomes, or it proved nothing.
  EXPECT_TRUE(saw_old);
  EXPECT_TRUE(saw_new);
}

// ---------------------------------------------------------------------
// CI smoke: small image, 1 vs 4 workers, byte-equivalence. Run as the
// recovery_scaling_smoke ctest via --gtest_filter=ParallelRecovery.ScalingSmoke*
// ---------------------------------------------------------------------

TEST(ParallelRecovery, ScalingSmokeJournal) {
  auto dirty = make_dirty_image(/*seed=*/4242, /*k=*/37);
  Geometry geo = test_geometry();
  auto one = dirty->clone_full();
  auto four = dirty->clone_full();
  auto a = Journal::replay(one.get(), geo, 1);
  auto b = Journal::replay(four.get(), geo, 4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(image_of(*one), image_of(*four));

  // And the checker agrees with itself on the replayed image.
  FsckOptions par;
  par.workers = 4;
  auto serial_report = fsck(one.get(), FsckLevel::kStrict);
  auto par_report = fsck(four.get(), par);
  ASSERT_TRUE(serial_report.ok());
  ASSERT_TRUE(par_report.ok());
  expect_same_report(serial_report.value(), par_report.value());
}

TEST(ParallelRecovery, ScalingSmokeShadow) {
  auto s = record_scenario();
  auto serial = replay_with(s.device.get(), s.log, 1);
  auto par = replay_with(s.device.get(), s.log, 4);
  ASSERT_TRUE(serial.ok) << serial.failure;
  expect_same_outcome(serial, par);
  auto img_serial = s.device->clone_full();
  auto img_par = s.device->clone_full();
  install(img_serial.get(), serial.dirty);
  install(img_par.get(), par.dirty);
  ASSERT_EQ(image_of(*img_serial), image_of(*img_par));
}

}  // namespace
}  // namespace raefs
