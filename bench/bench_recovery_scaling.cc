// Recovery-latency scaling: wall-clock time of each recovery phase that
// fans out across workers (journal replay, shadow op-sequence replay over
// its metadata read-ahead, fsck, the bulk install) and of the whole
// replay->fsck pipeline at 1/2/4/8 worker threads. Unlike the
// simulated-time experiments, these benchmarks measure REAL time: the
// point of the worker pools is to cut wall-clock downtime on a real
// host, so host parallelism is exactly what is under test.
//
// Every phase runs against a TimedBlockDevice, which charges each IO a
// real (slept) per-access latency. Recovery on real storage is IO-bound;
// what the worker pools buy is overlapping those waits, and a latency-
// free in-memory device would hide exactly that effect (and on a small
// CI host would instead measure CPU scheduling noise).
//
// Recorded in BENCH_recovery.json (tools/bench_ab.py session); the
// scaling table lives in EXPERIMENTS.md.
#include <chrono>
#include <cstdio>
#include <string>

#include <benchmark/benchmark.h>

#include "basefs/base_fs.h"
#include "bench/bench_support.h"
#include "blockdev/mem_device.h"
#include "blockdev/prefetch.h"
#include "blockdev/qdepth_probe.h"
#include "blockdev/timed_device.h"
#include "format/footprint.h"
#include "format/layout.h"
#include "fsck/fsck.h"
#include "journal/journal.h"
#include "shadowfs/shadow_replay.h"
#include "tests/support/fixtures.h"

namespace raefs {
namespace {

constexpr uint64_t kTotalBlocks = 32768;
constexpr uint64_t kInodeCount = 4096;
constexpr uint64_t kJournalBlocks = 512;
constexpr int kDirs = 16;
constexpr int kFilesPerDir = 48;

Geometry bench_geometry() {
  return compute_geometry(kTotalBlocks, kInodeCount, kJournalBlocks).value();
}

/// Base image with preexisting directories plus a large recorded op log
/// (assigned inos from a real BaseFs run on a clone, so the constrained
/// cross-checks agree). Built once, shared read-only by every iteration.
struct Scenario {
  std::unique_ptr<MemBlockDevice> device;
  std::vector<OpRecord> log;
};

Scenario* build_scenario(uint64_t journal_blocks) {
  auto* out = new Scenario;
  out->device = std::make_unique<MemBlockDevice>(kTotalBlocks);
  MkfsOptions mkfs;
  mkfs.total_blocks = kTotalBlocks;
  mkfs.inode_count = kInodeCount;
  mkfs.journal_blocks = journal_blocks;
  if (!BaseFs::mkfs(out->device.get(), mkfs).ok()) std::abort();
  {
    auto fs = std::move(BaseFs::mount(out->device.get(), {})).value();
    for (int d = 0; d < kDirs; ++d) {
      if (!fs->mkdir("/d" + std::to_string(d), 0755).ok()) std::abort();
    }
    if (!fs->unmount().ok()) std::abort();
  }

  auto rec_dev = out->device->clone_full();
  auto fs = std::move(BaseFs::mount(rec_dev.get(), {})).value();
  Seq seq = 1;
  auto push = [&](OpRequest req, OpOutcome o) {
    OpRecord rec;
    rec.seq = seq++;
    rec.req = std::move(req);
    rec.out = std::move(o);
    rec.completed = true;
    out->log.push_back(std::move(rec));
  };
  for (int d = 0; d < kDirs; ++d) {
    std::string dir = "/d" + std::to_string(d);
    for (int f = 0; f < kFilesPerDir; ++f) {
      std::string path = dir + "/f" + std::to_string(f);
      auto ino = fs->create(path, 0644);
      if (!ino.ok()) std::abort();
      OpRequest c;
      c.kind = OpKind::kCreate;
      c.path = path;
      c.mode = 0644;
      OpOutcome co;
      co.err = Errno::kOk;
      co.assigned_ino = ino.value();
      push(std::move(c), co);

      // A couple of files per directory grow past the direct range.
      size_t len = (f % 5 == 0) ? 14 * kBlockSize : 12000 + 512 * f;
      auto data = testing_support::pattern_bytes(
          len, static_cast<uint8_t>(d * 16 + f));
      auto wrote = fs->write(ino.value(), 0, 0, data);
      if (!wrote.ok()) std::abort();
      OpRequest w;
      w.kind = OpKind::kWrite;
      w.ino = ino.value();
      w.data = std::move(data);
      OpOutcome wo;
      wo.err = Errno::kOk;
      wo.result_len = wrote.value();
      push(std::move(w), wo);

      if (f % 4 == 1) {
        std::string dst = dir + "/r" + std::to_string(f);
        if (!fs->rename(path, dst).ok()) std::abort();
        OpRequest r;
        r.kind = OpKind::kRename;
        r.path = path;
        r.path2 = dst;
        OpOutcome ro;
        ro.err = Errno::kOk;
        push(std::move(r), ro);
      }
    }
  }
  return out;
}

const Scenario& scenario() {
  static const Scenario* s = build_scenario(kJournalBlocks);
  return *s;
}

/// Image with a big committed-but-uncheckpointed backlog in the journal:
/// what a crash right before a checkpoint leaves behind. Targets sit in
/// the free tail of the data region so the backlog never clobbers the
/// scenario's live directory blocks.
const MemBlockDevice& dirty_journal_image() {
  static const MemBlockDevice* img = [] {
    auto dev = scenario().device->clone_full();
    Geometry geo = bench_geometry();
    Journal journal(dev.get(), geo);
    if (!journal.open().ok()) std::abort();
    auto block_of = [](uint8_t fill) {
      return std::vector<uint8_t>(kBlockSize, fill);
    };
    for (int txn = 0; txn < 40; ++txn) {
      std::vector<JournalRecord> recs;
      for (int j = 0; j < 10; ++j) {
        BlockNo target =
            geo.data_start + 20000 + ((txn * 17 + j * 3) % 600);
        recs.emplace_back(target,
                          block_of(static_cast<uint8_t>(txn + j * 5)));
      }
      if (!journal.commit(recs).ok()) std::abort();
    }
    return dev.release();
  }();
  return *img;
}

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The shadow phase as run_shadow (rae/executor.h) drives it, minus the
/// executor's wire round trip: the metadata read-ahead at `workers` > 1,
/// then the serial replay over it.
ShadowOutcome replay_shadow(BlockDevice* dev, const std::vector<OpRecord>& log,
                            uint32_t workers) {
  std::unique_ptr<PrefetchedDevice> ahead;
  if (workers > 1) {
    ahead = prefetch_metadata(dev, workers);
    dev = ahead.get();
  }
  return shadow_execute(dev, log, ShadowConfig{});
}

/// Write the shadow's output blocks in place across `workers` writers.
Status install(BlockDevice* dev, const std::vector<InstallBlock>& dirty,
               uint32_t workers) {
  std::vector<BlockWrite> writes;
  writes.reserve(dirty.size());
  for (const auto& ib : dirty) writes.push_back({ib.block, ib.data});
  return write_blocks(dev, writes, workers);
}

void BM_ShadowReplay(benchmark::State& state) {
  const auto& s = scenario();
  TimedBlockDevice timed(s.device.get(), RealLatency{});
  auto workers = static_cast<uint32_t>(state.range(0));
  uint64_t replayed = 0;
  for (auto _ : state) {
    auto outcome = replay_shadow(&timed, s.log, workers);
    if (!outcome.ok) state.SkipWithError(outcome.failure.c_str());
    replayed = outcome.ops_replayed;
    benchmark::DoNotOptimize(outcome.dirty);
  }
  state.counters["ops_replayed"] = static_cast<double>(replayed);
}
BENCHMARK(BM_ShadowReplay)
    ->ArgName("workers")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_JournalReplay(benchmark::State& state) {
  const auto& master = dirty_journal_image();
  Geometry geo = bench_geometry();
  auto workers = static_cast<uint32_t>(state.range(0));
  uint64_t blocks = 0;
  for (auto _ : state) {
    auto dev = master.clone_full();  // excluded: manual timing below
    TimedBlockDevice timed(dev.get(), RealLatency{});
    auto t0 = std::chrono::steady_clock::now();
    auto r = Journal::replay(&timed, geo, workers);
    state.SetIterationTime(since(t0));
    if (!r.ok()) state.SkipWithError("replay failed");
    blocks = r.value().applied_blocks;
  }
  state.counters["applied_blocks"] = static_cast<double>(blocks);
}
BENCHMARK(BM_JournalReplay)
    ->ArgName("workers")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_FsckStrict(benchmark::State& state) {
  // Strict check of the fully-populated recovered image.
  static const MemBlockDevice* img = [] {
    auto dev = scenario().device->clone_full();
    auto fs = std::move(BaseFs::mount(dev.get(), {})).value();
    // Materialize the scenario's files so fsck has a real tree to walk.
    for (int d = 0; d < kDirs; ++d) {
      std::string dir = "/d" + std::to_string(d);
      for (int f = 0; f < kFilesPerDir; ++f) {
        auto ino = fs->create(dir + "/f" + std::to_string(f), 0644);
        if (!ino.ok()) std::abort();
        size_t len = (f % 5 == 0) ? 14 * kBlockSize : 9000;
        if (!fs->write(ino.value(), 0, 0,
                       testing_support::pattern_bytes(len, f))
                 .ok())
          std::abort();
      }
    }
    if (!fs->unmount().ok()) std::abort();
    return dev.release();
  }();
  auto workers = static_cast<uint32_t>(state.range(0));
  TimedBlockDevice timed(const_cast<MemBlockDevice*>(img), RealLatency{});
  FsckOptions opts;
  opts.workers = workers;
  uint64_t inodes = 0;
  for (auto _ : state) {
    auto report = fsck(&timed, opts);
    if (!report.ok() || !report.value().consistent()) {
      state.SkipWithError("fsck failed");
    }
    inodes = report.value().inodes_in_use;
    benchmark::DoNotOptimize(report);
  }
  state.counters["inodes_in_use"] = static_cast<double>(inodes);
}
BENCHMARK(BM_FsckStrict)
    ->ArgName("workers")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_RecoveryPipeline(benchmark::State& state) {
  // The recovery tail end to end on a large dirty image: journal replay
  // -> shadow replay of the op log -> install -> strict fsck, every
  // phase at the same worker count. This is the ISSUE's >=2x-at-8 bar.
  const auto& s = scenario();
  const auto& master = dirty_journal_image();
  Geometry geo = bench_geometry();
  auto workers = static_cast<uint32_t>(state.range(0));
  FsckOptions fopts;
  fopts.workers = workers;
  for (auto _ : state) {
    auto dev = master.clone_full();  // excluded: manual timing below
    TimedBlockDevice timed(dev.get(), RealLatency{});
    auto t0 = std::chrono::steady_clock::now();
    if (!Journal::replay(&timed, geo, workers).ok()) {
      state.SkipWithError("journal replay failed");
    }
    auto outcome = replay_shadow(&timed, s.log, workers);
    if (!outcome.ok) state.SkipWithError(outcome.failure.c_str());
    // Offline install of the shadow's output: each target block appears
    // exactly once in seal() output, so the writes are order-independent
    // and partition across workers just like the journal apply phase.
    if (!install(&timed, outcome.dirty, workers).ok()) {
      state.SkipWithError("install failed");
    }
    if (!timed.flush().ok()) state.SkipWithError("flush failed");
    auto report = fsck(&timed, fopts);
    if (!report.ok() || !report.value().consistent()) {
      state.SkipWithError("post-recovery fsck failed");
    }
    state.SetIterationTime(since(t0));
  }
}
BENCHMARK(BM_RecoveryPipeline)
    ->ArgName("workers")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// Pre-install image (big journal region so the whole shadow output fits
/// one install transaction) plus the shadow's recovered update set.
struct DownloadScenario {
  std::unique_ptr<MemBlockDevice> device;
  std::vector<InstallBlock> dirty;
};

const DownloadScenario& download_scenario() {
  static const DownloadScenario* s = [] {
    // The scenario's full dirty set runs to a few thousand blocks; the
    // install is one transaction only while it fits the journal region
    // (a larger set splits into region-sized transactions).
    auto* base = build_scenario(/*journal_blocks=*/8192);
    auto* out = new DownloadScenario;
    auto outcome = shadow_execute(base->device.get(), base->log, {});
    if (!outcome.ok) std::abort();
    out->dirty = std::move(outcome.dirty);
    out->device = std::move(base->device);
    delete base;
    if (Journal::blocks_needed(out->dirty.size()) >= 8192) {
      std::abort();  // the bench must install one transaction
    }
    return out;
  }();
  return *s;
}

void BM_Download(benchmark::State& state) {
  // The download phase alone: BaseFs::install_blocks installs the
  // shadow's output through the journaled bulk path (one multi-chunk
  // install transaction + parallel in-place apply + checkpoint) at the
  // given worker count. This is the ISSUE's >=2x-at-8 download bar.
  const auto& s = download_scenario();
  auto workers = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    auto dev = s.device->clone_full();  // excluded: manual timing below
    TimedBlockDevice timed(dev.get(), RealLatency{});
    BaseFsOptions opts;
    opts.install_workers = workers;
    auto mounted = BaseFs::mount(&timed, opts);
    if (!mounted.ok()) {
      state.SkipWithError("mount failed");
      break;
    }
    auto fs = std::move(mounted).value();
    auto t0 = std::chrono::steady_clock::now();
    if (!fs->install_blocks(s.dirty).ok()) {
      state.SkipWithError("install failed");
    }
    state.SetIterationTime(since(t0));
    if (!fs->unmount().ok()) state.SkipWithError("unmount failed");
  }
  state.counters["blocks_installed"] = static_cast<double>(s.dirty.size());
}
BENCHMARK(BM_Download)
    ->ArgName("workers")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_RecoveryPipelineAutotuned(benchmark::State& state) {
  // The full pipeline with every worker knob on `0 = auto`, the way the
  // supervisor resolves them: one queue-depth probe of the device, then
  // every phase at the probed count. The probe runs INSIDE the timed
  // region -- it is part of the autotuned recovery's real cost.
  const auto& s = scenario();
  const auto& master = dirty_journal_image();
  Geometry geo = bench_geometry();
  uint32_t resolved = 0;
  for (auto _ : state) {
    auto dev = master.clone_full();  // excluded: manual timing below
    TimedBlockDevice timed(dev.get(), RealLatency{});
    clear_queue_depth_cache();  // fresh device instance every iteration
    auto t0 = std::chrono::steady_clock::now();
    uint32_t workers = resolve_workers(0, &timed);
    resolved = workers;
    if (!Journal::replay(&timed, geo, workers).ok()) {
      state.SkipWithError("journal replay failed");
    }
    auto outcome = replay_shadow(&timed, s.log, workers);
    if (!outcome.ok) state.SkipWithError(outcome.failure.c_str());
    if (!install(&timed, outcome.dirty, workers).ok()) {
      state.SkipWithError("install failed");
    }
    if (!timed.flush().ok()) state.SkipWithError("flush failed");
    FsckOptions fopts;
    fopts.workers = workers;
    auto report = fsck(&timed, fopts);
    if (!report.ok() || !report.value().consistent()) {
      state.SkipWithError("post-recovery fsck failed");
    }
    state.SetIterationTime(since(t0));
  }
  state.counters["autotuned_workers"] = static_cast<double>(resolved);
}
BENCHMARK(BM_RecoveryPipelineAutotuned)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace raefs

BENCHMARK_MAIN();
