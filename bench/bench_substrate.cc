// Substrate micro-benchmarks (wall time): the building blocks every
// experiment stands on -- CRC32C, on-disk codecs, bitmap scans, block
// cache hit/miss paths, the inode cache's write-back snapshot, journal
// commit/replay, and the base<->shadow wire format. Not a paper figure;
// the engineering baseline an OSS release ships so regressions in the
// substrate are visible.
#include <benchmark/benchmark.h>

#include "blockdev/mem_device.h"
#include "cache/block_cache.h"
#include "cache/dentry_cache.h"
#include "cache/inode_cache.h"
#include "common/checksum.h"
#include "format/bitmap.h"
#include "format/dirent.h"
#include "format/inode.h"
#include "journal/journal.h"
#include "rae/wire.h"

namespace raefs {
namespace {

void BM_Crc32cBlock(benchmark::State& state) {
  std::vector<uint8_t> block(kBlockSize, 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c(block.data(), block.size()));
  }
  state.SetBytesProcessed(state.iterations() * kBlockSize);
}

// The table loop crc32c() falls back to on hosts without SSE4.2, so both
// paths' speed shows on the host at hand.
void BM_Crc32cBlockTable(benchmark::State& state) {
  std::vector<uint8_t> block(kBlockSize, 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c_table(block));
  }
  state.SetBytesProcessed(state.iterations() * kBlockSize);
}

void BM_InodeEncodeDecode(benchmark::State& state) {
  auto geo = compute_geometry(8192, 1024, 64).value();
  DiskInode node;
  node.type = FileType::kRegular;
  node.nlink = 1;
  node.size = 123456;
  node.direct[0] = geo.data_start;
  for (auto _ : state) {
    auto bytes = node.encode();
    benchmark::DoNotOptimize(DiskInode::decode(bytes, geo));
  }
}

void BM_DirentScanBlock(benchmark::State& state) {
  std::vector<uint8_t> block(kBlockSize, 0);
  for (uint32_t slot = 0; slot < kDirentsPerBlock; ++slot) {
    DirEntry e;
    e.ino = slot + 2;
    e.type = FileType::kRegular;
    e.name = "file_" + std::to_string(slot);
    dirent_encode(block, slot, e);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dirent_find_in_block(block, "file_63"));
  }
}

void BM_BitmapFindClear(benchmark::State& state) {
  std::vector<uint8_t> bytes(kBlockSize, 0xFF);
  BitmapView view(bytes, kBitsPerBlock);
  view.clear(kBitsPerBlock - 7);  // one free bit near the end
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.find_clear());
  }
}

void BM_BlockCacheHit(benchmark::State& state) {
  MemBlockDevice dev(1024);
  BlockCache cache(&dev, 512);
  (void)cache.read(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.read(17));
  }
}

void BM_BlockCacheMissEvict(benchmark::State& state) {
  MemBlockDevice dev(4096);
  BlockCache cache(&dev, 64);
  BlockNo next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.read(next));
    next = (next + 1) % 4096;  // always cold: constant evictions
  }
}

void BM_DentryCacheLookup(benchmark::State& state) {
  DentryCache cache(4096);
  for (int i = 0; i < 1000; ++i) {
    cache.insert(1, "entry" + std::to_string(i), static_cast<Ino>(i + 2),
                 FileType::kRegular);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(1, "entry500"));
  }
}

// One sync's inode write-back snapshot: N clean cached inodes (the cache
// never evicts, so N grows toward the inode table) plus 2 dirty ones.
void BM_InodeCacheDirtySnapshot(benchmark::State& state) {
  InodeCache cache;
  DiskInode n;
  n.type = FileType::kRegular;
  n.nlink = 1;
  const auto clean = static_cast<Ino>(state.range(0));
  for (Ino ino = 1; ino <= clean; ++ino) cache.put(ino, n, /*dirty=*/false);
  cache.put(clean + 1, n, /*dirty=*/true);
  cache.put(clean + 2, n, /*dirty=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.dirty_snapshot());
  }
}

void BM_JournalCommit(benchmark::State& state) {
  auto geo = compute_geometry(8192, 1024, 1024).value();
  MemBlockDevice dev(8192);
  (void)Journal::format(&dev, geo);
  Journal journal(&dev, geo);
  (void)journal.open();
  std::vector<JournalRecord> records;
  for (int i = 0; i < 8; ++i) {
    records.push_back(
        JournalRecord{geo.data_start + static_cast<BlockNo>(i),
                      std::vector<uint8_t>(kBlockSize, 0x11)});
  }
  for (auto _ : state) {
    if (!journal.has_space(records.size())) {
      (void)journal.checkpoint();
    }
    benchmark::DoNotOptimize(journal.commit(records));
  }
  state.SetBytesProcessed(state.iterations() * 8 * kBlockSize);
}

void BM_JournalReplay(benchmark::State& state) {
  auto geo = compute_geometry(8192, 1024, 256).value();
  for (auto _ : state) {
    state.PauseTiming();
    MemBlockDevice dev(8192);
    (void)Journal::format(&dev, geo);
    Journal journal(&dev, geo);
    (void)journal.open();
    for (int txn = 0; txn < 20; ++txn) {
      (void)journal.commit({JournalRecord{
          geo.data_start + static_cast<BlockNo>(txn),
          std::vector<uint8_t>(kBlockSize, static_cast<uint8_t>(txn))}});
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(Journal::replay(&dev, geo));
  }
}

void BM_WireRoundTrip(benchmark::State& state) {
  std::vector<OpRecord> log;
  for (int i = 0; i < 32; ++i) {
    OpRecord rec;
    rec.seq = static_cast<Seq>(i + 1);
    rec.req.kind = OpKind::kWrite;
    rec.req.ino = static_cast<Ino>(i + 2);
    rec.req.data.assign(4096, static_cast<uint8_t>(i));
    rec.completed = true;
    rec.out.result_len = 4096;
    log.push_back(rec);
  }
  for (auto _ : state) {
    auto bytes = wire::encode_op_records(log);
    benchmark::DoNotOptimize(wire::decode_op_records(bytes));
  }
  state.SetBytesProcessed(state.iterations() * 32 * 4096);
}

BENCHMARK(BM_Crc32cBlock);
BENCHMARK(BM_Crc32cBlockTable);
BENCHMARK(BM_InodeEncodeDecode);
BENCHMARK(BM_DirentScanBlock);
BENCHMARK(BM_BitmapFindClear);
BENCHMARK(BM_BlockCacheHit);
BENCHMARK(BM_BlockCacheMissEvict);
BENCHMARK(BM_DentryCacheLookup);
BENCHMARK(BM_InodeCacheDirtySnapshot)->Arg(64)->Arg(2048)->Arg(16384);
BENCHMARK(BM_JournalCommit);
BENCHMARK(BM_JournalReplay)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WireRoundTrip)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace raefs

BENCHMARK_MAIN();
