// Cache-layer tests: block cache (read-through, dirty pinning, eviction),
// inode cache, dentry cache (positive/negative entries, invalidation).
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <thread>

#include "blockdev/mem_device.h"
#include "cache/block_cache.h"
#include "cache/dentry_cache.h"
#include "cache/inode_cache.h"

namespace raefs {
namespace {

std::vector<uint8_t> filled(uint8_t b) {
  return std::vector<uint8_t>(kBlockSize, b);
}

TEST(BlockCache, ReadThroughAndHitCounting) {
  MemBlockDevice dev(16);
  ASSERT_TRUE(dev.write_block(2, filled(0x42)).ok());
  BlockCache cache(&dev, 8);

  auto first = cache.read(2);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().vec(), filled(0x42));
  EXPECT_EQ(cache.misses(), 1u);

  auto second = cache.read(2);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(dev.stats().reads.load(), 1u);  // hit served from cache
}

TEST(BlockCache, WriteIsCachedNotDeviceVisible) {
  MemBlockDevice dev(16);
  BlockCache cache(&dev, 8);
  ASSERT_TRUE(cache.write(5, filled(0x77)).ok());
  EXPECT_EQ(cache.dirty_blocks(), 1u);

  // Device still has zeros: write-back is the owner's job.
  std::vector<uint8_t> out(kBlockSize);
  ASSERT_TRUE(dev.read_block(5, out).ok());
  EXPECT_EQ(out, filled(0));

  auto cached = cache.read(5);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached.value().vec(), filled(0x77));
}

TEST(BlockCache, ModifyMarksDirty) {
  MemBlockDevice dev(16);
  BlockCache cache(&dev, 8);
  ASSERT_TRUE(cache.modify(3, [](std::span<uint8_t> data) {
    data[0] = 0xEE;
  }).ok());
  EXPECT_EQ(cache.dirty_blocks(), 1u);
  auto snapshot = cache.dirty_snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].first, 3u);
  EXPECT_EQ((*snapshot[0].second)[0], 0xEE);
}

TEST(BlockCache, MarkCleanAndDropAll) {
  MemBlockDevice dev(16);
  BlockCache cache(&dev, 8);
  ASSERT_TRUE(cache.write(1, filled(1)).ok());
  ASSERT_TRUE(cache.write(2, filled(2)).ok());
  BlockNo blocks[] = {1};
  cache.mark_clean(blocks);
  EXPECT_EQ(cache.dirty_blocks(), 1u);
  cache.drop_all();
  EXPECT_EQ(cache.cached_blocks(), 0u);
  EXPECT_EQ(cache.dirty_blocks(), 0u);
}

TEST(BlockCache, EvictionSkipsDirtyBlocks) {
  MemBlockDevice dev(256);
  BlockCache cache(&dev, 8, /*shards=*/1);
  // Dirty blocks must be pinned even under pressure.
  for (BlockNo b = 0; b < 4; ++b) {
    ASSERT_TRUE(cache.write(b, filled(static_cast<uint8_t>(b))).ok());
  }
  for (BlockNo b = 4; b < 200; ++b) {
    ASSERT_TRUE(cache.read(b).ok());
  }
  EXPECT_EQ(cache.dirty_blocks(), 4u);  // none evicted
  auto dirty = cache.dirty_snapshot();
  for (BlockNo b = 0; b < 4; ++b) {
    EXPECT_EQ(*dirty[b].second, filled(static_cast<uint8_t>(b)));
  }
  // Clean blocks did get evicted: the cache stayed near capacity.
  EXPECT_LT(cache.cached_blocks(), 32u);
}

TEST(BlockCache, ReadHitsCopyZeroPayloadBytes) {
  MemBlockDevice dev(16);
  ASSERT_TRUE(dev.write_block(3, filled(0xAB)).ok());
  BlockCache cache(&dev, 8);
  for (int i = 0; i < 100; ++i) {
    auto ref = cache.read(3);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref.value()[0], 0xAB);
  }
  EXPECT_EQ(cache.hits(), 99u);
  // Zero-copy contract: hits hand out refcounted handles, not copies.
  EXPECT_EQ(cache.bytes_copied(), 0u);
  EXPECT_EQ(cache.cow_clones(), 0u);
}

TEST(BlockCache, CowClonesOnlyWhenHandleHeld) {
  MemBlockDevice dev(16);
  BlockCache cache(&dev, 8);
  ASSERT_TRUE(cache.write(4, filled(0x01)).ok());

  // No handle outstanding: modify mutates in place, no clone.
  ASSERT_TRUE(cache.modify(4, [](std::span<uint8_t> d) { d[0] = 0x02; }).ok());
  EXPECT_EQ(cache.cow_clones(), 0u);
  EXPECT_EQ(cache.bytes_copied(), 0u);

  // Handle outstanding (as commit_txn holds dirty_snapshot handles):
  // modify must clone, and the handle keeps its point-in-time view.
  auto snap = cache.dirty_snapshot();
  ASSERT_EQ(snap.size(), 1u);
  ASSERT_TRUE(cache.modify(4, [](std::span<uint8_t> d) { d[0] = 0x03; }).ok());
  EXPECT_EQ(cache.cow_clones(), 1u);
  EXPECT_EQ(cache.bytes_copied(), kBlockSize);
  EXPECT_EQ((*snap[0].second)[0], 0x02);
  auto now = cache.read(4);
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(now.value()[0], 0x03);
}

TEST(BlockCache, CapacityRespectedUnderMixedCleanDirty) {
  MemBlockDevice dev(4096);
  BlockCache cache(&dev, 64, /*shards=*/1);
  // Interleave dirty writes with a large clean scan. Dirty blocks are
  // pinned, but the clean population must keep total size near capacity.
  for (BlockNo b = 0; b < 1000; ++b) {
    if (b % 10 == 0) {
      ASSERT_TRUE(cache.write(b, filled(static_cast<uint8_t>(b))).ok());
    } else {
      ASSERT_TRUE(cache.read(b).ok());
    }
  }
  EXPECT_EQ(cache.dirty_blocks(), 100u);
  // All dirty blocks plus at most a capacity's worth of clean ones.
  EXPECT_LE(cache.cached_blocks(), 100u + 64u);

  // Once write-back marks them clean, the cache shrinks back below
  // capacity on the next insertions.
  auto dirty = cache.dirty_snapshot();
  std::vector<BlockNo> blocks;
  for (const auto& [b, buf] : dirty) blocks.push_back(b);
  cache.mark_clean(blocks);
  for (BlockNo b = 1000; b < 1200; ++b) {
    ASSERT_TRUE(cache.read(b).ok());
  }
  EXPECT_LE(cache.cached_blocks(), 64u);
  EXPECT_EQ(cache.dirty_blocks(), 0u);
}

TEST(BlockCache, DirtySnapshotIsSorted) {
  MemBlockDevice dev(64);
  BlockCache cache(&dev, 32);
  for (BlockNo b : {17u, 3u, 42u, 8u}) {
    ASSERT_TRUE(cache.write(b, filled(1)).ok());
  }
  auto dirty = cache.dirty_snapshot();
  ASSERT_EQ(dirty.size(), 4u);
  EXPECT_TRUE(std::is_sorted(dirty.begin(), dirty.end(),
                             [](const auto& a, const auto& b) {
                               return a.first < b.first;
                             }));
}

TEST(BlockCache, ConcurrentMixedAccess) {
  MemBlockDevice dev(512);
  BlockCache cache(&dev, 128);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        BlockNo b = static_cast<BlockNo>((t * 131 + i) % 512);
        if (i % 3 == 0) {
          (void)cache.modify(b, [](std::span<uint8_t> d) { d[0]++; });
        } else {
          (void)cache.read(b);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(cache.cached_blocks(), 0u);
}

TEST(InodeCache, PutGetEraseDirty) {
  InodeCache cache;
  EXPECT_FALSE(cache.get(5).has_value());

  DiskInode n;
  n.type = FileType::kRegular;
  n.nlink = 1;
  n.size = 99;
  cache.put(5, n, /*dirty=*/false);
  auto got = cache.get(5);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size, 99u);
  EXPECT_TRUE(cache.dirty_snapshot().empty());

  n.size = 100;
  cache.put(5, n, /*dirty=*/true);
  auto dirty = cache.dirty_snapshot();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0].second.size, 100u);

  cache.mark_clean(5);
  EXPECT_TRUE(cache.dirty_snapshot().empty());
  cache.erase(5);
  EXPECT_FALSE(cache.get(5).has_value());
}

TEST(InodeCache, DirtyStickyAcrossCleanPut) {
  InodeCache cache;
  DiskInode stale;
  stale.type = FileType::kRegular;
  stale.nlink = 1;
  DiskInode fresh = stale;
  fresh.size = 8192;
  fresh.direct[0] = 77;
  cache.put(9, fresh, /*dirty=*/true);
  // A late fill from a table block decoded before the dirtying put must
  // lose neither the dirty bit nor the newer content.
  cache.put(9, stale, /*dirty=*/false);
  auto dirty = cache.dirty_snapshot();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0].second, fresh);
  auto got = cache.get(9);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, fresh);

  // Once written back and clean, the entry is the table's content, so a
  // late fill still must not roll it back.
  cache.mark_clean(9);
  cache.put(9, stale, /*dirty=*/false);
  EXPECT_EQ(*cache.get(9), fresh);
  EXPECT_TRUE(cache.dirty_snapshot().empty());
}

DiskInode inode_with(uint64_t size) {
  DiskInode n;
  n.type = FileType::kRegular;
  n.nlink = 1;
  n.size = size;
  return n;
}

// Randomized differential test against a std::map reference: after every
// step the dirty snapshot must be exactly the reference's dirty entries,
// in ino order, each with its latest content.
TEST(InodeCache, DirtySnapshotMatchesReferenceModel) {
  struct Ref {
    DiskInode inode;
    bool dirty = false;
  };
  std::mt19937_64 rng(20241019);
  InodeCache cache;  // 8 shards; inos 1..300 land in all of them
  std::map<Ino, Ref> ref;
  constexpr Ino kInos = 300;
  for (int step = 0; step < 20000; ++step) {
    const Ino ino = 1 + rng() % kInos;
    const uint64_t size = rng() % 100000;
    const int op = static_cast<int>(rng() % 100);
    if (op < 35) {
      cache.put(ino, inode_with(size), /*dirty=*/true);
      ref[ino] = Ref{inode_with(size), true};
    } else if (op < 65) {
      cache.put(ino, inode_with(size), /*dirty=*/false);
      ref.try_emplace(ino, Ref{inode_with(size), false});
    } else if (op < 90) {
      cache.mark_clean(ino);
      if (auto it = ref.find(ino); it != ref.end()) it->second.dirty = false;
    } else if (op < 99) {
      cache.erase(ino);
      ref.erase(ino);
    } else if (rng() % 8 == 0) {
      cache.drop_all();
      ref.clear();
    }

    std::vector<std::pair<Ino, DiskInode>> want;
    for (const auto& [i, r] : ref) {
      if (r.dirty) want.emplace_back(i, r.inode);
    }
    auto got = cache.dirty_snapshot();
    ASSERT_EQ(got.size(), want.size()) << "step " << step;
    for (size_t k = 0; k < want.size(); ++k) {
      ASSERT_EQ(got[k].first, want[k].first) << "step " << step;
      ASSERT_EQ(got[k].second, want[k].second) << "step " << step;
    }
    ASSERT_EQ(cache.size(), ref.size()) << "step " << step;
    auto one = cache.get(ino);
    auto it = ref.find(ino);
    ASSERT_EQ(one.has_value(), it != ref.end()) << "step " << step;
    if (one) {
      ASSERT_EQ(*one, it->second.inode) << "step " << step;
    }
  }
}

// put and mark_clean from 8 threads on overlapping inos (run under TSan in
// CI). Each thread's last touch of an ino is a dirty put of its own tag,
// so once all threads join, every ino is dirty and its snapshot content is
// one of the writers' last tags.
TEST(InodeCache, ConcurrentPutAndMarkClean) {
  InodeCache cache;
  constexpr int kThreads = 8;
  constexpr Ino kInos = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      std::mt19937 rng(static_cast<unsigned>(t));
      for (int i = 0; i < 4000; ++i) {
        const Ino ino = 1 + rng() % kInos;
        switch (rng() % 4) {
          case 0: cache.put(ino, inode_with(i), /*dirty=*/false); break;
          case 1: cache.mark_clean(ino); break;
          default: cache.put(ino, inode_with(i), /*dirty=*/true); break;
        }
        (void)cache.dirty_snapshot().size();
      }
      for (Ino ino = 1; ino <= kInos; ++ino) {
        cache.put(ino, inode_with(1000000 + t), /*dirty=*/true);
      }
    });
  }
  for (auto& t : threads) t.join();

  auto dirty = cache.dirty_snapshot();
  ASSERT_EQ(dirty.size(), kInos);
  for (size_t k = 0; k < dirty.size(); ++k) {
    EXPECT_EQ(dirty[k].first, k + 1);
    EXPECT_GE(dirty[k].second.size, 1000000u);
    EXPECT_LT(dirty[k].second.size, 1000000u + kThreads);
    EXPECT_EQ(*cache.get(dirty[k].first), dirty[k].second);
  }
  for (Ino ino = 1; ino <= kInos; ++ino) cache.mark_clean(ino);
  EXPECT_TRUE(cache.dirty_snapshot().empty());
  EXPECT_EQ(cache.size(), kInos);
}

TEST(DentryCache, PositiveNegativeAndInvalidate) {
  DentryCache cache(64);
  EXPECT_FALSE(cache.lookup(1, "a").has_value());

  cache.insert(1, "a", 5, FileType::kRegular);
  auto hit = cache.lookup(1, "a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->ino, 5u);
  EXPECT_FALSE(hit->negative());

  cache.insert_negative(1, "gone");
  auto neg = cache.lookup(1, "gone");
  ASSERT_TRUE(neg.has_value());
  EXPECT_TRUE(neg->negative());

  cache.invalidate(1, "a");
  EXPECT_FALSE(cache.lookup(1, "a").has_value());
}

TEST(DentryCache, InvalidateDirRemovesAllChildren) {
  DentryCache cache(64);
  cache.insert(7, "x", 10, FileType::kRegular);
  cache.insert(7, "y", 11, FileType::kRegular);
  cache.insert(8, "z", 12, FileType::kRegular);
  cache.invalidate_dir(7);
  EXPECT_FALSE(cache.lookup(7, "x").has_value());
  EXPECT_FALSE(cache.lookup(7, "y").has_value());
  EXPECT_TRUE(cache.lookup(8, "z").has_value());
}

TEST(DentryCache, EvictsUnderPressure) {
  DentryCache cache(16, /*shards=*/1);
  for (int i = 0; i < 100; ++i) {
    cache.insert(1, "n" + std::to_string(i), static_cast<Ino>(i + 2),
                 FileType::kRegular);
  }
  EXPECT_LE(cache.size(), 16u);
  // The most recent entry survives.
  EXPECT_TRUE(cache.lookup(1, "n99").has_value());
}

TEST(DentryCache, DropAll) {
  DentryCache cache(64);
  cache.insert(1, "a", 2, FileType::kDirectory);
  cache.drop_all();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(1, "a").has_value());
}

}  // namespace
}  // namespace raefs
