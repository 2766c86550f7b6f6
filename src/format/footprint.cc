#include "format/footprint.h"

#include <cstring>

#include "format/bitmap.h"
#include "format/inode.h"
#include "format/superblock.h"

namespace raefs {
namespace {

/// A pointer block still to expand: a double-indirect block (its children
/// are L1 spines) or a directory's indirect/L1 block (its children are
/// directory data).
struct Spine {
  BlockNo block;
  bool dindirect;
  bool dir;
};

void add_range(std::vector<BlockNo>* out, BlockNo start, uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) out->push_back(start + i);
}

}  // namespace

std::unique_ptr<PrefetchedDevice> prefetch_metadata(BlockDevice* dev,
                                                    uint32_t workers) {
  const BlockNo sb_block = 0;
  auto snap = prefetch(dev, std::span<const BlockNo>(&sb_block, 1), workers);
  const uint8_t* raw = snap->find(sb_block);
  if (raw == nullptr) return snap;
  auto sb = Superblock::decode(std::span<const uint8_t>(raw, kBlockSize));
  if (!sb.ok()) return snap;
  auto geo_r = sb.value().geometry();
  if (!geo_r.ok() || geo_r.value().total_blocks > dev->block_count()) {
    return snap;
  }
  const Geometry geo = geo_r.value();

  std::vector<BlockNo> level;
  add_range(&level, geo.inode_bitmap_start, geo.inode_bitmap_blocks);
  add_range(&level, geo.block_bitmap_start, geo.block_bitmap_blocks);
  add_range(&level, geo.inode_table_start, geo.inode_table_blocks);
  snap->fetch(level);

  // Allocated inodes: directory data and spine roots.
  level.clear();
  std::vector<Spine> spines;
  for (Ino ino = 1; ino <= geo.inode_count; ++ino) {
    const uint8_t* bits =
        snap->find(geo.inode_bitmap_start + (ino - 1) / kBitsPerBlock);
    const uint8_t* table = snap->find(geo.inode_block(ino));
    if (bits == nullptr || table == nullptr) continue;
    if (!ConstBitmapView(std::span(bits, kBlockSize), kBitsPerBlock)
             .test((ino - 1) % kBitsPerBlock)) {
      continue;
    }
    auto inode = inode_from_table_block(std::span(table, kBlockSize),
                                        geo.inode_slot(ino), geo);
    if (!inode.ok() || !inode.value().in_use()) continue;
    const DiskInode& node = inode.value();
    const bool dir = node.type == FileType::kDirectory;
    if (dir) {
      for (BlockNo b : node.direct) {
        if (b != 0) level.push_back(b);
      }
    }
    if (node.indirect != 0) {
      level.push_back(node.indirect);
      if (dir) spines.push_back({node.indirect, false, true});
    }
    if (node.dindirect != 0) {
      level.push_back(node.dindirect);
      spines.push_back({node.dindirect, true, dir});
    }
  }
  snap->fetch(level);

  // Spine children, one level at a time. Only double-indirect blocks add
  // a further level, so a crafted self-referencing spine cannot loop.
  while (!spines.empty()) {
    level.clear();
    std::vector<Spine> next;
    for (const Spine& s : spines) {
      const uint8_t* blk = snap->find(s.block);
      if (blk == nullptr) continue;
      for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
        uint64_t ptr = 0;
        std::memcpy(&ptr, blk + i * 8, sizeof(ptr));
        if (!geo.is_data_block(ptr)) continue;
        level.push_back(ptr);
        if (s.dindirect && s.dir) next.push_back({ptr, false, true});
      }
    }
    snap->fetch(level);
    spines = std::move(next);
  }
  return snap;
}

}  // namespace raefs
