// On-disk layout geometry shared by the base filesystem, the shadow
// filesystem and fsck. Block 0 holds the superblock, followed by the inode
// bitmap, the block bitmap (covering the whole device), the inode table,
// the journal region, and the data region.
//
// The paper (§4.1) notes kernel on-disk formats lack an explicit ABI; this
// header *is* the explicit ABI both implementations are written against.
#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/types.h"

namespace raefs {

inline constexpr uint32_t kInodeSize = 256;
inline constexpr uint32_t kInodesPerBlock = kBlockSize / kInodeSize;  // 16
inline constexpr uint32_t kPtrsPerBlock = kBlockSize / 8;             // 512
inline constexpr uint32_t kNumDirect = 12;
inline constexpr uint32_t kBitsPerBlock = kBlockSize * 8;

/// Maximum file size addressable by 12 direct + 1 indirect + 1
/// double-indirect pointers.
inline constexpr uint64_t kMaxFileBlocks =
    kNumDirect + kPtrsPerBlock +
    static_cast<uint64_t>(kPtrsPerBlock) * kPtrsPerBlock;
inline constexpr uint64_t kMaxFileSize = kMaxFileBlocks * kBlockSize;

/// Computed positions of every on-disk region.
struct Geometry {
  uint64_t total_blocks = 0;
  uint64_t inode_count = 0;

  BlockNo inode_bitmap_start = 0;
  uint64_t inode_bitmap_blocks = 0;
  BlockNo block_bitmap_start = 0;
  uint64_t block_bitmap_blocks = 0;
  BlockNo inode_table_start = 0;
  uint64_t inode_table_blocks = 0;
  BlockNo journal_start = 0;
  uint64_t journal_blocks = 0;
  BlockNo data_start = 0;
  uint64_t data_blocks = 0;

  /// Block and intra-block slot holding inode `ino` (1-based inos).
  BlockNo inode_block(Ino ino) const {
    return inode_table_start + (ino - 1) / kInodesPerBlock;
  }
  uint32_t inode_slot(Ino ino) const {
    return static_cast<uint32_t>((ino - 1) % kInodesPerBlock);
  }

  bool ino_valid(Ino ino) const { return ino >= 1 && ino <= inode_count; }

  /// True if `b` lies in the data region.
  bool is_data_block(BlockNo b) const {
    return b >= data_start && b < total_blocks;
  }
};

/// Classification of a data-region block's role. Blocks below data_start
/// (superblock, bitmaps, inode table, journal) are implicitly metadata;
/// data-region blocks holding directory entries or indirect pointer arrays
/// are journaled metadata too, while file content is not journaled
/// (ordered-mode semantics).
enum class BlockClass : uint8_t {
  kFileData = 0,
  kDirMeta = 1,
  kIndirectMeta = 2,
};

/// Blocks handed back by the shadow during metadata download.
struct InstallBlock {
  BlockNo block = 0;
  BlockClass cls = BlockClass::kFileData;
  std::vector<uint8_t> data;
};

/// Compute the layout for a device of `total_blocks` blocks with
/// `inode_count` inodes and a journal of `journal_blocks` blocks.
/// Returns kInval if the device is too small to hold the metadata plus at
/// least one data block.
Result<Geometry> compute_geometry(uint64_t total_blocks, uint64_t inode_count,
                                  uint64_t journal_blocks);

}  // namespace raefs
