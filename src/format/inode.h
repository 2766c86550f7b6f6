// On-disk inode: 256 bytes, 16 per block, CRC-protected.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/result.h"
#include "format/layout.h"

namespace raefs {

/// The on-disk inode structure. Field order below is the encoding order.
struct DiskInode {
  FileType type = FileType::kNone;
  uint16_t mode = 0;      // permission bits
  uint32_t nlink = 0;
  uint32_t uid = 0;
  uint32_t gid = 0;
  uint64_t size = 0;      // bytes (for dirs: directory data bytes)
  uint64_t atime = 0;     // simulated nanoseconds
  uint64_t mtime = 0;
  uint64_t ctime = 0;
  std::array<BlockNo, kNumDirect> direct{};  // 0 = hole / unallocated
  BlockNo indirect = 0;
  BlockNo dindirect = 0;
  uint64_t generation = 0;  // bumped on every reuse of this ino

  bool in_use() const { return type != FileType::kNone; }

  bool operator==(const DiskInode&) const = default;

  /// Serialize into exactly kInodeSize bytes (CRC32C in the final 4).
  std::vector<uint8_t> encode() const;

  /// Decode kInodeSize bytes; checks CRC and field sanity against `geo`
  /// (type valid, size within kMaxFileSize, all block pointers either 0 or
  /// inside the data region).
  static Result<DiskInode> decode(std::span<const uint8_t> raw,
                                  const Geometry& geo);

  /// Decode without geometry validation (fsck wants to look at invalid
  /// inodes too). Still checks the CRC.
  static Result<DiskInode> decode_raw(std::span<const uint8_t> raw);

  /// Structural sanity against `geo`; kCorrupt on violation.
  Status validate(const Geometry& geo) const;

  /// Number of data blocks implied by `size` (ceil division).
  uint64_t size_blocks() const {
    return (size + kBlockSize - 1) / kBlockSize;
  }
};

struct StatResult {
  Ino ino = kInvalidIno;
  FileType type = FileType::kNone;
  uint64_t size = 0;
  uint32_t nlink = 0;
  uint16_t mode = 0;
  uint64_t generation = 0;
};

/// Read inode `ino` out of an inode-table block image.
Result<DiskInode> inode_from_table_block(std::span<const uint8_t> block,
                                         uint32_t slot, const Geometry& geo);

/// Write `ino`'s encoding into an inode-table block image in place.
void inode_into_table_block(std::span<uint8_t> block, uint32_t slot,
                            const DiskInode& inode);

}  // namespace raefs
