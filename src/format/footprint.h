// Metadata footprint of an image, read ahead breadth-first.
//
// The footprint is the superblock, both bitmaps, the inode table, and for
// every in-use inode its indirect spine (indirect, double-indirect and L1
// blocks) plus, for directories, the directory data blocks. It is the set
// a pFSCK-style scan reads, and it is most of what the shadow's open-time
// validation and path walks read, so the strict checker and shadow replay
// both run their serial code over one read-ahead of it.
//
// Each level of the walk is one parallel fetch: the superblock, then the
// bitmaps and inode table, then what the allocated inodes point at, then
// the spines' children. Decoding here only steers the read-ahead; nothing
// is trusted. A block that fails to read or decode is skipped, and the
// consumer's own read of it goes to the device.
#pragma once

#include <memory>

#include "blockdev/prefetch.h"

namespace raefs {

/// Read `dev`'s metadata footprint with up to `workers` concurrent reads.
std::unique_ptr<PrefetchedDevice> prefetch_metadata(BlockDevice* dev,
                                                    uint32_t workers);

}  // namespace raefs
