// Parallel block IO for the recovery pipeline: the one read-ahead
// primitive (prefetch) and the one writer (write_blocks).
//
// Journal replay, shadow replay and fsck each run a serial algorithm
// whose reads can be named (or discovered breadth-first) ahead of time.
// On storage with real access latency those serial reads are the cost,
// so each phase first fans the reads it will need across a WorkerPool and
// then runs its unchanged serial code over the resulting device: fetched
// blocks are served from memory, every other read passes through to the
// underlying device. The image is quiescent during recovery, so fetched
// bytes cannot go stale.
//
// The read-ahead is advisory. A block that fails to read is simply not
// held, and the consumer's own read of it goes to the device and fails
// (or succeeds) exactly as it would without read-ahead -- so results are
// identical at every worker count. This is a device snapshot, not a
// cache of decoded state: consumers still decode and validate every block
// they read.
//
// The writer, write_blocks, is the other direction: the journal commit's
// pre-barrier writes, journal replay's apply step and the bulk install's
// in-place apply all hand it a list of writes whose order does not matter
// (distinct targets, or a flush barrier still to come), and it fans them
// across the same pool shape. At one worker it writes inline in list
// order, which keeps the serial paths' device write sequence the
// reference the parallel ones are compared against.
#pragma once

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "blockdev/block_device.h"
#include "common/worker_pool.h"

namespace raefs {

class PrefetchedDevice final : public BlockDevice {
 public:
  /// `workers` bounds the concurrent device reads of every fetch().
  PrefetchedDevice(BlockDevice* inner, uint32_t workers);

  /// Read `blocks` into memory (duplicates and already-held blocks are
  /// skipped; out-of-range blocks and failed reads are not held). Must not
  /// run concurrently with read_block().
  void fetch(std::span<const BlockNo> blocks);

  /// The held copy of `block`, or nullptr if it was not fetched.
  const uint8_t* find(BlockNo block) const;

  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t block_count() const override { return inner_->block_count(); }
  Status read_block(BlockNo block, std::span<uint8_t> out) override;
  /// Refused with kRoFs: a snapshot is never written.
  Status write_block(BlockNo block, std::span<const uint8_t> data) override;
  Status flush() override;
  const DeviceStats& stats() const override { return inner_->stats(); }

 private:
  BlockDevice* inner_;
  std::vector<std::unique_ptr<uint8_t[]>> arenas_;  // one per fetch()
  std::unordered_map<BlockNo, const uint8_t*> held_;  // into arenas_
  WorkerPool pool_;  // last: its threads are joined before the buffers go
};

/// Fetch `blocks` from `dev` with up to `workers` concurrent reads and
/// return the read-only snapshot that serves them.
std::unique_ptr<PrefetchedDevice> prefetch(BlockDevice* dev,
                                           std::span<const BlockNo> blocks,
                                           uint32_t workers);

/// One block write; `data` must outlive the write_blocks call.
struct BlockWrite {
  BlockNo block = 0;
  std::span<const uint8_t> data;
};

/// Write each entry of `writes` once, in contiguous slices across up to
/// `workers` threads (inline and in order at one worker). A slice stops at
/// its first failed write. Issues no flush. Returns the error of the first
/// failed slice, or Ok.
Status write_blocks(BlockDevice* dev, std::span<const BlockWrite> writes,
                    uint32_t workers);

}  // namespace raefs
