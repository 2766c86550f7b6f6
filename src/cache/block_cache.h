// Sharded write-back LRU block cache -- the base filesystem's page-cache
// analogue. One of the performance components (Figure 2, left) that the
// shadow filesystem deliberately omits.
//
// Buffer ownership (zero-copy protocol):
//   - Cached payloads are shared_ptr-owned immutable buffers (BlockBufPtr).
//     read() returns a refcounted handle without copying the payload;
//     dirty_snapshot() likewise hands out handles, not deep copies.
//   - modify()/write() follow copy-on-write: a buffer is cloned only when
//     a handle to it is still held outside the cache (use_count > 1);
//     an unshared buffer is mutated in place. The cow_clones() and
//     bytes_copied() counters account every payload copy the cache makes.
//   - A handle observes the block as it was at read() time; later writes
//     to the same block never mutate a buffer that escaped the cache.
//
// Dirty blocks are pinned: eviction only removes clean blocks, preserving
// write-ahead ordering (a dirty metadata block must not reach the device
// before its journal transaction commits). Clean blocks live on a
// dedicated clean-LRU list so eviction is O(1) regardless of how many
// dirty blocks are piled up. The owner (BaseFs) is responsible for
// write-back via dirty_snapshot()/mark_clean().
//
// Commit epochs: every dirtying touch tags the entry with the cache's
// current open epoch (set_open_epoch()). The owner's group-commit engine
// snapshots one epoch range at a time (dirty_snapshot_range) and cleans
// with mark_clean_upto(), which skips entries re-dirtied under a newer
// epoch -- a block modified after its snapshot was taken stays dirty and
// is picked up by the next commit. Dirty entries additionally live on a
// per-shard dirty list so snapshots walk O(dirty), not O(cached).
#pragma once

#include <atomic>
#include <functional>
#include <list>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "blockdev/block_device.h"
#include "common/result.h"

namespace raefs {

/// Read-only, refcounted view of one cached block. Cheap to copy; keeps
/// the underlying buffer alive (and CoW-protected) while held.
class BlockRef {
 public:
  BlockRef() = default;
  explicit BlockRef(BlockBufPtr buf) : buf_(std::move(buf)) {}

  const uint8_t* data() const { return buf_->data(); }
  size_t size() const { return buf_ ? buf_->size() : 0; }
  uint8_t operator[](size_t i) const { return (*buf_)[i]; }
  const uint8_t* begin() const { return buf_->data(); }
  const uint8_t* end() const { return buf_->data() + buf_->size(); }

  operator std::span<const uint8_t>() const {
    return {buf_->data(), buf_->size()};
  }
  std::span<const uint8_t> span() const { return *this; }
  const BlockBuf& vec() const { return *buf_; }
  const BlockBufPtr& handle() const { return buf_; }
  explicit operator bool() const { return buf_ != nullptr; }

 private:
  BlockBufPtr buf_;
};

class BlockCache {
 public:
  /// `capacity` is a soft limit in blocks; dirty blocks never count
  /// against it for eviction purposes (they cannot be evicted).
  BlockCache(BlockDevice* dev, size_t capacity, int shards = 8);

  /// Read-through: returns a refcounted handle to the block's current
  /// (possibly dirty) contents. Hits copy no payload bytes.
  Result<BlockRef> read(BlockNo block);

  /// Replace the cached contents and mark dirty. No device IO.
  Status write(BlockNo block, std::vector<uint8_t> data);

  /// Read-modify-write under the shard lock: loads the block if needed,
  /// clones it if a handle is held elsewhere (CoW), applies `fn` to its
  /// bytes, marks dirty.
  Status modify(BlockNo block,
                const std::function<void(std::span<uint8_t>)>& fn);

  /// Refcounted handles to all dirty blocks, ordered by block number
  /// (deterministic journaling order). No payload copies.
  std::vector<std::pair<BlockNo, BlockBufPtr>> dirty_snapshot() const;

  /// Handles to dirty blocks whose epoch tag is in (after, upto], ordered
  /// by block number. The group-commit delta: blocks already journaled by
  /// a durable transaction and waiting for a checkpoint (tag <= after) and
  /// blocks dirtied under a newer open epoch (tag > upto) are both
  /// excluded. No payload copies.
  std::vector<std::pair<BlockNo, BlockBufPtr>> dirty_snapshot_range(
      uint64_t after, uint64_t upto) const;

  /// Mark blocks clean after the owner persisted them.
  void mark_clean(std::span<const BlockNo> blocks);

  /// Epoch-aware mark_clean: only entries still tagged <= `upto` become
  /// clean. A block re-dirtied after its snapshot was taken carries a
  /// newer tag and must stay dirty (its latest content is unpersisted).
  void mark_clean_upto(std::span<const BlockNo> blocks, uint64_t upto);

  /// Bulk install-as-clean (the recovery download's warm-up): replace each
  /// block's cached payload with the given bytes and leave the entry
  /// CLEAN. The caller guarantees the device already holds exactly these
  /// bytes -- the bulk install journals and writes them in place before
  /// calling -- so nothing here needs write-back. Escaped read handles
  /// keep their old point-in-time buffer; absent blocks are inserted.
  void install_clean(
      const std::vector<std::pair<BlockNo, BlockBufPtr>>& blocks);

  /// Advance the open epoch; subsequent dirtying touches tag with `epoch`.
  /// Called by the commit engine at epoch rotation (no concurrent ops).
  void set_open_epoch(uint64_t epoch) {
    open_epoch_.store(epoch, std::memory_order_release);
  }
  uint64_t open_epoch() const {
    return open_epoch_.load(std::memory_order_acquire);
  }

  /// Drop every cached block, dirty or not. Used only by the contained
  /// reboot: all in-memory state is untrusted after an error.
  void drop_all();

  /// Drop a single (clean or dirty) block, e.g. after freeing it.
  void drop(BlockNo block);

  size_t cached_blocks() const;
  /// O(1) per shard: maintained counters, no map walk.
  size_t dirty_blocks() const;
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Buffers cloned because a handle was still held at modify() time.
  uint64_t cow_clones() const {
    return cow_clones_.load(std::memory_order_relaxed);
  }
  /// Total payload bytes the cache copied (CoW clones only; read hits and
  /// snapshots are copy-free by construction).
  uint64_t bytes_copied() const {
    return bytes_copied_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::shared_ptr<BlockBuf> data;
    bool dirty = false;
    uint64_t epoch = 0;  // open epoch at the last dirtying touch
    std::list<BlockNo>::iterator lru_pos;
    std::list<BlockNo>::iterator clean_pos;  // valid iff !dirty
    std::list<BlockNo>::iterator dirty_pos;  // valid iff dirty
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<BlockNo, Entry> map;
    std::list<BlockNo> lru;        // all entries; front = most recent
    std::list<BlockNo> clean_lru;  // clean entries only; front = most recent
    std::list<BlockNo> dirty_list; // dirty entries only (snapshot walks)
    size_t dirty_count = 0;
  };

  Shard& shard_of(BlockNo block) {
    return shards_[block % shards_.size()];
  }
  const Shard& shard_of(BlockNo block) const {
    return shards_[block % shards_.size()];
  }

  // Must hold s.mu. Loads block into the shard if absent.
  Result<Entry*> load_locked(Shard& s, BlockNo block);
  void touch_locked(Shard& s, BlockNo block, Entry& e);
  void evict_locked(Shard& s);
  // Must hold s.mu. Retag with the open epoch; transition clean entries
  // to dirty (bookkeeping only).
  void mark_dirty_locked(Shard& s, BlockNo block, Entry& e);
  // Must hold s.mu. Clone e's buffer if a handle escaped (CoW).
  void ensure_unique_locked(Entry& e);

  BlockDevice* dev_;
  size_t per_shard_capacity_;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> open_epoch_{1};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> cow_clones_{0};
  std::atomic<uint64_t> bytes_copied_{0};
};

}  // namespace raefs
