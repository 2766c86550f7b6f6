// In-memory inode cache (the base filesystem's icache analogue).
// Caches decoded DiskInode objects so hot inodes avoid repeated
// inode-table block decoding. Dirty inodes are flushed into the inode
// table through the block cache by the owner (BaseFs).
//
// Each shard keeps an exact list of its dirty inodes beside the map (the
// shape of BlockCache's dirty list), so dirty_snapshot() costs O(dirty),
// not O(cached): the cache never evicts, so in time it holds the whole
// inode table, and the snapshot runs inside every sync's epoch rotation.
//
// A clean put is a fill from the inode table and inserts only if the ino
// is absent: a fill decoded before a concurrent dirtying put can arrive
// after it, and must not replace the newer entry.
#pragma once

#include <atomic>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "format/inode.h"

namespace raefs {

class InodeCache {
 public:
  explicit InodeCache(int shards = 8) : shards_(static_cast<size_t>(shards)) {}

  /// Cached copy of `ino`, if present.
  std::optional<DiskInode> get(Ino ino) const;

  /// `dirty`: insert or replace `ino` and mark it as needing write-back.
  /// Clean: insert `ino` only if absent (a fill never replaces an entry).
  void put(Ino ino, const DiskInode& inode, bool dirty);

  /// Remove `ino` (e.g. after freeing it on disk).
  void erase(Ino ino);

  /// All dirty inodes, ordered by ino (deterministic flush order).
  /// O(dirty): walks the shards' dirty lists, not their maps.
  std::vector<std::pair<Ino, DiskInode>> dirty_snapshot() const;

  void mark_clean(Ino ino);

  /// Drop everything -- contained reboot.
  void drop_all();

  size_t size() const;
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    DiskInode inode;
    bool dirty = false;
    std::list<Ino>::iterator dirty_pos;  // valid iff dirty
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Ino, Entry> map;
    std::list<Ino> dirty_list;  // dirty entries only (snapshot walks)
  };

  Shard& shard_of(Ino ino) { return shards_[ino % shards_.size()]; }
  const Shard& shard_of(Ino ino) const { return shards_[ino % shards_.size()]; }

  std::vector<Shard> shards_;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
};

}  // namespace raefs
