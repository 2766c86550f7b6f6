// BaseFs -- the performance-oriented base filesystem (Figure 2, left).
//
// Everything the paper's shadow deliberately omits is here: a sharded
// write-back block cache, an inode cache, a dentry cache with negative
// entries, fine-grained locking (shared namespace lock + per-inode locks),
// a write-ahead metadata journal, and an asynchronous block layer for
// write-back. It is also where bugs live: BugRegistry injection sites are
// wired through every code path, organic invariant traps panic like a
// kernel BUG(), and a validate-on-sync hook detects silent corruption
// before it persists (paper §3.1).
//
// Concurrency model:
//   - op_gate_ (shared_mutex): every op holds it shared; the commit
//     engine takes it exclusive only for the brief *epoch rotation*
//     barrier (flush the inode cache, snapshot the epoch's dirty delta,
//     advance the open epoch) -- no IO happens under the gate, and its
//     cost is O(inodes and blocks dirtied in the epoch), since both
//     caches keep exact dirty lists, not O(entries cached). All
//     journal and device work runs outside it, concurrently with new
//     operations dirtying the next epoch.
//   - commit_mu_/commit_cv_: the group-commit engine. fsync/sync joins
//     the open epoch and waits for *that epoch's* durability; concurrent
//     fsyncs collapse into one journal transaction (one thread becomes
//     the committer and writes it, the rest wait on the cv), so at most
//     one transaction is in flight. Checkpointing runs off the commit
//     critical path, after waiters are already released.
//   - namespace_mu_ (shared_mutex): path resolution shared, namespace
//     mutations (create/unlink/mkdir/rmdir/rename/link/symlink) exclusive.
//   - per-inode shared_mutex (LockTable): file data ops.
//   - alloc_mu_: inode/block allocators.
// Lock order: op_gate_ -> namespace_mu_ -> inode lock -> alloc_mu_.
// commit_mu_ is never held while acquiring op_gate_ or a shard lock is
// held.
//
// POSIX divergences (shared by base, shadow, and the test oracle):
//   - symlinks are never followed during path walks (lookup == lstat);
//   - unlink frees the inode immediately even if a descriptor is open;
//     stale descriptors are detected via inode generations (kBadFd);
//   - atime is not updated on reads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "basefs/async_device.h"
#include "blockdev/block_device.h"
#include "cache/block_cache.h"
#include "cache/dentry_cache.h"
#include "cache/inode_cache.h"
#include "common/clock.h"
#include "common/result.h"
#include "common/stats.h"
#include "common/warn.h"
#include "faults/bug_registry.h"
#include "format/bitmap.h"
#include "format/dirent.h"
#include "format/inode.h"
#include "format/superblock.h"
#include "journal/journal.h"
#include "obs/metrics.h"
#include "oplog/op.h"

namespace raefs {

struct MkfsOptions {
  uint64_t total_blocks = 4096;
  uint64_t inode_count = 1024;
  uint64_t journal_blocks = 128;
};

struct BaseFsOptions {
  size_t block_cache_blocks = 1024;
  size_t dentry_cache_entries = 4096;
  int async_workers = 2;
  bool use_dentry_cache = true;
  bool use_inode_cache = true;
  /// Detection enhancement (paper §3.1): structurally validate all dirty
  /// metadata before it can persist; a failure panics (and is then
  /// recoverable by RAE from the unpersisted-state log).
  bool validate_on_sync = true;
  /// Worker threads for the bulk install's parallel in-place apply
  /// (install_blocks, the recovery download). 0 = auto: derive from the
  /// device's probed effective queue depth (blockdev/qdepth_probe.h).
  uint32_t install_workers = 1;
};

struct BaseFsStats {
  uint64_t ops = 0;
  uint64_t commits = 0;
  uint64_t checkpoints = 0;
  uint64_t journal_replays_at_mount = 0;
  uint64_t block_cache_hits = 0;
  uint64_t block_cache_misses = 0;
  uint64_t block_cache_cow_clones = 0;
  uint64_t block_cache_bytes_copied = 0;
  uint64_t dentry_hits = 0;
  uint64_t dentry_misses = 0;
  uint64_t inode_cache_hits = 0;
  uint64_t inode_cache_misses = 0;
  uint64_t extent_walks = 0;
  uint64_t extent_hint_hits = 0;

  /// The cache-efficiency counters as a named CounterSet for experiment
  /// reporting (CLI, benches).
  CounterSet to_counters() const;
};

class BaseFs {
 public:
  /// Format `dev` with a fresh empty filesystem.
  static Status mkfs(BlockDevice* dev, const MkfsOptions& opts);

  /// Mount: validates the superblock, replays the journal if the previous
  /// mount did not unmount cleanly, marks the filesystem mounted.
  /// `bugs` and `warns` may be null (no injection / WARNs dropped).
  /// `replay_workers` is Journal::replay's worker count for that replay;
  /// 1 keeps the serial reference path (the contained reboot passes the
  /// recovery's resolved count).
  static Result<std::unique_ptr<BaseFs>> mount(BlockDevice* dev,
                                               const BaseFsOptions& opts,
                                               SimClockPtr clock = nullptr,
                                               BugRegistry* bugs = nullptr,
                                               WarnSink* warns = nullptr,
                                               uint32_t replay_workers = 1);

  /// Commit, checkpoint, mark the superblock clean. The object is
  /// unusable afterwards.
  Status unmount();

  /// Destructor performs NO write-back: a destroyed-without-unmount BaseFs
  /// models a crashed/contained-rebooted instance whose in-memory state
  /// is discarded (paper: all base memory is untrusted after an error).
  ~BaseFs();

  BaseFs(const BaseFs&) = delete;
  BaseFs& operator=(const BaseFs&) = delete;

  // --- Namespace operations (absolute '/'-separated paths) -------------
  Result<Ino> lookup(std::string_view path);
  Result<Ino> create(std::string_view path, uint16_t mode);
  Result<Ino> mkdir(std::string_view path, uint16_t mode);
  Status unlink(std::string_view path);
  Status rmdir(std::string_view path);
  Status rename(std::string_view src, std::string_view dst);
  Status link(std::string_view existing, std::string_view newpath);
  Result<Ino> symlink(std::string_view linkpath, std::string_view target);
  Result<std::string> readlink(std::string_view path);
  Result<std::vector<DirEntry>> readdir(std::string_view path);
  Result<StatResult> stat(std::string_view path);
  Result<StatResult> stat_ino(Ino ino);

  // --- Data operations (fd style: inode + generation guard) ------------
  Result<std::vector<uint8_t>> read(Ino ino, uint64_t gen, FileOff off,
                                    uint64_t len);
  Result<uint64_t> write(Ino ino, uint64_t gen, FileOff off,
                         std::span<const uint8_t> data);
  Status truncate(Ino ino, uint64_t gen, uint64_t new_size);
  Status fsync(Ino ino);
  Status sync();

  // --- RAE integration --------------------------------------------------
  /// Tag the next operation with its op-log sequence number (called by the
  /// supervisor, which serializes mutating ops). The durable callback
  /// reports the highest tagged seq whose effects have become durable.
  void set_current_op_seq(Seq seq) { current_op_seq_.store(seq); }
  void set_durable_callback(std::function<void(Seq)> cb) {
    durable_cb_ = std::move(cb);
  }

  /// Metadata download (paper §3.2 hand-off): durably install the
  /// shadow's output blocks. After a quiesce commit (where an empty set
  /// returns), journal_and_apply_ journals the set as ONE transaction
  /// (atomic under power cuts: replay yields either the pre-install or
  /// the fully-installed image), writes it in place across
  /// BaseFsOptions::install_workers threads and checkpoints. Errors are
  /// returned; the supervisor's download retry remounts (the mount's
  /// replay clears a torn install) and installs again.
  Status install_blocks(const std::vector<InstallBlock>& blocks);

  // --- Introspection ----------------------------------------------------
  BaseFsStats stats() const;
  uint64_t free_blocks() const { return free_blocks_.load(); }
  uint64_t free_inodes() const { return free_inodes_.load(); }
  const Geometry& geometry() const { return geo_; }

 private:
  BaseFs(BlockDevice* dev, const BaseFsOptions& opts, SimClockPtr clock,
         BugRegistry* bugs, WarnSink* warns, const Superblock& sb,
         const Geometry& geo);

  // -- bug-injection plumbing -------------------------------------------
  /// Evaluate the registry at `site`; Crash bugs panic, Warn bugs hit the
  /// sink, Corrupt bugs run `corrupt` (if provided).
  void bug_site(std::string_view site, OpKind op, std::string_view path,
                Ino ino, FileOff offset, uint64_t len,
                const std::function<void()>& corrupt = {});
  void charge_op();

  // -- inode helpers (base_fs.cc / base_io.cc) ---------------------------
  Result<DiskInode> get_inode(Ino ino);
  void put_inode(Ino ino, const DiskInode& inode);
  Status flush_inode_cache_locked();
  std::shared_mutex& inode_lock(Ino ino);

  // -- allocators ---------------------------------------------------------
  Result<Ino> alloc_inode(FileType type, uint16_t mode);
  Status free_inode(Ino ino);
  Result<BlockNo> alloc_block();
  Status free_block(BlockNo block);
  Status bitmap_set(BlockNo bitmap_start, uint64_t index, bool value,
                    const char* what);
  Result<bool> bitmap_test(BlockNo bitmap_start, uint64_t index);

  // -- block mapping (base_io.cc) ----------------------------------------
  /// A run of contiguous file blocks mapped to contiguous disk blocks.
  /// disk_block == 0 marks a hole run (unmapped blocks read as zeros).
  struct Extent {
    uint64_t file_block = 0;
    BlockNo disk_block = 0;
    uint64_t len = 0;  // in blocks
  };

  /// Map file block -> device block; allocates (and zeroes) missing blocks
  /// when `alloc`. Returns 0 for unmapped holes when !alloc.
  Result<BlockNo> map_block(DiskInode* inode, uint64_t file_block, bool alloc);

  /// Batched, non-allocating mapping walk: yields the extents covering
  /// [first_fb, first_fb + count) with ONE pass over the direct /
  /// indirect / double-indirect pointers (each pointer block is read at
  /// most once, vs once per file block for repeated map_block calls).
  /// Serves fully-mapped ranges from the per-inode extent hint when the
  /// hint is still valid (no note_mutation() since it was recorded).
  Result<std::vector<Extent>> map_range(Ino ino, const DiskInode& inode,
                                        uint64_t first_fb, uint64_t count);
  Status free_file_blocks(DiskInode* inode, uint64_t keep_blocks);

  // -- path resolution (base_ops.cc) --------------------------------------
  Result<Ino> resolve(std::string_view path);
  struct ParentRef {
    Ino parent = kInvalidIno;
    std::string leaf;
  };
  Result<ParentRef> resolve_parent(std::string_view path);
  Result<std::optional<DirEntry>> dir_find(Ino dir_ino, const DiskInode& dir,
                                           std::string_view name);
  Status dir_insert(Ino dir_ino, DiskInode* dir, const DirEntry& entry,
                    std::string_view full_path);
  Status dir_remove(Ino dir_ino, DiskInode* dir, std::string_view name);
  Result<bool> dir_empty(const DiskInode& dir);
  Result<Ino> create_common(OpKind op, std::string_view path, uint16_t mode,
                            FileType type, std::string_view symlink_target);

  // -- transactions (base_txn.cc) -----------------------------------------
  /// Group commit: waits until every epoch <= the currently open epoch is
  /// durable (equivalent to commit_upto(epoch_open_, force_checkpoint)).
  Status commit_txn(bool force_checkpoint);
  /// Waits until epochs <= target_epoch are durable (or one of them
  /// failed), becoming the committer whenever no other thread is one.
  Status commit_upto(uint64_t target_epoch, bool force_checkpoint);
  /// One committer cycle: rotate the open epoch under op_gate_, write the
  /// closed epoch's delta with write_delta_, and record the epoch durable
  /// or failed. Entered and left with `lk` (commit_mu_) held and
  /// committer_busy_ set by the caller; the IO runs with `lk` released.
  void commit_cycle_(std::unique_lock<std::mutex>& lk);
  /// Make one closed epoch's delta durable and return once it is or has
  /// failed: a data-only delta is written back and flushed; metadata
  /// commits as one journal transaction (checkpointing first if it does
  /// not fit the free area) with the data written in place alongside it.
  /// No write of the epoch is in flight on return. `revokes` is cleared
  /// when a checkpoint makes them moot.
  Status write_delta_(uint64_t upto, const std::vector<JournalRecord>& meta,
                      std::vector<std::pair<BlockNo, BlockBufPtr>> data,
                      std::vector<BlockNo>* revokes);
  /// Checkpoint entry point used after a commit (off the critical path):
  /// acquires committer exclusivity.
  Status checkpoint_now_locked(std::unique_lock<std::mutex>& lk, bool force);
  /// Writes the shadow copies of journaled blocks in place and truncates
  /// the journal. The caller holds committer exclusivity, so no
  /// transaction is in flight; commit_mu_ must NOT be held.
  Status checkpoint_core_();
  /// On an empty journal region (so no revoke is needed):
  /// Journal::commit `records`, write them in place across `workers`
  /// threads, flush, checkpoint. A set larger than the region splits into
  /// region-sized transactions, each applied and checkpointed before the
  /// next.
  Status journal_and_apply_(const std::vector<JournalRecord>& records,
                            uint32_t workers);
  /// Structural checks on one block before it may persist; `cls`
  /// classifies a data-region block.
  Status validate_block_(BlockNo block, BlockClass cls,
                         const BlockBuf& bytes) const;
  /// validate_block_ over a delta (classes from meta_blocks_), plus the
  /// bitmap-vs-free-counter cross-check.
  Status validate_dirty_locked(
      const std::vector<std::pair<BlockNo, BlockBufPtr>>& dirty);
  /// Submit `blocks` to the async layer as coalesced contiguous-run
  /// writes; `on_each` fires once per run completion.
  void submit_writeback_runs(std::vector<std::pair<BlockNo, BlockBufPtr>> blocks,
                             const std::function<void(Status)>& on_each);
  /// submit_writeback_runs + drain (synchronous write-back).
  Status writeback_coalesced(
      const std::vector<std::pair<BlockNo, BlockBufPtr>>& blocks);
  Status write_superblock(FsState state);

  bool is_meta_block(BlockNo b) const;
  void note_meta_block(BlockNo b, BlockClass cls);
  /// Take (and clear) the pending revoke set, sorted for deterministic
  /// on-disk descriptors. Called inside the epoch rotation gate.
  std::vector<BlockNo> take_pending_revokes_();
  /// Put revokes back after a failed or revoke-less commit attempt so the
  /// next journal transaction carries them. Blocks reallocated as metadata
  /// in the meantime are dropped (their fresh copy must replay).
  void return_pending_revokes_(const std::vector<BlockNo>& revokes);
  void note_mutation();
  Status reload_counters();
  /// The two halves of reload_counters, so the bulk install can rescan
  /// only the bitmap class it actually touched.
  Status reload_free_blocks_();
  Status reload_free_inodes_();

  // -- metadata download (base_txn.cc) ------------------------------------
  /// Record every data-region metadata block in `blocks` under ONE
  /// meta_blocks_mu_ acquisition (the bulk install's batched
  /// note_meta_block).
  void note_meta_blocks_batch_(const std::vector<InstallBlock>& blocks);
  /// Invalidate only the derived state the installed set can affect:
  /// free-block counter iff block-bitmap blocks were installed, free-inode
  /// counter iff inode-bitmap blocks, inode cache iff inode-table blocks,
  /// dentry cache iff inode-table or directory-metadata blocks.
  Status invalidate_for_install_(const std::vector<InstallBlock>& blocks);

  // -- members -------------------------------------------------------------
  BlockDevice* dev_;
  BaseFsOptions opts_;
  SimClockPtr clock_;
  BugRegistry* bugs_;    // may be null
  WarnSink* warns_;      // may be null
  Superblock sb_;
  Geometry geo_;

  BlockCache block_cache_;
  InodeCache inode_cache_;
  DentryCache dentry_cache_;
  AsyncBlockDevice async_;
  Journal journal_;

  std::shared_mutex op_gate_;
  std::shared_mutex namespace_mu_;
  std::mutex alloc_mu_;
  std::mutex inode_locks_mu_;
  std::unordered_map<Ino, std::unique_ptr<std::shared_mutex>> inode_locks_;

  // Blocks in the data region that hold directory/indirect (journaled)
  // content rather than file data.
  mutable std::mutex meta_blocks_mu_;
  std::unordered_map<BlockNo, BlockClass> meta_blocks_;
  // Journaled-metadata blocks freed since the last epoch rotation. The
  // next journal transaction carries them as revoke records so crash
  // replay cannot resurrect their stale journaled copies over blocks
  // reallocated as file data (see journal.h). note_meta_block cancels a
  // pending revoke (the block is metadata again and its fresh copy will
  // be journaled); the commit path drops revokes for blocks re-journaled
  // by the same transaction.
  std::unordered_set<BlockNo> pending_revokes_;

  // Per-inode extent hint: the last mapped run map_range() saw, tagged
  // with the mutation epoch it was recorded under. note_mutation() bumps
  // the epoch, which invalidates every hint at once (conservative: any
  // metadata mutation anywhere kills all hints, so a hint can never serve
  // a stale mapping).
  struct ExtentHint {
    Extent ext;
    uint64_t epoch = 0;
  };
  mutable std::mutex extent_hint_mu_;
  std::unordered_map<Ino, ExtentHint> extent_hints_;
  std::atomic<uint64_t> mutation_epoch_{0};
  std::atomic<uint64_t> extent_walks_{0};
  std::atomic<uint64_t> extent_hint_hits_{0};

  std::atomic<uint64_t> free_blocks_{0};
  std::atomic<uint64_t> free_inodes_{0};
  std::atomic<uint64_t> alloc_block_hint_{0};
  std::atomic<uint64_t> alloc_ino_hint_{0};

  std::atomic<Seq> current_op_seq_{0};
  std::atomic<Seq> max_dirty_seq_{0};
  std::function<void(Seq)> durable_cb_;

  // -- group-commit engine (base_txn.cc) ---------------------------------
  // commit_mu_ guards the epoch watermarks, committer_busy_ and
  // durable_class_. epoch_open_ is additionally published through the
  // block cache so ops tag dirty blocks lock-free. Invariant while no
  // committer is busy: a dirty block tagged <= epoch_durable_ is journaled
  // metadata waiting for a checkpoint; every other dirty block, a failed
  // epoch's included, is tagged above epoch_durable_.
  std::mutex commit_mu_;
  std::condition_variable commit_cv_;
  bool committer_busy_ = false;      // one committer (or checkpoint) at a time
  std::atomic<uint64_t> epoch_open_{1};
  uint64_t epoch_durable_ = 0;       // highest epoch proven durable
  uint64_t epoch_failed_ = 0;        // highest epoch whose commit failed
  Status commit_error_ = Status::Ok();
  std::atomic<uint64_t> commit_waiters_{0};
  // Latest durable classification (true = file data written in place) of
  // every block touched by a committed transaction since the last
  // checkpoint, in commit order. The checkpointer re-reads write-back
  // content from the journal region itself (no retained cache handles, so
  // re-dirtying a journaled block costs no CoW clone) and uses this map to
  // skip journaled copies of blocks that were since freed and reallocated
  // as file data -- their in-place write supersedes the journal.
  std::unordered_map<BlockNo, bool> durable_class_;

  std::atomic<uint64_t> op_counter_{0};
  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> checkpoints_{0};
  uint64_t replays_at_mount_ = 0;
  std::atomic<bool> unmounted_{false};

  // Exports stats() into the global metrics registry for as long as this
  // instance may be sampled; reset explicitly at the top of ~BaseFs so a
  // snapshot can never observe a partially destroyed filesystem.
  obs::MetricsRegistry::CollectorHandle obs_collector_;

  friend class BaseFsTestPeer;
};

}  // namespace raefs
