#include "basefs/base_fs.h"

#include <cstring>

#include "common/log.h"
#include "obs/flight_recorder.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace raefs {

namespace {

// Lock shards of the block, inode and dentry caches.
constexpr int kCacheShards = 8;
// Simulated CPU cost charged per operation.
constexpr Nanos kOpCpuCost = 300;

std::vector<uint8_t> zero_block() {
  return std::vector<uint8_t>(kBlockSize, 0);
}
}  // namespace

// ---------------------------------------------------------------------------
// mkfs
// ---------------------------------------------------------------------------

Status BaseFs::mkfs(BlockDevice* dev, const MkfsOptions& opts) {
  if (dev->block_count() < opts.total_blocks) return Errno::kInval;
  RAEFS_TRY(Geometry geo, compute_geometry(opts.total_blocks,
                                           opts.inode_count,
                                           opts.journal_blocks));

  // Zero all metadata regions.
  auto zeros = zero_block();
  for (BlockNo b = 1; b < geo.data_start; ++b) {
    RAEFS_TRY_VOID(dev->write_block(b, zeros));
  }

  // Block bitmap: everything below data_start is owned by metadata.
  {
    std::vector<uint8_t> bitmap(geo.block_bitmap_blocks * kBlockSize, 0);
    BitmapView view(bitmap, geo.total_blocks);
    for (BlockNo b = 0; b < geo.data_start; ++b) view.set(b);
    for (uint64_t i = 0; i < geo.block_bitmap_blocks; ++i) {
      RAEFS_TRY_VOID(dev->write_block(
          geo.block_bitmap_start + i,
          std::span<const uint8_t>(bitmap.data() + i * kBlockSize,
                                   kBlockSize)));
    }
  }

  // Inode bitmap: root inode allocated. Bit i corresponds to ino i+1.
  {
    std::vector<uint8_t> bitmap(geo.inode_bitmap_blocks * kBlockSize, 0);
    BitmapView view(bitmap, geo.inode_count);
    view.set(kRootIno - 1);
    for (uint64_t i = 0; i < geo.inode_bitmap_blocks; ++i) {
      RAEFS_TRY_VOID(dev->write_block(
          geo.inode_bitmap_start + i,
          std::span<const uint8_t>(bitmap.data() + i * kBlockSize,
                                   kBlockSize)));
    }
  }

  // Inode table: CRC-sealed free inodes everywhere, root directory in slot 0.
  {
    std::vector<uint8_t> table_block(kBlockSize, 0);
    DiskInode free_inode;  // type kNone, all zero
    for (uint32_t slot = 0; slot < kInodesPerBlock; ++slot) {
      inode_into_table_block(table_block, slot, free_inode);
    }
    for (uint64_t i = 0; i < geo.inode_table_blocks; ++i) {
      RAEFS_TRY_VOID(dev->write_block(geo.inode_table_start + i, table_block));
    }

    DiskInode root;
    root.type = FileType::kDirectory;
    root.mode = 0755;
    root.nlink = 2;
    root.generation = 1;
    RAEFS_TRY_VOID(dev->read_block(geo.inode_block(kRootIno), table_block));
    inode_into_table_block(table_block, geo.inode_slot(kRootIno), root);
    RAEFS_TRY_VOID(dev->write_block(geo.inode_block(kRootIno), table_block));
  }

  RAEFS_TRY_VOID(Journal::format(dev, geo));

  Superblock sb;
  sb.total_blocks = opts.total_blocks;
  sb.inode_count = opts.inode_count;
  sb.journal_blocks = opts.journal_blocks;
  sb.state = FsState::kClean;
  RAEFS_TRY_VOID(dev->write_block(0, sb.encode()));
  return dev->flush();
}

// ---------------------------------------------------------------------------
// mount / unmount
// ---------------------------------------------------------------------------

BaseFs::BaseFs(BlockDevice* dev, const BaseFsOptions& opts, SimClockPtr clock,
               BugRegistry* bugs, WarnSink* warns, const Superblock& sb,
               const Geometry& geo)
    : dev_(dev),
      opts_(opts),
      clock_(std::move(clock)),
      bugs_(bugs),
      warns_(warns),
      sb_(sb),
      geo_(geo),
      block_cache_(dev, opts.block_cache_blocks, kCacheShards),
      inode_cache_(kCacheShards),
      dentry_cache_(opts.dentry_cache_entries, kCacheShards),
      async_(dev, opts.async_workers),
      journal_(dev, geo) {}

Result<std::unique_ptr<BaseFs>> BaseFs::mount(BlockDevice* dev,
                                              const BaseFsOptions& opts,
                                              SimClockPtr clock,
                                              BugRegistry* bugs,
                                              WarnSink* warns,
                                              uint32_t replay_workers) {
  std::vector<uint8_t> sb_block(kBlockSize);
  RAEFS_TRY_VOID(dev->read_block(0, sb_block));
  RAEFS_TRY(Superblock sb, Superblock::decode(sb_block));
  RAEFS_TRY(Geometry geo, sb.geometry());

  uint64_t replays = 0;
  if (sb.state == FsState::kMounted) {
    // Unclean previous mount: crash recovery via journal replay.
    obs::TraceSpan rspan(obs::kSpanJournalReplay, clock.get());
    RAEFS_TRY(ReplayResult rr, Journal::replay(dev, geo, replay_workers));
    replays = rr.applied_txns;
    obs::flight().record(obs::Component::kJournal, "replay", "",
                         clock ? clock->now() : 0, rr.applied_txns,
                         rr.applied_blocks);
  }

  std::unique_ptr<BaseFs> fs(
      new BaseFs(dev, opts, std::move(clock), bugs, warns, sb, geo));
  fs->replays_at_mount_ = replays;
  RAEFS_TRY_VOID(fs->journal_.open());
  RAEFS_TRY_VOID(fs->reload_counters());
  RAEFS_TRY_VOID(fs->write_superblock(FsState::kMounted));
  // Export this instance's stats under the canonical namespace; multiple
  // mounted instances sum.
  BaseFs* raw = fs.get();
  fs->obs_collector_ = obs::metrics().register_collector(
      [raw](obs::MetricsSink& sink) {
        BaseFsStats s = raw->stats();
        sink.counter(obs::kMBaseOps, s.ops);
        sink.counter(obs::kMBaseCommits, s.commits);
        sink.counter(obs::kMBaseCheckpoints, s.checkpoints);
        sink.counter(obs::kMBaseJournalReplays, s.journal_replays_at_mount);
        sink.counter(obs::kMBaseCacheHits, s.block_cache_hits);
        sink.counter(obs::kMBaseCacheMisses, s.block_cache_misses);
        sink.counter(obs::kMBaseCacheCowClones, s.block_cache_cow_clones);
        sink.counter(obs::kMBaseCacheBytesCopied, s.block_cache_bytes_copied);
        sink.counter(obs::kMBaseDentryHits, s.dentry_hits);
        sink.counter(obs::kMBaseDentryMisses, s.dentry_misses);
        sink.counter(obs::kMBaseInodeCacheHits, s.inode_cache_hits);
        sink.counter(obs::kMBaseInodeCacheMisses, s.inode_cache_misses);
        sink.counter(obs::kMBaseExtentWalks, s.extent_walks);
        sink.counter(obs::kMBaseExtentHintHits, s.extent_hint_hits);
        sink.gauge(obs::kMBaseFreeBlocks,
                   static_cast<int64_t>(raw->free_blocks()));
        sink.gauge(obs::kMBaseFreeInodes,
                   static_cast<int64_t>(raw->free_inodes()));
      });
  obs::flight().record(obs::Component::kBaseFs, "mount",
                       replays != 0 ? "unclean (journal replayed)" : "clean",
                       raw->clock_ ? raw->clock_->now() : 0, replays);
  return fs;
}

Status BaseFs::reload_counters() {
  RAEFS_TRY_VOID(reload_free_blocks_());
  return reload_free_inodes_();
}

Status BaseFs::reload_free_blocks_() {
  uint64_t free_b = 0;
  for (uint64_t i = 0; i < geo_.block_bitmap_blocks; ++i) {
    RAEFS_TRY(auto data, block_cache_.read(geo_.block_bitmap_start + i));
    uint64_t bits_here = std::min<uint64_t>(
        kBitsPerBlock, geo_.total_blocks - i * kBitsPerBlock);
    ConstBitmapView view(data, bits_here);
    free_b += bits_here - view.count_set();
  }
  free_blocks_.store(free_b);
  return Status::Ok();
}

Status BaseFs::reload_free_inodes_() {
  uint64_t free_i = 0;
  for (uint64_t i = 0; i < geo_.inode_bitmap_blocks; ++i) {
    RAEFS_TRY(auto data, block_cache_.read(geo_.inode_bitmap_start + i));
    uint64_t bits_here = std::min<uint64_t>(
        kBitsPerBlock, geo_.inode_count - i * kBitsPerBlock);
    ConstBitmapView view(data, bits_here);
    free_i += bits_here - view.count_set();
  }
  free_inodes_.store(free_i);
  return Status::Ok();
}

Status BaseFs::write_superblock(FsState state) {
  sb_.state = state;
  if (state == FsState::kMounted) ++sb_.mount_count;
  RAEFS_TRY_VOID(dev_->write_block(0, sb_.encode()));
  return dev_->flush();
}

Status BaseFs::unmount() {
  if (unmounted_.exchange(true)) return Errno::kInval;
  RAEFS_TRY_VOID(commit_txn(/*force_checkpoint=*/true));
  async_.drain();
  RAEFS_TRY_VOID(write_superblock(FsState::kClean));
  async_.shutdown();
  obs::flight().record(obs::Component::kBaseFs, "unmount", "clean",
                       clock_ ? clock_->now() : 0);
  return Status::Ok();
}

BaseFs::~BaseFs() {
  // Deregister before any member dies; a concurrent snapshot serializes
  // against this under the registry lock.
  obs_collector_.reset();
  // Intentionally no write-back: see header comment (contained reboot
  // discards all in-memory state).
  async_.shutdown();
}

// ---------------------------------------------------------------------------
// bug injection and accounting
// ---------------------------------------------------------------------------

void BaseFs::bug_site(std::string_view site, OpKind op, std::string_view path,
                      Ino ino, FileOff offset, uint64_t len,
                      const std::function<void()>& corrupt) {
  if (bugs_ == nullptr) return;
  BugContext ctx;
  ctx.site = site;
  ctx.op = op;
  ctx.path = path;
  ctx.ino = ino;
  ctx.offset = offset;
  ctx.len = len;
  ctx.op_index = op_counter_.load(std::memory_order_relaxed);
  auto fired = bugs_->check(ctx);
  if (!fired) return;
  switch (fired->consequence) {
    case BugConsequence::kCrash:
      fs_panic(FaultSite{std::string(site), fired->description, fired->id});
    case BugConsequence::kWarn:
      if (warns_ != nullptr) {
        warns_->warn(FaultSite{std::string(site), fired->description,
                               fired->id});
      }
      break;
    case BugConsequence::kCorrupt:
    case BugConsequence::kWrongResult:
      if (corrupt) corrupt();
      break;
  }
}

void BaseFs::charge_op() {
  op_counter_.fetch_add(1, std::memory_order_relaxed);
  if (clock_) clock_->advance(kOpCpuCost);
}

void BaseFs::note_mutation() {
  // Any metadata mutation may change block mappings; retire all cached
  // extent hints by bumping the global epoch (conservative but cheap).
  mutation_epoch_.fetch_add(1, std::memory_order_release);
  Seq seq = current_op_seq_.load(std::memory_order_relaxed);
  Seq prev = max_dirty_seq_.load(std::memory_order_relaxed);
  while (seq > prev &&
         !max_dirty_seq_.compare_exchange_weak(prev, seq,
                                               std::memory_order_relaxed)) {
  }
}

// ---------------------------------------------------------------------------
// inode access
// ---------------------------------------------------------------------------

std::shared_mutex& BaseFs::inode_lock(Ino ino) {
  std::lock_guard<std::mutex> lk(inode_locks_mu_);
  auto& slot = inode_locks_[ino];
  if (!slot) slot = std::make_unique<std::shared_mutex>();
  return *slot;
}

Result<DiskInode> BaseFs::get_inode(Ino ino) {
  BASE_BUG_ON(!geo_.ino_valid(ino), "BaseFs::get_inode",
              "inode number out of range");
  if (opts_.use_inode_cache) {
    if (auto cached = inode_cache_.get(ino)) return *cached;
  }
  // Decode + CRC of a 256-byte inode out of its table block: the CPU work
  // the inode cache exists to avoid.
  if (clock_) clock_->advance(1 * kMicro);
  RAEFS_TRY(auto block, block_cache_.read(geo_.inode_block(ino)));
  auto decoded = inode_from_table_block(block, geo_.inode_slot(ino), geo_);
  // A malformed on-disk inode is exactly the crafted-image crash class
  // from the paper (§2.1): the base has no graceful path and oopses.
  BASE_BUG_ON(!decoded.ok(), "BaseFs::get_inode",
              "on-disk inode failed validation (corrupt or crafted image)");
  if (opts_.use_inode_cache) {
    // stat_ino holds no inode lock, so its fill can land after a writer
    // has filled, changed and dirtied this inode; a fill inserts only if
    // absent, so the writer's copy stays.
    inode_cache_.put(ino, decoded.value(), /*dirty=*/false);
  }
  return decoded.value();
}

void BaseFs::put_inode(Ino ino, const DiskInode& inode) {
  if (opts_.use_inode_cache) {
    // Unchanged-inode elision: a steady-state overwrite (size, mapping and
    // timestamps all identical) must not dirty metadata. Dirtying it would
    // turn a data-only epoch (one barrier flush) into a full journal
    // transaction (payload + commit record + two flushes) on every fsync.
    if (auto cached = inode_cache_.get(ino); cached && *cached == inode) {
      return;
    }
    note_mutation();
    inode_cache_.put(ino, inode, /*dirty=*/true);
    return;
  }
  note_mutation();
  // Write through to the inode-table block immediately.
  Status st = block_cache_.modify(geo_.inode_block(ino),
                                  [&](std::span<uint8_t> block) {
                                    inode_into_table_block(
                                        block, geo_.inode_slot(ino), inode);
                                  });
  BASE_BUG_ON(!st.ok(), "BaseFs::put_inode", "inode write-through failed");
}

Status BaseFs::flush_inode_cache_locked() {
  for (const auto& [ino, inode] : inode_cache_.dirty_snapshot()) {
    RAEFS_TRY_VOID(block_cache_.modify(
        geo_.inode_block(ino), [&, ino = ino, inode = inode](std::span<uint8_t> block) {
          inode_into_table_block(block, geo_.inode_slot(ino), inode);
        }));
    inode_cache_.mark_clean(ino);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// allocators
// ---------------------------------------------------------------------------

Status BaseFs::bitmap_set(BlockNo bitmap_start, uint64_t index, bool value,
                          const char* what) {
  BlockNo block = bitmap_start + index / kBitsPerBlock;
  uint64_t bit = index % kBitsPerBlock;
  return block_cache_.modify(block, [&](std::span<uint8_t> data) {
    BitmapView view(data, kBitsPerBlock);
    BASE_BUG_ON(view.test(bit) == value, "BaseFs::bitmap_set", what);
    if (value) {
      view.set(bit);
    } else {
      view.clear(bit);
    }
  });
}

Result<bool> BaseFs::bitmap_test(BlockNo bitmap_start, uint64_t index) {
  BlockNo block = bitmap_start + index / kBitsPerBlock;
  uint64_t bit = index % kBitsPerBlock;
  RAEFS_TRY(auto data, block_cache_.read(block));
  ConstBitmapView view(data, kBitsPerBlock);
  return view.test(bit);
}

Result<Ino> BaseFs::alloc_inode(FileType type, uint16_t mode) {
  std::lock_guard<std::mutex> lk(alloc_mu_);
  if (free_inodes_.load() == 0) return Errno::kNoSpace;

  uint64_t hint = alloc_ino_hint_.load();
  for (uint64_t probe = 0; probe < geo_.inode_count; ) {
    uint64_t index = (hint + probe) % geo_.inode_count;
    BlockNo bm_block = geo_.inode_bitmap_start + index / kBitsPerBlock;
    RAEFS_TRY(auto data, block_cache_.read(bm_block));
    uint64_t bits_here = std::min<uint64_t>(
        kBitsPerBlock, geo_.inode_count - (index / kBitsPerBlock) * kBitsPerBlock);
    ConstBitmapView view(data, bits_here);
    auto clear = view.find_clear(index % kBitsPerBlock);
    if (!clear) {
      // Advance to the next bitmap block.
      probe += bits_here - (index % kBitsPerBlock);
      continue;
    }
    uint64_t index_found = (index / kBitsPerBlock) * kBitsPerBlock + *clear;
    if (index_found >= geo_.inode_count) {
      probe += bits_here - (index % kBitsPerBlock);
      continue;
    }
    Ino ino = index_found + 1;

    // Preserve the generation across reuse. The freed inode may still sit
    // unflushed in the inode cache, so read through it before falling back
    // to the table block.
    DiskInode old_inode;
    if (auto cached = inode_cache_.get(ino)) {
      old_inode = *cached;
    } else {
      RAEFS_TRY(auto table, block_cache_.read(geo_.inode_block(ino)));
      auto old = DiskInode::decode_raw(std::span<const uint8_t>(table).subspan(
          geo_.inode_slot(ino) * kInodeSize, kInodeSize));
      BASE_BUG_ON(!old.ok(), "BaseFs::alloc_inode", "free inode slot corrupt");
      old_inode = old.value();
    }
    BASE_BUG_ON(old_inode.in_use(), "BaseFs::alloc_inode",
                "bitmap/table disagree: free bit but used inode");

    RAEFS_TRY_VOID(bitmap_set(geo_.inode_bitmap_start, index_found, true,
                              "inode double-allocation"));
    DiskInode fresh;
    fresh.type = type;
    fresh.mode = mode;
    fresh.nlink = type == FileType::kDirectory ? 2 : 1;
    fresh.generation = old_inode.generation + 1;
    Nanos now = clock_ ? clock_->now() : 0;
    fresh.atime = fresh.mtime = fresh.ctime = now;
    put_inode(ino, fresh);

    free_inodes_.fetch_sub(1);
    alloc_ino_hint_.store(index_found + 1);
    return ino;
  }
  return Errno::kNoSpace;
}

Status BaseFs::free_inode(Ino ino) {
  std::lock_guard<std::mutex> lk(alloc_mu_);
  RAEFS_TRY(DiskInode inode, get_inode(ino));
  DiskInode freed;  // all zero except generation
  freed.generation = inode.generation;
  put_inode(ino, freed);
  RAEFS_TRY_VOID(bitmap_set(geo_.inode_bitmap_start, ino - 1, false,
                            "inode double-free"));
  free_inodes_.fetch_add(1);
  return Status::Ok();
}

Result<BlockNo> BaseFs::alloc_block() {
  std::lock_guard<std::mutex> lk(alloc_mu_);
  if (free_blocks_.load() == 0) return Errno::kNoSpace;

  uint64_t data_span = geo_.total_blocks - geo_.data_start;
  uint64_t hint = alloc_block_hint_.load();
  for (uint64_t probe = 0; probe < data_span;) {
    uint64_t rel = (hint + probe) % data_span;
    uint64_t index = geo_.data_start + rel;
    BlockNo bm_block = geo_.block_bitmap_start + index / kBitsPerBlock;
    RAEFS_TRY(auto data, block_cache_.read(bm_block));
    uint64_t block_base = (index / kBitsPerBlock) * kBitsPerBlock;
    uint64_t bits_here =
        std::min<uint64_t>(kBitsPerBlock, geo_.total_blocks - block_base);
    ConstBitmapView view(data, bits_here);
    auto clear = view.find_clear(index % kBitsPerBlock);
    if (!clear || block_base + *clear >= geo_.total_blocks) {
      probe += bits_here - (index % kBitsPerBlock);
      continue;
    }
    uint64_t index_found = block_base + *clear;
    RAEFS_TRY_VOID(bitmap_set(geo_.block_bitmap_start, index_found, true,
                              "block double-allocation"));
    free_blocks_.fetch_sub(1);
    alloc_block_hint_.store(index_found - geo_.data_start + 1);
    return static_cast<BlockNo>(index_found);
  }
  return Errno::kNoSpace;
}

Status BaseFs::free_block(BlockNo block) {
  BASE_BUG_ON(!geo_.is_data_block(block), "BaseFs::free_block",
              "freeing a metadata block");
  std::lock_guard<std::mutex> lk(alloc_mu_);
  RAEFS_TRY_VOID(
      bitmap_set(geo_.block_bitmap_start, block, false, "block double-free"));
  free_blocks_.fetch_add(1);
  block_cache_.drop(block);
  {
    std::lock_guard<std::mutex> mlk(meta_blocks_mu_);
    if (meta_blocks_.erase(block) > 0) {
      // The journal may hold committed copies of this block; revoke them
      // so a crash replay cannot resurrect stale metadata over the block
      // once it is reallocated as file data.
      pending_revokes_.insert(block);
    }
  }
  return Status::Ok();
}

bool BaseFs::is_meta_block(BlockNo b) const {
  if (b < geo_.data_start) return true;
  std::lock_guard<std::mutex> lk(meta_blocks_mu_);
  return meta_blocks_.count(b) > 0;
}

void BaseFs::note_meta_block(BlockNo b, BlockClass cls) {
  if (cls == BlockClass::kFileData) return;
  std::lock_guard<std::mutex> lk(meta_blocks_mu_);
  meta_blocks_[b] = cls;
  // Reallocated as metadata before the revoke ever committed: the fresh
  // copy will be journaled, which must not be suppressed.
  pending_revokes_.erase(b);
}

std::vector<BlockNo> BaseFs::take_pending_revokes_() {
  std::lock_guard<std::mutex> lk(meta_blocks_mu_);
  std::vector<BlockNo> out(pending_revokes_.begin(), pending_revokes_.end());
  pending_revokes_.clear();
  std::sort(out.begin(), out.end());
  return out;
}

void BaseFs::return_pending_revokes_(const std::vector<BlockNo>& revokes) {
  if (revokes.empty()) return;
  std::lock_guard<std::mutex> lk(meta_blocks_mu_);
  for (BlockNo b : revokes) {
    if (meta_blocks_.count(b) > 0) continue;
    pending_revokes_.insert(b);
  }
}

// ---------------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------------

BaseFsStats BaseFs::stats() const {
  BaseFsStats s;
  s.ops = op_counter_.load();
  s.commits = commits_.load();
  s.checkpoints = checkpoints_.load();
  s.journal_replays_at_mount = replays_at_mount_;
  s.block_cache_hits = block_cache_.hits();
  s.block_cache_misses = block_cache_.misses();
  s.block_cache_cow_clones = block_cache_.cow_clones();
  s.block_cache_bytes_copied = block_cache_.bytes_copied();
  s.extent_walks = extent_walks_.load();
  s.extent_hint_hits = extent_hint_hits_.load();
  s.dentry_hits = dentry_cache_.hits();
  s.dentry_misses = dentry_cache_.misses();
  s.inode_cache_hits = inode_cache_.hits();
  s.inode_cache_misses = inode_cache_.misses();
  return s;
}

CounterSet BaseFsStats::to_counters() const {
  CounterSet c;
  c.add("ops", ops);
  c.add("commits", commits);
  c.add("checkpoints", checkpoints);
  c.add("block_cache_hits", block_cache_hits);
  c.add("block_cache_misses", block_cache_misses);
  c.add("cow_clones", block_cache_cow_clones);
  c.add("bytes_copied", block_cache_bytes_copied);
  c.add("dentry_hits", dentry_hits);
  c.add("dentry_misses", dentry_misses);
  c.add("inode_cache_hits", inode_cache_hits);
  c.add("inode_cache_misses", inode_cache_misses);
  c.add("extent_walks", extent_walks);
  c.add("extent_hint_hits", extent_hint_hits);
  return c;
}

}  // namespace raefs
