// Transaction engine of the base filesystem: epoch-based group commit.
// Operations tag the blocks they dirty with the open epoch; fsync/sync
// closes the open epoch (a brief rotation under op_gate_ that does no IO)
// and writes its dirty *delta* as one journal transaction. N concurrent
// fsyncs collapse into one transaction: one of them becomes the committer
// and writes it, the rest wait for its outcome, so at most one
// transaction is ever in flight. Checkpointing runs off the commit
// critical path. Validate-on-sync (the paper's detect-before-persist
// enhancement, §3.1) runs on each epoch's delta inside the rotation, and
// install_blocks absorbs the shadow's recovery output (§3.2).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "basefs/base_fs.h"
#include "blockdev/prefetch.h"
#include "blockdev/qdepth_probe.h"
#include "obs/flight_recorder.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace raefs {

namespace {

// Checkpoint (write journaled metadata in place) once the journal is
// fuller than this after a commit.
constexpr double kCheckpointFillThreshold = 0.5;

// Commit timing uses the sim clock when present (simulated ns, like every
// other _ns metric) and falls back to the monotonic clock in benches that
// run without one.
Nanos mono_now(const SimClock* clock) {
  if (clock != nullptr) return clock->now();
  return static_cast<Nanos>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

obs::Histogram& commit_wait_hist() {
  static obs::Histogram* h = &obs::metrics().histogram(obs::kMBaseCommitWaitNs);
  return *h;
}

obs::Histogram& group_ops_hist() {
  static obs::Histogram* h =
      &obs::metrics().histogram(obs::kMBaseCommitGroupOps);
  return *h;
}

obs::Histogram& commit_latency_hist() {
  static obs::Histogram* h =
      &obs::metrics().histogram(obs::kMJournalCommitLatencyNs);
  return *h;
}

}  // namespace

Status BaseFs::commit_txn(bool force_checkpoint) {
  return commit_upto(epoch_open_.load(std::memory_order_acquire),
                     force_checkpoint);
}

Status BaseFs::commit_upto(uint64_t target_epoch, bool force_checkpoint) {
  obs::TraceSpan span(obs::kSpanBaseCommit, clock_.get());
  commit_waiters_.fetch_add(1, std::memory_order_relaxed);
  Status st = Status::Ok();
  {
    std::unique_lock<std::mutex> lk(commit_mu_);
    for (;;) {
      // Durability first: an epoch that became durable satisfies this
      // waiter even if a *later* epoch has since failed.
      if (epoch_durable_ >= target_epoch) break;
      if (epoch_failed_ >= target_epoch) {
        st = commit_error_.ok() ? Status(Errno::kIo) : commit_error_;
        break;
      }
      if (!committer_busy_) {
        committer_busy_ = true;
        try {
          commit_cycle_(lk);
        } catch (...) {
          // validate-on-sync panics unwind to the RAE supervisor; leave
          // the engine usable for the waiters we strand.
          if (!lk.owns_lock()) lk.lock();
          committer_busy_ = false;
          lk.unlock();
          commit_cv_.notify_all();
          commit_waiters_.fetch_sub(1, std::memory_order_relaxed);
          throw;
        }
        // The cycle has returned, so its payload handles are gone before
        // any waiter wakes: a handle still held would force a copy-on-write
        // clone of the block a woken caller overwrites next.
        committer_busy_ = false;
        commit_cv_.notify_all();
        continue;  // the cycle recorded its epoch durable or failed
      }
      // Group commit: another thread is writing a transaction (or
      // checkpointing) -- wait for it; then either its epoch covered this
      // one or this thread commits next.
      const Nanos wait_from = mono_now(clock_.get());
      {
        obs::TraceSpan wait(obs::kSpanBaseCommitWait, clock_.get(), span.id());
        commit_cv_.wait(lk);
      }
      commit_wait_hist().record(mono_now(clock_.get()) - wait_from);
    }
  }
  commit_waiters_.fetch_sub(1, std::memory_order_relaxed);
  if (!st.ok()) return st;

  // Checkpoint off the commit critical path: every waiter on this epoch
  // was already released; only this caller pays.
  if (force_checkpoint || journal_.fill_ratio() > kCheckpointFillThreshold) {
    std::unique_lock<std::mutex> lk(commit_mu_);
    return checkpoint_now_locked(lk, force_checkpoint);
  }
  return Status::Ok();
}

void BaseFs::commit_cycle_(std::unique_lock<std::mutex>& lk) {
  // By the delta invariant (base_fs.h, at epoch_durable_), the dirty
  // blocks tagged in (epoch_durable_, upto] are exactly what this cycle
  // owes the device, a failed epoch's included.
  const uint64_t base = epoch_durable_;
  lk.unlock();

  const Nanos start = mono_now(clock_.get());
  uint64_t upto = 0;
  Seq op_seq = 0;
  std::vector<std::pair<BlockNo, BlockBufPtr>> dirty;
  std::vector<BlockNo> revokes;
  Status st = Status::Ok();
  {
    // Epoch rotation: the only moment ops are excluded, and it does no
    // device IO. Capture inode-cache dirt into the block cache, close the
    // epoch, snapshot its delta, and validate the delta while nothing can
    // re-dirty it.
    obs::TraceSpan lock_wait(obs::kSpanBaseLockWait, clock_.get());
    std::unique_lock<std::shared_mutex> gate(op_gate_);
    lock_wait.end();
    op_seq = max_dirty_seq_.load();
    st = flush_inode_cache_locked();
    upto = epoch_open_.load(std::memory_order_relaxed);
    epoch_open_.store(upto + 1, std::memory_order_release);
    block_cache_.set_open_epoch(upto + 1);
    if (st.ok()) {
      dirty = block_cache_.dirty_snapshot_range(base, upto);
      // Frees performed by epochs <= upto are all visible here (ops hold
      // the gate shared), so the revoke set is exactly this delta's.
      revokes = take_pending_revokes_();
      if (opts_.validate_on_sync && !dirty.empty()) {
        Status valid = validate_dirty_locked(dirty);
        // Detection before persistence: a corrupt delta must never reach
        // the device. Panic; RAE recovers from S0 + op log.
        BASE_BUG_ON(!valid.ok(), "basefs.validate_on_sync",
                    "dirty metadata failed validation before persist");
      }
    }
  }

  // Partition the delta. Snapshot entries are shared handles out of the
  // cache -- nothing here copies a block payload.
  std::vector<JournalRecord> meta;
  std::vector<BlockNo> data_blocks;
  std::vector<std::pair<BlockNo, BlockBufPtr>> data;
  for (auto& [block, bytes] : dirty) {
    if (is_meta_block(block)) {
      meta.emplace_back(block, std::move(bytes));
    } else {
      data_blocks.push_back(block);
      data.emplace_back(block, std::move(bytes));
    }
  }
  if (meta.empty()) {
    // No journal transaction: the revokes wait for the next one (any
    // reallocation of a revoked block dirties the bitmap, so that
    // transaction commits no later than the first epoch that could make
    // the hazard durable).
    return_pending_revokes_(revokes);
    revokes.clear();
  } else if (!revokes.empty()) {
    // A revoke must not suppress a copy re-journaled by this very
    // transaction (same seq): the fresh copy is the block's newest
    // durable content. jbd2 calls this revoke cancellation.
    std::unordered_set<BlockNo> journaled;
    journaled.reserve(meta.size());
    for (const auto& r : meta) journaled.insert(r.target);
    std::erase_if(revokes, [&](BlockNo b) { return journaled.count(b) > 0; });
  }
  // An empty delta is durable at once: no transaction is in flight.
  if (st.ok() && !dirty.empty()) {
    obs::TraceSpan jspan(obs::kSpanJournalGroupCommit, clock_.get());
    // How many fsyncs this transaction collapses (the committer included).
    group_ops_hist().record(
        static_cast<Nanos>(commit_waiters_.load(std::memory_order_relaxed)));
    st = write_delta_(upto, meta, std::move(data), &revokes);
  }
  if (st.ok() && !dirty.empty()) {
    obs::flight().record(obs::Component::kBaseFs, "commit", "",
                         clock_ ? clock_->now() : 0, dirty.size());
  }

  lk.lock();
  if (!st.ok()) {
    // The epoch's blocks stay dirty above epoch_durable_, so the next
    // cycle's delta covers them again; its transaction must carry the
    // revokes again too.
    epoch_failed_ = std::max(epoch_failed_, upto);
    commit_error_ = st;
    return_pending_revokes_(revokes);
    return;
  }
  // Record each block's durable classification in commit order; the
  // checkpointer skips journaled copies superseded by a later in-place
  // data write (freed-then-reallocated blocks).
  for (const auto& r : meta) durable_class_[r.target] = false;
  if (!data_blocks.empty()) {
    block_cache_.mark_clean_upto(data_blocks, upto);
    for (BlockNo b : data_blocks) durable_class_[b] = true;
  }
  epoch_durable_ = upto;
  if (!dirty.empty()) {
    commits_.fetch_add(1);
    commit_latency_hist().record(mono_now(clock_.get()) - start);
  }
  if (durable_cb_ && op_seq > 0) durable_cb_(op_seq);
}

Status BaseFs::write_delta_(uint64_t upto,
                            const std::vector<JournalRecord>& meta,
                            std::vector<std::pair<BlockNo, BlockBufPtr>> data,
                            std::vector<BlockNo>* revokes) {
  if (meta.empty()) {
    // Data-only epoch: write it back; one flush makes it durable.
    RAEFS_TRY_VOID(writeback_coalesced(data));
    return dev_->flush();
  }
  // The epoch commits as one transaction. If it does not fit the free
  // area, a checkpoint runs BEFORE the epoch's data writes: run after
  // them, it could write a stale journaled copy of a block this epoch
  // freed and reused as file data over that data.
  if (!journal_.has_space(meta.size(), revokes->size())) {
    RAEFS_TRY_VOID(checkpoint_core_());
    // The checkpoint retired every journaled copy the revokes could
    // suppress, so they are moot, even a list too long for a descriptor.
    revokes->clear();
  }

  // Ordered mode: the data writes go out now and overlap the journal
  // payload; the commit drains them before its payload flush, and a failed
  // data write withholds the commit record.
  auto data_failed = std::make_shared<std::atomic<bool>>(false);
  submit_writeback_runs(std::move(data), [data_failed](Status wst) {
    if (!wst.ok()) data_failed->store(true, std::memory_order_relaxed);
  });
  const auto drain_data = [&]() -> Status {
    async_.drain();
    return data_failed->load() ? Status(Errno::kIo) : Status::Ok();
  };
  Status st = Status::Ok();
  if (journal_.has_space(meta.size())) {
    auto seq = journal_.commit(meta, *revokes, 1, drain_data);
    if (!seq.ok()) st = seq.error();
  } else {
    // Larger than the whole region, which the checkpoint above emptied:
    // the one case that still splits. The data writes land first, and
    // metadata never commits over lost data.
    st = drain_data();
    if (st.ok()) st = journal_and_apply_(meta, 1);
    if (st.ok()) {  // every piece is home: nothing left to write back
      std::vector<BlockNo> keys;
      for (const auto& r : meta) keys.push_back(r.target);
      std::lock_guard<std::mutex> g(commit_mu_);
      block_cache_.mark_clean_upto(keys, upto);
    }
  }
  // A commit that failed before its hook ran left data writes in flight;
  // none may outlive the cycle.
  async_.drain();
  return st;
}

Status BaseFs::checkpoint_now_locked(std::unique_lock<std::mutex>& lk,
                                     bool force) {
  while (committer_busy_) commit_cv_.wait(lk);
  if (!force && journal_.fill_ratio() <= kCheckpointFillThreshold) {
    return Status::Ok();  // raced: another caller already checkpointed
  }
  if (epoch_failed_ > epoch_durable_) {
    // An epoch failed after this caller's target turned durable, and no
    // commit has covered it since. Optional checkpoints skip quietly;
    // forced ones (unmount) must report the failure so a dirty journal
    // never meets a clean superblock.
    if (!force) return Status::Ok();
    return commit_error_.ok() ? Status(Errno::kIo) : commit_error_;
  }
  committer_busy_ = true;
  lk.unlock();
  Status st = checkpoint_core_();
  lk.lock();
  committer_busy_ = false;
  lk.unlock();
  commit_cv_.notify_all();
  return st;
}

Status BaseFs::checkpoint_core_() {
  obs::TraceSpan span(obs::kSpanBaseCheckpoint, clock_.get());
  async_.drain();
  // Write the last durably-journaled copy of every journaled block in
  // place, re-read from the journal region itself. Using the journaled
  // copies -- not current cache content -- keeps WAL intact: a block
  // re-dirtied by a later, still-open epoch must not reach its home
  // location before that epoch commits. Reading them back (instead of
  // retaining cache handles across epochs) keeps the steady-state commit
  // path free of copy-on-write clones.
  RAEFS_TRY(auto records, journal_.committed_records());
  uint64_t durable = 0;
  std::vector<std::pair<BlockNo, BlockBufPtr>> blocks;
  std::vector<BlockNo> keys;
  {
    std::lock_guard<std::mutex> g(commit_mu_);
    blocks.reserve(records.size());
    keys.reserve(records.size());
    for (auto& r : records) {
      auto it = durable_class_.find(r.target);
      if (it != durable_class_.end() && it->second) {
        // Freed and reallocated as file data after it was journaled; the
        // durable in-place data write supersedes the journaled copy.
        continue;
      }
      blocks.emplace_back(r.target, std::move(r.data));
      keys.push_back(r.target);
    }
    durable = epoch_durable_;
  }
  RAEFS_TRY_VOID(writeback_coalesced(blocks));
  RAEFS_TRY_VOID(dev_->flush());
  RAEFS_TRY_VOID(journal_.checkpoint());
  {
    std::lock_guard<std::mutex> g(commit_mu_);
    // Only entries not re-dirtied by a later epoch turn clean; the
    // epoch-bounded form makes the concurrent-redirty race harmless.
    block_cache_.mark_clean_upto(keys, durable);
    durable_class_.clear();
  }
  checkpoints_.fetch_add(1);
  obs::flight().record(obs::Component::kBaseFs, "checkpoint", "",
                       clock_ ? clock_->now() : 0, keys.size());
  return Status::Ok();
}

void BaseFs::submit_writeback_runs(
    std::vector<std::pair<BlockNo, BlockBufPtr>> blocks,
    const std::function<void(Status)>& on_each) {
  obs::TraceSpan span(obs::kSpanBlockdevWriteback, clock_.get());
  // Sort by block number, group contiguous runs, and hand each run to the
  // async layer as one submission. Payloads are shared, never copied.
  std::sort(blocks.begin(), blocks.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t i = 0;
  while (i < blocks.size()) {
    BlockNo first = blocks[i].first;
    std::vector<BlockBufPtr> run;
    run.push_back(blocks[i].second);
    size_t j = i + 1;
    while (j < blocks.size() && blocks[j].first == first + run.size()) {
      run.push_back(blocks[j].second);
      ++j;
    }
    async_.submit_writev(first, std::move(run), on_each);
    i = j;
  }
}

Status BaseFs::writeback_coalesced(
    const std::vector<std::pair<BlockNo, BlockBufPtr>>& blocks) {
  if (blocks.empty()) return Status::Ok();
  auto failed = std::make_shared<std::atomic<bool>>(false);
  submit_writeback_runs(blocks, [failed](Status st) {
    if (!st.ok()) failed->store(true, std::memory_order_relaxed);
  });
  async_.drain();
  if (failed->load()) return Errno::kIo;
  return Status::Ok();
}

Status BaseFs::validate_block_(BlockNo block, BlockClass cls,
                               const BlockBuf& bytes) const {
  if (block == 0) {
    if (!Superblock::decode(bytes).ok()) return Errno::kCorrupt;
  } else if (block >= geo_.inode_table_start &&
             block < geo_.inode_table_start + geo_.inode_table_blocks) {
    for (uint32_t slot = 0; slot < kInodesPerBlock; ++slot) {
      auto inode = DiskInode::decode(
          std::span<const uint8_t>(bytes).subspan(slot * kInodeSize,
                                                  kInodeSize),
          geo_);
      if (!inode.ok()) return Errno::kCorrupt;
    }
  } else if (geo_.is_data_block(block)) {
    if (cls == BlockClass::kDirMeta) {
      if (!dirent_scan_block(bytes).ok()) return Errno::kCorrupt;
    } else if (cls == BlockClass::kIndirectMeta) {
      for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
        uint64_t ptr = 0;
        std::memcpy(&ptr, bytes.data() + i * 8, sizeof(ptr));
        if (ptr != 0 && !geo_.is_data_block(ptr)) return Errno::kCorrupt;
      }
    }
  }
  return Status::Ok();
}

Status BaseFs::validate_dirty_locked(
    const std::vector<std::pair<BlockNo, BlockBufPtr>>& dirty) {
  bool bitmap_touched = false;
  for (const auto& [block, bytes] : dirty) {
    if ((block >= geo_.inode_bitmap_start &&
         block < geo_.inode_bitmap_start + geo_.inode_bitmap_blocks) ||
        (block >= geo_.block_bitmap_start &&
         block < geo_.block_bitmap_start + geo_.block_bitmap_blocks)) {
      bitmap_touched = true;
      continue;
    }
    BlockClass cls = BlockClass::kFileData;
    if (geo_.is_data_block(block)) {
      std::lock_guard<std::mutex> lk(meta_blocks_mu_);
      auto it = meta_blocks_.find(block);
      if (it == meta_blocks_.end()) continue;  // file data: not validated
      cls = it->second;
    }
    RAEFS_TRY_VOID(validate_block_(block, cls, *bytes));
  }

  if (bitmap_touched) {
    // Cross-check the in-memory free counters against the cached bitmaps:
    // catches silent single-bit corruption of allocation state. Runs
    // inside the rotation gate, so the counters cannot move under us.
    uint64_t free_b = 0;
    for (uint64_t i = 0; i < geo_.block_bitmap_blocks; ++i) {
      RAEFS_TRY(auto data, block_cache_.read(geo_.block_bitmap_start + i));
      uint64_t bits_here = std::min<uint64_t>(
          kBitsPerBlock, geo_.total_blocks - i * kBitsPerBlock);
      ConstBitmapView view(data, bits_here);
      free_b += bits_here - view.count_set();
    }
    if (free_b != free_blocks_.load()) return Errno::kCorrupt;

    uint64_t free_i = 0;
    for (uint64_t i = 0; i < geo_.inode_bitmap_blocks; ++i) {
      RAEFS_TRY(auto data, block_cache_.read(geo_.inode_bitmap_start + i));
      uint64_t bits_here = std::min<uint64_t>(
          kBitsPerBlock, geo_.inode_count - i * kBitsPerBlock);
      ConstBitmapView view(data, bits_here);
      free_i += bits_here - view.count_set();
    }
    if (free_i != free_inodes_.load()) return Errno::kCorrupt;
  }
  return Status::Ok();
}

Status BaseFs::journal_and_apply_(const std::vector<JournalRecord>& records,
                                  uint32_t workers) {
  // Pieces that fit the empty region (the header excluded), each
  // checkpointed before the next.
  const uint64_t region = geo_.journal_blocks - 1;
  size_t at = 0;
  while (at < records.size()) {
    size_t take = std::min<size_t>(records.size() - at, region - 2);
    while (Journal::blocks_needed(take) > region) --take;
    const std::vector<JournalRecord> piece(
        records.begin() + static_cast<ptrdiff_t>(at),
        records.begin() + static_cast<ptrdiff_t>(at + take));
    RAEFS_TRY_VOID(journal_.commit(piece, {}, workers));
    {
      obs::TraceSpan span(obs::kSpanBaseInstallApply, clock_.get());
      std::vector<BlockWrite> writes;
      writes.reserve(piece.size());
      for (const auto& r : piece) writes.push_back({r.target, *r.data});
      // The journal still holds the committed piece, so a failed write is
      // recoverable: replay applies it.
      RAEFS_TRY_VOID(write_blocks(dev_, writes, workers));
    }
    RAEFS_TRY_VOID(dev_->flush());
    // Every record is in place and durable: retire the piece.
    RAEFS_TRY_VOID(journal_.checkpoint());
    at += take;
  }
  return Status::Ok();
}

Status BaseFs::install_blocks(const std::vector<InstallBlock>& blocks) {
  // Called by the supervisor on a freshly mounted (rebooted) base with no
  // concurrent operations (paper §3.2 hand-off). journal_and_apply_
  // journals the set as ONE transaction when it fits the region, applies
  // it in place, and checkpoints -- a power cut anywhere in between
  // replays to either the pre-install or the fully-installed image, never
  // a mix.
  for (const auto& ib : blocks) {
    if (ib.block >= geo_.total_blocks || ib.data.size() != kBlockSize) {
      return Errno::kInval;
    }
    if (ib.block >= geo_.journal_start &&
        ib.block < geo_.journal_start + geo_.journal_blocks) {
      return Errno::kInval;  // the shadow never produces journal blocks
    }
  }

  // Quiesce: commit, and checkpoint whatever the journal already holds,
  // so the install starts on an empty region and its checkpoint cannot
  // raise the floor over some other transaction's
  // committed-but-not-yet-in-place state. An empty region also leaves no
  // journaled copy for a pending revoke to suppress, so none rides the
  // install.
  RAEFS_TRY_VOID(commit_txn(/*force_checkpoint=*/true));
  if (blocks.empty()) return Status::Ok();

  // Latest copy per target (the shadow's output is normally duplicate-
  // free; the dedup keeps the parallel apply race-free regardless),
  // sorted by block so apply slices are contiguous and never overlap.
  std::unordered_map<BlockNo, const InstallBlock*> latest;
  for (const auto& ib : blocks) latest[ib.block] = &ib;
  std::vector<const InstallBlock*> uniq;
  uniq.reserve(latest.size());
  for (const auto& [b, p] : latest) uniq.push_back(p);
  std::sort(uniq.begin(), uniq.end(),
            [](const InstallBlock* a, const InstallBlock* b) {
              return a->block < b->block;
            });

  if (opts_.validate_on_sync) {
    // Detection before persistence, the commit path's per-block checks
    // with the class taken from the shadow's annotation (the set is not
    // noted until after the apply). The bitmap-vs-counter cross-check is
    // deliberately omitted -- installed bitmaps replace the counters
    // (reloaded below), so they legitimately disagree with the
    // pre-install values.
    Status valid = Status::Ok();
    for (const InstallBlock* ib : uniq) {
      valid = validate_block_(ib->block, ib->cls, ib->data);
      if (!valid.ok()) break;
    }
    BASE_BUG_ON(!valid.ok(), "basefs.validate_on_sync",
                "install set failed validation before persist");
  }

  std::vector<JournalRecord> records;
  records.reserve(uniq.size());
  for (const InstallBlock* ib : uniq) {
    records.emplace_back(ib->block, std::make_shared<const BlockBuf>(ib->data));
  }

  // In-place apply fanned across the device's usable queue depth.
  const uint32_t workers = resolve_workers(opts_.install_workers, dev_);
  RAEFS_TRY_VOID(journal_and_apply_(records, workers));

  // Warm the cache with the installed bytes (clean -- the device already
  // holds them), then invalidate only the derived state the set touches.
  std::vector<std::pair<BlockNo, BlockBufPtr>> cache_blocks;
  cache_blocks.reserve(records.size());
  for (const JournalRecord& r : records) {
    cache_blocks.emplace_back(r.target, r.data);
  }
  block_cache_.install_clean(cache_blocks);
  note_meta_blocks_batch_(blocks);
  RAEFS_TRY_VOID(invalidate_for_install_(blocks));

  commits_.fetch_add(1);
  checkpoints_.fetch_add(1);
  obs::flight().record(obs::Component::kBaseFs, "install_blocks", "",
                       clock_ ? clock_->now() : 0, blocks.size(), workers);
  return Status::Ok();
}

void BaseFs::note_meta_blocks_batch_(const std::vector<InstallBlock>& blocks) {
  std::lock_guard<std::mutex> lk(meta_blocks_mu_);
  for (const auto& ib : blocks) {
    if (ib.cls == BlockClass::kFileData || !geo_.is_data_block(ib.block)) {
      continue;
    }
    meta_blocks_[ib.block] = ib.cls;
    // Same rule as note_meta_block: the fresh journaled copy must not be
    // suppressed by a stale pending revoke.
    pending_revokes_.erase(ib.block);
  }
}

Status BaseFs::invalidate_for_install_(const std::vector<InstallBlock>& blocks) {
  bool block_bitmap = false;
  bool inode_bitmap = false;
  bool inode_table = false;
  bool dir_meta = false;
  for (const auto& ib : blocks) {
    const BlockNo b = ib.block;
    if (b >= geo_.block_bitmap_start &&
        b < geo_.block_bitmap_start + geo_.block_bitmap_blocks) {
      block_bitmap = true;
    } else if (b >= geo_.inode_bitmap_start &&
               b < geo_.inode_bitmap_start + geo_.inode_bitmap_blocks) {
      inode_bitmap = true;
    } else if (b >= geo_.inode_table_start &&
               b < geo_.inode_table_start + geo_.inode_table_blocks) {
      inode_table = true;
    } else if (geo_.is_data_block(b) && ib.cls == BlockClass::kDirMeta) {
      dir_meta = true;
    }
  }
  if (inode_table) inode_cache_.drop_all();
  if (inode_table || dir_meta) dentry_cache_.drop_all();
  if (block_bitmap) RAEFS_TRY_VOID(reload_free_blocks_());
  if (inode_bitmap) RAEFS_TRY_VOID(reload_free_inodes_());
  return Status::Ok();
}

}  // namespace raefs
