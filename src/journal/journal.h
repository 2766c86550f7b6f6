// Write-ahead metadata journal.
//
// The base filesystem journals every metadata block it dirties before
// writing it in place; after a crash (or a contained reboot) replay
// reapplies all committed-but-not-checkpointed transactions, bringing the
// image to the trusted state S0 that recovery starts from (paper §2.2).
//
// On-disk layout inside the journal region:
//   journal_start + 0 : header block   {magic, kind=0, floor_seq}
//   journal_start + 1.. transactions, each:
//       descriptor block {magic, kind=1, seq, ntags, targets[],
//                         nrevoked, revoked[]}
//       ntags payload blocks (raw images of the target blocks)
//       commit block     {magic, kind=2, seq, ntags, payload_crc}
//
// All transactions share one layout. A transaction larger than one
// descriptor can hold -- a big epoch's delta or the recovery download's
// install set -- is written as SEVERAL descriptor+payload chunks sharing
// ONE sequence number, closed by a single commit record whose ntags is
// the total record count and whose payload_crc chains every chunk's
// records in order (revokes ride in the first chunk only). A transaction
// whose tags and revokes fit one descriptor is the one-chunk case of the
// same layout. The scanner accumulates continuation chunks -- a
// descriptor repeating the current seq where the commit record would sit
// -- until the commit record appears; no commit record means the whole
// multi-chunk transaction is a torn tail, atomically discarded. Old
// journals never repeat a sequence number, so the extension is backward
// compatible.
//
// Revoke records (jbd2-style) solve the freed-and-reallocated-block
// hazard: when a journaled metadata block is freed and later reallocated
// as *file data*, replay of an old transaction would resurrect the stale
// metadata image over the live file contents. A transaction that frees a
// previously-journaled block therefore carries the block number in its
// revoked list; replay (and the checkpointer's committed_records) then
// skips every copy of that block journaled by transactions with seq <=
// the revoking transaction's seq. Re-journaling the block in a *later*
// transaction naturally overrides the revoke (its seq is higher); the
// commit path cancels a pending revoke when the same transaction
// re-journals the block.
//
// All header/descriptor/commit blocks carry a whole-block CRC32C. A
// transaction is durable iff its commit block is valid and its payload CRC
// matches. Replay distinguishes two failure shapes at the first invalid
// record: a torn *tail* (uncommitted transactions never finished --
// discarded silently, exactly like jbd2) versus destroyed *committed*
// history (a durable commit whose payload mismatches, or a surviving
// *commit record* beyond the stop point with a sequence number past the
// floor), which fails loudly with kCorrupt rather than silently
// truncating durable transactions. Because the journal writes one
// transaction at a time (commit(), below), descriptors/payloads beyond the
// stop point are legal torn remains, but a commit record there proves a
// later transaction once committed.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "blockdev/block_device.h"
#include "common/result.h"
#include "format/layout.h"

namespace raefs {

inline constexpr uint64_t kJournalMagic = 0x4C4E524A46454152ull;  // "RAEFJRNL"

/// One metadata block captured by a transaction. The payload is a shared
/// handle straight out of the block cache's dirty snapshot: journaling a
/// transaction copies no block payloads (the journal region write is the
/// only data movement).
struct JournalRecord {
  JournalRecord() = default;
  JournalRecord(BlockNo t, std::vector<uint8_t> bytes)
      : target(t),
        data(std::make_shared<const std::vector<uint8_t>>(std::move(bytes))) {}
  JournalRecord(BlockNo t, BlockBufPtr buf) : target(t), data(std::move(buf)) {}

  BlockNo target = 0;
  BlockBufPtr data;  // exactly kBlockSize bytes
};

/// Outcome of a crash-recovery scan.
struct ReplayResult {
  uint64_t applied_txns = 0;
  uint64_t applied_blocks = 0;
};

class Journal {
 public:
  /// Attach to an already-formatted journal region. Call open() before use.
  Journal(BlockDevice* dev, const Geometry& geo);

  /// Write a clean header (floor_seq = seq). Used by mkfs and after replay.
  static Status format(BlockDevice* dev, const Geometry& geo,
                       uint64_t floor_seq = 0);

  /// Read the header and position the write cursor at the start of the
  /// free area (immediately after the header; the caller must have
  /// replayed and reset beforehand, as mount does).
  Status open();

  /// Journal blocks a transaction of `nrecords` records with `nrevoked`
  /// revokes consumes: one descriptor per chunk, the payloads, one commit
  /// record. Up to max_descriptor_entries() tags + revokes that is
  /// nrecords + 2.
  static uint64_t blocks_needed(size_t nrecords, size_t nrevoked = 0);

  /// Tags + revokes that fit in one descriptor block alongside the fixed
  /// fields (magic, kind, seq, ntags, nrevoked, CRC).
  static constexpr size_t max_descriptor_entries() {
    return (kBlockSize - 32) / 8;
  }

  /// True if a transaction of `nrecords` records and `nrevoked` revokes
  /// fits in the free area (never when the revokes fill a descriptor).
  bool has_space(size_t nrecords, size_t nrevoked = 0) const;

  /// Durably commit one transaction of any size: every descriptor+payload
  /// chunk (one chunk when records + revokes fit a descriptor; see the
  /// multi-chunk layout note above), `before_barrier`, flush, commit
  /// record, flush. Returns the assigned sequence number once the commit
  /// record is durable. The whole set is atomic under power cuts -- replay
  /// applies either none of it (no commit record) or all of it. `revoked`
  /// lists blocks whose older journaled copies (seq <= this transaction's)
  /// must not be replayed; it must leave room for at least one tag in the
  /// first descriptor (kInval otherwise). Needs enough free journal space
  /// for every chunk (kNoSpace otherwise; nothing is written).
  ///
  /// `before_barrier`, when given, runs after the descriptor and payload
  /// writes and before the payload flush: the group commit drains its
  /// ordered-mode data writes there. An error from it withholds the
  /// commit record -- metadata never commits over lost data -- and is
  /// returned. On any error the cursor and the next sequence number stay
  /// where they were, so a retry reuses both and overwrites the failed
  /// transaction's remains.
  ///
  /// The pre-barrier blocks all land at precomputed positions, so their
  /// order is irrelevant -- the flush barrier alone orders the set against
  /// the commit record -- and they go through write_blocks
  /// (blockdev/prefetch.h) across up to `workers` threads; at one worker
  /// they are written in journal order.
  ///
  /// The owner serializes commit(), committed_records() and checkpoint();
  /// has_space(), fill_ratio() and committed_seq() may run concurrently
  /// with them.
  Result<uint64_t> commit(const std::vector<JournalRecord>& records,
                          const std::vector<BlockNo>& revoked = {},
                          uint32_t workers = 1,
                          const std::function<Status()>& before_barrier = {});

  /// Re-read every committed transaction's payload from the journal
  /// region, deduplicated to the latest copy per target block (in commit
  /// order). This is how the checkpointer obtains write-back content
  /// without retaining cache handles across epochs (which would force
  /// copy-on-write clones on every re-dirty).
  Result<std::vector<JournalRecord>> committed_records() const;

  /// Declare all committed transactions checkpointed (their blocks have
  /// been written in place and flushed by the caller): raise the floor and
  /// reset the write cursor. Durable before returning.
  Status checkpoint();

  uint64_t committed_seq() const;

  /// Fraction of the journal region currently used, in [0,1].
  double fill_ratio() const;

  /// Crash recovery: scan the region, apply every committed transaction
  /// beyond the header's floor to the device, flush, and reset the journal
  /// to a clean state.
  ///
  /// With `workers > 1` the scan runs over a parallel read-ahead of the
  /// whole region (blockdev/prefetch.h) and the apply step runs in
  /// parallel: committed records are deduplicated to the latest copy per
  /// target block (the same latest-wins rule the checkpointer uses --
  /// later transactions fully shadow earlier writes to the same block),
  /// sorted by target, and handed to write_blocks (blockdev/prefetch.h),
  /// which writes contiguous block ranges across the workers.
  /// Each target block is written exactly once by exactly one worker, so
  /// the final device image is byte-identical to the serial in-order
  /// replay, and the whole operation stays idempotent: the header is
  /// reset only after every write and the flush completed, so a crash
  /// mid-replay re-scans the untouched journal under the old floor.
  /// ReplayResult counts are identical to serial replay (applied_blocks
  /// counts every committed non-revoked record, not the deduplicated
  /// physical writes). Records suppressed by revoke records (see the
  /// layout note above) are skipped identically by both paths.
  static Result<ReplayResult> replay(BlockDevice* dev, const Geometry& geo,
                                     uint32_t workers = 1);

  /// Scan without applying (fsck and tests): returns committed
  /// transactions' sequence numbers.
  static Result<std::vector<uint64_t>> scan(BlockDevice* dev,
                                            const Geometry& geo);

 private:
  BlockDevice* dev_;
  Geometry geo_;

  mutable std::mutex mu_;
  uint64_t next_seq_ = 1;
  BlockNo cursor_ = 0;  // next free journal block
};

}  // namespace raefs
