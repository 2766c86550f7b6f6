#include "journal/journal.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "blockdev/prefetch.h"
#include "common/checksum.h"
#include "common/serial.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace raefs {
namespace {

// Registered once; inc() afterwards is a single relaxed atomic add.
obs::Counter& commit_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::kMJournalCommits);
  return c;
}
obs::Counter& blocks_written_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::kMJournalBlocksWritten);
  return c;
}
obs::Counter& checkpoint_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::kMJournalCheckpoints);
  return c;
}

enum class RecKind : uint32_t { kHeader = 0, kDescriptor = 1, kCommit = 2 };

void seal_block(std::vector<uint8_t>* block) {
  block->resize(kBlockSize - 4, 0);
  uint32_t crc = crc32c(block->data(), block->size());
  Encoder tail(block);
  tail.put_u32(crc);
}

bool block_crc_ok(std::span<const uint8_t> block) {
  if (block.size() != kBlockSize) return false;
  uint32_t stored = static_cast<uint32_t>(block[kBlockSize - 4]) |
                    (static_cast<uint32_t>(block[kBlockSize - 3]) << 8) |
                    (static_cast<uint32_t>(block[kBlockSize - 2]) << 16) |
                    (static_cast<uint32_t>(block[kBlockSize - 1]) << 24);
  return crc32c(block.data(), kBlockSize - 4) == stored;
}

struct Header {
  uint64_t floor_seq = 0;
};

std::vector<uint8_t> encode_header(const Header& h) {
  std::vector<uint8_t> block;
  Encoder enc(&block);
  enc.put_u64(kJournalMagic);
  enc.put_u32(static_cast<uint32_t>(RecKind::kHeader));
  enc.put_u64(h.floor_seq);
  seal_block(&block);
  return block;
}

Result<Header> decode_header(std::span<const uint8_t> block) {
  if (!block_crc_ok(block)) return Errno::kCorrupt;
  Decoder dec(block);
  if (dec.get_u64() != kJournalMagic) return Errno::kCorrupt;
  if (dec.get_u32() != static_cast<uint32_t>(RecKind::kHeader)) {
    return Errno::kCorrupt;
  }
  Header h;
  h.floor_seq = dec.get_u64();
  if (!dec.ok()) return Errno::kCorrupt;
  return h;
}

struct Descriptor {
  uint64_t seq = 0;
  std::vector<BlockNo> targets;
  std::vector<BlockNo> revoked;  // blocks whose older journaled copies die
};

std::vector<uint8_t> encode_descriptor(const Descriptor& d) {
  std::vector<uint8_t> block;
  Encoder enc(&block);
  enc.put_u64(kJournalMagic);
  enc.put_u32(static_cast<uint32_t>(RecKind::kDescriptor));
  enc.put_u64(d.seq);
  enc.put_u32(static_cast<uint32_t>(d.targets.size()));
  for (BlockNo t : d.targets) enc.put_u64(t);
  // Revoke list rides in the descriptor's slack. Old images decode the
  // zero padding here as nrevoked == 0, so the extension is backward
  // compatible in both directions.
  enc.put_u32(static_cast<uint32_t>(d.revoked.size()));
  for (BlockNo b : d.revoked) enc.put_u64(b);
  seal_block(&block);
  return block;
}

Result<Descriptor> decode_descriptor(std::span<const uint8_t> block) {
  if (!block_crc_ok(block)) return Errno::kCorrupt;
  Decoder dec(block);
  if (dec.get_u64() != kJournalMagic) return Errno::kCorrupt;
  if (dec.get_u32() != static_cast<uint32_t>(RecKind::kDescriptor)) {
    return Errno::kCorrupt;
  }
  Descriptor d;
  d.seq = dec.get_u64();
  uint32_t ntags = dec.get_u32();
  // Tags + revokes must fit in one block alongside the fixed fields.
  if (ntags == 0 || ntags > Journal::max_descriptor_entries()) {
    return Errno::kCorrupt;
  }
  d.targets.reserve(ntags);
  for (uint32_t i = 0; i < ntags; ++i) d.targets.push_back(dec.get_u64());
  uint32_t nrevoked = dec.get_u32();
  if (ntags + nrevoked > Journal::max_descriptor_entries()) {
    return Errno::kCorrupt;
  }
  d.revoked.reserve(nrevoked);
  for (uint32_t i = 0; i < nrevoked; ++i) d.revoked.push_back(dec.get_u64());
  if (!dec.ok()) return Errno::kCorrupt;
  return d;
}

struct Commit {
  uint64_t seq = 0;
  uint32_t ntags = 0;
  uint32_t payload_crc = 0;
};

std::vector<uint8_t> encode_commit(const Commit& c) {
  std::vector<uint8_t> block;
  Encoder enc(&block);
  enc.put_u64(kJournalMagic);
  enc.put_u32(static_cast<uint32_t>(RecKind::kCommit));
  enc.put_u64(c.seq);
  enc.put_u32(c.ntags);
  enc.put_u32(c.payload_crc);
  seal_block(&block);
  return block;
}

Result<Commit> decode_commit(std::span<const uint8_t> block) {
  if (!block_crc_ok(block)) return Errno::kCorrupt;
  Decoder dec(block);
  if (dec.get_u64() != kJournalMagic) return Errno::kCorrupt;
  if (dec.get_u32() != static_cast<uint32_t>(RecKind::kCommit)) {
    return Errno::kCorrupt;
  }
  Commit c;
  c.seq = dec.get_u64();
  c.ntags = dec.get_u32();
  c.payload_crc = dec.get_u32();
  if (!dec.ok()) return Errno::kCorrupt;
  return c;
}

/// Payload CRC chains the target list, all payload bytes, and the revoke
/// list last -- an empty revoke list leaves the CRC identical to the
/// pre-revoke format, so old images still verify.
uint32_t payload_crc(const std::vector<JournalRecord>& records,
                     const std::vector<BlockNo>& revoked) {
  uint32_t crc = 0;
  for (const auto& r : records) {
    crc = crc32c(&r.target, sizeof(r.target), crc);
    crc = crc32c(r.data->data(), r.data->size(), crc);
  }
  for (const BlockNo& b : revoked) crc = crc32c(&b, sizeof(b), crc);
  return crc;
}

/// The transaction's blocks in journal order, commit record excluded:
/// descriptor chunks that repeat `seq`, each followed by its payloads.
/// The revoke list rides in the first chunk only, so that chunk holds
/// what the revokes leave over.
std::vector<BlockBufPtr> lay_out(uint64_t seq,
                                 const std::vector<JournalRecord>& records,
                                 const std::vector<BlockNo>& revoked) {
  std::vector<BlockBufPtr> blocks;
  blocks.reserve(Journal::blocks_needed(records.size(), revoked.size()) - 1);
  size_t idx = 0;
  while (idx < records.size()) {
    const size_t cap = idx == 0
                           ? Journal::max_descriptor_entries() - revoked.size()
                           : Journal::max_descriptor_entries();
    const size_t n = std::min(cap, records.size() - idx);
    Descriptor d;
    d.seq = seq;
    for (size_t i = 0; i < n; ++i) d.targets.push_back(records[idx + i].target);
    if (idx == 0) d.revoked = revoked;
    blocks.push_back(std::make_shared<const BlockBuf>(encode_descriptor(d)));
    for (size_t i = 0; i < n; ++i) blocks.push_back(records[idx + i].data);
    idx += n;
  }
  return blocks;
}

/// One committed transaction found by a scan.
struct ScannedTxn {
  uint64_t seq = 0;
  std::vector<JournalRecord> records;
  std::vector<BlockNo> revoked;
  BlockNo next_block = 0;  // journal block after the commit record
};

/// The revoke floor: for each revoked block, the highest sequence number
/// among the transactions revoking it. A journaled copy of block B in
/// transaction T is dead iff floor[B] >= T.seq -- the free happened in T
/// itself or later, so replaying the copy would scribble stale metadata
/// over whatever the block holds now (typically reallocated file data).
/// A transaction that re-journals B *after* the revoke has a higher seq
/// and survives the comparison naturally.
std::unordered_map<BlockNo, uint64_t> revoke_floor(
    const std::vector<ScannedTxn>& txns) {
  std::unordered_map<BlockNo, uint64_t> floor;
  for (const auto& txn : txns) {
    for (BlockNo b : txn.revoked) {
      auto [it, inserted] = floor.try_emplace(b, txn.seq);
      if (!inserted && txn.seq > it->second) it->second = txn.seq;
    }
  }
  return floor;
}

bool is_revoked(const std::unordered_map<BlockNo, uint64_t>& floor,
                BlockNo target, uint64_t seq) {
  auto it = floor.find(target);
  return it != floor.end() && it->second >= seq;
}

/// After the forward scan stops at `from`, decide whether the unread tail
/// is consistent with torn uncommitted transactions (the normal crash
/// shape) or proves that committed history was destroyed. The journal
/// writes one transaction at a time: transaction N+1 starts only after
/// N's commit record is durable, and a failed transaction leaves the
/// cursor where it was, so a retry reuses its sequence number and journal
/// blocks. A CRC-valid *commit* record with seq >= expect_seq therefore
/// proves a transaction beyond the stop point once committed -- its
/// predecessors' records were destroyed -- and the journal is refused.
/// Descriptors with seq >= expect_seq, by contrast, are the legal remains
/// of a transaction the crash cut off before its commit record; they are
/// ignored, like any torn final transaction.
Status audit_tail(BlockDevice* dev, const Geometry& geo, BlockNo from,
                  uint64_t expect_seq) {
  std::vector<uint8_t> buf(kBlockSize);
  const BlockNo end = geo.journal_start + geo.journal_blocks;
  for (BlockNo pos = from; pos < end; ++pos) {
    RAEFS_TRY_VOID(dev->read_block(pos, buf));
    auto c = decode_commit(buf);
    if (c.ok() && c.value().seq >= expect_seq) return Errno::kCorrupt;
  }
  return Status::Ok();
}

/// Scan the journal region for committed transactions after the header's
/// floor. Returns them in order. A torn tail -- the final transaction's
/// descriptor, payload, or commit never fully reached the device -- is
/// discarded silently, exactly like crash recovery must ("the txn never
/// happened"). Corruption that destroys an *earlier, committed*
/// transaction fails loudly with kCorrupt instead of silently truncating
/// durable history: a valid commit record whose payload no longer matches,
/// or any surviving record beyond the stop point whose sequence number
/// proves later transactions had committed.
///
/// `known_end`, when nonzero, bounds the scan: the caller is a *live*
/// journal whose in-memory cursor says exactly where the durable log
/// stops, so the region beyond it holds nothing but stale bytes and the
/// tail audit (a full-region read that exists to catch crash corruption)
/// is skipped. Crash-recovery callers must pass 0.
Result<std::vector<ScannedTxn>> scan_committed(BlockDevice* dev,
                                               const Geometry& geo,
                                               BlockNo known_end = 0) {
  std::vector<uint8_t> buf(kBlockSize);
  RAEFS_TRY_VOID(dev->read_block(geo.journal_start, buf));
  RAEFS_TRY(Header hdr, decode_header(buf));

  std::vector<ScannedTxn> txns;
  BlockNo pos = geo.journal_start + 1;
  const BlockNo end =
      known_end != 0 ? known_end : geo.journal_start + geo.journal_blocks;
  uint64_t expect_seq = hdr.floor_seq + 1;

  while (pos < end) {
    RAEFS_TRY_VOID(dev->read_block(pos, buf));
    auto desc = decode_descriptor(buf);
    if (!desc.ok() || desc.value().seq != expect_seq) {
      // Not the next transaction's descriptor: end of log (clean stop)
      // unless the tail still holds evidence of committed transactions.
      if (known_end == 0) {
        RAEFS_TRY_VOID(audit_tail(dev, geo, pos, expect_seq));
      }
      break;
    }

    // Accumulate the transaction's chunks: one descriptor for a classic
    // commit, several descriptors sharing this seq for a multi-chunk
    // bulk transaction. The chunk loop ends at the commit record (the
    // transaction is durable as a whole) or at anything else (the whole
    // multi-chunk transaction is a torn tail).
    ScannedTxn txn;
    txn.seq = expect_seq;
    Descriptor d = std::move(desc).value();
    bool torn = false;
    BlockNo chunk_pos = pos;
    while (true) {
      if (chunk_pos + 1 + d.targets.size() + 1 > end) {
        // commit() never writes a transaction that overflows the
        // region; a CRC-valid in-sequence descriptor claiming one is
        // corruption.
        return Errno::kCorrupt;
      }
      for (size_t i = 0; i < d.targets.size(); ++i) {
        std::vector<uint8_t> payload(kBlockSize);
        RAEFS_TRY_VOID(dev->read_block(chunk_pos + 1 + i, payload));
        txn.records.push_back(
            JournalRecord{d.targets[i], std::move(payload)});
      }
      txn.revoked.insert(txn.revoked.end(), d.revoked.begin(),
                         d.revoked.end());

      const BlockNo next_pos = chunk_pos + 1 + d.targets.size();
      RAEFS_TRY_VOID(dev->read_block(next_pos, buf));
      auto commit = decode_commit(buf);
      if (commit.ok() && commit.value().seq == txn.seq) {
        if (commit.value().ntags != txn.records.size() ||
            commit.value().payload_crc !=
                payload_crc(txn.records, txn.revoked)) {
          // The commit record is durable and provably this transaction's
          // (its seq is beyond the floor, so it cannot be stale), which
          // means the descriptor+payload chunks were flushed before it --
          // yet they no longer match. A committed transaction has been
          // corrupted.
          return Errno::kCorrupt;
        }
        txn.next_block = next_pos + 1;
        break;
      }
      auto cont = decode_descriptor(buf);
      if (cont.ok() && cont.value().seq == txn.seq) {
        // Continuation chunk of the same multi-chunk transaction.
        d = std::move(cont).value();
        chunk_pos = next_pos;
        continue;
      }
      // No commit record for this transaction: torn tail (the whole
      // multi-chunk set is discarded), provided nothing beyond it ever
      // committed.
      if (known_end == 0) {
        RAEFS_TRY_VOID(audit_tail(dev, geo, next_pos, expect_seq));
      }
      torn = true;
      break;
    }
    if (torn) break;

    pos = txn.next_block;
    ++expect_seq;
    txns.push_back(std::move(txn));
  }
  return txns;
}

}  // namespace

Journal::Journal(BlockDevice* dev, const Geometry& geo)
    : dev_(dev), geo_(geo) {}

Status Journal::format(BlockDevice* dev, const Geometry& geo,
                       uint64_t floor_seq) {
  auto block = encode_header(Header{floor_seq});
  RAEFS_TRY_VOID(dev->write_block(geo.journal_start, block));
  return dev->flush();
}

Status Journal::open() {
  std::vector<uint8_t> buf(kBlockSize);
  RAEFS_TRY_VOID(dev_->read_block(geo_.journal_start, buf));
  RAEFS_TRY(Header hdr, decode_header(buf));
  std::lock_guard<std::mutex> lk(mu_);
  next_seq_ = hdr.floor_seq + 1;
  cursor_ = geo_.journal_start + 1;
  return Status::Ok();
}

bool Journal::has_space(size_t nrecords, size_t nrevoked) const {
  if (nrevoked >= max_descriptor_entries()) return false;  // no layout
  std::lock_guard<std::mutex> lk(mu_);
  return cursor_ + blocks_needed(nrecords, nrevoked) <=
         geo_.journal_start + geo_.journal_blocks;
}

uint64_t Journal::blocks_needed(size_t nrecords, size_t nrevoked) {
  // First chunk's descriptor shares its entry table with the revoke list;
  // continuation chunks carry tags only.
  const size_t cap = max_descriptor_entries();
  const size_t first_cap = cap > nrevoked ? cap - nrevoked : 0;
  size_t nchunks = 1;
  if (nrecords > first_cap) {
    nchunks += (nrecords - first_cap + cap - 1) / cap;
  }
  return nchunks + nrecords + 1;
}

Result<uint64_t> Journal::commit(const std::vector<JournalRecord>& records,
                                 const std::vector<BlockNo>& revoked,
                                 uint32_t workers,
                                 const std::function<Status()>& before_barrier) {
  // Refused: an empty set, a payload that is not one block, or a revoke
  // list that leaves the first descriptor no tag.
  if (records.empty()) return Errno::kInval;
  if (revoked.size() >= max_descriptor_entries()) return Errno::kInval;
  for (const auto& r : records) {
    if (!r.data || r.data->size() != kBlockSize) return Errno::kInval;
  }
  obs::TraceSpan span(obs::kSpanJournalCommit, nullptr);
  const uint64_t blocks = blocks_needed(records.size(), revoked.size());
  BlockNo pos = 0;
  uint64_t seq = 0;
  {
    // The owner serializes commits, so the position read here is still
    // ours when it is published below; the lock only keeps fill_ratio()
    // and has_space() readers consistent.
    std::lock_guard<std::mutex> lk(mu_);
    if (cursor_ + blocks > geo_.journal_start + geo_.journal_blocks) {
      return Errno::kNoSpace;
    }
    pos = cursor_;
    seq = next_seq_;
  }

  // The commit record is sealed before any write, so its payload CRC --
  // CPU over every record -- overlaps IO the caller already has in flight
  // (the group commit's data writes) rather than following the barrier.
  Commit c;
  c.seq = seq;
  c.ntags = static_cast<uint32_t>(records.size());
  c.payload_crc = payload_crc(records, revoked);
  const std::vector<uint8_t> commit_block = encode_commit(c);

  // Every block of the layout has a fixed position, so the pre-barrier
  // writes are order-free.
  const std::vector<BlockBufPtr> laid = lay_out(seq, records, revoked);
  std::vector<BlockWrite> writes;
  writes.reserve(laid.size());
  for (const auto& block : laid) writes.push_back({pos++, *block});
  RAEFS_TRY_VOID(write_blocks(dev_, writes, workers));
  if (before_barrier) RAEFS_TRY_VOID(before_barrier());
  // Barrier: every chunk durable before the one commit record exists, so
  // a power cut leaves either no commit record (the whole set is a torn
  // tail) or a commit record proving the whole set durable.
  RAEFS_TRY_VOID(dev_->flush());
  RAEFS_TRY_VOID(dev_->write_block(pos, commit_block));
  RAEFS_TRY_VOID(dev_->flush());

  {
    std::lock_guard<std::mutex> lk(mu_);
    cursor_ = pos + 1;
    next_seq_ = seq + 1;
  }
  commit_counter().inc();
  blocks_written_counter().inc(blocks);
  return seq;
}

Result<std::vector<JournalRecord>> Journal::committed_records() const {
  BlockNo log_end = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    // No commit runs concurrently, so the cursor is exact: every durable
    // transaction lies below it and nothing beyond it can be live. Bound
    // the scan there -- on a device with real access latency the
    // alternative full-region tail audit costs tens of microseconds per
    // journal block for bytes that are stale by construction.
    log_end = cursor_;
  }
  RAEFS_TRY(auto txns, scan_committed(dev_, geo_, log_end));
  const auto floor = revoke_floor(txns);
  // Latest copy per target wins, so the caller's coalesced write-back
  // never writes the same block twice in unspecified order.
  std::unordered_map<BlockNo, size_t> index;
  std::vector<JournalRecord> out;
  for (auto& txn : txns) {
    for (auto& rec : txn.records) {
      if (is_revoked(floor, rec.target, txn.seq)) continue;
      auto [it, inserted] = index.try_emplace(rec.target, out.size());
      if (inserted) {
        out.push_back(std::move(rec));
      } else {
        out[it->second] = std::move(rec);
      }
    }
  }
  return out;
}

Status Journal::checkpoint() {
  std::lock_guard<std::mutex> lk(mu_);
  RAEFS_TRY_VOID(format(dev_, geo_, next_seq_ - 1));
  cursor_ = geo_.journal_start + 1;
  checkpoint_counter().inc();
  return Status::Ok();
}

uint64_t Journal::committed_seq() const {
  std::lock_guard<std::mutex> lk(mu_);
  return next_seq_ - 1;
}

double Journal::fill_ratio() const {
  std::lock_guard<std::mutex> lk(mu_);
  uint64_t used = cursor_ - geo_.journal_start;
  return static_cast<double>(used) / static_cast<double>(geo_.journal_blocks);
}

Result<ReplayResult> Journal::replay(BlockDevice* dev, const Geometry& geo,
                                     uint32_t workers) {
  // The scan is inherently sequential (each descriptor says where the next
  // one starts), so on a device with real access latency its
  // one-block-at-a-time reads would dominate replay. With workers > 1 the
  // whole region is read ahead in parallel and the scan runs from memory.
  std::unique_ptr<PrefetchedDevice> region;
  BlockDevice* scan_dev = dev;
  if (workers > 1) {
    std::vector<BlockNo> blocks(geo.journal_blocks);
    std::iota(blocks.begin(), blocks.end(), geo.journal_start);
    region = prefetch(dev, blocks, workers);
    scan_dev = region.get();
  }
  std::vector<uint8_t> buf(kBlockSize);
  RAEFS_TRY_VOID(scan_dev->read_block(geo.journal_start, buf));
  RAEFS_TRY(Header hdr, decode_header(buf));

  RAEFS_TRY(auto txns, scan_committed(scan_dev, geo));
  const auto floor = revoke_floor(txns);
  ReplayResult result;
  // If no committed txns are found the floor must be *preserved*: lowering
  // it would let an already-checkpointed stale transaction still sitting in
  // the region be replayed on a later crash.
  uint64_t last_seq = hdr.floor_seq;
  BlockNo tail = geo.journal_start + 1;
  // Serially, every non-revoked record is written in commit order: the
  // reference path. In parallel only the latest copy per target is
  // written (the checkpointer's rule -- later transactions fully shadow
  // earlier writes to the same block), so no two writes share a target
  // and they commute; sorted by target, each worker's slice is an
  // ascending block range.
  std::vector<BlockWrite> writes;
  std::unordered_map<BlockNo, size_t> latest;  // target -> index in writes
  for (const auto& txn : txns) {
    for (const auto& rec : txn.records) {
      if (rec.target >= geo.total_blocks) return Errno::kCorrupt;
      // Revoked: the block was freed (and possibly reallocated as file
      // data) by a transaction at or above this copy's seq; replaying it
      // would resurrect stale metadata over live content.
      if (is_revoked(floor, rec.target, txn.seq)) continue;
      ++result.applied_blocks;
      const BlockWrite w{rec.target, *rec.data};
      if (workers > 1) {
        auto [it, inserted] = latest.try_emplace(rec.target, writes.size());
        if (!inserted) {
          writes[it->second] = w;
          continue;
        }
      }
      writes.push_back(w);
    }
    last_seq = txn.seq;
    tail = txn.next_block;
    ++result.applied_txns;
  }
  if (workers > 1) {
    std::sort(writes.begin(), writes.end(),
              [](const BlockWrite& a, const BlockWrite& b) {
                return a.block < b.block;
              });
  }
  {
    obs::TraceSpan span(obs::kSpanJournalReplayApply, nullptr);
    RAEFS_TRY_VOID(write_blocks(dev, writes, workers));
  }
  RAEFS_TRY_VOID(dev->flush());
  // The first block past the replayed history may hold a torn descriptor
  // whose seq is exactly last_seq + 1 (the transaction the crash tore).
  // It was a legal torn tail under the old floor, but once the floor is
  // raised to last_seq the tail audit would read the same bytes as the
  // remains of a *committed* transaction and refuse the journal. Destroy
  // it before resetting the header; a crash in between just makes the
  // next replay re-scan under the old floor and repeat this idempotently.
  if (tail < geo.journal_start + geo.journal_blocks) {
    RAEFS_TRY_VOID(
        dev->write_block(tail, std::vector<uint8_t>(kBlockSize, 0)));
  }
  // Reset so a crash during/after replay re-runs idempotently.
  RAEFS_TRY_VOID(format(dev, geo, last_seq));
  return result;
}

Result<std::vector<uint64_t>> Journal::scan(BlockDevice* dev,
                                            const Geometry& geo) {
  RAEFS_TRY(auto txns, scan_committed(dev, geo));
  std::vector<uint64_t> seqs;
  seqs.reserve(txns.size());
  for (const auto& t : txns) seqs.push_back(t.seq);
  return seqs;
}

}  // namespace raefs
