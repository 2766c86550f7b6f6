// Journal tests: commit/replay round trips, torn-transaction discard,
// checkpoint floor behaviour, idempotent replay, the stale-transaction
// floor-preservation regression, and commit's device order, its
// before-barrier hook and its failure-retry behaviour.
#include <gtest/gtest.h>

#include <mutex>

#include "blockdev/fault_device.h"
#include "blockdev/mem_device.h"
#include "format/layout.h"
#include "journal/journal.h"

namespace raefs {
namespace {

struct JournalFixture : ::testing::Test {
  void SetUp() override {
    dev = std::make_unique<MemBlockDevice>(4096);
    geo = compute_geometry(4096, 128, 64).value();
    ASSERT_TRUE(Journal::format(dev.get(), geo).ok());
  }

  std::vector<uint8_t> block_of(uint8_t fill) {
    return std::vector<uint8_t>(kBlockSize, fill);
  }

  JournalRecord record(BlockNo target, uint8_t fill) {
    return JournalRecord{target, block_of(fill)};
  }

  std::vector<uint8_t> read_block(BlockNo b) {
    std::vector<uint8_t> out(kBlockSize);
    EXPECT_TRUE(dev->read_block(b, out).ok());
    return out;
  }

  std::unique_ptr<MemBlockDevice> dev;
  Geometry geo;
};

TEST_F(JournalFixture, CommitThenReplayApplies) {
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  BlockNo target = geo.data_start + 3;
  auto seq = journal.commit({record(target, 0xAB)});
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq.value(), 1u);

  // The target block itself was never written in place.
  EXPECT_EQ(read_block(target), block_of(0));

  auto replayed = Journal::replay(dev.get(), geo);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().applied_txns, 1u);
  EXPECT_EQ(replayed.value().applied_blocks, 1u);
  EXPECT_EQ(read_block(target), block_of(0xAB));
}

TEST_F(JournalFixture, ReplayIsIdempotent) {
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  ASSERT_TRUE(journal.commit({record(geo.data_start, 0x11)}).ok());
  ASSERT_TRUE(Journal::replay(dev.get(), geo).ok());
  auto second = Journal::replay(dev.get(), geo);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().applied_txns, 0u);
  EXPECT_EQ(read_block(geo.data_start), block_of(0x11));
}

TEST_F(JournalFixture, MultipleTxnsApplyInOrder) {
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  BlockNo target = geo.data_start;
  ASSERT_TRUE(journal.commit({record(target, 0x01)}).ok());
  ASSERT_TRUE(journal.commit({record(target, 0x02)}).ok());
  ASSERT_TRUE(journal.commit({record(target, 0x03)}).ok());
  ASSERT_TRUE(Journal::replay(dev.get(), geo).ok());
  EXPECT_EQ(read_block(target), block_of(0x03));  // last writer wins
}

TEST_F(JournalFixture, TornCommitIsDiscarded) {
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  ASSERT_TRUE(journal.commit({record(geo.data_start, 0x11)}).ok());
  ASSERT_TRUE(journal.commit({record(geo.data_start + 1, 0x22)}).ok());

  // Corrupt the second transaction's commit block (journal block layout:
  // header, then [desc, payload, commit] x2).
  BlockNo second_commit = geo.journal_start + 1 + 3 + 2;
  std::vector<uint8_t> garbage(kBlockSize, 0xFF);
  ASSERT_TRUE(dev->write_block(second_commit, garbage).ok());

  auto replayed = Journal::replay(dev.get(), geo);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().applied_txns, 1u);
  EXPECT_EQ(read_block(geo.data_start), block_of(0x11));
  EXPECT_EQ(read_block(geo.data_start + 1), block_of(0));  // torn: dropped
}

TEST_F(JournalFixture, PayloadCorruptionOfCommittedTxnFailsLoudly) {
  // The commit record is durable and the flush barrier guarantees the
  // payload was too -- a payload that no longer matches is media
  // corruption of a COMMITTED transaction, not a torn tail. Silently
  // dropping it (the old behaviour) truncated durable history.
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  ASSERT_TRUE(journal.commit({record(geo.data_start, 0x11)}).ok());
  // Flip a byte of the payload block (journal_start+2).
  auto payload = read_block(geo.journal_start + 2);
  payload[100] ^= 0x01;
  ASSERT_TRUE(dev->write_block(geo.journal_start + 2, payload).ok());

  auto replayed = Journal::replay(dev.get(), geo);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.error(), Errno::kCorrupt);
}

TEST_F(JournalFixture, TornLastCommitIsACleanStop) {
  // Crash shape: the final transaction's commit block never reached the
  // device (stale zeros in its slot). The txn "never happened"; earlier
  // committed txns replay normally.
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  ASSERT_TRUE(journal.commit({record(geo.data_start, 0x11)}).ok());
  ASSERT_TRUE(journal.commit({record(geo.data_start + 1, 0x22)}).ok());
  BlockNo last_commit = geo.journal_start + 1 + 3 + 2;
  ASSERT_TRUE(dev->write_block(last_commit, block_of(0)).ok());

  auto replayed = Journal::replay(dev.get(), geo);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().applied_txns, 1u);
  EXPECT_EQ(read_block(geo.data_start), block_of(0x11));
  EXPECT_EQ(read_block(geo.data_start + 1), block_of(0));
}

TEST_F(JournalFixture, CorruptEarlierCommittedTxnFailsLoudly) {
  // Hand-corrupt the FIRST txn's commit block while the second txn's
  // records survive intact beyond it. The survivors prove the stop point
  // truncates committed history; replay must refuse, not silently drop
  // both transactions.
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  ASSERT_TRUE(journal.commit({record(geo.data_start, 0x11)}).ok());
  ASSERT_TRUE(journal.commit({record(geo.data_start + 1, 0x22)}).ok());
  BlockNo first_commit = geo.journal_start + 1 + 2;
  ASSERT_TRUE(dev->write_block(first_commit, block_of(0xFF)).ok());

  auto replayed = Journal::replay(dev.get(), geo);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.error(), Errno::kCorrupt);
  // Neither txn may have been applied.
  EXPECT_EQ(read_block(geo.data_start), block_of(0));
  EXPECT_EQ(read_block(geo.data_start + 1), block_of(0));
}

TEST_F(JournalFixture, CorruptEarlierDescriptorFailsLoudly) {
  // Same classification when the first txn's DESCRIPTOR is destroyed: the
  // second txn's valid records (seq 2 > floor 0) prove history loss.
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  ASSERT_TRUE(journal.commit({record(geo.data_start, 0x11)}).ok());
  ASSERT_TRUE(journal.commit({record(geo.data_start + 1, 0x22)}).ok());
  ASSERT_TRUE(dev->write_block(geo.journal_start + 1, block_of(0xFF)).ok());

  auto replayed = Journal::replay(dev.get(), geo);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.error(), Errno::kCorrupt);
}

TEST_F(JournalFixture, TornDescriptorAfterCommittedTxnIsACleanStop) {
  // Crash between txns: txn 1 fully committed, txn 2's descriptor write
  // never happened (garbage that fails CRC, with no valid later records).
  // Txn 1 must replay; the garbage tail is ignored.
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  ASSERT_TRUE(journal.commit({record(geo.data_start, 0x11)}).ok());
  auto garbage = block_of(0x5A);
  garbage[0] = 0x00;  // definitely not the journal magic
  ASSERT_TRUE(dev->write_block(geo.journal_start + 4, garbage).ok());

  auto replayed = Journal::replay(dev.get(), geo);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().applied_txns, 1u);
  EXPECT_EQ(read_block(geo.data_start), block_of(0x11));
}

TEST_F(JournalFixture, CheckpointRaisesFloor) {
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  ASSERT_TRUE(journal.commit({record(geo.data_start, 0x11)}).ok());
  ASSERT_TRUE(journal.checkpoint().ok());

  // After checkpoint, the committed txn must NOT replay again even though
  // its blocks still sit in the journal region.
  auto replayed = Journal::replay(dev.get(), geo);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().applied_txns, 0u);
  EXPECT_EQ(read_block(geo.data_start), block_of(0));
}

TEST_F(JournalFixture, ReplayPreservesFloorWhenNothingCommitted) {
  // Regression: replay finding no txns must keep the existing floor.
  // Otherwise a stale already-checkpointed txn could be replayed later.
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  ASSERT_TRUE(journal.commit({record(geo.data_start, 0x66)}).ok());
  ASSERT_TRUE(journal.checkpoint().ok());  // floor = 1; stale txn remains

  ASSERT_TRUE(Journal::replay(dev.get(), geo).ok());  // applies nothing
  // A second replay (crash during recovery) must still apply nothing.
  auto replayed = Journal::replay(dev.get(), geo);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().applied_txns, 0u);
  EXPECT_EQ(read_block(geo.data_start), block_of(0));
}

TEST_F(JournalFixture, SequencesContinueAfterReopen) {
  {
    Journal journal(dev.get(), geo);
    ASSERT_TRUE(journal.open().ok());
    ASSERT_TRUE(journal.commit({record(geo.data_start, 0x11)}).ok());
    EXPECT_EQ(journal.committed_seq(), 1u);
  }
  ASSERT_TRUE(Journal::replay(dev.get(), geo).ok());  // floor -> 1
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  auto seq = journal.commit({record(geo.data_start, 0x22)});
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq.value(), 2u);
}

TEST_F(JournalFixture, SpaceAccounting) {
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  EXPECT_TRUE(journal.has_space(10));
  EXPECT_FALSE(journal.has_space(geo.journal_blocks));
  EXPECT_DOUBLE_EQ(journal.fill_ratio(), 1.0 / 64.0);

  // Fill the journal with single-record txns (3 blocks each).
  size_t fitted = 0;
  while (journal.has_space(1)) {
    ASSERT_TRUE(journal.commit({record(geo.data_start, 0x01)}).ok());
    ++fitted;
  }
  EXPECT_EQ(fitted, (geo.journal_blocks - 1) / 3);
  EXPECT_EQ(journal.commit({record(geo.data_start, 0x01)}).error(),
            Errno::kNoSpace);
  ASSERT_TRUE(journal.checkpoint().ok());
  EXPECT_TRUE(journal.has_space(1));
}

TEST_F(JournalFixture, MultiBlockTransactionAtomicity) {
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  std::vector<JournalRecord> records;
  for (int i = 0; i < 5; ++i) {
    records.push_back(record(geo.data_start + i, static_cast<uint8_t>(i + 1)));
  }
  ASSERT_TRUE(journal.commit(records).ok());
  ASSERT_TRUE(Journal::replay(dev.get(), geo).ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(read_block(geo.data_start + i),
              block_of(static_cast<uint8_t>(i + 1)));
  }
}

TEST_F(JournalFixture, ScanListsCommittedSeqs) {
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  ASSERT_TRUE(journal.commit({record(geo.data_start, 1)}).ok());
  ASSERT_TRUE(journal.commit({record(geo.data_start, 2)}).ok());
  auto seqs = Journal::scan(dev.get(), geo);
  ASSERT_TRUE(seqs.ok());
  EXPECT_EQ(seqs.value(), (std::vector<uint64_t>{1, 2}));
}

TEST_F(JournalFixture, RejectsBadRecords) {
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  EXPECT_EQ(journal.commit({}).error(), Errno::kInval);
  EXPECT_EQ(
      journal.commit({JournalRecord{1, std::vector<uint8_t>(10)}}).error(),
      Errno::kInval);
}

// ---------------------------------------------------------------------------
// Commit order, the before-barrier hook, failure and retry
// ---------------------------------------------------------------------------

/// Logs the order of writes (block number), flushes (kFlush) and caller
/// marks reaching the device, so ordering invariants can be asserted after
/// the fact.
class OrderLogDevice final : public BlockDevice {
 public:
  static constexpr int64_t kFlush = -1;
  static constexpr int64_t kHook = -2;

  explicit OrderLogDevice(BlockDevice* inner) : inner_(inner) {}
  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t block_count() const override { return inner_->block_count(); }
  Status read_block(BlockNo b, std::span<uint8_t> out) override {
    return inner_->read_block(b, out);
  }
  Status write_block(BlockNo b, std::span<const uint8_t> d) override {
    mark(static_cast<int64_t>(b));
    return inner_->write_block(b, d);
  }
  Status flush() override {
    mark(kFlush);
    return inner_->flush();
  }
  const DeviceStats& stats() const override { return inner_->stats(); }
  void mark(int64_t event) {
    std::lock_guard<std::mutex> lk(mu_);
    log_.push_back(event);
  }
  std::vector<int64_t> log() const {
    std::lock_guard<std::mutex> lk(mu_);
    return log_;
  }

 private:
  BlockDevice* inner_;
  mutable std::mutex mu_;
  std::vector<int64_t> log_;
};

TEST_F(JournalFixture, CommitRecordsAreStrictlySequenced) {
  // Each transaction's commit record follows a flush that follows its
  // payload, the before-barrier hook runs between the payload and that
  // flush, and the next transaction starts only once the commit record is
  // flushed -- the prefix property the torn-tail audit depends on.
  OrderLogDevice logged(dev.get());
  Journal journal(&logged, geo);
  ASSERT_TRUE(journal.open().ok());
  const auto hook = [&] {
    logged.mark(OrderLogDevice::kHook);
    return Status::Ok();
  };
  auto seq1 = journal.commit({record(geo.data_start, 0x11)}, {}, 1, hook);
  auto seq2 = journal.commit({record(geo.data_start + 1, 0x22)}, {}, 1, hook);
  ASSERT_TRUE(seq1.ok());
  ASSERT_TRUE(seq2.ok());
  EXPECT_EQ(seq1.value(), 1u);
  EXPECT_EQ(seq2.value(), 2u);

  // Layout: header js, txn1 = [js+1 desc, js+2 payload, js+3 commit],
  // txn2 = [js+4, js+5, js+6].
  const auto js = static_cast<int64_t>(geo.journal_start);
  constexpr int64_t F = OrderLogDevice::kFlush;
  constexpr int64_t H = OrderLogDevice::kHook;
  const std::vector<int64_t> expected = {js + 1, js + 2, H, F, js + 3, F,
                                         js + 4, js + 5, H, F, js + 6, F};
  EXPECT_EQ(logged.log(), expected);

  ASSERT_TRUE(Journal::replay(dev.get(), geo).ok());
  EXPECT_EQ(read_block(geo.data_start), block_of(0x11));
  EXPECT_EQ(read_block(geo.data_start + 1), block_of(0x22));
}

TEST_F(JournalFixture, FailedCommitReusesItsSeqAndBlocks) {
  // The second transaction's descriptor write fails: commit reports the
  // error, and the retry reuses the same sequence number and journal
  // blocks -- the stale remains stay below the tail audit's floor.
  FaultBlockDevice fdev(dev.get());
  Journal journal(&fdev, geo);
  ASSERT_TRUE(journal.open().ok());
  ASSERT_TRUE(journal.commit({record(geo.data_start, 0x11)}).ok());
  fdev.arm_write_error_at(fdev.writes_seen());
  EXPECT_EQ(journal.commit({record(geo.data_start + 1, 0x22)}).error(),
            Errno::kIo);
  EXPECT_EQ(journal.committed_seq(), 1u);
  EXPECT_DOUBLE_EQ(journal.fill_ratio(), 4.0 / 64.0);  // header + txn 1

  auto retry = journal.commit({record(geo.data_start + 1, 0x55)});
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.value(), 2u);  // seq + blocks reused
  EXPECT_DOUBLE_EQ(journal.fill_ratio(), 7.0 / 64.0);

  auto replayed = Journal::replay(dev.get(), geo);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().applied_txns, 2u);
  EXPECT_EQ(read_block(geo.data_start), block_of(0x11));
  EXPECT_EQ(read_block(geo.data_start + 1), block_of(0x55));
}

TEST_F(JournalFixture, BeforeBarrierErrorWithholdsTheCommitRecord) {
  // The group commit's ordered-mode data writes failed: the hook's error
  // comes back from commit, no flush and no commit record follow the
  // payload, replay applies nothing, and the retry reuses the sequence
  // number.
  OrderLogDevice logged(dev.get());
  Journal journal(&logged, geo);
  ASSERT_TRUE(journal.open().ok());
  auto failed = journal.commit({record(geo.data_start, 0x11)}, {}, 1,
                               [] { return Status(Errno::kIo); });
  EXPECT_EQ(failed.error(), Errno::kIo);
  const auto js = static_cast<int64_t>(geo.journal_start);
  EXPECT_EQ(logged.log(), (std::vector<int64_t>{js + 1, js + 2}));
  auto seqs = Journal::scan(dev.get(), geo);
  ASSERT_TRUE(seqs.ok());
  EXPECT_TRUE(seqs.value().empty()) << "a torn tail, not a transaction";

  auto retry = journal.commit({record(geo.data_start, 0x22)});
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.value(), 1u);
  auto replayed = Journal::replay(dev.get(), geo);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().applied_txns, 1u);
  EXPECT_EQ(read_block(geo.data_start), block_of(0x22));
}

TEST_F(JournalFixture, CommittedRecordsDedupsLatestWins) {
  // The checkpointer's journal re-read: one record per target, the
  // latest committed copy winning.
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  ASSERT_TRUE(journal.commit({record(geo.data_start, 0x01)}).ok());
  ASSERT_TRUE(journal
                  .commit({record(geo.data_start, 0x02),
                           record(geo.data_start + 1, 0x03)})
                  .ok());
  auto records = journal.committed_records();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), 2u);
  for (const auto& r : records.value()) {
    if (r.target == geo.data_start) {
      EXPECT_EQ(*r.data, block_of(0x02));
    } else {
      EXPECT_EQ(r.target, geo.data_start + 1);
      EXPECT_EQ(*r.data, block_of(0x03));
    }
  }
}

// ---------------------------------------------------------------------------
// Revoke records: a transaction that frees a previously-journaled metadata
// block carries a revoke, and replay suppresses every journaled copy at or
// below the revoking sequence (the missing-revoke stale-replay fix).
// ---------------------------------------------------------------------------

TEST_F(JournalFixture, ReplaySkipsRevokedBlocks) {
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  BlockNo victim = geo.data_start + 5;
  BlockNo other = geo.data_start + 6;
  ASSERT_TRUE(journal.commit({record(victim, 0xAA)}).ok());
  ASSERT_TRUE(journal.commit({record(other, 0xBB)}, {victim}).ok());
  auto replayed = Journal::replay(dev.get(), geo);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().applied_txns, 2u);
  EXPECT_EQ(replayed.value().applied_blocks, 1u);
  EXPECT_EQ(read_block(victim), block_of(0));  // stale copy suppressed
  EXPECT_EQ(read_block(other), block_of(0xBB));
}

TEST_F(JournalFixture, ReJournalAfterRevokeIsReplayed) {
  // A later transaction re-journals the revoked block (reallocated as
  // metadata again): only copies at or below the revoking sequence are
  // suppressed, newer copies replay normally.
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  BlockNo victim = geo.data_start + 2;
  ASSERT_TRUE(journal.commit({record(victim, 0x01)}).ok());
  ASSERT_TRUE(journal.commit({record(geo.data_start, 0x02)}, {victim}).ok());
  ASSERT_TRUE(journal.commit({record(victim, 0x03)}).ok());
  auto replayed = Journal::replay(dev.get(), geo);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(read_block(victim), block_of(0x03));
  // Parallel replay makes the same call.
  SetUp();
  Journal journal2(dev.get(), geo);
  ASSERT_TRUE(journal2.open().ok());
  ASSERT_TRUE(journal2.commit({record(victim, 0x01)}).ok());
  ASSERT_TRUE(journal2.commit({record(geo.data_start, 0x02)}, {victim}).ok());
  ASSERT_TRUE(journal2.commit({record(victim, 0x03)}).ok());
  ASSERT_TRUE(Journal::replay(dev.get(), geo, 4).ok());
  EXPECT_EQ(read_block(victim), block_of(0x03));
}

TEST_F(JournalFixture, CommittedRecordsHonorRevokes) {
  // The checkpointer's journal re-read must not resurrect revoked blocks
  // either, or the checkpoint itself would rewrite the stale copy.
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  BlockNo victim = geo.data_start + 9;
  ASSERT_TRUE(journal.commit({record(victim, 0x10)}).ok());
  ASSERT_TRUE(journal.commit({record(geo.data_start, 0x20)}, {victim}).ok());
  auto records = journal.committed_records();
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), 1u);
  EXPECT_EQ(records.value()[0].target, geo.data_start);
}

TEST_F(JournalFixture, RevokeListCountsAgainstDescriptorCapacity) {
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  std::vector<JournalRecord> recs{record(geo.data_start, 0x01)};
  std::vector<BlockNo> revoked(Journal::max_descriptor_entries(),
                               geo.data_start + 1);
  EXPECT_EQ(journal.commit(recs, revoked).error(), Errno::kInval);
  // Exactly at capacity the commit goes through and round-trips.
  revoked.resize(Journal::max_descriptor_entries() - recs.size());
  ASSERT_TRUE(journal.commit(recs, revoked).ok());
  auto replayed = Journal::replay(dev.get(), geo);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(read_block(geo.data_start), block_of(0x01));
}

// ---------------------------------------------------------------------
// Multi-chunk transactions (a commit of more records than one descriptor
// holds): one sequence number spanning several descriptor chunks, atomic
// under power cuts.
// ---------------------------------------------------------------------

struct JournalMultiFixture : ::testing::Test {
  // Big enough that a >1-chunk transaction (more than
  // max_descriptor_entries() records) fits the journal region.
  void SetUp() override {
    dev = std::make_unique<MemBlockDevice>(8192);
    geo = compute_geometry(8192, 128, 1024).value();
    ASSERT_TRUE(Journal::format(dev.get(), geo).ok());
  }

  JournalRecord record(BlockNo target, uint8_t fill) {
    return JournalRecord{target, std::vector<uint8_t>(kBlockSize, fill)};
  }

  std::vector<uint8_t> read_block(BlockNo b) {
    std::vector<uint8_t> out(kBlockSize);
    EXPECT_TRUE(dev->read_block(b, out).ok());
    return out;
  }

  std::unique_ptr<MemBlockDevice> dev;
  Geometry geo;
};

TEST_F(JournalMultiFixture, SingleChunkRoundTrip) {
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  std::vector<JournalRecord> recs;
  for (int i = 0; i < 5; ++i) recs.push_back(record(geo.data_start + i, 0x40 + i));
  auto seq = journal.commit(recs);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq.value(), 1u);

  auto replayed = Journal::replay(dev.get(), geo);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().applied_txns, 1u);
  EXPECT_EQ(replayed.value().applied_blocks, 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(read_block(geo.data_start + i),
              std::vector<uint8_t>(kBlockSize, 0x40 + i));
  }
}

TEST_F(JournalMultiFixture, MultiChunkSharesOneSeqAndReplays) {
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  const size_t n = Journal::max_descriptor_entries() + 12;  // forces 2 chunks
  ASSERT_GT(Journal::blocks_needed(n), n + 2);  // really chunked
  std::vector<JournalRecord> recs;
  for (size_t i = 0; i < n; ++i) {
    recs.push_back(record(geo.data_start + i, static_cast<uint8_t>(i)));
  }
  auto seq = journal.commit(recs);
  ASSERT_TRUE(seq.ok());

  auto seqs = Journal::scan(dev.get(), geo);
  ASSERT_TRUE(seqs.ok());
  ASSERT_EQ(seqs.value().size(), 1u);  // chunks are ONE transaction
  EXPECT_EQ(seqs.value()[0], seq.value());

  auto replayed = Journal::replay(dev.get(), geo);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().applied_txns, 1u);
  EXPECT_EQ(replayed.value().applied_blocks, n);
  for (size_t i = 0; i < n; i += 97) {
    EXPECT_EQ(read_block(geo.data_start + i),
              std::vector<uint8_t>(kBlockSize, static_cast<uint8_t>(i)));
  }
}

TEST_F(JournalMultiFixture, TornMultiChunkDiscardsWholeSet) {
  // Power cut between the last chunk and the commit record: every chunk
  // is on device but no commit record exists. Replay must apply NOTHING.
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  const size_t n = Journal::max_descriptor_entries() + 12;
  std::vector<JournalRecord> recs;
  for (size_t i = 0; i < n; ++i) recs.push_back(record(geo.data_start + i, 0x55));
  ASSERT_TRUE(journal.commit(recs).ok());

  // Simulate the cut by destroying the commit record (the transaction's
  // last journal block on a fresh journal).
  const BlockNo commit_at =
      geo.journal_start + Journal::blocks_needed(n);
  ASSERT_TRUE(
      dev->write_block(commit_at, std::vector<uint8_t>(kBlockSize, 0)).ok());

  auto replayed = Journal::replay(dev.get(), geo);
  ASSERT_TRUE(replayed.ok()) << "torn tail, not corruption";
  EXPECT_EQ(replayed.value().applied_txns, 0u);
  EXPECT_EQ(replayed.value().applied_blocks, 0u);
  for (size_t i = 0; i < n; i += 97) {
    EXPECT_EQ(read_block(geo.data_start + i),
              std::vector<uint8_t>(kBlockSize, 0));
  }
}

TEST_F(JournalMultiFixture, RevokesRideTheFirstChunk) {
  // An earlier transaction journals `victim`; the multi-chunk install
  // revokes it. Replay must not resurrect the old copy.
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  const BlockNo victim = geo.data_start + 4000;
  ASSERT_TRUE(journal.commit({record(victim, 0x66)}).ok());
  const size_t n = Journal::max_descriptor_entries() + 12;
  std::vector<JournalRecord> recs;
  for (size_t i = 0; i < n; ++i) recs.push_back(record(geo.data_start + i, 0x77));
  ASSERT_TRUE(journal.commit(recs, {victim}).ok());

  auto replayed = Journal::replay(dev.get(), geo);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().applied_txns, 2u);
  EXPECT_EQ(read_block(victim), std::vector<uint8_t>(kBlockSize, 0))
      << "revoked copy must not be replayed";
  EXPECT_EQ(read_block(geo.data_start), std::vector<uint8_t>(kBlockSize, 0x77));
}

TEST_F(JournalMultiFixture, MixedWithPlainCommitsRoundTrips) {
  // Old-style commits before and after a multi-chunk transaction: the
  // extension must not disturb ordinary sequencing (backward compat).
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  ASSERT_TRUE(journal.commit({record(geo.data_start + 0, 0x01)}).ok());
  const size_t n = Journal::max_descriptor_entries() + 3;
  std::vector<JournalRecord> recs;
  for (size_t i = 0; i < n; ++i) {
    recs.push_back(record(geo.data_start + 10 + i, 0x02));
  }
  ASSERT_TRUE(journal.commit(recs).ok());
  ASSERT_TRUE(journal.commit({record(geo.data_start + 1, 0x03)}).ok());

  auto replayed = Journal::replay(dev.get(), geo);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().applied_txns, 3u);
  EXPECT_EQ(read_block(geo.data_start + 0), std::vector<uint8_t>(kBlockSize, 0x01));
  EXPECT_EQ(read_block(geo.data_start + 10), std::vector<uint8_t>(kBlockSize, 0x02));
  EXPECT_EQ(read_block(geo.data_start + 1), std::vector<uint8_t>(kBlockSize, 0x03));
}

TEST_F(JournalMultiFixture, RefusesEmptyOversizedAndBusy) {
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  EXPECT_EQ(journal.commit({}).error(), Errno::kInval);

  std::vector<BlockNo> revoked(Journal::max_descriptor_entries(),
                               geo.data_start);
  EXPECT_EQ(journal.commit({record(geo.data_start, 1)}, revoked).error(),
            Errno::kInval);

  // A set that cannot fit the region: kNoSpace, nothing written, and the
  // journal stays usable for a smaller commit.
  std::vector<JournalRecord> huge;
  for (uint64_t i = 0; i < geo.journal_blocks; ++i) {
    huge.push_back(record(geo.data_start + i, 0x11));
  }
  EXPECT_EQ(journal.commit(huge).error(), Errno::kNoSpace);
  EXPECT_TRUE(journal.commit({record(geo.data_start, 0x12)}).ok());
  auto replayed = Journal::replay(dev.get(), geo);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().applied_txns, 1u);
  EXPECT_EQ(read_block(geo.data_start), std::vector<uint8_t>(kBlockSize, 0x12));
}

TEST_F(JournalMultiFixture, MultiChunkReplaysInOrder) {
  // A transaction with more records than one descriptor holds, plus a
  // revoke, and a single-chunk transaction right behind it: both replay
  // in full, in sequence order.
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  const BlockNo victim = geo.data_start + 4000;
  ASSERT_TRUE(journal.commit({record(victim, 0x66)}).ok());
  const size_t n = Journal::max_descriptor_entries() + 12;
  std::vector<JournalRecord> recs;
  for (size_t i = 0; i < n; ++i) recs.push_back(record(geo.data_start + i, 0x77));
  EXPECT_TRUE(journal.has_space(n, 1));
  EXPECT_FALSE(journal.has_space(1, Journal::max_descriptor_entries()));

  auto big = journal.commit(recs, {victim});
  auto small = journal.commit({record(geo.data_start, 0x88)});
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small.value(), big.value() + 1);

  auto seqs = Journal::scan(dev.get(), geo);
  ASSERT_TRUE(seqs.ok());
  EXPECT_EQ(seqs.value().size(), 3u);
  auto replayed = Journal::replay(dev.get(), geo);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().applied_txns, 3u);
  EXPECT_EQ(replayed.value().applied_blocks, n + 1);  // victim's copy revoked
  EXPECT_EQ(read_block(victim), std::vector<uint8_t>(kBlockSize, 0));
  EXPECT_EQ(read_block(geo.data_start), std::vector<uint8_t>(kBlockSize, 0x88))
      << "the later transaction must win";
  EXPECT_EQ(read_block(geo.data_start + n - 1),
            std::vector<uint8_t>(kBlockSize, 0x77));
}

TEST_F(JournalMultiFixture, MultiChunkCutBeforeCommitDiscardsAll) {
  // Power cut at the commit record of a multi-chunk transaction: its
  // payload flush completed, so every chunk is durable, yet replay
  // applies none of it -- its revoke included.
  FaultBlockDevice fdev(dev.get());
  Journal journal(&fdev, geo);
  ASSERT_TRUE(journal.open().ok());
  const BlockNo victim = geo.data_start + 4000;
  ASSERT_TRUE(journal.commit({record(victim, 0x66)}).ok());
  const size_t n = Journal::max_descriptor_entries() + 12;
  std::vector<JournalRecord> recs;
  for (size_t i = 0; i < n; ++i) recs.push_back(record(geo.data_start + i, 0x77));

  // The commit record is the transaction's last write.
  fdev.arm_crash_after_writes(fdev.writes_seen() +
                              Journal::blocks_needed(n, 1) - 1);
  EXPECT_FALSE(journal.commit(recs, {victim}).ok());
  fdev.disarm();
  dev->crash();

  auto replayed = Journal::replay(dev.get(), geo);
  ASSERT_TRUE(replayed.ok()) << "torn tail, not corruption";
  EXPECT_EQ(replayed.value().applied_txns, 1u);
  EXPECT_EQ(read_block(victim), std::vector<uint8_t>(kBlockSize, 0x66));
  for (size_t i = 0; i < n; i += 97) {
    EXPECT_EQ(read_block(geo.data_start + i),
              std::vector<uint8_t>(kBlockSize, 0));
  }
}

}  // namespace
}  // namespace raefs
