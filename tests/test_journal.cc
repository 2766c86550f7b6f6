// Journal tests: commit/replay round trips, torn-transaction discard,
// checkpoint floor behaviour, idempotent replay, the stale-transaction
// floor-preservation regression, and the pipelined commit path's strict
// commit-record sequencing / failure-rewind behaviour.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>

#include "blockdev/async_device.h"
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
// Pipelined commit path
// ---------------------------------------------------------------------------

/// Logs the order of writes (block number) and flushes (-1) reaching the
/// device, so ordering invariants can be asserted after the fact.
class OrderLogDevice final : public BlockDevice {
 public:
  explicit OrderLogDevice(BlockDevice* inner) : inner_(inner) {}
  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t block_count() const override { return inner_->block_count(); }
  Status read_block(BlockNo b, std::span<uint8_t> out) override {
    return inner_->read_block(b, out);
  }
  Status write_block(BlockNo b, std::span<const uint8_t> d) override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      log_.push_back(static_cast<int64_t>(b));
    }
    return inner_->write_block(b, d);
  }
  Status flush() override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      log_.push_back(-1);
    }
    return inner_->flush();
  }
  const DeviceStats& stats() const override { return inner_->stats(); }
  std::vector<int64_t> log() const {
    std::lock_guard<std::mutex> lk(mu_);
    return log_;
  }

 private:
  BlockDevice* inner_;
  mutable std::mutex mu_;
  std::vector<int64_t> log_;
};

/// Holds every write at the device boundary until opened, so a test can
/// stage multiple async transactions before the first byte (and the first
/// injected fault) can land. Reads and flushes pass through.
class GateDevice final : public BlockDevice {
 public:
  explicit GateDevice(BlockDevice* inner) : inner_(inner) {}
  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t block_count() const override { return inner_->block_count(); }
  Status read_block(BlockNo b, std::span<uint8_t> out) override {
    return inner_->read_block(b, out);
  }
  Status write_block(BlockNo b, std::span<const uint8_t> d) override {
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return open_; });
    }
    return inner_->write_block(b, d);
  }
  Status flush() override { return inner_->flush(); }
  const DeviceStats& stats() const override { return inner_->stats(); }
  void open_gate() {
    std::lock_guard<std::mutex> lk(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  BlockDevice* inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST_F(JournalFixture, PipelinedCommitRecordsAreStrictlySequenced) {
  // Two transactions staged back to back. Whatever the async workers do,
  // txn 2's commit record must reach the device only after txn 1's commit
  // record AND a flush behind it (txn 1 durable first) -- the prefix
  // property the torn-tail audit depends on.
  OrderLogDevice logged(dev.get());
  Journal journal(&logged, geo);
  ASSERT_TRUE(journal.open().ok());
  AsyncBlockDevice async(&logged, 2);

  std::atomic<int> done_order{0};
  std::atomic<int> first_done{0}, second_done{0};
  auto seq1 = journal.commit_async(
      {record(geo.data_start, 0x11)}, &async, [&](Status st, uint64_t) {
        EXPECT_TRUE(st.ok());
        first_done = done_order.fetch_add(1) + 1;
      });
  auto seq2 = journal.commit_async(
      {record(geo.data_start + 1, 0x22)}, &async, [&](Status st, uint64_t) {
        EXPECT_TRUE(st.ok());
        second_done = done_order.fetch_add(1) + 1;
      });
  ASSERT_TRUE(seq1.ok());
  ASSERT_TRUE(seq2.ok());
  EXPECT_EQ(seq1.value(), 1u);
  EXPECT_EQ(seq2.value(), 2u);
  async.drain();
  EXPECT_EQ(journal.staged_txns(), 0u);
  EXPECT_EQ(first_done.load(), 1);
  EXPECT_EQ(second_done.load(), 2);

  // Layout: header js, txn1 = [js+1 desc, js+2 payload, js+3 commit],
  // txn2 = [js+4, js+5, js+6].
  const auto js = static_cast<int64_t>(geo.journal_start);
  auto log = logged.log();
  auto index_of = [&](int64_t v, size_t from) {
    for (size_t i = from; i < log.size(); ++i) {
      if (log[i] == v) return i;
    }
    ADD_FAILURE() << "event " << v << " not found from " << from;
    return log.size();
  };
  size_t commit1 = index_of(js + 3, 0);
  size_t flush_after_commit1 = index_of(-1, commit1 + 1);
  size_t commit2 = index_of(js + 6, 0);
  EXPECT_GT(commit2, flush_after_commit1)
      << "txn 2's commit record landed before txn 1 was durable";

  ASSERT_TRUE(Journal::replay(dev.get(), geo).ok());
  EXPECT_EQ(read_block(geo.data_start), block_of(0x11));
  EXPECT_EQ(read_block(geo.data_start + 1), block_of(0x22));
}

TEST_F(JournalFixture, PipelineFailureAbortsSuffixAndRewindReusesSeqs) {
  // The first transaction's descriptor write fails: both staged
  // transactions must abort (commit records are strictly sequenced, so the
  // suffix shares the fate), the pipeline reports failed, and after a
  // drain + rewind the retry reuses the same sequence numbers and journal
  // blocks -- the stale remains stay below the tail audit's floor.
  FaultBlockDevice fdev(dev.get());
  GateDevice gate(&fdev);
  Journal journal(&gate, geo);
  ASSERT_TRUE(journal.open().ok());
  AsyncBlockDevice async(&gate, 1);
  // The gate holds all writes until both transactions are staged, so the
  // injected fault cannot fire (and poison the pipeline) between the two
  // commit_async calls.
  fdev.arm_write_error_at(0);

  std::atomic<int> failures{0};
  auto fail_cb = [&](Status st, uint64_t) {
    if (!st.ok()) failures.fetch_add(1);
  };
  auto seq1 =
      journal.commit_async({record(geo.data_start, 0x11)}, &async, fail_cb);
  auto seq2 = journal.commit_async({record(geo.data_start + 1, 0x22)}, &async,
                                   fail_cb);
  ASSERT_TRUE(seq1.ok());
  ASSERT_TRUE(seq2.ok());
  gate.open_gate();
  async.drain();
  EXPECT_EQ(failures.load(), 2);
  EXPECT_TRUE(journal.pipeline_failed());
  EXPECT_EQ(journal.commit_async({record(geo.data_start, 0x33)}, &async,
                                 fail_cb)
                .error(),
            Errno::kBusy);

  journal.rewind_pipeline();
  EXPECT_FALSE(journal.pipeline_failed());
  std::atomic<int> oks{0};
  auto ok_cb = [&](Status st, uint64_t) {
    if (st.ok()) oks.fetch_add(1);
  };
  auto retry1 =
      journal.commit_async({record(geo.data_start, 0x44)}, &async, ok_cb);
  auto retry2 = journal.commit_async({record(geo.data_start + 1, 0x55)},
                                     &async, ok_cb);
  ASSERT_TRUE(retry1.ok());
  ASSERT_TRUE(retry2.ok());
  EXPECT_EQ(retry1.value(), seq1.value());  // seq + blocks reused
  EXPECT_EQ(retry2.value(), seq2.value());
  async.drain();
  EXPECT_EQ(oks.load(), 2);

  auto replayed = Journal::replay(dev.get(), geo);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().applied_txns, 2u);
  EXPECT_EQ(read_block(geo.data_start), block_of(0x44));
  EXPECT_EQ(read_block(geo.data_start + 1), block_of(0x55));
}

TEST_F(JournalFixture, FlushAsyncBarrierOrdersBehindStagedTxns) {
  // A barrier-only epoch completes strictly after the transaction staged
  // before it -- the property a data-only fsync's ack rests on.
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  AsyncBlockDevice async(dev.get(), 2);

  std::atomic<int> order{0};
  std::atomic<int> txn_done{0}, barrier_done{0};
  ASSERT_TRUE(journal
                  .commit_async({record(geo.data_start, 0x11)}, &async,
                                [&](Status st, uint64_t) {
                                  EXPECT_TRUE(st.ok());
                                  txn_done = order.fetch_add(1) + 1;
                                })
                  .ok());
  ASSERT_TRUE(journal
                  .flush_async(&async,
                               [&](Status st, uint64_t) {
                                 EXPECT_TRUE(st.ok());
                                 barrier_done = order.fetch_add(1) + 1;
                               })
                  .ok());
  async.drain();
  EXPECT_EQ(txn_done.load(), 1);
  EXPECT_EQ(barrier_done.load(), 2);
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

TEST_F(JournalMultiFixture, PipelinedMultiChunkReplaysInOrder) {
  // A pipelined transaction with more records than one descriptor holds,
  // plus a revoke, and a single-chunk transaction staged right behind it:
  // both replay in full, in sequence order.
  Journal journal(dev.get(), geo);
  ASSERT_TRUE(journal.open().ok());
  const BlockNo victim = geo.data_start + 4000;
  ASSERT_TRUE(journal.commit({record(victim, 0x66)}).ok());
  const size_t n = Journal::max_descriptor_entries() + 12;
  std::vector<JournalRecord> recs;
  for (size_t i = 0; i < n; ++i) recs.push_back(record(geo.data_start + i, 0x77));
  EXPECT_TRUE(journal.has_space(n, 1));
  EXPECT_FALSE(journal.has_space(1, Journal::max_descriptor_entries()));

  AsyncBlockDevice async(dev.get(), 2);
  std::atomic<int> oks{0};
  auto ok_cb = [&](Status st, uint64_t) {
    if (st.ok()) oks.fetch_add(1);
  };
  auto big = journal.commit_async(recs, &async, ok_cb, nullptr, {victim});
  auto small =
      journal.commit_async({record(geo.data_start, 0x88)}, &async, ok_cb);
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small.value(), big.value() + 1);
  async.drain();
  EXPECT_EQ(oks.load(), 2);

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

TEST_F(JournalMultiFixture, PipelinedMultiChunkCutBeforeCommitDiscardsAll) {
  // Power cut at the commit record of a multi-chunk pipelined
  // transaction: its payload barrier completed, so every chunk is
  // durable, yet replay applies none of it -- its revoke included.
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
  AsyncBlockDevice async(&fdev, 1);
  std::atomic<bool> failed{false};
  auto seq = journal.commit_async(
      recs, &async, [&](Status st, uint64_t) { failed = !st.ok(); }, nullptr,
      {victim});
  ASSERT_TRUE(seq.ok());
  async.drain();
  EXPECT_TRUE(failed.load());
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
