// Shadow replay driver (paper §3.2, "Recovery").
//
// Executes a recorded operation sequence on a ShadowFs over the trusted
// on-disk state S0:
//   - constrained mode for completed operations: re-executes them, forcing
//     the base's policy decisions (assigned inode numbers) after
//     validating they are usable, and cross-checks every outcome against
//     what the application was shown. Operations the base failed with an
//     error are omitted. Discrepancies are reported (and, configurably,
//     tolerated or fatal).
//   - autonomous mode for in-flight operations (outcome never seen by the
//     application): the shadow makes its own policy decisions and returns
//     the result for the supervisor to deliver.
// The shadow never executes fsync/sync: completed syncs are already on
// disk; an in-flight sync is re-issued by the rebooted base (§3.3).
//
// Replay is serial and starts no thread: it reads whatever device it is
// given, decoding and validating every block. The read-ahead that
// replay_workers asks for is the caller's (rae/executor.h run_shadow).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "oplog/op.h"
#include "shadowfs/shadow_fs.h"

namespace raefs {

struct ShadowConfig {
  ShadowCheckLevel checks = ShadowCheckLevel::kExtensive;
  /// Paper: "Discrepancies in output are reported; whether or not to
  /// continue can be configured."
  bool continue_on_discrepancy = true;
  /// Read-ahead fan-out that run_shadow (rae/executor.h) reads: concurrent
  /// device reads that fetch the metadata footprint before the serial
  /// replay runs. 1 reads the device directly (the reference path) and 0
  /// means auto (blockdev/qdepth_probe.h). shadow_execute ignores it; any
  /// value produces an identical outcome.
  uint32_t replay_workers = 1;
};

struct Discrepancy {
  Seq seq = 0;
  std::string description;
};

struct ShadowOutcome {
  /// False when the shadow refused (check failure, e.g. corrupt image) or
  /// a discrepancy was fatal per config. The dirty set is then unusable.
  bool ok = false;
  std::string failure;

  /// The complete recovered update set, ready for metadata download.
  std::vector<InstallBlock> dirty;

  std::vector<Discrepancy> discrepancies;

  /// Autonomous-mode results for in-flight ops, in op order.
  std::vector<std::pair<Seq, OpOutcome>> inflight_results;
  /// Seqs of in-flight sync ops the rebooted base must re-issue.
  std::vector<Seq> inflight_retry_syncs;

  uint64_t ops_replayed = 0;
  uint64_t ops_skipped_errored = 0;
  uint64_t ops_skipped_sync = 0;
  uint64_t device_reads = 0;
  uint64_t checks = 0;
  /// Simulated time consumed by the replay (clock delta). Lets a
  /// fork-isolated executor report time back to the parent's clock.
  Nanos sim_time_used = 0;
};

/// Run the full recovery replay over `dev` (accessed read-only).
ShadowOutcome shadow_execute(BlockDevice* dev,
                             const std::vector<OpRecord>& log,
                             const ShadowConfig& config,
                             SimClockPtr clock = nullptr);

}  // namespace raefs
