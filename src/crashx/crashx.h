// Crash-point exploration and single-shot error injection harness.
//
// crashx answers the question "does the filesystem survive dying at any
// point, and does every error path unwind cleanly?" mechanically:
//
//   1. Baseline. A deterministic workload (crashx/ops.h) runs against a
//      fresh image behind an unfaulted FaultBlockDevice. After every
//      successful sync/fsync the harness snapshots the ModelFs oracle
//      together with the device write counter -- a *durable point*. The
//      total write count bounds the crash-point space.
//
//   2. Crash points. For every k in [0, total_writes) the run repeats on a
//      copy-on-write clone of the master image with the device armed to
//      die at the k-th write (the write fails and the device stays dead).
//      The machine is then "power-cycled": the in-memory BaseFs is dropped
//      without unmount and the device's volatile cache is discarded. A
//      remount replays the journal; the surviving tree must match one of
//      the two durable-point candidates bracketing k (the crash may land
//      after the next commit record became durable but before its
//      checkpoint), and a strict fsck must report a consistent, leak-free
//      image. Content of files written after the candidate point is
//      exempt (ordered-mode data reaches disk before the journal commit);
//      structure, sizes, and link counts are never exempt.
//
//   3. Injections. For every device IO site the run repeats with a
//      single-shot EIO armed at that write (or read) index. The fs must
//      absorb the error without panicking or leaking: all ops run, a
//      retried sync must succeed (the injection is one-shot), unmount
//      must succeed, strict fsck must be consistent AND leak-free, and a
//      remount must show exactly the oracle state.
//
// Any violation is a Divergence; the shrinker minimizes the op sequence
// that reproduces one, and the text repro format persists it for a
// regression test to replay (docs/CRASHX.md).
#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "crashx/ops.h"

namespace raefs {
namespace crashx {

struct CrashxOptions {
  uint64_t seed = 42;
  size_t num_ops = 64;
  /// Force a full sync() every this many ops: frequent durable points
  /// for the oracle. It also keeps every epoch far below one journal
  /// descriptor, so generated workloads never reach a multi-chunk commit;
  /// the Persistence power-cut sweep in test_basefs_persistence covers
  /// that shape.
  size_t sync_every = 8;

  /// Image geometry for the master device.
  uint64_t total_blocks = 4096;
  uint64_t inode_count = 512;
  uint64_t journal_blocks = 128;

  /// Caps for bounded (smoke) runs; 0 = exhaustive.
  uint64_t max_crash_points = 0;
  uint64_t max_write_injections = 0;
  uint64_t max_read_injections = 0;

  /// Reorder-sweep knobs (explore_reorder / fuzz). The sweep runs the
  /// workload once per flush barrier with the device buffering writes
  /// between barriers; at each barrier it crashes the device and
  /// materializes barrier-respecting subsets of the frozen pending epoch.
  /// Cap on barriers swept (0 = every barrier the baseline issued).
  uint64_t max_reorder_flushes = 0;
  /// Pending-set size at or below which ALL 2^n subsets are enumerated.
  uint32_t reorder_exhaustive_limit = 6;
  /// Above the exhaustive limit: states per epoch, drawn as a
  /// deterministic core (empty set, full set, singletons, leave-one-outs)
  /// topped up with seeded random subsets.
  uint32_t reorder_states_per_epoch = 64;
};

enum class FaultKind : uint8_t {
  kNone = 0,
  kCrashAtWrite,     // device dies at write index N and stays dead
  kWriteErrorAt,     // single-shot EIO at write index N
  kReadErrorAt,      // single-shot EIO at read index N
  kReorderAtFlush,   // device dies at flush barrier N with writes buffered;
                     // a schedule picks which pending writes hit the platter
};

struct Fault {
  FaultKind kind = FaultKind::kNone;
  uint64_t index = 0;
};

struct Divergence {
  Fault fault;
  std::string detail;
  /// kReorderAtFlush only: positions into the frozen pending epoch that
  /// were materialized (ascending submission order).
  std::vector<uint32_t> schedule;
};

struct Report {
  uint64_t crash_points = 0;
  uint64_t write_sites = 0;
  uint64_t read_sites = 0;
  uint64_t baseline_writes = 0;
  uint64_t baseline_reads = 0;
  uint64_t reorder_epochs = 0;  // flush barriers swept in reorder mode
  uint64_t reorder_states = 0;  // crash states materialized and judged
  std::vector<Divergence> divergences;
  bool ok() const { return divergences.empty(); }
  std::string summary() const;
};

/// Run the full exploration (baseline, every crash point, every injection
/// site, subject to the caps). Fails only on harness-level setup errors;
/// filesystem misbehaviour is reported as divergences.
Result<Report> explore(const CrashxOptions& opts);

/// Barrier-respecting write-reorder sweep (crashx v2, B3/CrashMonkey
/// style) over the same generated workload explore() uses: for each flush
/// barrier, freeze the writes pending since the previous barrier and judge
/// every enumerated subset of them (latest write per block wins, barriers
/// never crossed) against the remount + strict-fsck + durable-prefix
/// oracle. A crash state's tree must match a durable point in the window
/// the subset brackets: from the last point durable with no pending write
/// applied through the point after the last one durable with all of them.
Result<Report> explore_reorder(const CrashxOptions& opts);

/// The schedules explore_reorder judges for an epoch of `n` pending
/// writes: exhaustive 2^n when n <= exhaustive_limit (and n < 20),
/// otherwise a deterministic core (empty set, full set, every singleton,
/// every leave-one-out) topped up with seeded random subsets, capped at
/// `max_states`. Each schedule lists kept positions in ascending order --
/// positions are always < n, so no schedule can cross a barrier. The same
/// (n, seed, limits) always yields the same set; exposed so tests can pin
/// those properties directly.
std::vector<std::vector<uint32_t>> enumerate_schedules(size_t n,
                                                       uint64_t seed,
                                                       uint32_t exhaustive_limit,
                                                       uint32_t max_states);

/// CI-soak fuzzing: rounds of freshly generated workloads (alternating the
/// bug-study pattern generator and the uniform generator, reseeded each
/// round) swept with explore_reorder until `state_budget` crash states
/// have been judged. Divergences are deduplicated by detail signature and,
/// when `corpus_dir` is set, persisted there as replayable .repro files.
struct FuzzOptions {
  uint64_t seed = 42;
  /// Stop once this many reorder crash states have been judged.
  uint64_t state_budget = 10000;
  /// Safety valve on workload rounds (0 = none).
  uint64_t max_rounds = 0;
  size_t num_ops = 48;
  size_t sync_every = 6;
  uint64_t total_blocks = 256;
  uint64_t inode_count = 64;
  uint64_t journal_blocks = 32;
  uint32_t reorder_exhaustive_limit = 6;
  uint32_t reorder_states_per_epoch = 64;
  /// Directory for failing-schedule repro files ("" = do not persist).
  std::string corpus_dir;
};

Result<Report> fuzz(const FuzzOptions& opts);

/// Options for the concurrent explorer (crashx/concurrent.cc): N threads
/// append pattern bytes to per-thread files with an fsync after every
/// append. Thread scheduling makes device write order nondeterministic, so
/// the oracle is schedule-independent by construction: content is a pure
/// function of (seed, file, offset), the workload is append-only, and the
/// invariant checked after every crash is "file size covers every
/// fsync-acked length, and every byte up to the size matches the pattern".
struct ConcurrentOptions {
  uint64_t seed = 42;
  int threads = 4;
  size_t appends_per_thread = 12;
  /// Deliberately not block-aligned: appends re-write the tail block, so
  /// the sweep exercises epochs whose data writes overlap earlier epochs'.
  size_t chunk_bytes = 6144;

  uint64_t total_blocks = 4096;
  uint64_t inode_count = 512;
  uint64_t journal_blocks = 128;

  /// Caps for bounded (smoke) runs; 0 = exhaustive over a baseline run's
  /// write count.
  uint64_t max_crash_points = 0;
  uint64_t max_write_injections = 0;
};

/// Crash + single-shot write-EIO sweep over the concurrent append
/// workload. This is what holds the group-commit engine to the serial
/// explorer's standard: N threads in flight, epochs collapsing their
/// fsyncs into one transaction, and a crash at every write index must
/// never lose an acked byte or corrupt the image. Read injection is not swept: the workload is write-dominated and
/// read order is schedule-dependent, so a read index does not name a
/// meaningful site.
Result<Report> explore_concurrent(const ConcurrentOptions& opts);

/// One persisted scenario: geometry + workload + a single fault. Reorder
/// faults (crashx-repro v2) additionally carry the materialization
/// schedule; all other kinds round-trip through the v1 format unchanged.
struct Repro {
  CrashxOptions opts;  // geometry/sync_every; caps ignored
  Fault fault;
  std::vector<uint32_t> schedule;  // kReorderAtFlush only
  std::vector<Op> ops;
};

std::string format_repro(const Repro& repro);
Result<Repro> parse_repro(const std::string& text);
Result<Repro> load_repro(const std::string& path);
Status save_repro(const Repro& repro, const std::string& path);

/// Re-run one scenario. Empty string = no divergence; otherwise the
/// divergence detail.
Result<std::string> replay(const Repro& repro);

/// Greedily minimize the op sequence -- and, for reorder repros, the
/// materialization schedule -- while the scenario still diverges. A repro
/// that does not diverge is returned unchanged.
Result<Repro> shrink(const Repro& repro);

}  // namespace crashx
}  // namespace raefs
